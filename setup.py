"""Setuptools entry point: the one list of the package's dependencies.

Runtime requirements sit in ``install_requires`` and the test tools in the
``dev`` extra; CI installs both with ``pip install -e ".[dev]"``.  There is
no ``pyproject.toml``: a plain ``setup.py`` keeps ``pip install -e .``
working offline with setuptools that predates PEP 660 editable wheels.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Cross-architecture DRAM failure prediction: reproduction of "
        "'Investigating Memory Failure Prediction Across CPU Architectures' "
        "(DSN 2024)"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=["numpy>=1.24"],
    extras_require={"dev": ["pytest>=7", "pytest-benchmark>=4", "hypothesis>=6"]},
)
