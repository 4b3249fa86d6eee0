"""The runtime needs numpy and the standard library only."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGE = Path(repro.__file__).resolve().parent
SETUP = PACKAGE.parents[1] / "setup.py"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "repro"}


def _imported_roots(path: Path):
    """``(line, top-level module)`` of every absolute import in a file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_under_src_is_stdlib_numpy_or_repro():
    outside = [
        f"{path.relative_to(PACKAGE.parent)}:{line}: {root}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for line, root in _imported_roots(path)
        if root not in ALLOWED
    ]
    assert outside == []


def test_install_requires_names_numpy_only():
    tree = ast.parse(SETUP.read_text(encoding="utf-8"))
    (requires,) = [
        keyword.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        for keyword in node.keywords
        if keyword.arg == "install_requires"
    ]
    assert ast.literal_eval(requires) == ["numpy>=1.24"]


_LOADED_BY_IMPORT = """
import json, sys
before = set(sys.modules)
import {module}
print(json.dumps({{
    name: getattr(sys.modules[name], "__file__", None)
    for name in set(sys.modules) - before
}}))
"""


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.mlops.serving"])
def test_import_loads_no_package_beyond_numpy(module):
    """What an entry point loads at run time, not just what it names.

    Modules Cython creates in memory for numpy's extensions have no file
    and are not a package anyone installs, so only file-backed modules
    are held to the allow-list.
    """
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_IMPORT.format(module=module)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    loaded = json.loads(result.stdout.strip().splitlines()[-1])
    outside = sorted(
        name for name, file in loaded.items()
        if file is not None and name.partition(".")[0] not in ALLOWED
    )
    assert module in loaded
    assert outside == []
