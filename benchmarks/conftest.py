"""Shared benchmark fixtures.

Two cached studies: ``paper_study`` (full paper-shape scale) drives the
fault-analysis artifacts (Table I, Figures 4-5, findings); ``ml_study``
(half scale) drives the ML harnesses, which train four algorithms per
platform.  Rendered artifacts are written to ``benchmarks/results/``.
"""

from __future__ import annotations

import time
from pathlib import Path

import pytest

from repro.evaluation.protocol import ExperimentProtocol
from repro.features.sampling import SamplingParams
from repro.simulator import simulate_study

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_DIR.mkdir(exist_ok=True)

SEED = 7


def pytest_addoption(parser):
    parser.addoption(
        "--bench-scale",
        type=float,
        default=1.0,
        help="fleet simulation scale for the --fleet-ops/--distributed/"
        "--observability benchmarks (1.0 = paper shape; CI uses a smaller "
        "smoke scale)",
    )
    parser.addoption(
        "--fleet-ops",
        action="store_true",
        default=False,
        help="run the fleet-operations benchmark (writes fleet_ops*.json)",
    )
    parser.addoption(
        "--distributed",
        action="store_true",
        default=False,
        help="run the distributed-tier benchmark (writes "
        "distributed*.json)",
    )
    parser.addoption(
        "--observability",
        action="store_true",
        default=False,
        help="run the observability-overhead benchmark (writes "
        "observability*.json)",
    )


def write_result(name: str, content: str) -> None:
    (RESULTS_DIR / name).write_text(content + "\n", encoding="utf-8")
    print("\n" + content)


def best_of(n_rounds: int, fn):
    """Best-of-N wall-clock timing (the min damps scheduler noise)."""
    best, result = float("inf"), None
    for _ in range(n_rounds):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="session")
def paper_study():
    """Paper-shape fleet: the analysis artifacts are computed on this."""
    return simulate_study(scale=1.0, seed=SEED, duration_hours=2880.0)


@pytest.fixture(scope="session")
def paper_stores(paper_study):
    return {name: sim.store for name, sim in paper_study.items()}


@pytest.fixture(scope="session")
def ml_protocol():
    return ExperimentProtocol(
        scale=0.5,
        duration_hours=2880.0,
        seed=SEED,
        sampling=SamplingParams(max_samples_per_dimm=20),
    )


@pytest.fixture(scope="session")
def ml_study(ml_protocol):
    return simulate_study(
        scale=ml_protocol.scale, seed=SEED, duration_hours=ml_protocol.duration_hours
    )
