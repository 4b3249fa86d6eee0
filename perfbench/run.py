"""Benchmark entry point: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload fleet_replay --seed 3 --seconds 6 \
        --trace 0

Run from the root of a checkout.  The steps, each in its own process:

1. ``gen_inputs.py`` makes the seed's inputs and the workload's reference
   digest under ``.bench_build/perfbench/`` (skipped when already there);
2. ``workloads.py`` sets up, repeats the workload for ``--seconds`` and
   checks every repeat against the reference.

Earlier stdout lines carry the raw per-repeat samples and a machine
fingerprint; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer ones (``layers.py``).
BLAS/OpenMP pools are pinned to one thread, so the coordinator's worker
count is the only parallelism.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

from gen_inputs import BENCHMARK, BUILD, ROOT, WORKLOADS, source_digest

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
UNITS = {
    metric["name"]: metric["unit"]
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
}
#: Every step of a run must finish within this many seconds in total.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


class StepFailed(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(BUILD / "tmp"))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _step(args: list, deadline: float) -> str:
    """Run one step in its own process group; return its stdout."""
    process = subprocess.Popen(
        [sys.executable, *map(str, args)],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = process.communicate(timeout=max(deadline - time.time(), 1))
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise StepFailed(f"{Path(args[0]).name} timed out") from None
    finally:
        # Reap anything the step left behind in its group (pool workers).
        try:
            os.killpg(process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if process.returncode != 0:
        raise StepFailed(
            f"{Path(args[0]).name} exited with {process.returncode}"
        )
    return out


def fingerprint() -> dict:
    """Commit (when the checkout is a git work tree), the digest that names
    the input cache, nproc, Python and numpy versions."""
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True,
        )
        commit = git.stdout.strip() or None
    import numpy

    return {
        "commit": commit,
        "source_digest": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one benchmark workload")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through _step's clean-up of its process group.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    deadline = time.time() + DEADLINE_S
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    try:
        _step(
            [HERE / "gen_inputs.py", "--seed", args.seed,
             "--workload", args.workload],
            deadline,
        )
        out = _step(
            [HERE / "workloads.py", "--workload", args.workload,
             "--seed", args.seed, "--seconds", args.seconds,
             "--trace", args.trace],
            deadline,
        )
    except StepFailed as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    result = json.loads(out.strip().splitlines()[-1])
    detail = dict(result.pop("detail"), fingerprint=fingerprint())
    print(json.dumps({"detail": detail}))
    result["metrics"] = {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in result["metrics"].items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
