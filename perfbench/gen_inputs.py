"""Seeded input generator for the benchmark.

Inputs live under ``<checkout>/.bench_build/perfbench/`` and are never
committed.  Every directory name ends in :func:`source_digest`, a digest of
the program sources and of this directory's modules, so a checkout that
changes its sources regenerates the models, populations and reference
digests instead of reusing another version's.  Two parts are made once per
source tree and do not depend on ``--seed``:

* ``models-*/`` — one production ``lightgbm`` model per platform, fitted on
  a training campaign (``TRAIN_SEED``) with the recipe and serving-threshold
  calibration of the ``fleet_ops`` scenario, saved with
  :func:`repro.ml.model_io.save_gbdt`;
* ``population-*/`` — a simulated serving population per platform
  (``POPULATION_SEED``, a different fleet from the training one).

``seed-<n>-*/`` holds what the seed makes: for every platform the
population's servers less a seeded random few (:func:`sample_servers`,
with all their DIMMs and records), saved with :meth:`LogStore.dump_jsonl`, plus one reference digest
per workload (``ref-<workload>.json``) computed from the reloaded inputs
with the reference path that workload is checked against.

Why a sample of one population instead of an independent campaign per
seed: replay work is set by a few heavy DIMMs, so independent campaigns of
this size differ by about 20% in replay time from seed to seed, which
would hide any change within the benchmark's bounds.  Dropping servers
still gives every seed its own fleet.  The study pass of a traced run
simulates the population seed itself, at ``STUDY_SCALE``, and keeps the
seed's servers with the same :func:`sample_servers`.

Each directory is written under a temporary name and renamed into place,
so a killed run never leaves half-written inputs behind.

Usage::

    python3 perfbench/gen_inputs.py --seed 3 --workload fleet_replay
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import random
import shutil
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build" / "perfbench"
#: ``BENCHMARK.json``: the workload and metric catalogue every module reads.
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = tuple(workload["name"] for workload in BENCHMARK["workloads"])

PLATFORMS = ("intel_purley", "intel_whitley", "k920")
SERVE_PLATFORM = "intel_purley"
HOURS = 2880.0
TRAIN_SEED = 7
TRAIN_SCALE = 0.25
POPULATION_SEED = 11
POPULATION_SCALE = 0.2
#: A seed drops one random server from every ``STRATUM`` servers of a
#: platform ranked by record count, except the heaviest ``STRATUM``.
STRATUM = 10
#: The study pass simulates the population's seed at this smaller scale
#: (~3 s for the three platforms on a 2-core machine).
STUDY_SCALE = 0.1
#: Records the ``serve`` workload submits, from the head of the purley
#: stream.  A closed-loop repeat submits all 3500 (~1.9 s on a 2-core
#: machine); its serial ``observe()`` reference takes ~24 s per seed, which
#: bounds the count.  The open-loop passes of a traced run submit the
#: first 500: 2 s at the open-loop rate and ~400 CEs, so the p99 pooled
#: over three passes has more than ten samples beyond it.
SERVE_RECORDS = 3500
SERVE_OPEN_RECORDS = 500


@functools.lru_cache(maxsize=None)
def source_digest() -> str:
    """Digest of ``src/`` and of this directory's Python modules."""
    tree = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            tree.update(str(path.relative_to(ROOT)).encode())
            tree.update(path.read_bytes())
    return tree.hexdigest()[:16]


def models_dir() -> Path:
    return BUILD / f"models-{source_digest()}"


def population_dir() -> Path:
    return BUILD / f"population-{source_digest()}"


def seed_dir(seed: int) -> Path:
    return BUILD / f"seed-{seed}-{source_digest()}"


def digest(payload) -> str:
    """Stable sha256 of a JSON-serialisable payload."""
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def spec(seed: int, scale: float):
    from repro.experiments.spec import RunSpec

    return RunSpec(
        scenario="fleet_ops",
        platforms=PLATFORMS,
        models=("lightgbm",),
        scale=scale,
        hours=HOURS,
        seed=seed,
    )


def _fresh(final: Path) -> Path:
    tmp = final.with_name(final.name + ".tmp")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    return tmp


def _publish(tmp: Path, final: Path, meta: dict) -> None:
    (tmp / "meta.json").write_text(json.dumps(meta, indent=1), "utf-8")
    if final.exists():
        shutil.rmtree(tmp)
        return
    tmp.rename(final)


def ensure_models() -> Path:
    """Fit and save the per-platform production models."""
    final = models_dir()
    if (final / "meta.json").exists():
        return final
    from repro.experiments.runner import RunContext
    from repro.fleetops.scenario import (
        build_serving_assignments,
        resolve_assignments,
    )
    from repro.ml.model_io import save_gbdt

    training = spec(TRAIN_SEED, TRAIN_SCALE)
    _, assignments, _, _ = build_serving_assignments(
        RunContext(training), resolve_assignments(training)
    )
    tmp = _fresh(final)
    thresholds = {}
    for platform, assignment in assignments.items():
        save_gbdt(assignment.model, tmp / f"model-{platform}.json")
        thresholds[platform] = float(assignment.threshold)
    _publish(tmp, final, {"thresholds": thresholds})
    return final


def ensure_population() -> Path:
    """Simulate and save the serving population of every platform."""
    final = population_dir()
    if (final / "meta.json").exists():
        return final
    from repro.experiments.runner import RunContext

    context = RunContext(spec(POPULATION_SEED, POPULATION_SCALE))
    tmp = _fresh(final)
    for platform in PLATFORMS:
        context.simulation(platform).store.dump_jsonl(
            tmp / f"campaign-{platform}.jsonl"
        )
    sampling = context.protocol.sampling
    _publish(tmp, final, {"live_from_hour": sampling.train_fraction * HOURS})
    return final


def sample_servers(seed: int, platform: str, owners) -> set:
    """The servers a seed keeps; ``owners`` names each record's server.

    Servers are ranked by record count and cut into strata of ``STRATUM``.
    The heaviest stratum is kept whole and every other full stratum loses
    one random server, so each seed keeps about 90% of the servers and
    nearly the same work: a few heavy servers set most of the replay time,
    and a plain random 90% made it vary by ~15% from seed to seed.
    """
    counts = Counter(owners)
    ranked = sorted(counts, key=lambda server: (-counts[server], server))
    rng = random.Random(f"{seed}/{platform}")
    keep = set(ranked)
    for start in range(STRATUM, len(ranked) - STRATUM + 1, STRATUM):
        keep.discard(rng.choice(ranked[start : start + STRATUM]))
    return keep


def ensure_campaign(seed: int) -> Path:
    """Save the seed's sample of the population's servers."""
    final = seed_dir(seed)
    if (final / "meta.json").exists():
        return final
    population = ensure_population()
    tmp = _fresh(final)
    servers = {}
    for platform in PLATFORMS:
        name = f"campaign-{platform}.jsonl"
        lines = (population / name).read_text("utf-8").splitlines()
        owners = [json.loads(line)["server_id"] for line in lines]
        keep = sample_servers(seed, platform, owners)
        kept = [line for line, owner in zip(lines, owners) if owner in keep]
        (tmp / name).write_text("\n".join(kept) + "\n", "utf-8")
        servers[platform] = len(keep)
    meta = json.loads((population / "meta.json").read_text("utf-8"))
    _publish(tmp, final, dict(meta, seed=seed, servers=servers))
    return final


def ensure_reference(seed: int, workload: str) -> Path:
    path = seed_dir(seed) / f"ref-{workload}.json"
    if path.exists():
        return path
    import workloads

    inputs = workloads.load_inputs(seed)
    payload = workloads.REFERENCES[workload](inputs)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1), "utf-8")
    tmp.rename(path)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    args = parser.parse_args(argv)
    ensure_models()
    ensure_campaign(args.seed)
    ensure_reference(args.seed, args.workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
