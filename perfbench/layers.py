"""Per-layer attribution for the traced run, measured from outside ``src/``.

Timing proxies wrap public objects and forward everything else untouched:

* the five feature extractors of each ``FeaturePipeline`` (both the replay
  kernel and the online serving path call their ``compute*`` methods);
* the model's ``fit`` and ``predict_proba``;
* ``OnlinePredictionService.ingest`` and ``complete``.

The existing spans of ``obs=Observability()`` supply the rest
(``fleet_replay.stage.*``, ``coordinator.*``, ``build_samples``).  Worker
processes of the coordinator cannot report through proxies, so
``sharded_replay`` takes its predict figures from the merged report instead.

``SHOULD_MOVE`` maps each per-layer metric to the end-to-end metric (and
workload) it should move; ``python3 perfbench/layers.py`` prints that map
with the units and directions from ``BENCHMARK.json``.
"""

from __future__ import annotations

import contextlib
import statistics
import time
from collections import defaultdict
from pathlib import Path

from gen_inputs import BENCHMARK

EXTRACTORS = ("temporal", "spatial", "bitlevel", "environment", "static")
STAGES = ("ingest", "features", "predict", "alarms")

_FEATURES = "fleet_replay events_per_s; serve serve.p99_ms"
_PREDICT = (
    "fleet_replay events_per_s; sharded_replay wall_s; "
    "serve serve.p99_ms and serve.capacity_rps"
)
_STUDY = "no gated metric: study pass of a traced fleet_replay run"
_STREAMING = "fleet_replay events_per_s"
_SHARDED = "sharded_replay wall_s and cpu_s"
_SERVE = "serve serve.p50_ms, serve.p99_ms and serve.capacity_rps"
_SETUP = "setup_s on every workload"

#: The end-to-end metric (and workload) each per-layer metric should move.
#: Names, units and better directions live in ``BENCHMARK.json`` only.
SHOULD_MOVE = {
    "simulator.simulate_s": _STUDY,
    "ml.fit_s": _STUDY,
    "ml.fit_trees": _STUDY,
    "evaluation.score_s": _STUDY,
    **{f"features.{name}_s": _FEATURES for name in EXTRACTORS},
    "features.build_samples_s": _STUDY,
    "features.samples": _STUDY,
    "ml.predict_s": _PREDICT,
    "ml.predict_calls": _PREDICT,
    "ml.predict_rows": _PREDICT,
    "ml.rows_per_call": _PREDICT,
    **{f"streaming.{stage}_s": _STREAMING for stage in STAGES},
    "streaming.batches": _STREAMING,
    "streaming.scored": _STREAMING,
    "streaming.fallbacks": _STREAMING,
    "fleetops.merge_stream_s": "fleet_replay wall_s",
    "fleetops.actions_requested": "fleet_replay wall_s",
    "fleetops.actions_executed": "fleet_replay wall_s",
    "fleetops.executed_fraction": "fleet_replay wall_s",
    "distributed.shard_write_s": _SHARDED,
    "distributed.fanout_s": _SHARDED,
    "distributed.merge_s": _SHARDED,
    "distributed.shard_bytes": _SHARDED,
    "distributed.partition_skew": _SHARDED,
    "telemetry.load_s": _SETUP,
    "features.fit_s": _SETUP,
    "serve.ingest_s": _SERVE,
    "serve.complete_s": _SERVE,
    "serve.batches": _SERVE,
    "serve.mean_batch": _SERVE,
    "serve.scored": _SERVE,
    "serve.skipped": _SERVE,
    "serve.shed": _SERVE,
    "serve.fallbacks": _SERVE,
    "serve.service_p99_ms": _SERVE,
    "serve.generator_lag_ms": _SERVE,
    "serve.p50_ms": "end-to-end latency of serve",
    "serve.p99_ms": "end-to-end latency of serve",
    "serve.capacity_rps": "serve events_per_s",
    "obs.trace_overhead_fraction": "none: tracing cost",
    "f1": "none: study and replay quality",
    "virr": "none: replay quality",
    "failed_fraction": "none: correctness",
}
PER_LAYER = tuple(metric["name"] for metric in BENCHMARK["per_layer"])

#: Metrics taken from the plain (untraced) repeats of a traced run.
_FROM_PLAIN = ("serve.capacity_rps",)


class _Forward:
    """Forwards every attribute read and write to ``target``."""

    def __init__(self, target, clock):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_clock", clock)

    def __getattr__(self, name):
        return getattr(self._target, name)

    def __setattr__(self, name, value):
        setattr(self._target, name, value)


class _Timed(_Forward):
    """Times calls to the target's methods named ``prefix*`` into ``key``."""

    def __init__(self, target, clock, key: str, prefix: str):
        super().__init__(target, clock)
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_prefix", prefix)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if not name.startswith(self._prefix) or not callable(value):
            return value
        values, key = self._clock.values, self._key

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return value(*args, **kwargs)
            finally:
                values[key] += time.perf_counter() - t0

        return timed


class _TimedModel(_Forward):
    """Times ``fit`` and ``predict_proba``; counts trees, calls and rows."""

    def fit(self, X, y, **kwargs):
        t0 = time.perf_counter()
        self._target.fit(X, y, **kwargs)
        values = self._clock.values
        values["ml.fit_s"] += time.perf_counter() - t0
        values["ml.fit_trees"] += self._target.best_iteration_
        return self

    def predict_proba(self, X):
        t0 = time.perf_counter()
        scores = self._target.predict_proba(X)
        values = self._clock.values
        values["ml.predict_s"] += time.perf_counter() - t0
        values["ml.predict_calls"] += 1
        values["ml.predict_rows"] += len(X)
        return scores


class Clock:
    """Accumulates one traced repeat's proxy timings and counts."""

    def __init__(self):
        self.values = defaultdict(float)

    def model(self, model):
        return _TimedModel(model, self)

    def service(self, service):
        timed = _Timed(service, self, "serve.ingest_s", "ingest")
        return _Timed(timed, self, "serve.complete_s", "complete")

    def snapshot(self) -> dict:
        values = dict(self.values)
        calls = values.get("ml.predict_calls", 0)
        if calls:
            values["ml.rows_per_call"] = values["ml.predict_rows"] / calls
        return values


@contextlib.contextmanager
def proxied_extractors(inputs, clock):
    """Swap each pipeline's extractors for timing proxies, then restore."""
    if clock is None:
        yield
        return
    originals = []
    for assignment in inputs.assignments.values():
        pipeline = assignment.pipeline
        for name in EXTRACTORS:
            extractor = getattr(pipeline, name)
            originals.append((pipeline, name, extractor))
            setattr(
                pipeline,
                name,
                _Timed(extractor, clock, f"features.{name}_s", "compute"),
            )
    try:
        yield
    finally:
        for pipeline, name, extractor in originals:
            setattr(pipeline, name, extractor)


def _span_seconds(obs) -> dict:
    """Total wall seconds per span name over the whole (grafted) tree."""
    totals = defaultdict(float)

    def walk(spans):
        for span in spans:
            totals[span["name"]] += span["wall_seconds"]
            walk(span["children"])

    walk(obs.tracer.tree())
    return totals


def _streaming(report, spans) -> dict:
    values = {
        f"streaming.{stage}_s": spans.get(f"fleet_replay.stage.{stage}", 0.0)
        for stage in STAGES
    }
    values["streaming.batches"] = sum(
        platform["batches"] for platform in report.platforms.values()
    )
    values["streaming.scored"] = report.scored
    values["streaming.fallbacks"] = report.health.get("fallback_scores", 0)
    return values


def fleet_layers(report, obs, merge_s: float) -> dict:
    values = _streaming(report, _span_seconds(obs))
    actions = report.actions
    values["fleetops.merge_stream_s"] = merge_s
    values["fleetops.actions_requested"] = actions["requested"]
    values["fleetops.actions_executed"] = actions["executed"]
    values["fleetops.executed_fraction"] = (
        actions["executed"] / actions["requested"]
        if actions["requested"]
        else 0.0
    )
    return values


def sharded_layers(report, obs, shard_dir: Path) -> dict:
    spans = _span_seconds(obs)
    values = _streaming(report, spans)
    for name in ("shard_write", "fanout", "merge"):
        values[f"distributed.{name}_s"] = spans.get(f"coordinator.{name}", 0.0)
    values["distributed.shard_bytes"] = sum(
        path.stat().st_size for path in shard_dir.rglob("*") if path.is_file()
    )
    events = report.distributed["partition_events"]
    values["distributed.partition_skew"] = (
        max(events) / statistics.mean(events)
    )
    # Workers run their own engines: predict work comes from their reports.
    values["ml.predict_s"] = report.predict_seconds
    values["ml.predict_calls"] = values["streaming.batches"]
    values["ml.predict_rows"] = report.scored
    if values["ml.predict_calls"]:
        values["ml.rows_per_call"] = report.scored / values["ml.predict_calls"]
    return values


def study_layers(run_s: float, simulate_s: float, obs, samples: int,
                 cells: list, clock) -> dict:
    """``run_s`` is ``run_spec``'s wall time; what build_samples and the
    fits leave of it is scoring, operating points and metrics."""
    build_s = _span_seconds(obs).get("build_samples", 0.0)
    return {
        "simulator.simulate_s": simulate_s,
        "features.build_samples_s": build_s,
        "features.samples": samples,
        "evaluation.score_s": run_s - build_s - clock.values["ml.fit_s"],
        "f1": statistics.mean(cell.result.f1 for cell in cells),
    }


def serve_layers(stats: dict) -> dict:
    return {
        "serve.batches": stats["batches"],
        "serve.mean_batch": stats["mean_batch"],
        "serve.scored": stats["scored"],
        "serve.skipped": stats["skipped"],
        "serve.shed": stats["shed"],
        "serve.fallbacks": stats["fallbacks"],
        "serve.service_p99_ms": stats["p99_ms"],
    }


def per_layer_metrics(setups, plain, traced, failed_fraction) -> dict:
    """Medians of every per-layer metric; 0 where the layer does no work."""
    median = statistics.median
    plain_wall = median(rep["wall_s"] for rep in plain)
    traced_wall = median(rep["wall_s"] for rep in traced)
    metrics = {}
    for name in PER_LAYER:
        source = plain if name in _FROM_PLAIN else traced
        metrics[name] = float(
            median(rep["values"].get(name, 0.0) for rep in source)
        )
    for name in ("telemetry.load_s", "features.fit_s"):
        metrics[name] = median(setup[name] for setup in setups)
    metrics["obs.trace_overhead_fraction"] = (
        traced_wall - plain_wall
    ) / plain_wall
    metrics["failed_fraction"] = failed_fraction
    return metrics


if __name__ == "__main__":
    for metric in BENCHMARK["per_layer"]:
        print(
            f"{metric['name']:32} {metric['unit']:8} {metric['better']:7}"
            f"{SHOULD_MOVE[metric['name']]}"
        )
