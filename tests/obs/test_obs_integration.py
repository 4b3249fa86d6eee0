"""Observability across the stack: parity, span shape, instrument wiring."""

import numpy as np
import pytest

from repro.chaos.quarantine import quarantine_columns
from repro.distributed.service import ServiceStats
from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import PolicyEngine
from repro.fleetops.stream import merge_fleet_streams
from repro.obs import (
    Observability,
    parse_prometheus,
    payload_from_jsonl,
    payload_to_jsonl,
    to_prometheus,
)
from repro.streaming.bus import EventBus
from repro.streaming.replay import ReplayEngine
from repro.telemetry.log_store import LogStore


class _EchoModel:
    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


@pytest.fixture(scope="module")
def fleet_pipelines(tiny_study):
    pipelines = {}
    for name, simulation in tiny_study.items():
        pipeline = FeaturePipeline()
        pipeline.fit(simulation.store)
        pipelines[name] = pipeline
    return pipelines


@pytest.fixture(scope="module")
def purley(tiny_study, fleet_pipelines):
    return tiny_study["intel_purley"], fleet_pipelines["intel_purley"]


def _replay(simulation, pipeline, obs=None):
    engine = ReplayEngine(
        pipeline,
        _EchoModel(),
        0.985,
        "intel_purley",
        configs=simulation.store.configs,
        labeling=LabelingParams(),
        bus=EventBus(),
        rescore_interval_hours=0.0,
        batch_size=64,
        collect_scores=True,
        obs=obs,
    )
    report = engine.replay(simulation.store, model_name="echo")
    return engine, report


class TestReplayParity:
    def test_instrumentation_is_bit_identical(self, purley):
        """The whole point: obs on vs off changes NOTHING observable."""
        simulation, pipeline = purley
        plain_engine, plain = _replay(simulation, pipeline)
        obs_engine, instrumented = _replay(
            simulation, pipeline, obs=Observability()
        )
        assert plain_engine.score_log == obs_engine.score_log
        assert plain.alarms == instrumented.alarms
        assert plain.bus_counts == instrumented.bus_counts
        assert plain.events == instrumented.events
        assert plain.scored == instrumented.scored
        assert plain.health == instrumented.health

    def test_registry_mirrors_the_report(self, purley):
        simulation, pipeline = purley
        obs = Observability()
        _, report = _replay(simulation, pipeline, obs=obs)
        snapshot = obs.metrics.snapshot()

        def value(name, **extra):
            labels = {
                "platform": "intel_purley", "model": "echo",
                "engine": "batched", **extra,
            }
            for sample in snapshot[name]["samples"]:
                if sample["labels"] == labels:
                    return sample["value"]
            raise AssertionError(f"no sample {labels} in {name}")

        assert value("repro_replay_events_total") == report.events
        assert value("repro_replay_scored_total") == report.scored
        assert value("repro_replay_batches_total") == report.batches
        for disposition in ("raised", "suppressed", "tp", "fp"):
            assert value(
                "repro_alarms_total", disposition=disposition
            ) == report.alarms[disposition]
        stage_total = sum(
            sample["value"]
            for sample in snapshot["repro_replay_stage_seconds_total"][
                "samples"
            ]
        )
        assert stage_total == pytest.approx(
            sum(report.stage_seconds.values())
        )

    def test_span_tree_shape_is_deterministic(self, purley):
        simulation, pipeline = purley
        obs = Observability()
        _replay(simulation, pipeline, obs=obs)
        (root,) = obs.tracer.tree()
        assert root["name"] == "fleet_replay"
        assert root["attributes"]["platforms"] == "intel_purley"
        assert root["attributes"]["halted"] is False
        names = [child["name"] for child in root["children"]]
        assert names == [
            "fleet_replay.quarantine",
            "fleet_replay.kernel_build",
            "fleet_replay.finalize",
            "fleet_replay.stage.alarms",
            "fleet_replay.stage.features",
            "fleet_replay.stage.ingest",
            "fleet_replay.stage.predict",
        ]
        # a second identical run produces the identical shape
        second = Observability()
        _replay(simulation, pipeline, obs=second)
        strip = lambda t: [  # noqa: E731
            (s["name"], strip(s["children"])) for s in t
        ]
        assert strip(second.tracer.tree()) == strip(obs.tracer.tree())

    def test_prometheus_export_of_a_real_run_parses(self, purley):
        simulation, pipeline = purley
        obs = Observability()
        _replay(simulation, pipeline, obs=obs)
        parsed = parse_prometheus(to_prometheus(obs))
        assert parsed["types"]["repro_replay_events_total"] == "counter"
        assert parsed["types"]["repro_alarm_quality"] == "gauge"


def _fleet_replay(tiny_study, pipelines, engine, obs=None, heartbeat_every=0):
    stores = {name: sim.store for name, sim in tiny_study.items()}
    assignments = {
        name: ServingAssignment(
            platform=name,
            model_name="echo",
            train_platform=name,
            model=_EchoModel(),
            threshold=0.985,
            pipeline=pipelines[name],
            configs=simulation.store.configs,
            live_from_hour=0.6 * simulation.duration_hours,
        )
        for name, simulation in tiny_study.items()
    }
    fleet = FleetReplayEngine(
        assignments,
        labeling=LabelingParams(),
        policy=PolicyEngine(seed=7),
        rescore_interval_hours=0.0,
        batch_size=64,
        engine=engine,
        collect_scores=True,
        obs=obs,
        heartbeat_every=heartbeat_every,
    )
    stream = merge_fleet_streams(
        stores, decode_payloads=(engine == "per_event")
    )
    return fleet, fleet.replay(stream, stores)


class TestFleetReplayParity:
    @pytest.mark.parametrize("engine", ["batched", "per_event"])
    def test_instrumented_fleet_run_is_bit_identical(
        self, tiny_study, fleet_pipelines, engine
    ):
        """Three platforms, policy and cost: obs and heartbeats on vs
        off leave every score, alarm, bus count, cost and action alone,
        and the run's dump round-trips its spans and samples."""
        plain_engine, plain = _fleet_replay(
            tiny_study, fleet_pipelines, engine
        )
        obs = Observability()
        obs_engine, instrumented = _fleet_replay(
            tiny_study, fleet_pipelines, engine, obs=obs, heartbeat_every=200
        )
        for name in tiny_study:
            assert plain_engine.score_logs[name]
            assert plain_engine.score_logs[name] == obs_engine.score_logs[name]
            assert (
                plain.platforms[name]["alarms"]
                == instrumented.platforms[name]["alarms"]
            )
        assert plain.bus_counts == instrumented.bus_counts
        assert plain.costs == instrumented.costs
        assert plain.fleet_cost == instrumented.fleet_cost
        assert plain.actions == instrumented.actions

        payload = obs.payload()
        assert payload["metrics"]["repro_heartbeats_total"]["samples"]
        rebuilt = payload_from_jsonl(payload_to_jsonl(obs))
        assert rebuilt["spans"] == payload["spans"]
        for name, family in payload["metrics"].items():
            assert rebuilt["metrics"][name]["type"] == family["type"]
            assert rebuilt["metrics"][name]["samples"] == family["samples"]
        assert "fleet_replay" in [span["name"] for span in payload["spans"]]


class TestServiceStats:
    def test_empty_run_has_finite_percentiles(self):
        summary = ServiceStats().summary()
        assert summary["p50_ms"] == 0.0
        assert summary["p95_ms"] == 0.0
        assert summary["p99_ms"] == 0.0
        assert summary["throughput_rps"] == 0.0
        assert summary["mean_batch"] == 0.0

    def test_single_sample_percentiles_are_that_sample(self):
        stats = ServiceStats(latencies=[0.004])
        summary = stats.summary()
        assert summary["p50_ms"] == pytest.approx(4.0)
        assert summary["p95_ms"] == pytest.approx(4.0)
        assert summary["p99_ms"] == pytest.approx(4.0)

    def test_stats_land_in_the_registry(self):
        obs = Observability()
        stats = ServiceStats(
            submitted=5, answered=5, scored=4, skipped=1,
            batches=2, latencies=[0.001, 0.002], batch_sizes=[2, 2],
            wall_seconds=0.5,
        )
        obs.record_service_stats(stats)
        snapshot = obs.metrics.snapshot()
        outcomes = {
            sample["labels"]["outcome"]: sample["value"]
            for sample in snapshot["repro_serve_requests_total"]["samples"]
        }
        assert outcomes["scored"] == 4
        assert outcomes["skipped"] == 1
        (batch_sample,) = snapshot["repro_serve_batch_size"]["samples"]
        assert batch_sample["count"] == 2


class TestLedgerCounters:
    def test_logstore_skipped_lines_counter(self, tmp_path):
        obs = Observability()
        path = tmp_path / "logs.jsonl"
        path.write_text(
            '{"kind": "nonsense"}\nnot json at all\n', encoding="utf-8"
        )
        with pytest.warns(RuntimeWarning, match="skipped 2 malformed"):
            store = LogStore.load_jsonl(path, metrics=obs.metrics)
        assert store.skipped_lines == 2
        (sample,) = obs.metrics.snapshot()[
            "repro_logstore_skipped_lines_total"
        ]["samples"]
        assert sample["labels"] == {"source": "logs.jsonl"}
        assert sample["value"] == 2.0

    def test_quarantine_reject_reasons_counter(self, purley):
        simulation, _ = purley
        obs = Observability()
        columns, report = quarantine_columns(
            simulation.store.columns,
            metrics=obs.metrics,
            platform="intel_purley",
        )
        snapshot = obs.metrics.snapshot()
        by_reason = {
            sample["labels"]["reason"]: sample["value"]
            for sample in snapshot["repro_quarantine_rejects_total"][
                "samples"
            ]
        }
        # the clean fixture rejects nothing, but every reason reports
        assert set(by_reason) == {
            "bad_timestamp", "bad_coordinate", "bad_count", "bad_event_kind",
        }
        assert sum(by_reason.values()) == report.total
