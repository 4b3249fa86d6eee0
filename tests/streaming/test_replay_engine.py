"""Replay engine: columnar stream merge, micro-batching, scenario wiring."""

import numpy as np
import pytest

from repro.experiments.cache import ArtifactCache
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import RunSpec
from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.streaming.bus import EventBus
from repro.streaming.replay import ReplayEngine
from repro.telemetry.log_store import iter_stream
from repro.telemetry.records import CERecord, MemEventRecord, UERecord


class _EchoModel:
    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


@pytest.fixture(scope="module")
def purley(tiny_study):
    simulation = tiny_study["intel_purley"]
    pipeline = FeaturePipeline()
    pipeline.fit(simulation.store)
    return simulation, pipeline


def _engine(simulation, pipeline, **kwargs):
    defaults = dict(
        configs=simulation.store.configs,
        labeling=LabelingParams(),
        bus=EventBus(),
        rescore_interval_hours=0.0,
        batch_size=64,
    )
    defaults.update(kwargs)
    return ReplayEngine(
        pipeline, _EchoModel(), 0.985, "intel_purley", **defaults
    )


class _ZeroModel:
    """Never alarms, so no incident blocks scoring on either path."""

    def predict_proba(self, X):
        return np.zeros(np.asarray(X).shape[0])


def _observe_scored(simulation, pipeline) -> int:
    """CEs the serial ``observe()`` loop scores with no rescore throttle."""
    registry = ModelRegistry()
    version = registry.register(
        "intel_purley", "zero", _ZeroModel(), threshold=0.985,
        metrics={"f1": 0.9},
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    service = OnlinePredictionService(
        FeatureStore(pipeline), registry, AlarmSystem(), "intel_purley",
        rescore_interval_hours=0.0,
    )
    for dimm_id, config in simulation.store.configs.items():
        service.register_config(dimm_id, config)
    for record in iter_stream(simulation.store):
        assert service.observe(record) is None
    return service.scored


class TestReplayEngine:
    @pytest.mark.parametrize("replay_engine", ["batched", "per_event"])
    def test_unthrottled_replay_scores_what_observe_scores(
        self, purley, replay_engine
    ):
        simulation, pipeline = purley
        store = simulation.store
        report = ReplayEngine(
            pipeline, _ZeroModel(), 0.985, "intel_purley",
            configs=store.configs, rescore_interval_hours=0.0,
            batch_size=64, engine=replay_engine,
        ).replay(store)
        assert report.events == len(list(iter_stream(store)))
        assert report.scored == _observe_scored(simulation, pipeline) > 0

    def test_replay_counts_every_record_and_is_parity_clean(self, purley):
        simulation, pipeline = purley
        store = simulation.store
        engine = _engine(simulation, pipeline, verify_parity=True)
        report = engine.replay(store, model_name="echo")
        assert report.events == len(store)
        assert report.ces == len(store.ces)
        assert report.ues == len(store.ues)
        assert report.mem_events == len(store.events)
        assert report.scored > 0
        assert report.batches >= 1
        assert report.seconds > 0
        assert report.events_per_second > 0
        assert report.fallbacks == 0
        assert report.parity == {"checked": report.scored, "mismatches": 0}

    def test_replay_is_deterministic(self, purley):
        simulation, pipeline = purley
        first = _engine(simulation, pipeline).replay(simulation.store)
        second = _engine(simulation, pipeline).replay(simulation.store)
        assert first.alarms == second.alarms
        assert first.scored == second.scored

    def test_batch_size_does_not_change_incidents(self, purley):
        """Micro-batching never changes the incident set or its metrics.

        Only the bookkeeping of *redundant* scores moves: with a large
        batch, a DIMM's queued scores behind a fresh incident surface as
        suppressed alarms instead of being skipped before scoring.
        """
        simulation, pipeline = purley
        small_engine = _engine(simulation, pipeline, batch_size=1)
        small = small_engine.replay(simulation.store)
        large_engine = _engine(simulation, pipeline, batch_size=4096)
        large = large_engine.replay(simulation.store)

        def incident_keys(engine):
            return [
                (incident.dimm_id, incident.opened_hour, incident.score,
                 incident.status)
                for incident in engine.alarms.incidents
            ]

        assert incident_keys(small_engine) == incident_keys(large_engine)
        invariant = lambda summary: {  # noqa: E731
            key: value
            for key, value in summary.items()
            if key != "suppressed"
        }
        assert invariant(small.alarms) == invariant(large.alarms)
        assert large.scored >= small.scored > 0

    def test_bus_carries_lifecycle_outcomes(self, purley):
        simulation, pipeline = purley
        bus = EventBus()
        seen = []
        bus.subscribe("alarm.raised", lambda topic, inc: seen.append(inc))
        engine = _engine(simulation, pipeline, bus=bus)
        report = engine.replay(simulation.store)
        assert len(seen) == report.alarms["raised"]
        assert report.bus_counts.get("alarm.raised", 0) == len(seen)

    def test_live_from_hour_gates_scoring(self, purley):
        simulation, pipeline = purley
        split = simulation.duration_hours * 0.6
        engine = _engine(simulation, pipeline, live_from_hour=split)
        live = engine.replay(simulation.store)
        full = _engine(simulation, pipeline).replay(simulation.store)
        assert 0 < live.scored < full.scored
        # every incident opened in the live window
        assert engine.alarms.incidents, "expected at least one incident"
        assert all(
            incident.opened_hour >= split
            for incident in engine.alarms.incidents
        )

    def test_rescore_interval_thins_scoring(self, purley):
        simulation, pipeline = purley
        dense = _engine(simulation, pipeline).replay(simulation.store)
        sparse = _engine(
            simulation, pipeline, rescore_interval_hours=24.0
        ).replay(simulation.store)
        assert sparse.scored < dense.scored

    def test_stream_order_matches_iter_stream(self, purley):
        """The columnar merge preserves iter_stream's tie order."""
        from repro.telemetry.log_store import iter_stream
        from repro.telemetry.columnar import CE_T, EV_T, UE_T

        simulation, _ = purley
        store = simulation.store
        columns = store.columns
        ce = columns.ces.rows()
        ue = columns.ues.rows()
        ev = columns.events.rows()
        n_ce, n_ue = len(ce), len(ue)
        times = np.concatenate([ce[:, CE_T], ue[:, UE_T], ev[:, EV_T]])
        tags = np.empty(times.size, dtype=np.int8)
        tags[:n_ce] = 0
        tags[n_ce:n_ce + n_ue] = 1
        tags[n_ce + n_ue:] = 2
        order = np.lexsort((tags, times))
        merged = [(float(times[i]), int(tags[i])) for i in order]
        kind_tag = {CERecord: 0, UERecord: 1, MemEventRecord: 2}
        expected = [
            (record.timestamp_hours, kind_tag[type(record)])
            for record in iter_stream(store)
        ]
        assert merged == expected


class TestStreamingScenario:
    @pytest.fixture(scope="class")
    def result(self, tiny_study, tiny_protocol):
        spec = RunSpec(
            scenario="streaming_replay",
            platforms=("intel_purley",),
            models=("lightgbm",),
            scale=tiny_protocol.scale,
            hours=tiny_protocol.duration_hours,
            seed=tiny_protocol.seed,
            max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
            params={"verify_parity": True, "batch_size": 64},
        )
        cache = ArtifactCache()
        context = RunContext(spec, cache=cache)
        cache.put_simulation(
            context.simulation_key("intel_purley"), tiny_study["intel_purley"]
        )
        return run_spec(spec, protocol=tiny_protocol, cache=cache)

    def test_cell_grid_and_extras(self, result):
        assert len(result.cells) == 1
        cell = result.cell("intel_purley", "intel_purley", "lightgbm")
        assert cell.result.supported
        payload = result.extras["streaming_replay"]["intel_purley"]["lightgbm"]
        assert payload["streaming"]["parity"]["mismatches"] == 0
        assert payload["streaming"]["events"] > 0
        assert "offline" in payload
        assert result.any_nonfinite() == []

    def test_result_round_trips_to_json(self, result, tmp_path):
        out = tmp_path / "result.json"
        result.to_json_file(out)
        import json

        payload = json.loads(out.read_text())
        assert "extras" in payload
        assert "streaming_replay" in payload["extras"]

    def test_unsupported_model_yields_unsupported_cell(
        self, tiny_study, tiny_protocol
    ):
        spec = RunSpec(
            scenario="streaming_replay",
            platforms=("intel_whitley",),
            models=("risky_ce_pattern",),  # purley-only heuristic
            scale=tiny_protocol.scale,
            hours=tiny_protocol.duration_hours,
            seed=tiny_protocol.seed,
        )
        cache = ArtifactCache()
        context = RunContext(spec, cache=cache)
        cache.put_simulation(
            context.simulation_key("intel_whitley"),
            tiny_study["intel_whitley"],
        )
        result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        cell = result.cell("intel_whitley", "intel_whitley", "risky_ce_pattern")
        assert not cell.result.supported
