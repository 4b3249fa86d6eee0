"""Checkpoint/resume: a killed replay resumes bit-identically, both engines."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.checkpoint import ReplayCheckpointer, load_checkpoint
from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import ActionBudget, PolicyEngine
from repro.fleetops.stream import merge_fleet_streams
from repro.streaming.bus import EventBus
from repro.streaming.replay import REPLAY_ENGINES, ReplayEngine

THRESHOLD = 0.985


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
        collect_scores=True,
    )
    defaults.update(kwargs)
    return ReplayEngine(
        pipeline, _EchoModel(), THRESHOLD, "intel_purley", **defaults
    )


def _incidents(engine):
    return [
        (inc.dimm_id, inc.opened_hour, inc.score, inc.status)
        for inc in engine.alarms.incidents
    ]


_TIMING_KEYS = {
    "seconds", "predict_seconds", "events_per_second", "scores_per_second",
    "stage_seconds",
}


def _strip_timing(payload):
    """Report payload minus wall-clock fields (the one documented
    exception to resumed-run bit-identity)."""
    if isinstance(payload, dict):
        return {
            key: _strip_timing(value)
            for key, value in payload.items()
            if key not in _TIMING_KEYS
        }
    if isinstance(payload, list):
        return [_strip_timing(item) for item in payload]
    return payload


class TestCheckpointer:
    def test_every_needs_a_path(self):
        with pytest.raises(ValueError):
            ReplayCheckpointer(every=10)

    def test_kind_and_engine_must_match(self, tmp_path, purley):
        simulation, pipeline = purley
        path = tmp_path / "ckpt.pkl"
        engine = _engine(simulation, pipeline, engine="batched")
        engine.replay(simulation.store, checkpoint_every=50,
                      checkpoint_path=path, halt_after=60)
        snap = load_checkpoint(path)
        assert snap["kind"] == "fleet" and snap["engine"] == "batched"
        with pytest.raises(ValueError, match="kind="):
            ReplayCheckpointer(resume_from=path, engine="batched",
                               kind="replay")
        with pytest.raises(ValueError, match="engine="):
            ReplayCheckpointer(resume_from=path, engine="per_event",
                               kind="fleet")

    @pytest.mark.parametrize("kind", REPLAY_ENGINES)
    def test_single_platform_layout_is_refused(self, tmp_path, purley, kind):
        """A checkpoint in the retired single-platform layout
        (``kind="replay"``) fails with the typed kind error, never a
        KeyError from reading fleet state keys out of it."""
        import pickle

        from repro.chaos.checkpoint import CHECKPOINT_VERSION, save_checkpoint
        from repro.streaming.alarms import AlarmManager

        simulation, pipeline = purley
        path = tmp_path / "old.pkl"
        state = {
            "alarms": AlarmManager(3.0, 720.0),
            "last_scored": {},
            "scored_dimms": set(),
            "pending": [],
            "score_log": [],
            "parity": (0, 0),
            "counters": {"scored": 0, "batches": 0},
        }
        save_checkpoint(path, {
            "version": CHECKPOINT_VERSION,
            "kind": "replay",
            "engine": kind,
            "position": 60,
            "state": pickle.dumps(state),
            "bus_counts": {},
        })
        engine = _engine(simulation, pipeline, engine=kind)
        with pytest.raises(ValueError, match="kind="):
            engine.replay(simulation.store, resume_from=path)

    def test_version_check(self, tmp_path):
        import pickle

        bad = tmp_path / "bad.pkl"
        bad.write_bytes(pickle.dumps({"version": 999}))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(bad)

    def test_version_one_layout_is_refused(self, tmp_path, purley):
        """A version-1 checkpoint (per-field lists, pickled extractors)
        fails with the typed version error before any state is read."""
        import pickle

        from repro.chaos.checkpoint import save_checkpoint
        from repro.streaming.alarms import AlarmManager
        from repro.streaming.incremental import IncrementalFeatureExtractor

        simulation, pipeline = purley
        path = tmp_path / "v1.pkl"
        state = {
            "extractors": [IncrementalFeatureExtractor(pipeline)],
            "alarms": [AlarmManager(3.0, 720.0)],
            "states": [{}],
            "state_configs": [{}],
            "last_scored": [{}],
            "scored_dimms": [set()],
            "pending": [[]],
            "retired_fallbacks": [0],
            "retired_rebuilds": [0],
            "scored": [0],
            "batches": [0],
            "predicted": [0],
            "parity": [(0, 0)],
            "policy": None,
            "score_logs": {},
        }
        save_checkpoint(path, {
            "version": 1,
            "kind": "fleet",
            "engine": "per_event",
            "position": 60,
            "state": pickle.dumps(state),
            "bus_counts": {},
        })
        engine = _engine(simulation, pipeline, engine="per_event")
        with pytest.raises(ValueError, match="version=1"):
            engine.replay(simulation.store, resume_from=path)


class TestReplayResume:
    """Kill at an arbitrary point; the resumed run matches the clean run."""

    @pytest.fixture(scope="class")
    def full_runs(self, purley):
        simulation, pipeline = purley
        runs = {}
        for kind in REPLAY_ENGINES:
            engine = _engine(simulation, pipeline, engine=kind)
            report = engine.replay(simulation.store, model_name="echo")
            runs[kind] = (engine, report)
        return runs

    @pytest.mark.parametrize("kind", REPLAY_ENGINES)
    def test_halt_then_resume_is_bit_identical(
        self, tmp_path, purley, full_runs, kind
    ):
        simulation, pipeline = purley
        full_engine, full = full_runs[kind]
        path = tmp_path / f"{kind}.pkl"
        halted_engine = _engine(simulation, pipeline, engine=kind)
        halted = halted_engine.replay(
            simulation.store, model_name="echo",
            checkpoint_every=40, checkpoint_path=path, halt_after=137,
        )
        assert halted.halted
        assert not full.halted
        resumed_engine = _engine(simulation, pipeline, engine=kind)
        resumed = resumed_engine.replay(
            simulation.store, model_name="echo", resume_from=path
        )
        assert not resumed.halted
        assert resumed_engine.score_log == full_engine.score_log
        assert _incidents(resumed_engine) == _incidents(full_engine)
        assert resumed.alarms == full.alarms
        assert resumed.bus_counts == full.bus_counts
        assert resumed.scored == full.scored
        assert _strip_timing(resumed.to_dict()) == _strip_timing(
            full.to_dict()
        )

    @settings(max_examples=4, deadline=None)
    @given(halt_after=st.integers(min_value=1, max_value=400))
    def test_any_kill_point_resumes_exactly(
        self, tmp_path_factory, purley, full_runs, halt_after
    ):
        """Property form of the acceptance bar, on the reference engine:
        killing after *any* number of processed entries and resuming
        reproduces the uninterrupted score log and alarms."""
        simulation, pipeline = purley
        full_engine, full = full_runs["per_event"]
        path = tmp_path_factory.mktemp("ckpt") / "kill.pkl"
        halted_engine = _engine(simulation, pipeline, engine="per_event")
        halted_engine.replay(
            simulation.store, model_name="echo",
            checkpoint_path=path, halt_after=halt_after,
        )
        resumed_engine = _engine(simulation, pipeline, engine="per_event")
        resumed = resumed_engine.replay(
            simulation.store, model_name="echo", resume_from=path
        )
        assert resumed_engine.score_log == full_engine.score_log
        assert resumed.alarms == full.alarms
        assert resumed.bus_counts == full.bus_counts

    def test_double_kill_chain(self, tmp_path, purley, full_runs):
        """Kill, resume, kill again, resume again — still bit-identical."""
        simulation, pipeline = purley
        full_engine, full = full_runs["per_event"]
        path = tmp_path / "chain.pkl"
        first = _engine(simulation, pipeline, engine="per_event")
        first.replay(simulation.store, model_name="echo",
                     checkpoint_path=path, halt_after=60)
        second = _engine(simulation, pipeline, engine="per_event")
        report = second.replay(simulation.store, model_name="echo",
                               resume_from=path, checkpoint_path=path,
                               halt_after=90)
        assert report.halted
        third = _engine(simulation, pipeline, engine="per_event")
        final = third.replay(simulation.store, model_name="echo",
                             resume_from=path)
        assert third.score_log == full_engine.score_log
        assert final.alarms == full.alarms
        assert final.bus_counts == full.bus_counts


class TestFleetResume:
    """The fleet engine's resumed run reproduces score logs, alarms,
    actions and settled cost digests exactly."""

    def _parts(self, tiny_study):
        pipelines = {}
        assignments = {}
        model = _EchoModel()
        for name, simulation in tiny_study.items():
            pipeline = FeaturePipeline()
            pipeline.fit(simulation.store)
            pipelines[name] = pipeline
            assignments[name] = ServingAssignment(
                platform=name, model_name="echo", train_platform=name,
                model=model, threshold=THRESHOLD, pipeline=pipeline,
                configs=simulation.store.configs,
                live_from_hour=0.6 * simulation.duration_hours,
            )
        stores = {name: sim.store for name, sim in tiny_study.items()}
        return assignments, stores

    def _run(self, assignments, stores, engine_kind, **replay_kwargs):
        engine = FleetReplayEngine(
            assignments,
            labeling=LabelingParams(),
            policy=PolicyEngine(budget=ActionBudget(), seed=7),
            rescore_interval_hours=0.0,
            batch_size=64,
            collect_scores=True,
            engine=engine_kind,
        )
        stream = merge_fleet_streams(
            stores, decode_payloads=(engine_kind != "batched")
        )
        report = engine.replay(stream, stores, **replay_kwargs)
        return engine, report

    @pytest.mark.parametrize("kind", REPLAY_ENGINES)
    def test_halt_then_resume_matches_uninterrupted(
        self, tmp_path, tiny_study, kind
    ):
        assignments, stores = self._parts(tiny_study)
        full_engine, full = self._run(assignments, stores, kind)
        path = tmp_path / f"fleet-{kind}.pkl"
        _, halted = self._run(
            assignments, stores, kind,
            checkpoint_every=64, checkpoint_path=path, halt_after=211,
        )
        assert halted.halted
        assert not halted.costs  # partial report: nothing settled
        resumed_engine, resumed = self._run(
            assignments, stores, kind, resume_from=path
        )
        assert resumed_engine.score_logs == full_engine.score_logs
        assert _strip_timing(resumed.to_dict()) == _strip_timing(
            full.to_dict()
        )
        # The money columns, spelled out: settled economics and actions.
        assert resumed.costs == full.costs
        assert resumed.fleet_cost == full.fleet_cost
        assert resumed.actions == full.actions
        assert resumed.bus_counts == full.bus_counts

    def test_checkpoint_holds_decision_state_only(self, tmp_path, tiny_study):
        """A per_event checkpoint stores no extractor and no pipeline; the
        resumed walk serves through the caller's pipeline."""
        import io
        import pickle

        class _Classes(pickle.Unpickler):
            def __init__(self, blob):
                super().__init__(io.BytesIO(blob))
                self.names = set()

            def find_class(self, module, name):
                self.names.add(name)
                return super().find_class(module, name)

            def persistent_load(self, key):
                return key

        assignments, stores = self._parts(tiny_study)
        path = tmp_path / "fleet.pkl"
        self._run(assignments, stores, "per_event",
                  checkpoint_path=path, halt_after=400)
        reader = _Classes(load_checkpoint(path)["state"])
        reader.load()
        assert "IncrementalWindowState" in reader.names
        assert "FeaturePipeline" not in reader.names
        assert "IncrementalFeatureExtractor" not in reader.names

        resumed, _ = self._run(
            assignments, stores, "per_event", resume_from=path
        )
        for platform, rt in resumed.runtimes.items():
            assert rt.extractor.pipeline is assignments[platform].pipeline
            assert rt.states
            assert all(
                state._x is rt.extractor for state in rt.states.values()
            )
