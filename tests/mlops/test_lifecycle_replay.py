"""The lifecycle's held-out replay rides ReplayEngine: scores/alarms equal.

The reference here is the retired record-at-a-time serving loop —
``OnlinePredictionService.observe`` over ``iter_stream`` with the
lifecycle's pre-deployment alarm-discard dance.  The new path
(:func:`repro.mlops.lifecycle.replay_held_out` semantics: score from hour
zero, alarm from the split, infinite prediction window, batch size 1)
must reproduce the exact same scoring schedule, score values, and alarm
stream.
"""

import numpy as np
import pytest

from repro.features.labeling import LabelingParams
from repro.features.pipeline import FeaturePipeline
from repro.mlops.feature_store import FeatureStore
from repro.mlops.lifecycle import replay_held_out
from repro.mlops.serving import MIN_CES_BEFORE_SCORING, RESCORE_INTERVAL_HOURS
from repro.mlops.migration import MigrationSimulator
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.streaming.replay import ReplayEngine
from repro.telemetry.log_store import iter_stream
from repro.telemetry.records import CERecord, UERecord

THRESHOLD = 0.985


class _EchoModel:
    """Deterministic, feature-dependent scores; logs every scored vector."""

    def __init__(self):
        self.scores_seen: list[float] = []

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        scores = 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))
        self.scores_seen.extend(float(s) for s in scores)
        return scores


def _deploy(platform: str, model) -> ModelRegistry:
    registry = ModelRegistry()
    version = registry.register(
        platform, "echo", model, threshold=THRESHOLD, metrics={"f1": 0.9}
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    return registry


def _legacy_replay(simulation, pipeline, split_hour):
    """The pre-PR lifecycle loop, verbatim: returns (service, live alarms)."""
    platform = simulation.platform.name
    model = _EchoModel()
    alarm_system = AlarmSystem()
    service = OnlinePredictionService(
        FeatureStore(pipeline), _deploy(platform, model), alarm_system, platform
    )
    for dimm_id, config in simulation.store.configs.items():
        service.register_config(dimm_id, config)
    live_alarms = []
    for record in iter_stream(simulation.store):
        timestamp = record.timestamp_hours
        live = timestamp >= split_hour
        if isinstance(record, UERecord):
            service.observe(record)
            continue
        alarm = service.observe(record)
        if alarm is not None:
            if live:
                live_alarms.append((alarm.dimm_id, timestamp, alarm.score))
            else:
                alarm_system.acknowledge(alarm.dimm_id)
                alarm_system.alarms.pop()
                state = service._states.get(alarm.dimm_id)
                if state is not None:
                    state.alarmed = False
    return service, model, live_alarms


@pytest.fixture(scope="module")
def purley(purley_sim):
    pipeline = FeaturePipeline()
    pipeline.fit(purley_sim.store)
    return purley_sim, pipeline


class TestLifecycleReplayParity:
    def test_scores_and_alarms_identical_to_observe_loop(self, purley):
        simulation, pipeline = purley
        split_hour = 0.7 * simulation.duration_hours
        service, legacy_model, legacy_alarms = _legacy_replay(
            simulation, pipeline, split_hour
        )

        engine_model = _EchoModel()
        engine = ReplayEngine(
            pipeline,
            engine_model,
            THRESHOLD,
            simulation.platform.name,
            configs=simulation.store.configs,
            labeling=LabelingParams(prediction_window_hours=float("inf")),
            live_from_hour=0.0,
            alarm_from_hour=split_hour,
            min_ces_before_scoring=MIN_CES_BEFORE_SCORING,
            rescore_interval_hours=RESCORE_INTERVAL_HOURS,
            batch_size=1,
            collect_scores=True,
        )
        report = engine.replay(simulation.store)

        assert report.scored == service.scored > 0
        assert engine_model.scores_seen == legacy_model.scores_seen
        engine_alarms = [
            (incident.dimm_id, incident.opened_hour, incident.score)
            for incident in engine.alarms.incidents
        ]
        assert legacy_alarms, "expected the echo model to raise live alarms"
        assert engine_alarms == legacy_alarms

    def test_replay_held_out_feeds_migration_like_the_old_loop(self, purley):
        """Ledger bookkeeping (alarm/UE firsts, rng paths) is unchanged."""
        from repro.evaluation.protocol import ExperimentProtocol

        simulation, pipeline = purley
        protocol = ExperimentProtocol(
            scale=0.15, duration_hours=simulation.duration_hours, seed=7
        )
        split_hour = (
            protocol.sampling.train_fraction * simulation.duration_hours
        )

        _, _, legacy_alarms = _legacy_replay(simulation, pipeline, split_hour)
        legacy_migration = MigrationSimulator(
            rng=np.random.default_rng(protocol.seed)
        )
        for dimm_id, hour, _ in legacy_alarms:
            from repro.mlops.serving import Alarm

            legacy_migration.on_alarm(
                Alarm(
                    timestamp_hours=hour,
                    platform=simulation.platform.name,
                    server_id="",
                    dimm_id=dimm_id,
                    score=0.99,
                    model_version=1,
                )
            )
        for ue in sorted(
            simulation.store.ues, key=lambda record: record.timestamp_hours
        ):
            if ue.timestamp_hours >= split_hour:
                legacy_migration.on_ue(ue.dimm_id, ue.timestamp_hours)

        migration = MigrationSimulator(rng=np.random.default_rng(protocol.seed))
        report = replay_held_out(
            simulation,
            protocol,
            pipeline,
            _EchoModel(),
            THRESHOLD,
            split_hour,
            migration,
        )
        assert report.scored > 0
        assert report.alarms["raised"] == len(legacy_alarms)
        assert migration.ledger.alarmed_dimms == (
            legacy_migration.ledger.alarmed_dimms
        )
        assert migration.ledger.failed_dimms == (
            legacy_migration.ledger.failed_dimms
        )
        assert migration.ledger.cold_migrations == (
            legacy_migration.ledger.cold_migrations
        )
        assert migration.ledger.live_migrations == (
            legacy_migration.ledger.live_migrations
        )
        assert (
            migration.ledger.confusion().f1
            == legacy_migration.ledger.confusion().f1
        )
