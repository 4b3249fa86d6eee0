"""Degraded serving: last-known score under a staleness budget, then the
model-free risky-CE heuristic — scoring never goes down with the model."""

import numpy as np
import pytest

from repro.baselines.risky_ce import heuristic_risk_score
from repro.features.pipeline import FeaturePipeline
from repro.features.windows import DimmHistory
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import CERecord, DimmConfigRecord


class _FlakyModel:
    """Scores a constant until ``fail`` is flipped, then raises."""

    def __init__(self, score: float):
        self.score = score
        self.fail = False

    def predict_proba(self, X) -> np.ndarray:
        if self.fail:
            raise RuntimeError("model backend down")
        return np.full(np.asarray(X).shape[0], self.score)


def make_ce(t, dimm="d0", **overrides):
    payload = dict(
        timestamp_hours=t, server_id="s0", dimm_id=dimm, rank=0, bank=0,
        row=1, column=1, devices=(0,), dq_count=1, beat_count=1,
        dq_interval=0, beat_interval=0, error_bit_count=1,
    )
    payload.update(overrides)
    return CERecord(**payload)


def make_config(dimm="d0"):
    return DimmConfigRecord(
        dimm_id=dimm, server_id="s0", platform="intel_purley",
        manufacturer="A", part_number="pn", capacity_gb=32, data_width=4,
        frequency_mts=2666, chip_process="1y",
    )


def _service(model, staleness_budget_hours=5.0, threshold=2.0):
    store = LogStore()
    store.add_config(make_config())
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    registry = ModelRegistry()
    service = OnlinePredictionService(
        FeatureStore(pipeline), registry, AlarmSystem(), "intel_purley",
        min_ces_before_scoring=2, rescore_interval_hours=0.0,
        staleness_budget_hours=staleness_budget_hours,
    )
    service.register_config("d0", make_config())
    version = registry.register(
        "intel_purley", "flaky", model, threshold, {"f1": 0.9}
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    return service


class TestDegradationLadder:
    def test_stale_score_served_within_budget(self):
        model = _FlakyModel(0.7)
        service = _service(model, staleness_budget_hours=5.0)
        service.observe(make_ce(1.0))
        service.observe(make_ce(2.0))  # fresh score: 0.7 cached
        assert service.scored == 1 and service.extract_errors == 0
        model.fail = True
        service.observe(make_ce(4.0))  # age 2h <= 5h budget
        assert service.extract_errors == 1
        assert service.fallback_stale == 1
        assert service.fallback_heuristic == 0
        assert service.scored == 2  # degraded scores still count as served

    def test_heuristic_beyond_budget(self):
        model = _FlakyModel(0.7)
        service = _service(model, staleness_budget_hours=5.0)
        service.observe(make_ce(1.0))
        service.observe(make_ce(2.0))
        model.fail = True
        service.observe(make_ce(20.0))  # age 18h > 5h budget
        assert service.fallback_stale == 0
        assert service.fallback_heuristic == 1

    def test_no_prior_score_goes_straight_to_heuristic(self):
        model = _FlakyModel(0.7)
        model.fail = True  # dead from the first scored CE
        service = _service(model, staleness_budget_hours=24.0)
        service.observe(make_ce(1.0))
        service.observe(make_ce(2.0))
        assert service.fallback_stale == 0
        assert service.fallback_heuristic == 1
        assert service.scored == 1

    def test_zero_budget_disables_stale_tier(self):
        model = _FlakyModel(0.7)
        service = _service(model, staleness_budget_hours=0.0)
        service.observe(make_ce(1.0))
        service.observe(make_ce(2.0))
        model.fail = True
        service.observe(make_ce(2.5))
        assert service.fallback_stale == 0
        assert service.fallback_heuristic == 1

    def test_recovery_resumes_fresh_scoring(self):
        model = _FlakyModel(0.7)
        service = _service(model, staleness_budget_hours=5.0)
        service.observe(make_ce(1.0))
        service.observe(make_ce(2.0))
        model.fail = True
        service.observe(make_ce(3.0))
        model.fail = False
        service.observe(make_ce(4.0))
        assert service.scored == 3
        assert service.extract_errors == 1  # only the one degraded CE
        state = service._states["d0"]
        assert state.last_score == 0.7
        assert state.last_score_hour == 4.0

    def test_degraded_score_can_still_alarm(self):
        model = _FlakyModel(0.9)
        service = _service(model, staleness_budget_hours=5.0, threshold=0.5)
        service.observe(make_ce(1.0))
        alarm = service.observe(make_ce(2.0))
        assert alarm is not None and alarm.score == 0.9
        service.alarm_system.acknowledge("d0")
        service._states["d0"].alarmed = False
        model.fail = True
        stale_alarm = service.observe(make_ce(3.0))
        assert stale_alarm is not None
        assert stale_alarm.score == 0.9  # the cached last-known score


class TestHeuristicScore:
    def _history(self, ces):
        return DimmHistory.from_records("d0", ces, [])

    def test_empty_history_scores_zero(self):
        assert heuristic_risk_score(self._history([])) == 0.0

    def test_riskier_history_scores_higher(self):
        mild = self._history([make_ce(1.0)])
        risky = self._history(
            [
                make_ce(float(t), devices=(0, 1), dq_count=3, beat_count=6)
                for t in range(1, 30)
            ]
        )
        assert 0.0 <= heuristic_risk_score(mild) < heuristic_risk_score(risky)

    def test_score_is_bounded(self):
        extreme = self._history(
            [
                make_ce(float(t), devices=(0, 1, 2), dq_count=9, beat_count=9)
                for t in range(1, 200)
            ]
        )
        assert heuristic_risk_score(extreme) <= 1.0


NAN, INF = float("nan"), float("inf")


class TestHostileCE:
    """A CE that breaks the quarantine's CE rules never touches DIMM state:
    ``ingest`` does not raise, the record is answered from the ladder, and
    the DIMM's next valid CE is served exactly as if it had never come."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {"timestamp_hours": NAN},
            {"timestamp_hours": INF},
            {"timestamp_hours": -1.0},
            {"row": NAN},
            {"row": -3},
            {"column": INF},
            {"column": 1 << 20},
            {"bank": NAN},
            {"devices": (NAN,)},
            {"dq_count": NAN},
            {"beat_count": -1},
            {"dq_interval": INF},
            {"beat_interval": NAN},
            {"error_bit_count": INF},
            # Finite but huge counts, which would size the state's
            # per-value histograms.  Each is either cheap to allocate or
            # far too large to (1e12), so a regression fails the test
            # instead of exhausting memory.
            {"dq_count": 1 << 20},
            {"beat_count": 1e7},
            {"dq_interval": 1 << 10},
            {"beat_interval": 1e12},
            {"error_bit_count": 1e12},
        ],
        ids=lambda overrides: "-".join(f"{k}={v}" for k, v in overrides.items()),
    )
    def test_rejected_ce_leaves_state_untouched(self, overrides):
        model = _FlakyModel(0.7)
        clean = _service(model)
        hostile = _service(model)
        clean.rescore_interval_hours = hostile.rescore_interval_hours = 0.5
        for service in (clean, hostile):
            service.observe(make_ce(1.0))
            service.observe(make_ce(2.0))  # scored: throttle + cache at 2.0
        bad = make_ce(2.2, **{"row": 2, **overrides})
        prepared = hostile.ingest(bad)  # must not raise
        assert hostile.extract_errors == 1
        if prepared is not None:
            assert prepared.features is None
            assert prepared.fallback_score is not None
            hostile.complete(prepared, prepared.fallback_score)
        state = hostile._states["d0"]
        assert len(state.incremental) == 2
        assert state.last_score_hour == 2.0
        assert hostile._last_scored["d0"] == 2.0

        nxt = make_ce(2.6, row=3)  # 0.6 h after the last stamp: not throttled
        expected = clean.ingest(nxt)
        served = hostile.ingest(nxt)
        assert expected is not None and served is not None
        assert np.array_equal(served.features, expected.features)
        assert hostile.extract_errors == 1

    @pytest.mark.parametrize("t", [NAN, INF, -1.0])
    def test_bad_timestamp_never_alarms(self, t):
        # The model never alarms, but the heuristic (>= 0) always would:
        # a CE with no valid instant must not reach the ladder.
        service = _service(
            _FlakyModel(-1.0), staleness_budget_hours=0.0, threshold=0.0
        )
        service.observe(make_ce(1.0))
        service.observe(make_ce(2.0))
        assert service.scored == 1
        assert service.ingest(make_ce(t, row=2)) is None
        assert service.observe(make_ce(t, row=2)) is None
        assert service.extract_errors == 2
        assert service.fallback_heuristic == 0
        assert service.scored == 1
        assert not service._states["d0"].alarmed
        assert service.alarm_system.alarms == []
