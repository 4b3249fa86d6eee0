"""Online prediction service and cloud alarm system (paper Figure 6, right).

The serving path replays the telemetry stream: each incoming CE updates the
DIMM's in-memory state, is re-scored through the production model, and
raises an alarm when the score crosses the deployed threshold.  Alarms feed
the mitigation/migration layer (:mod:`repro.mlops.migration`).

Each DIMM's state is one
:class:`~repro.streaming.incremental.IncrementalWindowState`: every windowed
aggregate the feature pipeline serves is delta-updated as records arrive,
so a scored CE costs amortised O(1) bookkeeping instead of a re-scan of
every window.  The served vectors are bit-for-bit those of
:meth:`~repro.features.pipeline.FeaturePipeline.transform_one` on the
DIMM's history prefix; ``transform_one`` stays the executable reference,
and answers any query that falls behind the stream head.

A CE is checked against the quarantine's CE rules
(:func:`repro.chaos.quarantine.ce_reject_reason`) before it touches the
state: a hostile record is never appended, and is answered from the
degradation ladder (last-known score, then the risky-CE heuristic) —
unless its timestamp is the bad field, in which case it is only counted.

For whole-campaign bulk replays, prefer
:class:`repro.streaming.replay.ReplayEngine` (a one-platform
:class:`repro.fleetops.engine.FleetReplayEngine` replay), which merges the
stream straight off the columnar store and micro-batches model scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.chaos.quarantine import RejectReason, ce_reject_reason
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.streaming.incremental import (
    IncrementalFeatureExtractor,
    IncrementalWindowState,
)
from repro.telemetry.columnar import ce_values
from repro.telemetry.records import CERecord, MemEventRecord, UERecord

#: Production serving cadences — the single source for every path that
#: mirrors the serving layer (the lifecycle's replay-engine drive, the
#: streaming scenario's default rescore interval).
MIN_CES_BEFORE_SCORING = 2
RESCORE_INTERVAL_HOURS = 1.0 / 12.0  # 5 minutes


@dataclass(frozen=True)
class Alarm:
    """One failure-prediction alarm."""

    timestamp_hours: float
    platform: str
    server_id: str
    dimm_id: str
    score: float
    model_version: int


@dataclass
class _OnlineDimmState:
    #: The DIMM's accepted records and their delta-updated windowed
    #: aggregates (the only online feature path).
    incremental: IncrementalWindowState = field(repr=False)
    alarmed: bool = False
    #: Degraded-serving cache: the last successfully served score and when
    #: it was computed (the staleness-budget fallback).
    last_score: float | None = None
    last_score_hour: float = 0.0


@dataclass
class PreparedRequest:
    """One gated, feature-transformed scoring request awaiting a score.

    The two halves of the serving path split here so a batching front
    end (:class:`repro.distributed.service.AsyncScoringService`) can run
    many ``predict_proba`` rows per model call: :meth:`ingest` produces
    this, any scorer turns it into a float, :meth:`complete` applies the
    threshold and accounting.  ``features is None`` means feature
    extraction already degraded — ``fallback_score`` is the answer and
    the model must not be consulted.
    """

    ce: CERecord
    state: "_OnlineDimmState"
    production: object
    features: np.ndarray | None = None
    fallback_score: float | None = None


class AlarmSystem:
    """Deduplicating alarm sink with simple acknowledgement."""

    def __init__(self) -> None:
        self.alarms: list[Alarm] = []
        self._active: set[str] = set()

    def raise_alarm(self, alarm: Alarm) -> bool:
        """Record an alarm; returns False if the DIMM is already alarmed."""
        if alarm.dimm_id in self._active:
            return False
        self._active.add(alarm.dimm_id)
        self.alarms.append(alarm)
        return True

    def acknowledge(self, dimm_id: str) -> None:
        self._active.discard(dimm_id)

    @property
    def active_count(self) -> int:
        return len(self._active)


class OnlinePredictionService:
    """Streaming scorer: CE in, (maybe) alarm out."""

    def __init__(
        self,
        feature_store: FeatureStore,
        registry: ModelRegistry,
        alarm_system: AlarmSystem,
        platform: str,
        min_ces_before_scoring: int = MIN_CES_BEFORE_SCORING,
        rescore_interval_hours: float = RESCORE_INTERVAL_HOURS,
        staleness_budget_hours: float = 24.0,
    ):
        self.feature_store = feature_store
        self.registry = registry
        self.alarm_system = alarm_system
        self.platform = platform
        self.min_ces_before_scoring = min_ces_before_scoring
        self.rescore_interval_hours = rescore_interval_hours
        # Degraded serving: when feature extraction raises, the service
        # serves the DIMM's last-known score while it is younger than this
        # budget, and falls through to the model-free risky-CE heuristic
        # beyond it.  <= 0 disables the stale tier (heuristic immediately).
        self.staleness_budget_hours = float(staleness_budget_hours)
        self._extractor: IncrementalFeatureExtractor | None = None
        self._states: dict[str, _OnlineDimmState] = {}
        self._configs: dict[str, object] = {}
        self._last_scored: dict[str, float] = {}
        self.scored = 0
        self.skipped_no_model = 0
        self.extract_errors = 0
        self.fallback_stale = 0
        self.fallback_heuristic = 0

    def register_config(self, dimm_id: str, config) -> None:
        self._configs[dimm_id] = config

    def observe(self, record) -> Alarm | None:
        """Feed one telemetry record; returns the alarm if one fired."""
        if isinstance(record, CERecord):
            return self._observe_ce(record)
        if isinstance(record, MemEventRecord):
            self._state_for(record.dimm_id).incremental.add_event_record(
                record
            )
            return None
        if isinstance(record, UERecord):
            # Failure happened: clear alarm state (DIMM gets replaced).
            # The rescore throttle goes too, so a replacement DIMM reusing
            # the id scores from its own first CEs.
            self.alarm_system.acknowledge(record.dimm_id)
            self._states.pop(record.dimm_id, None)
            self._last_scored.pop(record.dimm_id, None)
            return None
        raise TypeError(f"unsupported record {type(record)!r}")

    def _state_for(self, dimm_id: str) -> _OnlineDimmState:
        state = self._states.get(dimm_id)
        if state is None:
            if self._extractor is None:  # the pipeline must be fitted
                self._extractor = IncrementalFeatureExtractor(
                    self.feature_store.pipeline
                )
            state = _OnlineDimmState(self._extractor.state_for(dimm_id))
            self._states[dimm_id] = state
        return state

    def _transform(self, state: _OnlineDimmState, config, t: float) -> np.ndarray:
        """The DIMM's feature vector at ``t``, off its incremental state."""
        self.feature_store.stream_requests += 1
        return self._extractor.serve(state.incremental, config, t)

    def _observe_ce(self, ce: CERecord) -> Alarm | None:
        prepared = self.ingest(ce)
        if prepared is None:
            return None
        return self.complete(prepared, self.score_prepared(prepared))

    def ingest(self, ce: CERecord) -> PreparedRequest | None:
        """First half of the serving path: state, gating, features.

        Validates the CE and appends it to the DIMM's state, applies the
        serving gates (alarmed / min-CE / rescore throttle / model /
        config), stamps the rescore throttle and transforms features.
        Returns ``None`` when the CE is gated out, otherwise a
        :class:`PreparedRequest` for any scorer.  The throttle is stamped
        here, not in :meth:`complete`, so a CE arriving while its DIMM's
        previous request is still being scored is throttled exactly as in
        serial :meth:`observe`.

        A CE that breaks the quarantine's CE rules is never appended, and
        a feature extraction failure degrades: either way the request
        carries its fallback score and skips the model.  A rejected CE
        stamps neither the throttle nor the staleness cache, and one
        without a valid timestamp is not answered at all, so it can never
        raise an alarm.
        """
        state = self._state_for(ce.dimm_id)
        reason = ce_reject_reason(ce_values(ce))
        rejected = reason is not None
        if rejected:
            self.extract_errors += 1
            if reason is RejectReason.BAD_TIMESTAMP:
                # No valid instant to answer (or alarm) at.
                return None
        else:
            state.incremental.add_ce_record(ce)
        if (
            state.alarmed
            or len(state.incremental) < self.min_ces_before_scoring
        ):
            return None
        last = self._last_scored.get(ce.dimm_id)
        if last is not None and ce.timestamp_hours - last < self.rescore_interval_hours:
            return None

        production = self.registry.production_model(self.platform)
        if production is None:
            self.skipped_no_model += 1
            return None
        config = self._configs.get(ce.dimm_id)
        if config is None:
            return None

        if rejected:
            return self._degraded_request(ce, state, production)
        self._last_scored[ce.dimm_id] = ce.timestamp_hours
        try:
            features = self._transform(state, config, ce.timestamp_hours)
        except Exception:
            # The service keeps serving: a poisoned record must not take
            # scoring down.
            self.extract_errors += 1
            return self._degraded_request(ce, state, production)
        return PreparedRequest(
            ce=ce, state=state, production=production, features=features
        )

    def _degraded_request(self, ce, state, production) -> PreparedRequest:
        """A request answered by the degradation ladder, not the model."""
        return PreparedRequest(
            ce=ce,
            state=state,
            production=production,
            fallback_score=self._degraded_score(state, ce.timestamp_hours),
        )

    def _degraded_score(self, state: _OnlineDimmState, t: float) -> float:
        """The staleness ladder's answer when the model path is down."""
        age = (
            t - state.last_score_hour
            if state.last_score is not None
            else float("inf")
        )
        if age <= self.staleness_budget_hours:
            self.fallback_stale += 1
            return state.last_score
        from repro.baselines.risky_ce import heuristic_risk_score

        self.fallback_heuristic += 1
        return heuristic_risk_score(state.incremental.history_view())

    def score_prepared(self, prepared: PreparedRequest) -> float:
        """Synchronous one-row scorer (the :meth:`observe` path)."""
        if prepared.features is None:
            return prepared.fallback_score
        try:
            return float(
                prepared.production.model.predict_proba(
                    prepared.features.reshape(1, -1)
                )[0]
            )
        except Exception:
            self.extract_errors += 1
            prepared.fallback_score = self._degraded_score(
                prepared.state, prepared.ce.timestamp_hours
            )
            return prepared.fallback_score

    def complete(self, prepared: PreparedRequest, score: float) -> Alarm | None:
        """Second half: accounting, threshold, alarm."""
        ce = prepared.ce
        state = prepared.state
        if prepared.fallback_score is None:
            state.last_score = score
            state.last_score_hour = ce.timestamp_hours
        self.scored += 1

        production = prepared.production
        if score >= production.threshold:
            alarm = Alarm(
                timestamp_hours=ce.timestamp_hours,
                platform=self.platform,
                server_id=ce.server_id,
                dimm_id=ce.dimm_id,
                score=score,
                model_version=production.version,
            )
            if self.alarm_system.raise_alarm(alarm):
                state.alarmed = True
                if self._states.get(ce.dimm_id) is not state:
                    # A UE retired the DIMM while this request was in
                    # flight; serially it would have acknowledged the alarm.
                    self.alarm_system.acknowledge(ce.dimm_id)
                return alarm
        return None
