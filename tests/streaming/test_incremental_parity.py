"""Incremental windowed features: bit-for-bit parity with transform_one.

The acceptance bar for the streaming subsystem: at EVERY CE of EVERY DIMM,
across all three platforms, the incrementally maintained feature vector
equals ``FeaturePipeline.transform_one`` on the same history prefix — the
exact array, not approximately.
"""

import dataclasses

import numpy as np
import pytest

from repro.baselines.risky_ce import heuristic_risk_score

from repro.features.pipeline import FeaturePipeline
from repro.features.windows import REPAIR_KINDS, DimmHistory
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.streaming.incremental import IncrementalFeatureExtractor
from repro.telemetry.log_store import iter_stream
from repro.telemetry.records import (
    CERecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

PLATFORMS = ("intel_purley", "intel_whitley", "k920")


@pytest.fixture(scope="module", params=PLATFORMS)
def fitted(request, tiny_study):
    simulation = tiny_study[request.param]
    pipeline = FeaturePipeline()
    pipeline.fit(simulation.store)
    return simulation, pipeline


def test_parity_at_every_event(fitted):
    """Streamed vector == transform_one at every CE, whole campaign."""
    simulation, pipeline = fitted
    store = simulation.store
    extractor = IncrementalFeatureExtractor(pipeline)
    states: dict[str, object] = {}
    arrived: dict[str, tuple[list, list]] = {}
    checked = 0
    for record in iter_stream(store):
        dimm_id = record.dimm_id
        if isinstance(record, UERecord):
            states.pop(dimm_id, None)
            arrived.pop(dimm_id, None)
            continue
        state = states.get(dimm_id)
        if state is None:
            state = extractor.state_for(dimm_id)
            states[dimm_id] = state
            arrived[dimm_id] = ([], [])
        ces, events = arrived[dimm_id]
        if isinstance(record, MemEventRecord):
            state.add_event_record(record)
            events.append(record)
            continue
        assert isinstance(record, CERecord)
        state.add_ce_record(record)
        ces.append(record)
        config = store.config_for(dimm_id)
        streamed = extractor.serve(state, config, record.timestamp_hours)
        reference = pipeline.transform_one(
            DimmHistory.from_records(dimm_id, ces, events),
            config,
            record.timestamp_hours,
        )
        assert np.array_equal(streamed, reference), (
            dimm_id, record.timestamp_hours,
        )
        checked += 1
    assert checked > 0
    assert sum(state.fallbacks for state in states.values()) == 0


def test_parity_at_late_and_between_ce_instants(fitted):
    """Rescoring long after the last CE (stale/empty windows) stays exact."""
    simulation, pipeline = fitted
    store = simulation.store
    extractor = IncrementalFeatureExtractor(pipeline)
    dimm_id = store.dimm_ids_with_ces()[0]
    config = store.config_for(dimm_id)
    ces = store.ces_for_dimm(dimm_id)
    state = extractor.state_for(dimm_id)
    for ce in ces:
        state.add_ce_record(ce)
    history = DimmHistory.from_records(dimm_id, ces, [])
    last = ces[-1].timestamp_hours
    for offset in (0.01, 1.0, 23.0, 119.0, 121.0, 500.0):
        t = last + offset
        assert np.array_equal(
            extractor.serve(state, config, t),
            pipeline.transform_one(history, config, t),
        ), offset
    assert state.fallbacks == 0


def test_out_of_order_and_regressing_queries_fall_back_exactly(fitted):
    """Late arrivals rebuild; queries behind the stream take the reference
    path — both still produce the exact transform_one vector."""
    simulation, pipeline = fitted
    store = simulation.store
    extractor = IncrementalFeatureExtractor(pipeline)
    dimm_id = store.dimm_ids_with_ces()[0]
    config = store.config_for(dimm_id)
    ces = store.ces_for_dimm(dimm_id)
    if len(ces) < 4:
        pytest.skip("need a few CEs")
    state = extractor.state_for(dimm_id)
    # Feed out of order: swap the middle two CEs.
    shuffled = list(ces)
    mid = len(shuffled) // 2
    shuffled[mid], shuffled[mid - 1] = shuffled[mid - 1], shuffled[mid]
    for ce in shuffled:
        state.add_ce_record(ce)
    history = DimmHistory.from_records(dimm_id, shuffled, [])
    t = ces[-1].timestamp_hours
    assert np.array_equal(
        extractor.serve(state, config, t),
        pipeline.transform_one(history, config, t),
    )
    # A query behind the stream head must fall back, still exact.
    earlier = ces[mid].timestamp_hours
    assert np.array_equal(
        extractor.serve(state, config, earlier),
        pipeline.transform_one(history, config, earlier),
    )
    assert state.fallbacks == 1


def test_empty_history_query_matches(fitted):
    """Serving a DIMM that only saw memory events (no CEs) stays exact."""
    simulation, pipeline = fitted
    store = simulation.store
    extractor = IncrementalFeatureExtractor(pipeline)
    dimm_id = store.dimm_ids_with_ces()[0]
    config = store.config_for(dimm_id)
    state = extractor.state_for(dimm_id)
    events = store.events_for_dimm(dimm_id)
    for event in events:
        state.add_event_record(event)
    history = DimmHistory.from_records(dimm_id, [], events)
    t = simulation.duration_hours / 2.0
    assert np.array_equal(
        extractor.serve(state, config, t),
        pipeline.transform_one(history, config, t),
    )


class _EchoModel:
    """Score depends on the whole feature vector (catches any drift)."""

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))


def _service_stream(store):
    """The store's stream, roughened to reach every serving branch:

    * out of order: for a few DIMMs, the 3rd CE arrives before the 2nd;
    * a replacement DIMM: a UE'd DIMM's CEs replayed after its UE, under
      the same id.
    """
    records = list(iter_stream(store))
    positions: dict[str, list[int]] = {}
    for index, record in enumerate(records):
        if isinstance(record, CERecord):
            positions.setdefault(record.dimm_id, []).append(index)
    swapped = 0
    for seen in positions.values():
        if len(seen) >= 4 and swapped < 5:
            i, j = seen[1], seen[2]
            records[i], records[j] = records[j], records[i]
            swapped += 1
    ue = next(record for record in records if isinstance(record, UERecord))
    ces = [
        record for record in records
        if isinstance(record, CERecord) and record.dimm_id == ue.dimm_id
    ]
    shift = ue.timestamp_hours + 1.0 - ces[0].timestamp_hours
    records += [
        dataclasses.replace(ce, timestamp_hours=ce.timestamp_hours + shift)
        for ce in ces
    ]
    return records, ue.dimm_id


def test_incremental_service_scores_and_alarms_identical(tiny_study):
    """Every served vector is ``transform_one`` on the DIMM's history prefix.

    The service's incremental state is the only online feature path; this
    pins each ``PreparedRequest.features`` bit for bit to the reference,
    over out-of-order CEs, storms, repairs and a UE followed by a
    replacement DIMM reusing the id.  The heuristic fallback reads the same
    state, so it must equal ``heuristic_risk_score`` over a
    ``DimmHistory`` of the same records.
    """
    store = tiny_study["intel_purley"].store
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    registry = ModelRegistry()
    version = registry.register(
        "intel_purley", "echo", _EchoModel(), threshold=0.985,
        metrics={"f1": 0.9},
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    # No throttle (not even for late CEs), so every CE past the first is
    # served — the late ones through the reference fallback.
    service = OnlinePredictionService(
        FeatureStore(pipeline), registry, AlarmSystem(), "intel_purley",
        rescore_interval_hours=float("-inf"),
    )
    for dimm_id, config in store.configs.items():
        service.register_config(dimm_id, config)

    records, replaced = _service_stream(store)
    arrived: dict[str, tuple[list, list]] = {}
    head: dict[str, float] = {}
    alarms, late, after_ue = [], 0, 0
    kinds = {type(record) for record in records}
    assert {CERecord, MemEventRecord, UERecord} <= kinds
    events = {record.kind for record in records
              if isinstance(record, MemEventRecord)}
    assert MemEventKind.CE_STORM in events and events & set(REPAIR_KINDS)
    for record in records:
        dimm_id = record.dimm_id
        if isinstance(record, UERecord):
            arrived.pop(dimm_id, None)
            head.pop(dimm_id, None)
            service.observe(record)
            continue
        ces, events = arrived.setdefault(dimm_id, ([], []))
        if isinstance(record, MemEventRecord):
            events.append(record)
            service.observe(record)
            continue
        ces.append(record)
        t = record.timestamp_hours
        prepared = service.ingest(record)
        if prepared is not None:
            assert prepared.features is not None
            reference = pipeline.transform_one(
                DimmHistory.from_records(dimm_id, ces, events),
                store.config_for(dimm_id),
                t,
            )
            assert np.array_equal(prepared.features, reference), (dimm_id, t)
            late += t < head.get(dimm_id, t)
            after_ue += dimm_id == replaced and t > head.get(dimm_id, t)
            alarm = service.complete(
                prepared, service.score_prepared(prepared)
            )
            if alarm is not None:
                alarms.append(alarm)
        head[dimm_id] = max(head.get(dimm_id, t), t)
    assert service.scored > 0 and alarms
    assert late > 0 and after_ue > 0
    assert service.extract_errors == 0

    for dimm_id, state in service._states.items():
        assert service._degraded_score(state, float("inf")) == (
            heuristic_risk_score(
                DimmHistory.from_records(dimm_id, *arrived[dimm_id])
            )
        )
