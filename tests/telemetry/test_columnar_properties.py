"""Property tests for the columnar telemetry store.

Invariants under random (and adversarially out-of-order) record streams,
each checked against the test's own input records (the store builds its
records from the same columns, so comparing it with itself proves
nothing):

* every per-DIMM slice of the fleet view equals the record-object path
  (:meth:`DimmHistory.from_records`) over the input records, bit-for-bit;
* the record queries (``ces``/``ues``/``events``, the per-DIMM and
  windowed queries, :func:`iter_stream`) return the inputs, time-sorted
  with ties in ingestion order;
* segment offsets are monotone and partition the concatenated arrays;
* bulk ingestion == per-record appends;
* JSONL round-trips through the bulk loader reproduce the store exactly.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings, strategies as st

from repro.features.windows import DimmHistory
from repro.telemetry.columnar import segmented_searchsorted
from repro.telemetry.log_store import LogStore, iter_stream
from repro.telemetry.records import (
    CERecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

_HISTORY_FIELDS = (
    "times", "dq_count", "beat_count", "dq_interval", "beat_interval",
    "n_devices", "error_bits", "rows", "columns", "banks", "devices",
)

_DIMMS = ("dimm-a", "dimm-b", "dimm-c")


def _devices(salt: int) -> tuple:
    """No device, one device, or an ascending pair up to device 17."""
    if salt % 5 == 0:
        return ()
    if salt % 5 == 1:
        return (salt % 18,)
    return (salt % 4, 4 + salt % 14)


def _time(t: float, salt: int) -> float:
    """Every seventh record carries a garbled negative clock, as the
    chaos injector's ``_corrupt_ce`` writes one."""
    return -1.0 - t / 1000.0 if salt % 7 == 0 else float(t)


def make_ce(t: float, dimm: str, salt: int = 0) -> CERecord:
    fault = {} if salt % 3 == 0 else {"fault_id": salt}
    return CERecord(
        timestamp_hours=_time(t, salt), server_id=f"server-{hash(dimm) % 3}",
        dimm_id=dimm, rank=salt % 2, bank=salt % 4,
        # Negative coordinates, as the chaos injector corrupts them.
        row=-1 - salt if salt % 11 == 0 else salt % 64,
        column=(salt * 7) % 32, devices=_devices(salt),
        dq_count=1 + salt % 4, beat_count=1 + salt % 3,
        dq_interval=salt % 5, beat_interval=salt % 6,
        error_bit_count=1 + salt % 4, **fault,
    )


def make_event(t: float, dimm: str, salt: int) -> MemEventRecord:
    kinds = list(MemEventKind)
    return MemEventRecord(
        timestamp_hours=_time(t, salt), server_id=f"s{salt % 2}",
        dimm_id=dimm, kind=kinds[salt % len(kinds)],
        detail=f"row {salt}" if salt % 2 else "",
    )


def make_ue(t: float, dimm: str, salt: int) -> UERecord:
    fault = {} if salt % 3 == 0 else {"fault_id": 100 + salt}
    return UERecord(
        timestamp_hours=_time(t, salt), server_id="s0", dimm_id=dimm,
        rank=salt % 2, bank=salt % 3, row=salt, column=-salt,
        devices=_devices(salt + 1), sudden=salt % 2 == 0, **fault,
    )


_MAKERS = {"ce": make_ce, "event": make_event, "ue": make_ue}

record_stream = st.lists(
    st.tuples(
        st.floats(0.0, 500.0, allow_nan=False),
        st.sampled_from(_DIMMS),
        st.integers(0, 40),
        st.sampled_from(["ce", "ce", "ce", "event", "ue"]),
    ),
    min_size=0,
    max_size=60,
)


def make_records(stream) -> list:
    return [_MAKERS[kind](t, dimm, salt) for t, dimm, salt, kind in stream]


def build_store(stream) -> LogStore:
    store = LogStore()
    for record in make_records(stream):
        if isinstance(record, CERecord):
            store.add_ce(record)
        elif isinstance(record, MemEventRecord):
            store.add_event(record)
        else:
            store.add_ue(record)
    return store


def by_time(records) -> list:
    """The expected query order: time-sorted, ties in ingestion order."""
    return sorted(records, key=lambda record: record.timestamp_hours)


def inputs_of(stream, cls, dimm=None) -> list:
    return by_time(
        record for record in make_records(stream)
        if isinstance(record, cls) and dimm in (None, record.dimm_id)
    )


@given(record_stream)
@settings(max_examples=60, deadline=None)
def test_fleet_slices_equal_from_records(stream):
    store = build_store(stream)
    fleet = store.fleet_arrays()
    assert fleet.dimm_ids == sorted(
        {r.dimm_id for r in make_records(stream) if isinstance(r, CERecord)}
    )
    for i, dimm_id in enumerate(fleet.dimm_ids):
        ces = inputs_of(stream, CERecord, dimm_id)
        reference = DimmHistory.from_records(
            dimm_id, ces, inputs_of(stream, MemEventRecord, dimm_id)
        )
        lo, hi = fleet.ce_offsets[i], fleet.ce_offsets[i + 1]
        for name in _HISTORY_FIELDS:
            assert np.array_equal(
                getattr(fleet, name)[lo:hi], getattr(reference, name)
            ), (dimm_id, name)
        assert np.array_equal(
            fleet.storm_times[fleet.storm_offsets[i] : fleet.storm_offsets[i + 1]],
            reference.storm_times,
        )
        assert np.array_equal(
            fleet.repair_times[
                fleet.repair_offsets[i] : fleet.repair_offsets[i + 1]
            ],
            reference.repair_times,
        )
        assert fleet.server_ids[i] == ces[0].server_id
        ues = inputs_of(stream, UERecord, dimm_id)
        if ues:
            assert fleet.ue_hours[i] == ues[0].timestamp_hours
        else:
            assert np.isnan(fleet.ue_hours[i])


@given(
    record_stream,
    st.floats(-2.0, 500.0, allow_nan=False),
    st.floats(-2.0, 500.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_record_queries_equal_inputs(stream, a, b):
    store = build_store(stream)
    ces = inputs_of(stream, CERecord)
    ues = inputs_of(stream, UERecord)
    events = inputs_of(stream, MemEventRecord)
    assert store.ces == ces
    assert store.ues == ues
    assert store.events == events
    assert len(store) == len(stream)
    # CE < UE < event on equal timestamps, then ingestion order.
    assert list(iter_stream(store)) == by_time(ces + ues + events)
    lo, hi = min(a, b), max(a, b)
    for dimm in _DIMMS + ("dimm-unknown",):
        for cls, query in (
            (CERecord, store.ces_for_dimm),
            (UERecord, store.ues_for_dimm),
            (MemEventRecord, store.events_for_dimm),
        ):
            expected = inputs_of(stream, cls, dimm)
            assert query(dimm) == expected
            assert query(dimm, lo, hi) == [
                r for r in expected if lo <= r.timestamp_hours < hi
            ]
            assert query(dimm, start_hour=lo) == [
                r for r in expected if lo <= r.timestamp_hours
            ]
            assert query(dimm, end_hour=hi) == [
                r for r in expected if r.timestamp_hours < hi
            ]
        dimm_ces = inputs_of(stream, CERecord, dimm)
        assert store.first_ce_hour(dimm) == (
            dimm_ces[0].timestamp_hours if dimm_ces else None
        )
    assert store.dimm_ids_with_ces() == sorted({ce.dimm_id for ce in ces})


@given(record_stream)
@settings(max_examples=60, deadline=None)
def test_offsets_partition_and_segments_sorted(stream):
    store = build_store(stream)
    fleet = store.fleet_arrays()
    for offsets, array in (
        (fleet.ce_offsets, fleet.times),
        (fleet.storm_offsets, fleet.storm_times),
        (fleet.repair_offsets, fleet.repair_times),
    ):
        assert offsets[0] == 0
        assert offsets[-1] == array.size
        assert (np.diff(offsets) >= 0).all()
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            segment = array[lo:hi]
            assert (np.diff(segment) >= 0).all()


@given(record_stream)
@settings(max_examples=40, deadline=None)
def test_bulk_ingest_equals_per_record_appends(stream):
    incremental = build_store(stream)
    bulk = LogStore()
    records = make_records(stream)
    bulk.ingest_bulk(records)
    a, b = incremental.fleet_arrays(), bulk.fleet_arrays()
    assert a.dimm_ids == b.dimm_ids
    for name in _HISTORY_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.ce_offsets, b.ce_offsets)
    assert np.array_equal(a.storm_times, b.storm_times)
    assert np.array_equal(a.repair_times, b.repair_times)
    assert np.array_equal(a.ue_hours, b.ue_hours, equal_nan=True)


@given(record_stream)
@settings(max_examples=25, deadline=None)
def test_jsonl_round_trip_through_columnar(stream):
    store = build_store(stream)
    with tempfile.TemporaryDirectory() as tmp:
        loaded = _check_round_trip(store, Path(tmp))
    # Every field survives: devices=(), negative coordinates and clocks,
    # event details, sudden UEs and the default fault_id.
    assert loaded.ces == inputs_of(stream, CERecord)
    assert loaded.ues == inputs_of(stream, UERecord)
    assert loaded.events == inputs_of(stream, MemEventRecord)


def _check_round_trip(store, tmp: Path) -> LogStore:
    path = tmp / "campaign.jsonl"
    count = store.dump_jsonl(path)
    assert count == len(store)
    loaded = LogStore.load_jsonl(path)
    assert loaded.skipped_lines == 0
    assert len(loaded) == len(store)
    a, b = store.fleet_arrays(), loaded.fleet_arrays()
    assert a.dimm_ids == b.dimm_ids
    for name in _HISTORY_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert np.array_equal(a.ue_hours, b.ue_hours, equal_nan=True)
    # The dumped form is canonical: a second round trip is byte-identical.
    path2 = path.with_suffix(".jsonl2")
    loaded.dump_jsonl(path2)
    assert path.read_text() == path2.read_text()
    return loaded


#: A small value set: ties are heavy, and -0.0 sits next to 0.0.
_TIED = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])


@given(
    st.lists(
        st.lists(
            st.one_of(st.floats(0.0, 100.0, allow_nan=False), _TIED),
            max_size=12,
        ),
        min_size=1,
        max_size=6,
    ),
    st.lists(
        st.tuples(
            st.one_of(st.floats(-10.0, 110.0, allow_nan=False), _TIED),
            st.integers(0, 5),
        ),
        max_size=25,
    ),
)
@example(
    segments=[[], [-0.0, 0.0, 0.0, 1.0], [], [0.0, -0.0], [2.0, 2.0, 2.0]],
    queries=[(0.0, 0), (-0.0, 1), (0.0, 1), (0.0, 3), (-0.0, 3), (2.0, 4),
             (2.0, 2), (1.0, 1), (3.0, 4), (-5.0, 4)],
)
@settings(max_examples=120, deadline=None)
def test_segmented_searchsorted_matches_per_segment(segments, queries):
    segments = [np.sort(np.asarray(seg, dtype=float)) for seg in segments]
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([seg.size for seg in segments], out=offsets[1:])
    values = np.concatenate(segments)
    # Besides the drawn queries, every value (so queries equal to values,
    # with both signs of zero) is asked of every segment, empty ones too.
    pairs = [(q, s % len(segments)) for q, s in queries] + [
        (q, s) for q in [*values, -0.0, 0.0] for s in range(len(segments))
    ]
    query_values = np.array([q for q, _ in pairs], dtype=float)
    query_segments = np.array([s for _, s in pairs], dtype=np.int64)
    got = segmented_searchsorted(values, offsets, query_values, query_segments)
    expected = np.array(
        [
            np.searchsorted(segments[s], q, side="left")
            for q, s in zip(query_values, query_segments)
        ],
        dtype=np.int64,
    )
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)
