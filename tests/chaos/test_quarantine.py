"""Quarantine: clean-run identity, typed rejects, dead-letter accounting."""

import pytest

from repro.chaos.faults import CorruptSpec, TelemetryFaultInjector
from repro.chaos.quarantine import (
    DEAD_LETTER_TOPIC,
    MAX_COORDINATE,
    MAX_COUNT,
    RejectReason,
    ce_reject_reason,
    quarantine_columns,
)
from repro.streaming.bus import EventBus
from repro.telemetry.columnar import (
    CE_BANK,
    CE_BEAT_INTERVAL,
    CE_COLUMN,
    CE_DEVICE0,
    CE_DQ_COUNT,
    CE_ERROR_BITS,
    CE_ROW,
    CE_T,
)
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import CERecord, DimmConfigRecord


def _config(dimm="d0"):
    return DimmConfigRecord(
        dimm_id=dimm, server_id="s0", platform="intel_purley",
        manufacturer="A", part_number="pn", capacity_gb=32, data_width=4,
        frequency_mts=2666, chip_process="1y",
    )


def _ce(t=1.0, dimm="d0", **overrides):
    payload = dict(
        timestamp_hours=t, server_id="s0", dimm_id=dimm, rank=0, bank=0,
        row=1, column=1, devices=(0,), dq_count=1, beat_count=1,
        dq_interval=0, beat_interval=0, error_bit_count=1,
    )
    payload.update(overrides)
    return CERecord(**payload)


def _store(records):
    store = LogStore()
    store.add_config(_config())
    store.ingest_bulk(records)
    return store


class TestCleanIdentity:
    def test_clean_columns_returned_by_identity(self, tiny_study):
        columns = tiny_study["intel_purley"].store.columns
        filtered, report = quarantine_columns(columns)
        assert filtered is columns  # the bit-for-bit clean-run guarantee
        assert report.total == 0
        assert report.by_reason == {} and report.by_kind == {}

    def test_clean_columns_publish_nothing(self, tiny_study):
        bus = EventBus()
        quarantine_columns(tiny_study["intel_purley"].store.columns, bus=bus)
        assert bus.counts().get(DEAD_LETTER_TOPIC, 0) == 0


class TestRejects:
    @pytest.mark.parametrize(
        "overrides, reason",
        [
            ({"timestamp_hours": -5.0}, RejectReason.BAD_TIMESTAMP),
            ({"row": -3}, RejectReason.BAD_COORDINATE),
            ({"column": MAX_COORDINATE + 7}, RejectReason.BAD_COORDINATE),
            ({"dq_count": -1}, RejectReason.BAD_COUNT),
            ({"beat_count": -4}, RejectReason.BAD_COUNT),
        ],
    )
    def test_bad_ce_quarantined_with_typed_reason(self, overrides, reason):
        store = _store([_ce(1.0), _ce(2.0, **overrides), _ce(3.0)])
        bus = EventBus()
        filtered, report = quarantine_columns(store.columns, bus=bus)
        assert filtered is not store.columns
        assert len(filtered.ces) == 2
        assert report.total == 1
        assert report.by_reason == {reason.value: 1}
        assert report.by_kind == {"ce": 1}
        assert bus.counts()[DEAD_LETTER_TOPIC] == 1

    def test_filtered_columns_share_vocabularies(self):
        store = _store([_ce(1.0), _ce(2.0, row=-1)])
        filtered, _ = quarantine_columns(store.columns)
        assert filtered.dimms is store.columns.dimms
        assert filtered.servers is store.columns.servers

    def test_dead_letter_payload_names_the_dimm(self):
        store = _store([_ce(1.0), _ce(2.0, dq_count=-9)])
        bus = EventBus()
        letters = []
        bus.subscribe(DEAD_LETTER_TOPIC, lambda topic, msg: letters.append(msg))
        quarantine_columns(store.columns, bus=bus)
        assert len(letters) == 1
        assert letters[0]["kind"] == "ce"
        assert letters[0]["reason"] == RejectReason.BAD_COUNT.value
        assert letters[0]["dimm"] == "d0"
        assert letters[0]["timestamp_hours"] == 2.0


class TestScalarChecker:
    """The online service's per-CE check and the vectorised pass apply the
    same rules, so they must agree on every row."""

    #: Hostile values by CE column.  The store refuses a record holding
    #: them (NaN, infinite or fractional integer fields, a NaN device), so
    #: they are written into the table directly, as a corrupt shard would
    #: carry them.
    HOSTILE = [
        {CE_T: float("nan")},
        {CE_T: float("inf")},
        {CE_T: -5.0},
        {CE_ROW: float("nan")},
        {CE_COLUMN: float("-inf")},
        {CE_BANK: MAX_COORDINATE},
        {CE_DEVICE0: float("nan")},
        {CE_DQ_COUNT: float("inf")},
        {CE_BEAT_INTERVAL: -1},
        {CE_ERROR_BITS: float("nan")},
        {CE_DQ_COUNT: 1e9},
        {CE_ERROR_BITS: MAX_COUNT},
        {CE_T: -1.0, CE_ROW: -1, CE_DQ_COUNT: -1},
    ]

    def test_scalar_checker_matches_vectorised_pass(self, tiny_study):
        store = _store([_ce(1.0)])
        template = store.columns.ces.rows()[0].copy()
        for i, overrides in enumerate(self.HOSTILE):
            row = template.copy()
            row[CE_T] = 2.0 + i
            for column, value in overrides.items():
                row[column] = value
            store.columns.ces.append(tuple(row))
        rows = store.columns.ces.rows()
        bus = EventBus()
        letters = []
        bus.subscribe(DEAD_LETTER_TOPIC, lambda topic, msg: letters.append(msg))
        quarantine_columns(store.columns, bus=bus)
        scalar = [ce_reject_reason(tuple(row)) for row in rows.tolist()]
        assert scalar[0] is None
        assert [reason.value for reason in scalar[1:]] == [
            letter["reason"] for letter in letters
        ]
        for study in tiny_study.values():
            clean = study.store.columns.ces.rows()
            assert all(ce_reject_reason(row) is None for row in clean.tolist())

    def test_count_bound_is_exclusive(self):
        columns = _store([_ce(1.0, error_bit_count=MAX_COUNT - 1)]).columns
        assert ce_reject_reason(columns.ces.rows()[0]) is None


class TestInjectorQuarantineContract:
    def test_every_corruption_is_detected(self, tiny_study):
        """dead-letter count == injected corrupt count, exactly.

        This is the CI chaos-smoke invariant: :func:`_corrupt_ce` only
        produces detectably-invalid records, and quarantine catches each.
        """
        store = tiny_study["intel_purley"].store
        faulted, injection = TelemetryFaultInjector(
            [CorruptSpec(rate=0.1)], seed=21
        ).inject(store)
        assert injection.corrupted > 0
        bus = EventBus()
        _, report = quarantine_columns(faulted.columns, bus=bus)
        assert report.total == injection.corrupted
        assert bus.counts()[DEAD_LETTER_TOPIC] == injection.corrupted
