"""Tests for telemetry records, MCE codec, log store and BMC path."""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ras.ce_storm import StormConfig
from repro.telemetry.bmc import BmcCollector
from repro.telemetry.columnar import RecordEncodingError
from repro.telemetry.log_store import LogStore, iter_stream
from repro.telemetry.mce import McaSignal, decode_mce, encode_mce
from repro.telemetry.records import (
    CERecord,
    DimmConfigRecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
    record_from_dict,
)


def make_ce(t=1.0, dimm="d0", row=10, column=3, devices=(2,), **kwargs):
    defaults = dict(
        timestamp_hours=t,
        server_id="s0",
        dimm_id=dimm,
        rank=0,
        bank=1,
        row=row,
        column=column,
        devices=devices,
        dq_count=1,
        beat_count=1,
        dq_interval=0,
        beat_interval=0,
        error_bit_count=1,
    )
    defaults.update(kwargs)
    return CERecord(**defaults)


def make_ue(t=5.0, dimm="d0", sudden=False):
    return UERecord(
        timestamp_hours=t,
        server_id="s0",
        dimm_id=dimm,
        rank=0,
        bank=1,
        row=10,
        column=3,
        devices=(2, 3),
        sudden=sudden,
    )


class TestRecords:
    def test_ce_roundtrip(self):
        ce = make_ce()
        assert record_from_dict(ce.to_dict()) == ce

    def test_ue_roundtrip(self):
        ue = make_ue()
        assert record_from_dict(ue.to_dict()) == ue

    def test_event_roundtrip(self):
        event = MemEventRecord(1.0, "s0", "d0", MemEventKind.CE_STORM, "x")
        assert record_from_dict(event.to_dict()) == event

    def test_config_roundtrip(self):
        config = DimmConfigRecord(
            "d0", "s0", "intel_purley", "A", "p/n", 32, 4, 2666, "1y"
        )
        assert record_from_dict(config.to_dict()) == config

    def test_to_dict_serializes_like_asdict(self):
        """The shallow ``to_dict`` writes the same JSON, key order
        included, as ``dataclasses.asdict`` plus the record type."""
        from dataclasses import asdict

        config = DimmConfigRecord(
            "d0", "s0", "intel_purley", "A", "p/n", 32, 4, 2666, "1y"
        )
        cases = [
            (make_ce(devices=(1, 5, 9)), "ce"),
            (make_ue(sudden=True), "ue"),
            (config, "config"),
        ]
        for record, record_type in cases:
            expected = asdict(record)
            if "devices" in expected:
                expected["devices"] = list(record.devices)
            expected["record_type"] = record_type
            assert json.dumps(record.to_dict()) == json.dumps(expected)

    def test_unknown_record_type_rejected(self):
        with pytest.raises(ValueError):
            record_from_dict({"record_type": "mystery"})

    def test_multi_device_flag(self):
        assert make_ce(devices=(1, 2)).is_multi_device
        assert not make_ce(devices=(1,)).is_multi_device


class TestMceCodec:
    @given(
        channel=st.integers(0, 15),
        rank=st.integers(0, 1),
        device=st.integers(0, 17),
        bank=st.integers(0, 15),
        row=st.integers(0, (1 << 17) - 1),
        column=st.integers(0, (1 << 10) - 1),
        dq_count=st.integers(1, 4),
        beat_count=st.integers(1, 8),
        uncorrected=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip(self, **fields):
        signal = McaSignal(corrected_count=1, devices=(fields["device"],), **fields)
        status, addr, misc = encode_mce(signal)
        decoded = decode_mce(status, addr, misc)
        for name in ("channel", "rank", "device", "bank", "row", "column",
                     "dq_count", "beat_count", "uncorrected", "devices"):
            assert getattr(decoded, name) == getattr(signal, name), name

    def test_invalid_status_rejected(self):
        with pytest.raises(ValueError, match="not valid"):
            decode_mce(0, 0, 0)

    def test_non_memory_mca_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            decode_mce((1 << 63) | 0x0150, 0, 0)

    def test_out_of_range_fields_rejected(self):
        with pytest.raises(ValueError):
            encode_mce(McaSignal(channel=16, rank=0, device=0, bank=0, row=0,
                                 column=0, corrected_count=0, uncorrected=False))


class TestLogStore:
    def test_queries_are_time_sliced(self):
        store = LogStore()
        for t in (3.0, 1.0, 2.0):
            store.add_ce(make_ce(t=t))
        assert [c.timestamp_hours for c in store.ces_for_dimm("d0")] == [1, 2, 3]
        assert len(store.ces_for_dimm("d0", 1.5, 2.5)) == 1
        assert store.first_ce_hour("d0") == 1.0
        assert store.first_ce_hour("nope") is None

    def test_end_hour_spans_all_record_kinds(self):
        store = LogStore()
        store.add_ce(make_ce(t=1.0))
        store.add_ue(make_ue(t=9.0))
        assert store.end_hour == 9.0

    def test_extend_dispatches_types(self):
        store = LogStore()
        config = DimmConfigRecord("d0", "s0", "p", "A", "pn", 32, 4, 2666, "1y")
        store.ingest_bulk([make_ce(), make_ue(), config,
                           MemEventRecord(1.0, "s0", "d0", MemEventKind.CE_STORM)])
        assert len(store) == 3
        assert store.config_for("d0") == config
        with pytest.raises(TypeError):
            store.ingest_bulk([object()])

    def test_jsonl_roundtrip(self, tmp_path):
        store = LogStore()
        store.add_ce(make_ce())
        store.add_ue(make_ue())
        store.add_config(
            DimmConfigRecord("d0", "s0", "p", "A", "pn", 32, 4, 2666, "1y")
        )
        path = tmp_path / "logs.jsonl"
        count = store.dump_jsonl(path)
        assert count == 3
        loaded = LogStore.load_jsonl(path)
        assert len(loaded.ces) == 1
        assert len(loaded.ues) == 1
        assert loaded.config_for("d0").manufacturer == "A"
        assert loaded.skipped_lines == 0

    def test_load_jsonl_counts_and_warns_on_malformed_lines(self, tmp_path):
        store = LogStore()
        store.add_ce(make_ce(t=1.0))
        store.add_ce(make_ce(t=2.0))
        path = tmp_path / "torn.jsonl"
        store.dump_jsonl(path)
        lines = path.read_text().splitlines()
        lines.insert(1, "{ not json")  # torn write
        lines.append('{"record_type": "ce"}')  # fields missing
        path.write_text("\n".join(lines) + "\n")
        with pytest.warns(RuntimeWarning, match="skipped 2 malformed"):
            loaded = LogStore.load_jsonl(path)
        assert loaded.skipped_lines == 2
        assert len(loaded.ces) == 2  # the good lines all survive
        assert [c.timestamp_hours for c in loaded.ces] == [1.0, 2.0]

    @pytest.mark.parametrize(
        "bad_line",
        [
            "5",
            "[1, 2]",
            '"x"',
            "null",
            '{"record_type": "ce", "row": ' + "9" * 5000 + "}",
            "[" * 100_000,
            {"timestamp_hours": "abc"},
            {"dq_count": "3"},
            {"rank": "x"},
            {"dimm_id": 7},
            {"devices": [2.0]},
            {"rank": True},
            {"timestamp_hours": 10**400},
            ("timestamp_hours", "NaN"),
            ("timestamp_hours", "Infinity"),
            ("timestamp_hours", "-Infinity"),
            ("timestamp_hours", "1e400"),
        ],
        ids=[
            "int", "list", "string", "null", "int-too-many-digits",
            "too-deeply-nested",
            "timestamp-str",
            "dq_count-str", "rank-str", "dimm_id-int", "device-float",
            "rank-bool", "timestamp-beyond-float",
            "timestamp-nan", "timestamp-inf", "timestamp-minus-inf",
            "timestamp-float-overflow",
        ],
    )
    def test_load_jsonl_skips_mistyped_lines(self, tmp_path, bad_line):
        """A non-object line or a CE field of the wrong JSON type is one
        skipped line, never an exception or a silently loaded value."""
        from repro.obs import Observability

        store = LogStore()
        for t in (1.0, 2.0, 3.0):
            store.add_ce(make_ce(t=t, row=int(t)))
        path = tmp_path / "typed.jsonl"
        store.dump_jsonl(path)
        lines = path.read_text().splitlines()
        if isinstance(bad_line, dict):
            payload = json.loads(lines[1])
            payload.update(bad_line)
            bad_line = json.dumps(payload)
        elif isinstance(bad_line, tuple):  # one field as a raw JSON token
            field, token = bad_line
            payload = json.loads(lines[1])
            payload[field] = None
            bad_line = json.dumps(payload).replace(
                f'"{field}": null', f'"{field}": {token}'
            )
        lines[1] = bad_line
        path.write_text("\n".join(lines) + "\n")
        obs = Observability()
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed"):
            loaded = LogStore.load_jsonl(path, metrics=obs.metrics)
        assert loaded.skipped_lines == 1
        (sample,) = obs.metrics.snapshot()[
            "repro_logstore_skipped_lines_total"
        ]["samples"]
        assert sample["value"] == 1.0
        assert loaded.ces == [make_ce(t=1.0, row=1), make_ce(t=3.0, row=3)]
        assert loaded.columns.dimms.names() == ["d0"]
        assert loaded.columns.servers.names() == ["s0"]

    def test_load_jsonl_line_with_two_values_is_one_skipped_line(
        self, tmp_path
    ):
        """Each line is one record: a line holding two comma-separated
        values is broken JSON on its own, even though the chunk's joined
        array parses."""
        ce_line = json.dumps(make_ce().to_dict())
        path = tmp_path / "two.jsonl"
        path.write_text(f"{ce_line}, {ce_line}\n1, 2\n")
        for chunk_lines in (1, 4096):
            with pytest.warns(RuntimeWarning, match="skipped 2 malformed"):
                loaded = LogStore.load_jsonl(path, chunk_lines=chunk_lines)
            assert loaded.skipped_lines == 2
            assert len(loaded) == 0
            assert loaded.columns.dimms.names() == []

    @pytest.mark.parametrize(
        "middle",
        [
            "{ce}, {ce}\n[{ce}\n5]",
            "{ce}],[{ce}\n[[1\n2]]",
            "{ce}, NaN, {ce}\n[1\n2]",
        ],
        ids=[
            "two-values-then-a-split-list", "brackets-span-lines",
            "line-holds-the-chunk-mark",
        ],
    )
    def test_load_jsonl_values_shifted_across_lines_are_skipped(
        self, tmp_path, middle
    ):
        """Three broken lines whose joined array still parses as one value
        per line (a line with two values, two lines with one) load no
        record; the good lines around them still load."""
        ce_line = json.dumps(make_ce().to_dict())
        first = json.dumps(make_ce(t=0.5).to_dict())
        last = json.dumps(make_ce(t=9.0).to_dict())
        path = tmp_path / "shifted.jsonl"
        path.write_text("\n".join([first, middle.format(ce=ce_line), last]) + "\n")
        for chunk_lines in (1, 5, 4096):
            with pytest.warns(RuntimeWarning, match="skipped 3 malformed"):
                loaded = LogStore.load_jsonl(path, chunk_lines=chunk_lines)
            assert loaded.skipped_lines == 3
            assert loaded.ces == [make_ce(t=0.5), make_ce(t=9.0)]

    def test_load_jsonl_line_holding_a_json_constant_loads(self, tmp_path):
        """A JSON constant in a line (the chunk parse's line mark is one)
        sends the chunk down the line-by-line path with the same result."""
        store = LogStore()
        for t in (1.0, 2.0, 3.0):
            store.add_ce(make_ce(t=t))
        path = tmp_path / "constant.jsonl"
        store.dump_jsonl(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-1] + ', "note": NaN}'
        path.write_text("\n".join(lines) + "\n")
        loaded = LogStore.load_jsonl(path)
        assert loaded.skipped_lines == 0
        assert loaded.ces == store.ces

    @pytest.mark.parametrize(
        "overrides",
        [{"dimm_id": ["x"]}, {"capacity_gb": "32"}, {"dimm_id": 7}],
        ids=["dimm_id-list", "capacity_gb-str", "dimm_id-int"],
    )
    def test_load_jsonl_skips_mistyped_config_lines(self, tmp_path, overrides):
        good = DimmConfigRecord(
            "d0", "s0", "p", "A", "pn", 32, 4, 2666, "1y"
        )
        bad = {**good.to_dict(), "dimm_id": "d1", **overrides}
        path = tmp_path / "configs.jsonl"
        path.write_text(
            json.dumps(good.to_dict()) + "\n" + json.dumps(bad) + "\n"
            + json.dumps(make_ce().to_dict()) + "\n"
        )
        with pytest.warns(RuntimeWarning, match="skipped 1 malformed"):
            loaded = LogStore.load_jsonl(path)
        assert loaded.skipped_lines == 1
        assert loaded.configs == {"d0": good}
        assert loaded.ces == [make_ce()]
        with pytest.raises(ValueError, match="is not"):
            DimmConfigRecord.from_dict(bad)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"devices": (3, 1)},
            {"devices": (2, 2)},
            {"devices": (53,)},
            {"devices": (-1,)},
            {"devices": (float("nan"),)},
            {"row": float("nan")},
            {"row": 1.5},
            {"dq_count": 1e9},
            {"fault_id": 1 << 53},
            {"rank": "0"},
            {"dimm_id": 7},
            {"t": "1.0"},
            {"t": 10**400},
            {"t": float("nan")},
            {"t": float("inf")},
        ],
    )
    def test_unencodable_record_raises_and_stores_nothing(self, overrides):
        store = LogStore()
        with pytest.raises(RecordEncodingError):
            store.add_ce(make_ce(**overrides))
        # Checked before any id is interned.
        assert len(store) == 0 and store.columns.dimms.names() == []
        assert store.columns.servers.names() == []
        with pytest.raises(RecordEncodingError):
            store.ingest_bulk([make_ce(t=0.5), make_ce(**overrides)])
        assert len(store) == 0  # no row of the batch lands

    def test_device_bitmask_round_trips_every_x4_device(self):
        store = LogStore()
        every = tuple(range(18))
        store.add_ce(make_ce(devices=every))
        store.add_ce(make_ce(t=2.0, devices=()))
        store.add_ue(make_ue())
        assert [ce.devices for ce in store.ces] == [every, ()]
        assert store.ues == [make_ue()]

    def test_iter_stream_is_time_ordered(self):
        store = LogStore()
        store.add_ue(make_ue(t=2.0))
        store.add_ce(make_ce(t=1.0))
        store.add_ce(make_ce(t=3.0))
        times = [r.timestamp_hours for r in iter_stream(store)]
        assert times == sorted(times)


class TestBmcCollector:
    def _raw_ce(self, row=1, column=1, dq_count=1):
        signal = McaSignal(
            channel=0, rank=0, device=2, bank=1, row=row, column=column,
            corrected_count=1, uncorrected=False, dq_count=dq_count,
            beat_count=1, devices=(2,), error_bit_count=dq_count,
        )
        return encode_mce(signal)

    def test_ce_collection_decodes_registers(self):
        store = LogStore()
        bmc = BmcCollector(store)
        status, addr, misc = self._raw_ce(row=42, column=7, dq_count=2)
        bmc.collect_raw(1.0, "s0", "d0", status, addr, misc, fault_id=9)
        ce = store.ces_for_dimm("d0")[0]
        assert (ce.row, ce.column, ce.dq_count, ce.fault_id) == (42, 7, 2, 9)
        assert bmc.stats.ces_logged == 1

    def test_storm_suppression_drops_ces_but_logs_event(self):
        store = LogStore()
        bmc = BmcCollector(store, StormConfig(threshold=5, window_hours=1.0))
        status, addr, misc = self._raw_ce()
        for i in range(10):
            bmc.collect_raw(1.0 + i * 1e-3, "s0", "d0", status, addr, misc)
        assert bmc.stats.ces_suppressed == 5
        assert bmc.stats.storms == 1
        assert len(store.ces_for_dimm("d0")) == 5
        assert store.events_for_dimm("d0")[0].kind is MemEventKind.CE_STORM

    def test_ue_marked_sudden_without_history(self):
        store = LogStore()
        bmc = BmcCollector(store)
        signal = McaSignal(channel=0, rank=0, device=2, bank=1, row=1, column=1,
                           corrected_count=0, uncorrected=True, devices=(2,))
        bmc.collect_raw(5.0, "s0", "d0", *encode_mce(signal))
        assert store.ues_for_dimm("d0")[0].sudden

    def test_ue_not_sudden_with_history(self):
        store = LogStore()
        bmc = BmcCollector(store)
        bmc.collect_raw(1.0, "s0", "d0", *self._raw_ce())
        signal = McaSignal(channel=0, rank=0, device=2, bank=1, row=1, column=1,
                           corrected_count=0, uncorrected=True, devices=(2,))
        bmc.collect_raw(5.0, "s0", "d0", *encode_mce(signal))
        assert not store.ues_for_dimm("d0")[0].sudden
