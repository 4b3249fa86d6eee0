"""``load_jsonl``'s column-at-a-time CE encoding against the reference.

The reference parses and encodes every line on its own with
``TelemetryColumns.encode_payload`` (configs with
``DimmConfigRecord.from_dict``).  The bulk loader must build the same
table bytes, the same vocabularies in the same order, the same configs
and the same ``skipped_lines`` at every chunk size, whatever mix of good
and hostile lines it reads.
"""

import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.telemetry.columnar import DIMM_COLUMNS, TelemetryColumns
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import (
    CERecord,
    DimmConfigRecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

DIMMS = [f"d{i}" for i in range(6)]
SERVERS = ["s0", "s1", "s2"]
DELETE = object()
#: CE edits by name: each breaks one check the encoder makes on a CE (or
#: sits just inside it, marked valid).
HOSTILE_EDITS = {
    "missing-row": {"row": DELETE},
    "missing-record_type": {"record_type": DELETE},
    "no-fault (valid)": {"fault_id": DELETE},
    "dq_count-str": {"dq_count": "3"},
    "rank-bool": {"rank": True},
    "row-float": {"row": 10.0},
    "fault-null": {"fault_id": None},
    "device-float": {"devices": [1.0]},
    "devices-unordered": {"devices": [3, 1]},
    "devices-repeated": {"devices": [2, 2]},
    "devices-not-list": {"devices": 3},
    "device-52 (valid)": {"devices": [52]},
    "device-53": {"devices": [53]},
    "device-negative": {"devices": [-1]},
    "device-2^63": {"devices": [1 << 63]},
    "row-2^53-1 (valid)": {"row": (1 << 53) - 1},
    "row-2^53": {"row": 1 << 53},
    "row-minus-2^53": {"row": -(1 << 53)},
    "fault-2^63": {"fault_id": 1 << 63},
    "fault-minus-2^63": {"fault_id": -(1 << 63)},
    "fault-2^64": {"fault_id": 1 << 64},
    "time-str": {"timestamp_hours": "1.0"},
    "time-2^60+1 (valid)": {"timestamp_hours": (1 << 60) + 1},
    "time-beyond-float": {"timestamp_hours": 10**400},
    "dimm-int": {"dimm_id": 7},
    "server-null": {"server_id": None},
}


def edited(payload: dict, edit: dict) -> dict:
    payload = {**payload, **edit}
    return {key: value for key, value in payload.items() if value is not DELETE}

def reference_load(path: Path):
    columns = TelemetryColumns()
    configs = {}
    rows = {kind: [] for kind in DIMM_COLUMNS}
    skipped = 0
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
            if type(payload) is not dict:
                raise ValueError("not an object")
            if payload["record_type"] == "config":
                config = DimmConfigRecord.from_dict(payload)
                configs[config.dimm_id] = config
                continue
            kind, row = columns.encode_payload(payload)
        except (KeyError, ValueError, OverflowError):
            skipped += 1
            continue
        rows[kind].append(row)
    columns.extend_rows(rows)
    return columns, configs, skipped


times = st.one_of(
    st.floats(0.0, 5000.0, allow_nan=False),
    st.integers(0, 5000),
)
dimms = st.sampled_from(DIMMS)
servers = st.sampled_from(SERVERS)
devices = st.lists(st.integers(0, 17), max_size=4, unique=True).map(sorted)


@st.composite
def ce_payloads(draw):
    return CERecord(
        timestamp_hours=draw(times),
        server_id=draw(servers),
        dimm_id=draw(dimms),
        rank=draw(st.integers(0, 1)),
        bank=draw(st.integers(0, 15)),
        row=draw(st.integers(0, 1 << 16)),
        column=draw(st.integers(0, 1023)),
        devices=tuple(draw(devices)),
        dq_count=draw(st.integers(0, 4)),
        beat_count=draw(st.integers(0, 8)),
        dq_interval=draw(st.integers(0, 3)),
        beat_interval=draw(st.integers(0, 7)),
        error_bit_count=draw(st.integers(0, 32)),
        fault_id=draw(st.integers(-1, 50)),
    ).to_dict()


@st.composite
def hostile_ce_payloads(draw):
    edit = HOSTILE_EDITS[draw(st.sampled_from(sorted(HOSTILE_EDITS)))]
    return edited(draw(ce_payloads()), edit)


@st.composite
def ue_payloads(draw):
    return UERecord(
        timestamp_hours=draw(times), server_id=draw(servers),
        dimm_id=draw(dimms), rank=0, bank=draw(st.integers(0, 15)),
        row=draw(st.integers(0, 1000)), column=3,
        devices=tuple(draw(devices)), sudden=draw(st.booleans()),
    ).to_dict()


@st.composite
def event_payloads(draw):
    payload = MemEventRecord(
        timestamp_hours=draw(times), server_id=draw(servers),
        dimm_id=draw(dimms), kind=draw(st.sampled_from(list(MemEventKind))),
        detail=draw(st.sampled_from(["", "row", "bank 3"])),
    ).to_dict()
    if draw(st.integers(0, 5)) == 0:
        payload["kind"] = "meltdown"
    return payload


@st.composite
def config_payloads(draw):
    payload = DimmConfigRecord(
        draw(dimms), draw(servers), "p", "A", "pn", 32, 4, 2666, "1y"
    ).to_dict()
    bad = draw(st.sampled_from([None, None, "list-id", "str-int", "int-id"]))
    if bad == "list-id":
        payload["dimm_id"] = ["x"]
    elif bad == "str-int":
        payload["capacity_gb"] = "32"
    elif bad == "int-id":
        payload["dimm_id"] = 7
    return payload


#: Lines that never send a chunk's CEs to the per-payload path: valid
#: records of every kind, configs (some mistyped), non-object lines, two
#: values on one line and torn tails.
lines = st.one_of(
    ce_payloads().map(json.dumps),
    ce_payloads().map(json.dumps),
    ce_payloads().map(json.dumps),
    ue_payloads().map(json.dumps),
    event_payloads().map(json.dumps),
    config_payloads().map(json.dumps),
    st.sampled_from([
        "5", "[1, 2]", "null", '"x"', "1, 2", "", "   ",
        '{"record_type": "ue", "row": ' + "9" * 5000 + "}",
    ]),
    st.tuples(ce_payloads(), ce_payloads()).map(
        lambda pair: f"{json.dumps(pair[0])}, {json.dumps(pair[1])}"
    ),
    st.tuples(ce_payloads(), st.integers(1, 200)).map(
        lambda cut: json.dumps(cut[0])[: cut[1]]  # a torn line
    ),
)


@st.composite
def campaign_lines(draw):
    """A campaign with zero to three hostile CE lines spliced in, so both
    the block path and the per-payload fallback run."""
    body = draw(st.lists(lines, max_size=40))
    for _ in range(draw(st.sampled_from([0, 0, 1, 3]))):
        position = draw(st.integers(0, len(body)))
        body.insert(position, json.dumps(draw(hostile_ce_payloads())))
    return body


@pytest.mark.parametrize("chunk_lines", [1, 3, 4096])
@given(campaign_lines())
@settings(max_examples=80, deadline=None)
def test_load_jsonl_equals_per_payload_reference(chunk_lines, file_lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "campaign.jsonl"
        path.write_text("".join(line + "\n" for line in file_lines))
        assert_loads_like_reference(path, chunk_lines)


@pytest.mark.parametrize("chunk_lines", [1, 4096])
@pytest.mark.parametrize("edit", sorted(HOSTILE_EDITS))
def test_each_hostile_ce_loads_like_reference(tmp_path, edit, chunk_lines):
    good = [
        CERecord(t, "s0", dimm, 0, 1, 2, 3, (1,), 1, 1, 0, 0, 1).to_dict()
        for t, dimm in ((1.0, "d0"), (2.0, "d1"), (4.0, "d0"))
    ]
    bad = edited({**good[0], "dimm_id": "d-bad", "server_id": "s-bad"},
                 HOSTILE_EDITS[edit])
    path = tmp_path / "campaign.jsonl"
    path.write_text("".join(
        json.dumps(payload) + "\n" for payload in good[:2] + [bad] + good[2:]
    ))
    assert_loads_like_reference(path, chunk_lines)


def assert_loads_like_reference(path: Path, chunk_lines: int) -> None:
    columns, configs, skipped = reference_load(path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        loaded = LogStore.load_jsonl(path, chunk_lines=chunk_lines)
    for kind in DIMM_COLUMNS:
        got, want = getattr(loaded.columns, kind), getattr(columns, kind)
        assert got.rows().tobytes() == want.rows().tobytes(), kind
    for vocab in ("dimms", "servers", "details"):
        assert (
            getattr(loaded.columns, vocab).names()
            == getattr(columns, vocab).names()
        ), vocab
    assert list(loaded.configs.items()) == list(configs.items())
    assert loaded.skipped_lines == skipped


def test_ue_naming_a_new_dimm_before_a_ce_keeps_file_order(tmp_path):
    """Ids are interned in file order across kinds: a UE that names a new
    DIMM and server gets the next codes, ahead of the new ids of the CEs
    after it, although those CEs are encoded as one block."""
    ce = CERecord(1.0, "s0", "d-old", 0, 1, 2, 3, (0,), 1, 1, 0, 0, 1)
    ue = UERecord(2.0, "s-ue", "d-ue", 0, 1, 2, 3, (0,))
    late = CERecord(3.0, "s-late", "d-late", 0, 1, 2, 3, (0,), 1, 1, 0, 0, 1)
    again = CERecord(4.0, "s-ue", "d-ue", 0, 1, 2, 3, (0,), 1, 1, 0, 0, 1)
    path = tmp_path / "order.jsonl"
    path.write_text("".join(
        json.dumps(record.to_dict()) + "\n"
        for record in (ce, ue, late, again)
    ))
    loaded = LogStore.load_jsonl(path)
    assert loaded.columns.dimms.names() == ["d-old", "d-ue", "d-late"]
    assert loaded.columns.servers.names() == ["s0", "s-ue", "s-late"]
    assert loaded.ces == [ce, late, again] and loaded.ues == [ue]
