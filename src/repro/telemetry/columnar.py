"""Columnar (struct-of-arrays) telemetry store: the one copy of every record.

:class:`TelemetryColumns` keeps one campaign's CEs, UEs and memory events
as one growable float64 table per kind (amortized O(1) appends via
doubling buffers), plus vocabularies interning DIMM ids, server ids and
event details.  Every record field is a column, so record objects are
rebuilt bit-for-bit from rows on request (:meth:`~TelemetryColumns.records`)
while the fast paths (fleet extraction, replay kernels, quarantine,
shards) read the tables directly.  The encoding is exact: integer fields
must be integers below 2^53 in magnitude, a record's devices are one
bitmask column (ascending, unique, below :data:`MAX_DEVICE`), and a
record that breaks this raises :class:`RecordEncodingError` on ingest.

:meth:`TelemetryColumns.fleet_view` lexsorts each kind once by
``(dimm, time)`` and returns a :class:`FleetArrays` — ragged per-DIMM
concatenations with segment offsets, ordered by sorted DIMM id.  Every
per-DIMM history is then a zero-copy slice of these arrays, and the
cross-DIMM extraction pass consumes them whole.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields
from itertools import chain, repeat
from operator import attrgetter, itemgetter

import numpy as np

from repro.telemetry.records import (
    CERecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)

#: Column layout of the CE table.
CE_T, CE_DQ_COUNT, CE_BEAT_COUNT, CE_DQ_INTERVAL, CE_BEAT_INTERVAL = range(5)
CE_N_DEVICES, CE_ERROR_BITS, CE_ROW, CE_COLUMN, CE_BANK = range(5, 10)
CE_DEVICE0, CE_DIMM, CE_SERVER = range(10, 13)
CE_RANK, CE_DEVICE_MASK, CE_FAULT = range(13, 16)
CE_WIDTH = 16


def ce_values(ce: CERecord) -> tuple:
    """A CE's value fields, columns ``CE_T .. CE_DEVICE0`` of its row."""
    return (
        ce.timestamp_hours,
        ce.dq_count,
        ce.beat_count,
        ce.dq_interval,
        ce.beat_interval,
        len(ce.devices),
        ce.error_bit_count,
        ce.row,
        ce.column,
        ce.bank,
        ce.devices[0] if ce.devices else 0,
    )


#: The value columns ``CE_T .. CE_DEVICE0`` as named history arrays
#: (:class:`FleetArrays`, ``DimmHistory``); coordinates become int64.
CE_VALUE_FIELDS = (
    "times", "dq_count", "beat_count", "dq_interval", "beat_interval",
    "n_devices", "error_bits", "rows", "columns", "banks", "devices",
)


def ce_value_arrays(table: np.ndarray) -> dict[str, np.ndarray]:
    """A CE table's (or a ``ce_values`` block's) value columns by field."""
    return {
        name: table[:, column].astype(np.int64) if column >= CE_ROW
        else np.ascontiguousarray(table[:, column])
        for column, name in enumerate(CE_VALUE_FIELDS)
    }


#: Column layout of the UE table (the record's field order).
UE_T, UE_SERVER, UE_DIMM, UE_RANK, UE_BANK, UE_ROW, UE_COLUMN = range(7)
UE_DEVICE_MASK, UE_SUDDEN, UE_FAULT = range(7, 10)
UE_WIDTH = 10

#: Column layout of the memory-event table (the record's field order).
EV_T, EV_SERVER, EV_DIMM, EV_KIND, EV_DETAIL = range(5)
EV_WIDTH = 5

#: The DIMM-code column of each :class:`TelemetryColumns` table, by table
#: name (every table keeps the timestamp in column 0).
DIMM_COLUMNS = {"ces": CE_DIMM, "ues": UE_DIMM, "events": EV_DIMM}

#: Integer codes of the memory-event kinds as stored in the event table
#: (public: the streaming replay engine decodes event rows with these).
KIND_CODES = {kind: code for code, kind in enumerate(MemEventKind)}
STORM_CODE = KIND_CODES[MemEventKind.CE_STORM]
REPAIR_CODES = frozenset(
    KIND_CODES[kind]
    for kind in (
        MemEventKind.PAGE_OFFLINE,
        MemEventKind.ROW_SPARED,
        MemEventKind.BANK_SPARED,
        MemEventKind.PCLS_APPLIED,
    )
)
#: A kind arrives as the enum (records) or its value string (JSONL).
_KIND_CODE_OF = {
    **KIND_CODES,
    **{kind.value: code for kind, code in KIND_CODES.items()},
}

#: float64 holds every integer of magnitude below this exactly.
EXACT_INT = 1 << 53
#: Devices are bits of one float64-exact mask, so indices stay below 53.
MAX_DEVICE = 53

_INT_TYPES = frozenset(
    (int, np.int8, np.int16, np.int32, np.int64,
     np.uint8, np.uint16, np.uint32, np.uint64)
)
_TIME_TYPES = _INT_TYPES | {float, np.float16, np.float32, np.float64}
_BOOL_TYPES = frozenset((bool, np.bool_))


class RecordEncodingError(ValueError):
    """A record the columnar encoding cannot hold exactly."""


def _check(ok: bool, values) -> None:
    if not ok:
        raise RecordEncodingError(f"record cannot be stored exactly: {values!r}")


def _hours(t, values) -> float:
    """A type-checked timestamp as a finite float64 (NaN, an infinity and
    an integer beyond float range cannot be stored)."""
    try:
        hours = float(t)
    except OverflowError:
        hours = math.inf
    if not math.isfinite(hours):
        raise RecordEncodingError(
            f"record cannot be stored exactly: {values!r}"
        )
    return hours


def _checked_devices(values, t, server, dimm, devices, ints: tuple) -> tuple:
    """Type-check a CE/UE; return ``(count, first device, bitmask)``."""
    _check(type(devices) in (list, tuple), values)
    ints += tuple(devices)
    _check(
        type(t) in _TIME_TYPES
        and type(server) is str
        and type(dimm) is str
        and set(map(type, ints)) <= _INT_TYPES
        and -EXACT_INT < min(ints)
        and max(ints) < EXACT_INT,
        values,
    )
    return _device_code(tuple(devices))


@functools.lru_cache(maxsize=4096)
def _device_code(devices: tuple) -> tuple[int, int, int]:
    """``(count, first device, bitmask)`` of an ascending device tuple."""
    mask = 0
    for device in devices:
        # ``mask >> device`` is non-zero iff an earlier device is >= this
        # one, i.e. the tuple is not strictly ascending.
        _check(0 <= device < MAX_DEVICE and not mask >> device, devices)
        mask |= 1 << device
    return len(devices), (devices[0] if devices else 0), mask


@functools.lru_cache(maxsize=4096)
def _devices_of(mask: int) -> tuple[int, ...]:
    return tuple(d for d in range(MAX_DEVICE) if mask >> d & 1)


#: Per kind: the record class, its JSONL ``record_type``, the name of its
#: row encoder, and each field's column in field order (records are
#: rebuilt positionally from these columns).
_RECORD_LAYOUT = {
    "ces": (CERecord, "ce", "_ce_row", {
        "timestamp_hours": CE_T, "server_id": CE_SERVER, "dimm_id": CE_DIMM,
        "rank": CE_RANK, "bank": CE_BANK, "row": CE_ROW,
        "column": CE_COLUMN, "devices": CE_DEVICE_MASK,
        "dq_count": CE_DQ_COUNT, "beat_count": CE_BEAT_COUNT,
        "dq_interval": CE_DQ_INTERVAL, "beat_interval": CE_BEAT_INTERVAL,
        "error_bit_count": CE_ERROR_BITS, "fault_id": CE_FAULT,
    }),
    "ues": (UERecord, "ue", "_ue_row", {
        f.name: column for column, f in enumerate(fields(UERecord))
    }),
    "events": (MemEventRecord, "event", "_event_row", {
        f.name: column for column, f in enumerate(fields(MemEventRecord))
    }),
}


def _payload_getter(cls):
    """A JSONL payload's field values in ``cls``'s field order (a field
    with a default may be missing)."""
    required = itemgetter(*[f.name for f in fields(cls) if f.default is MISSING])
    names, defaults = zip(*[
        (f.name, f.default) for f in fields(cls) if f.default is not MISSING
    ])
    return lambda payload: required(payload) + tuple(
        map(payload.get, names, defaults)
    )


#: Per kind: the getters of a record's and of a payload's field values.
_GETTERS = {
    kind: (attrgetter(*layout), _payload_getter(cls))
    for kind, (cls, _, _, layout) in _RECORD_LAYOUT.items()
}

#: The integer fields of a CE payload and their columns (``fault_id``,
#: the one field with a default, last).
_CE_INT_FIELDS = {
    name: column
    for name, column in _RECORD_LAYOUT["ces"][3].items()
    if name not in ("timestamp_hours", "server_id", "dimm_id", "devices")
}
#: The fields every CE payload must carry, integer fields last.
_CE_REQUIRED = (
    "timestamp_hours", "server_id", "dimm_id", "devices",
    *list(_CE_INT_FIELDS)[:-1],
)


def _exact(values, types: set) -> bool:
    """Whether every value's type is exactly one of ``types``."""
    return set(map(type, values)) <= types


def _ce_block(payloads: list[dict]) -> tuple | None:
    """Encode CE payloads a column at a time, without interning ids.

    Makes every check ``_ce_row`` makes, once per column: each field
    present, exact JSON types (``int`` for the integer fields and the
    device indices, ``int``/``float`` for the timestamp, ``str`` for the
    ids, ``list`` for the devices), finite timestamps, integers below 2^53
    in magnitude and devices ascending below :data:`MAX_DEVICE`.  Returns
    ``(block, dimm ids, server ids)``, the ``(n, CE_WIDTH)`` block's id
    columns unset, or ``None`` when any payload fails a check.
    """
    try:
        times, servers, dimms, devices, *ints = [
            list(map(itemgetter(name), payloads)) for name in _CE_REQUIRED
        ]
    except KeyError:
        return None
    ints.append(list(map(dict.get, payloads, repeat("fault_id"), repeat(-1))))
    if not (
        _exact(times, {int, float})
        and _exact(servers, {str})
        and _exact(dimms, {str})
        and _exact(devices, {list})
        and _exact(chain.from_iterable(ints), {int})
        and _exact(chain.from_iterable(devices), {int})
    ):
        return None
    try:
        int_block = np.array(ints, dtype=np.int64)
        times = np.array(times, dtype=float)
        codes = np.array(list(map(_device_code, map(tuple, devices))))
    except (OverflowError, RecordEncodingError):
        return None
    if not (
        -EXACT_INT < int_block.min()
        and int_block.max() < EXACT_INT
        and np.isfinite(times).all()
    ):
        return None
    block = np.empty((len(payloads), CE_WIDTH))
    block[:, CE_T] = times
    block[:, list(_CE_INT_FIELDS.values())] = int_block.T
    block[:, [CE_N_DEVICES, CE_DEVICE0, CE_DEVICE_MASK]] = codes
    return block, dimms, servers


class ColumnarTable:
    """Growable float64 row table with amortized O(1) appends."""

    def __init__(self, n_columns: int, capacity: int = 64):
        self._buffer = np.empty((capacity, n_columns), dtype=float)
        self._n = 0

    def append(self, row: tuple) -> None:
        if self._n == self._buffer.shape[0]:
            self._grow(self._n + 1)
        self._buffer[self._n] = row
        self._n += 1

    def extend(self, rows: np.ndarray) -> None:
        """Bulk-append a ``(m, n_columns)`` block in one copy."""
        rows = np.asarray(rows, dtype=float)
        if rows.size == 0:
            return
        needed = self._n + rows.shape[0]
        if needed > self._buffer.shape[0]:
            self._grow(needed)
        self._buffer[self._n : needed] = rows
        self._n = needed

    def _grow(self, needed: int) -> None:
        capacity = self._buffer.shape[0]
        while capacity < needed:
            capacity *= 2
        grown = np.empty((capacity, self._buffer.shape[1]), dtype=float)
        grown[: self._n] = self._buffer[: self._n]
        self._buffer = grown

    def rows(self) -> np.ndarray:
        """View of the filled prefix (aliases the internal buffer)."""
        return self._buffer[: self._n]

    def __len__(self) -> int:
        return self._n

    @classmethod
    def from_rows(cls, rows: np.ndarray) -> "ColumnarTable":
        """Adopt a ``(m, n_columns)`` block as the table's full contents.

        The block is aliased, not copied, so a read-only (memory-mapped)
        array is a valid backing store: the buffer is exactly full, so
        the first ``append``/``extend`` grows into a fresh writable
        buffer before touching any row.
        """
        rows = np.asarray(rows)
        if rows.ndim != 2:
            raise ValueError(
                f"ColumnarTable.from_rows needs a 2-d block, got shape "
                f"{rows.shape}"
            )
        if rows.shape[0] == 0:
            # An empty block would leave a zero-capacity buffer that the
            # doubling ``_grow`` can never enlarge; start fresh instead.
            return cls(rows.shape[1])
        table = cls.__new__(cls)
        table._buffer = rows
        table._n = int(rows.shape[0])
        return table


class Vocabulary:
    """Interned string ids <-> dense integer codes (first-seen order)."""

    def __init__(self) -> None:
        self._codes: dict[str, int] = {}
        self._names: list[str] = []

    def intern(self, name: str) -> int:
        code = self._codes.get(name)
        if code is None:
            code = len(self._names)
            self._codes[name] = code
            self._names.append(name)
        return code

    def name(self, code: int) -> str:
        return self._names[code]

    def code(self, name: str) -> int | None:
        """``name``'s code, or ``None`` when it was never interned."""
        return self._codes.get(name)

    def codes(self, names) -> list[int]:
        """The codes of already-interned ``names``."""
        return list(map(self._codes.__getitem__, names))

    def names(self) -> list[str]:
        return list(self._names)

    def __len__(self) -> int:
        return len(self._names)

    @classmethod
    def from_names(cls, names) -> "Vocabulary":
        """Rebuild a vocabulary whose code for ``names[i]`` is ``i``."""
        vocab = cls()
        for name in names:
            vocab.intern(str(name))
        if len(vocab) != len(names):
            raise ValueError("Vocabulary.from_names needs distinct names")
        return vocab


@dataclass
class FleetArrays:
    """Every fleet DIMM's telemetry as ragged (dimm, time)-sorted arrays.

    ``dimm_ids`` lists the DIMMs with at least one CE, in sorted-id order;
    segment ``i`` of each array (between ``*_offsets[i]`` and
    ``*_offsets[i + 1]``) holds DIMM ``i``'s records, time-sorted with
    ties in ingestion order — exactly the layout
    :meth:`DimmHistory.from_records` produces per DIMM.
    """

    dimm_ids: list[str]
    server_ids: list[str]  # per DIMM: server of the first CE
    # CE columns (concatenated; float except the int64 coordinates).
    times: np.ndarray
    dq_count: np.ndarray
    beat_count: np.ndarray
    dq_interval: np.ndarray
    beat_interval: np.ndarray
    n_devices: np.ndarray
    error_bits: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    banks: np.ndarray
    devices: np.ndarray
    ce_offsets: np.ndarray
    # Event segments (storms / repair actions), same ragged layout.
    storm_times: np.ndarray
    storm_offsets: np.ndarray
    repair_times: np.ndarray
    repair_offsets: np.ndarray
    #: First UE hour per DIMM (NaN when the DIMM never saw a UE).
    ue_hours: np.ndarray

    @property
    def n_dimms(self) -> int:
        return len(self.dimm_ids)

    def __len__(self) -> int:
        return int(self.times.size)


def _segmented(
    table: np.ndarray,
    t_col: int,
    dimm_col: int,
    rank: np.ndarray,
    n_dimms: int,
    keep: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sort one kind's rows by ``(dimm rank, time)``; return offsets too."""
    if table.size:
        row_rank = rank[table[:, dimm_col].astype(np.int64)]
    else:
        row_rank = np.empty(0, dtype=np.int64)
    mask = row_rank >= 0
    if keep is not None:
        mask &= keep
    if not mask.all():
        table = table[mask]
        row_rank = row_rank[mask]
    order = np.lexsort((table[:, t_col], row_rank))
    counts = np.bincount(row_rank, minlength=n_dimms)
    offsets = np.zeros(n_dimms + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return table[order], offsets


class TelemetryColumns:
    """One campaign's telemetry records (the fleet store)."""

    def __init__(self) -> None:
        self.ces = ColumnarTable(CE_WIDTH)
        self.ues = ColumnarTable(UE_WIDTH)
        self.events = ColumnarTable(EV_WIDTH)
        self.dimms = Vocabulary()
        self.servers = Vocabulary()
        self.details = Vocabulary()
        self.version = 0
        self._fleet: FleetArrays | None = None
        self._fleet_version = -1
        self._dimm_indexes: dict[str, tuple] = {}

    # -- ingestion ---------------------------------------------------------

    # Every check runs before any id is interned, so a rejected record
    # leaves no stray vocabulary entry behind.

    def _ce_row(self, values: tuple) -> tuple:
        (t, server, dimm, rank, bank, row, column, devices, dq_count,
         beat_count, dq_interval, beat_interval, error_bits, fault) = values
        n_devices, device0, mask = _checked_devices(
            values, t, server, dimm, devices,
            (rank, bank, row, column, dq_count, beat_count, dq_interval,
             beat_interval, error_bits, fault),
        )
        return (
            _hours(t, values), dq_count, beat_count, dq_interval,
            beat_interval, n_devices, error_bits, row, column, bank, device0,
            self.dimms.intern(dimm), self.servers.intern(server), rank, mask,
            fault,
        )

    def _ue_row(self, values: tuple) -> tuple:
        (t, server, dimm, rank, bank, row, column, devices, sudden,
         fault) = values
        _check(type(sudden) in _BOOL_TYPES, values)
        mask = _checked_devices(
            values, t, server, dimm, devices, (rank, bank, row, column, fault)
        )[2]
        return (
            _hours(t, values), self.servers.intern(server),
            self.dimms.intern(dimm), rank, bank, row, column, mask,
            bool(sudden), fault,
        )

    def _event_row(self, values: tuple) -> tuple:
        t, server, dimm, kind, detail = values
        _check(
            type(t) in _TIME_TYPES
            and type(server) is str
            and type(dimm) is str
            and type(detail) is str
            and isinstance(kind, (str, MemEventKind))
            and kind in _KIND_CODE_OF,
            values,
        )
        return (
            _hours(t, values), self.servers.intern(server),
            self.dimms.intern(dimm), _KIND_CODE_OF[kind],
            self.details.intern(detail),
        )

    def encode(self, record) -> tuple[str, tuple]:
        """``(kind, row)`` of one record object; interns its strings."""
        for kind, (cls, _, encoder, _) in _RECORD_LAYOUT.items():
            if isinstance(record, cls):
                return kind, getattr(self, encoder)(_GETTERS[kind][0](record))
        raise TypeError(f"unknown record type {type(record)!r}")

    def encode_payload(self, payload: dict) -> tuple[str, tuple]:
        """``(kind, row)`` of one JSONL payload, typed like a record.

        Raises ``KeyError`` for a missing field and
        :class:`RecordEncodingError` for an unknown ``record_type`` or a
        field of the wrong JSON type (``"dq_count": "3"``, ...).
        """
        record_type = payload["record_type"]
        for kind, (_, name, encoder, _) in _RECORD_LAYOUT.items():
            if record_type == name:
                return kind, getattr(self, encoder)(_GETTERS[kind][1](payload))
        raise RecordEncodingError(f"unknown record_type {record_type!r}")

    def append(self, record) -> None:
        """Append one record object (CE, UE or memory event)."""
        kind, row = self.encode(record)
        getattr(self, kind).append(row)
        self.version += 1

    def extend_rows(self, rows_by_kind: dict[str, list]) -> None:
        """Bulk-append encoded rows: one table copy per kind."""
        for kind, rows in rows_by_kind.items():
            if rows:
                getattr(self, kind).extend(np.array(rows, dtype=float))
                self.version += 1

    def extend_payloads(self, payloads: list[dict]) -> int:
        """Encode and append JSONL payloads (file order); return how many
        were skipped because :meth:`encode_payload` rejects them.

        The CE payloads are encoded a column at a time (``_ce_block``) and
        land as one block.  The rest (UEs, events, anything malformed) go
        through :meth:`encode_payload` one by one, and so does every
        payload when any CE fails a column check.  Either way the tables
        and vocabularies come out exactly as :meth:`encode_payload` on
        each payload in turn would build them: ids are interned in file
        order across kinds, and only for payloads that pass.
        """
        # Steps in file order: ``(position, 0 or 1, name)`` interns a CE's
        # new id into ``vocabs[0 or 1]``; ``(position, 2, None)`` encodes
        # that payload one by one.
        vocabs = (self.dimms, self.servers)
        kinds = list(map(dict.get, payloads, repeat("record_type")))
        ce_at = [i for i, kind in enumerate(kinds) if kind == "ce"]
        encoded = _ce_block([payloads[i] for i in ce_at]) if ce_at else None
        if encoded is None:
            steps = [(i, 2, None) for i in range(len(payloads))]
        else:
            block, dimm_ids, server_ids = encoded
            steps = [
                (i, 2, None) for i, kind in enumerate(kinds) if kind != "ce"
            ]
            # A new id is interned at its first CE, in file order with
            # the other payloads (one of which may name it first).
            for step, names in enumerate((dimm_ids, server_ids)):
                first_at = dict(zip(reversed(names), reversed(ce_at)))
                steps += [
                    (position, step, name)
                    for name, position in first_at.items()
                    if vocabs[step].code(name) is None
                ]
            steps.sort()
        rows: dict[str, list] = {kind: [] for kind in DIMM_COLUMNS}
        skipped = 0
        for position, step, name in steps:
            if step < 2:
                vocabs[step].intern(name)
                continue
            try:
                kind, row = self.encode_payload(payloads[position])
            except (KeyError, ValueError):
                skipped += 1
                continue
            rows[kind].append(row)
        if encoded is not None:
            block[:, CE_DIMM] = self.dimms.codes(dimm_ids)
            block[:, CE_SERVER] = self.servers.codes(server_ids)
            self.ces.extend(block)
            self.version += 1
        self.extend_rows(rows)
        return skipped

    # -- record views ------------------------------------------------------

    def _dimm_index(self, kind: str) -> tuple:
        """``(order, codes, times)`` of the stable ``(dimm, time)`` sort of
        ``kind``'s rows, cached until the next append."""
        cached = self._dimm_indexes.get(kind)
        if cached is None or cached[0] != self.version:
            rows = getattr(self, kind).rows()
            codes, times = rows[:, DIMM_COLUMNS[kind]], rows[:, 0]
            order = np.lexsort((times, codes))
            cached = (self.version, order, codes[order], times[order])
            self._dimm_indexes[kind] = cached
        return cached[1:]

    def dimm_rows(
        self,
        kind: str,
        dimm_id: str,
        start_hour: float | None = None,
        end_hour: float | None = None,
    ) -> np.ndarray:
        """Row indices of one DIMM's ``kind`` records in ``[start, end)``.

        Time-ordered, ties in append order.  One cached stable
        ``(dimm, time)`` lexsort serves every DIMM until the next append.
        """
        code = self.dimms.code(dimm_id)
        if code is None or not len(getattr(self, kind)):
            return np.empty(0, dtype=np.int64)
        order, codes, times = self._dimm_index(kind)
        lo = int(np.searchsorted(codes, code, side="left"))
        hi = int(np.searchsorted(codes, code, side="right"))
        segment = times[lo:hi]
        if end_hour is not None:
            hi = lo + int(np.searchsorted(segment, end_hour, side="left"))
        if start_hour is not None:
            lo += int(np.searchsorted(segment, start_hour, side="left"))
        return order[lo:hi]

    def records(self, kind: str, index: np.ndarray | None = None) -> list:
        """Record objects of ``kind`` rows ``index`` (all rows if None)."""
        cls, _, _, layout = _RECORD_LAYOUT[kind]
        rows = getattr(self, kind).rows()
        if index is not None:
            rows = rows[index]
        decode = {
            "server_id": self.servers.name,
            "dimm_id": self.dimms.name,
            "devices": _devices_of,
            "sudden": bool,
            "kind": list(MemEventKind).__getitem__,
            "detail": self.details.name,
        }
        values = []
        for name, column in layout.items():
            if name == "timestamp_hours":
                values.append(rows[:, column].tolist())
                continue
            ints = rows[:, column].astype(np.int64).tolist()
            values.append(list(map(decode[name], ints)) if name in decode
                          else ints)
        return list(map(cls, *values))

    # -- fleet assembly ----------------------------------------------------

    def fleet_view(self) -> FleetArrays:
        """Ragged fleet arrays (cached until the next append)."""
        if self._fleet is None or self._fleet_version != self.version:
            self._fleet = self._build_fleet()
            self._fleet_version = self.version
        return self._fleet

    def _build_fleet(self) -> FleetArrays:
        ce_rows = self.ces.rows()
        ce_codes = ce_rows[:, CE_DIMM].astype(np.int64)
        with_ces = np.unique(ce_codes)
        # Fleet order is sorted DIMM id (the order build_samples iterates).
        dimm_ids = sorted(self.dimms.name(int(code)) for code in with_ces)
        rank = np.full(len(self.dimms) or 1, -1, dtype=np.int64)
        for position, dimm_id in enumerate(dimm_ids):
            rank[self.dimms.intern(dimm_id)] = position
        n = len(dimm_ids)

        sorted_ces, ce_offsets = _segmented(ce_rows, CE_T, CE_DIMM, rank, n)
        event_rows = self.events.rows()
        kinds = event_rows[:, EV_KIND].astype(np.int64)
        storms, storm_offsets = _segmented(
            event_rows, EV_T, EV_DIMM, rank, n, keep=kinds == STORM_CODE
        )
        repairs, repair_offsets = _segmented(
            event_rows, EV_T, EV_DIMM, rank, n,
            keep=np.isin(kinds, list(REPAIR_CODES)),
        )

        ue_rows = self.ues.rows()
        first_ue = np.full(n, np.inf)
        if ue_rows.size:
            ue_rank = rank[ue_rows[:, UE_DIMM].astype(np.int64)]
            known = ue_rank >= 0
            np.minimum.at(first_ue, ue_rank[known], ue_rows[known, UE_T])
        ue_hours = np.where(np.isfinite(first_ue), first_ue, np.nan)

        if n:
            server_codes = sorted_ces[ce_offsets[:-1], CE_SERVER].astype(np.int64)
            server_ids = [self.servers.name(int(code)) for code in server_codes]
        else:
            server_ids = []

        return FleetArrays(
            dimm_ids=dimm_ids,
            server_ids=server_ids,
            **ce_value_arrays(sorted_ces),
            ce_offsets=ce_offsets,
            storm_times=np.ascontiguousarray(storms[:, EV_T]),
            storm_offsets=storm_offsets,
            repair_times=np.ascontiguousarray(repairs[:, EV_T]),
            repair_offsets=repair_offsets,
            ue_hours=ue_hours,
        )

    # -- serialization -----------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The full store as six dense arrays (the ``.npz`` payload)."""
        return {
            "ces": np.ascontiguousarray(self.ces.rows()),
            "ues": np.ascontiguousarray(self.ues.rows()),
            "events": np.ascontiguousarray(self.events.rows()),
            "dimm_names": np.asarray(self.dimms.names(), dtype=str),
            "server_names": np.asarray(self.servers.names(), dtype=str),
            "detail_names": np.asarray(self.details.names(), dtype=str),
        }

    def to_npz(self, path) -> None:
        """Serialize to an uncompressed ``.npz`` (ZIP_STORED, mappable)."""
        with open(path, "wb") as handle:
            np.savez(handle, **self.to_arrays())

    @classmethod
    def from_arrays(
        cls,
        ces: np.ndarray,
        ues: np.ndarray,
        events: np.ndarray,
        dimm_names,
        server_names,
        detail_names,
    ) -> "TelemetryColumns":
        """Rebuild a store around existing (possibly mapped) tables.

        The tables are adopted without copying; vocabulary codes must
        match positions in the name lists (which :meth:`to_arrays`
        guarantees).
        """
        columns = cls()
        columns.ces = ColumnarTable.from_rows(
            np.asarray(ces).reshape(-1, CE_WIDTH)
        )
        columns.ues = ColumnarTable.from_rows(
            np.asarray(ues).reshape(-1, UE_WIDTH)
        )
        columns.events = ColumnarTable.from_rows(
            np.asarray(events).reshape(-1, EV_WIDTH)
        )
        for attr, names in (
            ("dimms", dimm_names),
            ("servers", server_names),
            ("details", detail_names),
        ):
            setattr(
                columns,
                attr,
                Vocabulary.from_names(
                    [str(name) for name in np.asarray(names).tolist()]
                ),
            )
        columns.version = len(columns.ces) + len(columns.ues) + len(
            columns.events
        )
        return columns

    @classmethod
    def from_npz(cls, path, *, mmap: bool = False) -> "TelemetryColumns":
        """Reload :meth:`to_npz` output, bit-for-bit.

        ``mmap=True`` adopts read-only memory-mapped tables (zero-copy;
        safe for replay/extraction, which never mutate rows in place).
        """
        from repro.telemetry.npz_io import load_npz_arrays

        arrays = load_npz_arrays(path, mmap=mmap)
        return cls.from_arrays(
            arrays["ces"],
            arrays["ues"],
            arrays["events"],
            arrays["dimm_names"],
            arrays["server_names"],
            arrays["detail_names"],
        )


def segmented_searchsorted(
    values: np.ndarray,
    value_offsets: np.ndarray,
    queries: np.ndarray,
    query_segments: np.ndarray,
) -> np.ndarray:
    """``searchsorted(..., side="left")`` of each query within its segment.

    ``values`` concatenates per-segment sorted arrays (segment ``s`` lives
    in ``values[value_offsets[s]:value_offsets[s + 1]]``).  Queries carry
    their segment in ``query_segments`` and need not be sorted.  With
    ``r(x) = searchsorted(sort(values), x, "left")`` (the count of values
    below ``x``), ``v < q`` exactly when ``r(v) < r(q)``, so the integer
    rank key ``segment * (n_values + 1) + r`` orders values and queries as
    the floats do within a segment and separates segments.  The values'
    keys are already sorted, and one ``searchsorted`` of the query keys
    among them, minus the values of earlier segments, is each query's
    within-segment insertion index: the float comparisons are exactly
    those of per-segment ``np.searchsorted`` calls, so the result is
    bit-for-bit identical, without the per-segment call overhead.
    """
    n_values = values.size
    n_queries = queries.size
    if n_queries == 0:
        return np.empty(0, dtype=np.int64)
    if n_values == 0:
        return np.zeros(n_queries, dtype=np.int64)
    ordered = np.sort(values)
    stride = n_values + 1
    value_keys = np.searchsorted(ordered, values)
    value_keys += np.repeat(
        np.arange(value_offsets.size - 1) * stride, np.diff(value_offsets)
    )
    query_keys = np.searchsorted(ordered, queries)
    query_keys += query_segments * stride
    found = np.searchsorted(value_keys, query_keys)
    return found - value_offsets[query_segments]
