"""Append-only telemetry store with time/DIMM queries.

The store is the in-process stand-in for the paper's Data Lake: every CE,
UE, memory event and configuration record lands here, and the analysis and
feature layers query it.  A :class:`LogStore` is a
:class:`~repro.telemetry.columnar.TelemetryColumns` (the one copy of every
CE/UE/event) plus the DIMM configuration records; record objects are built
from the column rows only when a caller asks for them.  Records can be
persisted to / loaded from JSONL so the MLOps data pipeline has a durable
format; the loader parses straight into column rows.
"""

from __future__ import annotations

import functools
import gc
import heapq
import itertools
import json
import warnings
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.telemetry.columnar import DIMM_COLUMNS, FleetArrays, TelemetryColumns
from repro.telemetry.records import (
    CERecord,
    DimmConfigRecord,
    MemEventRecord,
    UERecord,
)

class LogStore:
    """Holds all telemetry of one simulated (or ingested) campaign.

    ``columns`` may be an existing :class:`TelemetryColumns` (a quarantined
    or memory-mapped shard's tables, say): the store wraps it as is.
    """

    def __init__(
        self,
        columns: TelemetryColumns | None = None,
        configs: dict[str, DimmConfigRecord] | None = None,
    ) -> None:
        self.columns = TelemetryColumns() if columns is None else columns
        self._configs: dict[str, DimmConfigRecord] = dict(configs or {})
        #: Malformed JSONL lines/payloads dropped by :meth:`load_jsonl`.
        self.skipped_lines = 0

    # -- ingestion ---------------------------------------------------------

    def add_ce(self, record: CERecord | UERecord | MemEventRecord) -> None:
        """Append one CE, UE or memory event (checked and encoded)."""
        self.columns.append(record)

    add_ue = add_event = add_ce

    def add_config(self, record: DimmConfigRecord) -> None:
        self._configs[record.dimm_id] = record

    def ingest_bulk(self, records: Iterable) -> int:
        """Ingest a heterogeneous stream of records, one table append per
        kind.  Every record is encoded (and checked) before any row is
        stored: a record the columns cannot hold raises
        :class:`~repro.telemetry.columnar.RecordEncodingError` and no row
        of the batch lands.
        """
        rows: dict[str, list] = {kind: [] for kind in DIMM_COLUMNS}
        count = 0
        encode = self.columns.encode
        for record in records:
            count += 1
            if isinstance(record, DimmConfigRecord):
                self.add_config(record)
                continue
            kind, row = encode(record)
            rows[kind].append(row)
        self.columns.extend_rows(rows)
        return count

    # -- queries -----------------------------------------------------------

    def _all(self, kind: str) -> list:
        """``kind``'s records in time order (ties in ingestion order)."""
        times = getattr(self.columns, kind).rows()[:, 0]
        return self.columns.records(kind, np.argsort(times, kind="stable"))

    @property
    def ces(self) -> list[CERecord]:
        return self._all("ces")

    @property
    def ues(self) -> list[UERecord]:
        return self._all("ues")

    @property
    def events(self) -> list[MemEventRecord]:
        return self._all("events")

    @property
    def configs(self) -> dict[str, DimmConfigRecord]:
        return dict(self._configs)

    def dimm_ids_with_ces(self) -> list[str]:
        return self.columns.fleet_view().dimm_ids

    def config_for(self, dimm_id: str) -> DimmConfigRecord:
        return self._configs[dimm_id]

    def _for_dimm(self, kind, dimm_id, start_hour, end_hour) -> list:
        return self.columns.records(
            kind,
            self.columns.dimm_rows(kind, dimm_id, start_hour, end_hour),
        )

    def ces_for_dimm(
        self,
        dimm_id: str,
        start_hour: float | None = None,
        end_hour: float | None = None,
    ) -> list[CERecord]:
        """CEs of one DIMM within ``[start_hour, end_hour)`` (half-open)."""
        return self._for_dimm("ces", dimm_id, start_hour, end_hour)

    def ues_for_dimm(
        self,
        dimm_id: str,
        start_hour: float | None = None,
        end_hour: float | None = None,
    ) -> list[UERecord]:
        return self._for_dimm("ues", dimm_id, start_hour, end_hour)

    def events_for_dimm(
        self,
        dimm_id: str,
        start_hour: float | None = None,
        end_hour: float | None = None,
    ) -> list[MemEventRecord]:
        return self._for_dimm("events", dimm_id, start_hour, end_hour)

    def fleet_arrays(self) -> FleetArrays:
        """Every DIMM's history as ragged arrays (cached until the next
        append); see :class:`repro.telemetry.columnar.FleetArrays`."""
        return self.columns.fleet_view()

    def first_ce_hour(self, dimm_id: str) -> float | None:
        rows = self.columns.dimm_rows("ces", dimm_id)
        return float(self.columns.ces.rows()[rows[0], 0]) if rows.size else None

    @property
    def end_hour(self) -> float:
        """Timestamp of the last record in the store (0.0 when empty)."""
        times = [getattr(self.columns, kind).rows()[:, 0] for kind in DIMM_COLUMNS]
        return float(np.fmax.reduce(np.concatenate(times), initial=0.0))

    # -- persistence ---------------------------------------------------------

    def dump_jsonl(self, path: str | Path, chunk_lines: int = 4096) -> int:
        """Write every record as one JSON object per line; returns count.

        Configs first, then CEs, UEs and events, each kind in time order.
        Lines are buffered and written ``chunk_lines`` at a time: few
        write syscalls without ever materializing the whole serialized
        campaign in memory.
        """
        path = Path(path)
        count = 0
        chunk: list[str] = []
        with path.open("w", encoding="utf-8") as handle:
            for records in (self._configs.values(), self.ces, self.ues,
                            self.events):
                for record in records:
                    chunk.append(json.dumps(record.to_dict()))
                    if len(chunk) >= chunk_lines:
                        handle.write("\n".join(chunk) + "\n")
                        count += len(chunk)
                        chunk.clear()
            if chunk:
                handle.write("\n".join(chunk) + "\n")
                count += len(chunk)
        return count

    @classmethod
    def load_jsonl(
        cls,
        path: str | Path,
        chunk_lines: int = 4096,
        metrics=None,
    ) -> "LogStore":
        """Bulk load: chunked JSON parses straight into the column tables.

        Joining ``chunk_lines`` lines into one JSON array trades that many
        small ``json.loads`` calls for one C-level parse while keeping the
        set of live payload dicts bounded.  A chunk whose joined parse
        fails, or does not give exactly one value per non-blank line (a
        line holding two comma-separated values, a bracket opened on one
        line and closed on another), is re-parsed line by line.  Each
        chunk's CE payloads are then checked and encoded a column at a
        time and land in the CE table as one block
        (:meth:`TelemetryColumns.extend_payloads`); UEs, events and
        configs are typed one by one.  A chunk with any CE that fails a
        column check is re-encoded payload by payload with
        :meth:`TelemetryColumns.encode_payload`, the one reference, so
        the tables, vocabularies and ``skipped_lines`` are exactly what
        encoding every line on its own gives.  Cyclic GC is suspended for
        the duration: scanning a large live heap on every allocation
        threshold dominates load time in long-running processes.

        Malformed lines are skipped, counted on the returned store's
        ``skipped_lines`` and surfaced in one warning: broken JSON, JSON
        nested too deeply to parse, a non-object line, an unknown
        ``record_type``, a missing field, a field of the wrong JSON type
        (``"dq_count": "3"``, ``"dimm_id": 7``, a config's
        ``"capacity_gb": "32"``, ...) or a value the columns cannot
        hold.  A torn tail line from a crashed writer must not make a
        whole campaign unloadable.  ``metrics`` (a
        :class:`repro.obs.MetricsRegistry`) additionally exposes the count
        as ``repro_logstore_skipped_lines_total{source=<file name>}``.
        """
        store = cls()
        skipped = 0
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            with Path(path).open("r", encoding="utf-8") as handle:
                for payloads in _iter_payload_chunks(handle, chunk_lines):
                    # Broken JSON is a None payload.
                    records = [p for p in payloads if type(p) is dict]
                    skipped += len(payloads) - len(records)
                    kinds = list(
                        map(dict.get, records, itertools.repeat("record_type"))
                    )
                    if "config" in kinds:
                        configs = [k == "config" for k in kinds]
                        skipped += store._add_config_payloads(
                            list(itertools.compress(records, configs))
                        )
                        records = [
                            p for p, config in zip(records, configs)
                            if not config
                        ]
                    skipped += store.columns.extend_payloads(records)
        finally:
            if gc_was_enabled:
                gc.enable()
        store.skipped_lines = skipped
        if metrics is not None:
            metrics.counter(
                "repro_logstore_skipped_lines_total",
                "Malformed JSONL lines dropped by the tolerant loader.",
                labels=("source",),
            ).labels(source=Path(path).name).inc(skipped)
        if skipped:
            warnings.warn(
                f"load_jsonl: skipped {skipped} malformed line(s) in {path}",
                RuntimeWarning,
                stacklevel=2,
            )
        return store

    def _add_config_payloads(self, payloads: list[dict]) -> int:
        """Add config payloads in order; return how many were malformed."""
        skipped = 0
        for payload in payloads:
            try:
                self.add_config(DimmConfigRecord.from_dict(payload))
            except (KeyError, ValueError):
                skipped += 1
        return skipped

    def __len__(self) -> int:
        columns = self.columns
        return len(columns.ces) + len(columns.ues) + len(columns.events)


def _iter_payload_chunks(handle, chunk_lines: int):
    """Yield payload lists, one C-level JSON parse per line chunk.

    A chunk whose joined parse (:func:`_parse_lines`) does not give
    exactly one value per non-blank line is re-parsed line by line, and
    each broken line yields a ``None`` payload instead of aborting the
    load.
    """
    while True:
        chunk = list(itertools.islice(handle, chunk_lines))
        if not chunk:
            return
        lines = list(filter(str.strip, chunk))
        if not lines:
            continue
        payloads = _parse_lines(lines)
        if payloads is None:
            payloads = [_parse_or_none(line) for line in lines]
        yield payloads


#: The joined parse turns the ``NaN`` after each line into this object,
#: which no JSON value equals.
_LINE_MARK = object()


def _parse_lines(lines: list[str]) -> list | None:
    """Each line's one JSON value from one joined parse, or ``None``.

    The chunk parses as ``[line, NaN, line, NaN, ...]``.  Commas do not
    tell lines apart (``1, 2`` is one line holding two values; ``[1`` and
    ``2]`` are two lines holding one), but the ``NaN`` marks do.  If the
    parse met no JSON constant (``NaN``, ``Infinity``, ``-Infinity``) but
    the marks, and has a mark at every odd position, each line between
    two marks is exactly one value.
    """
    n = len(lines)
    # The n marks take one item each; an (n + 1)-th constant takes the last.
    marks = itertools.repeat(_LINE_MARK, n + 1)
    try:
        parsed = json.loads(
            "[" + ",NaN,".join(lines) + ",NaN]",
            parse_constant=functools.partial(next, marks),
        )
    except (ValueError, RecursionError):  # broken JSON, too deep, too many digits
        return None
    if (
        next(marks, None) is not _LINE_MARK
        or len(parsed) != 2 * n
        or parsed[1::2] != [_LINE_MARK] * n
    ):
        return None
    return parsed[0::2]


def _parse_or_none(line: str):
    try:
        return json.loads(line)
    except (ValueError, RecursionError):
        return None


def iter_stream(store: LogStore) -> Iterator:
    """Yield all CE/UE/event records in global timestamp order.

    This is the "stream" view the MLOps online-serving path consumes.  A
    k-way heap merge of the three time-sorted kinds (ties keep the
    CE < UE < event order, then ingestion order).
    """
    return heapq.merge(
        store.ces, store.ues, store.events,
        key=lambda record: record.timestamp_hours,
    )
