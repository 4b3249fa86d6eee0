"""Stream quarantine: vectorized validation + dead-letter accounting.

Both replay engines consume :class:`~repro.telemetry.columnar
.TelemetryColumns` tables, so malformed telemetry is caught *once*, in
whole-table numpy passes, before either walk starts — a corrupt record
becomes a typed dead letter on the :class:`~repro.streaming.bus.EventBus`
instead of an exception (or silent nonsense) mid-replay.

The contract that keeps clean runs bit-identical: when nothing is
invalid, :func:`quarantine_columns` returns the *original* columns object
untouched — no copy, no re-sort, no vocabulary re-interning — so with the
fault injector disabled every existing parity gate holds by construction.
When records are rejected, the filtered tables share the original
vocabularies (codes stay stable) and one
:data:`DEAD_LETTER_TOPIC` message is published per rejected record with
its :class:`RejectReason`.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.columnar import (
    CE_BANK,
    CE_BEAT_COUNT,
    CE_BEAT_INTERVAL,
    CE_COLUMN,
    CE_DEVICE0,
    CE_DIMM,
    CE_DQ_COUNT,
    CE_DQ_INTERVAL,
    CE_ERROR_BITS,
    CE_N_DEVICES,
    CE_ROW,
    CE_T,
    EV_DIMM,
    EV_KIND,
    EV_T,
    KIND_CODES,
    TelemetryColumns,
    UE_DIMM,
    UE_T,
)

#: EventBus topic carrying one message per quarantined record.
DEAD_LETTER_TOPIC = "stream.dead_letter"

#: Exclusive upper bound for any DRAM coordinate column (the columnar
#: store's float64 exactness contract: "coordinates are < 2^20").
MAX_COORDINATE = 1 << 20

#: Exclusive upper bound for every CE count field.  One burst is 8 beats x
#: 72 DQ lanes (at most 576 erroneous bits over 18 x4 devices), and the MCA
#: misc register carries the error-bit count in 10 bits, so no real count
#: reaches 2^10.  The bound also keeps the online state's per-value count
#: histograms (:mod:`repro.streaming.incremental`) small: a finite but huge
#: count would otherwise size them.
MAX_COUNT = 1 << 10


class RejectReason(enum.Enum):
    """Why a record was quarantined (typed, not a free-form string)."""

    BAD_TIMESTAMP = "bad_timestamp"
    BAD_COORDINATE = "bad_coordinate"
    BAD_COUNT = "bad_count"
    BAD_EVENT_KIND = "bad_event_kind"


#: Reason <-> small-int codes for the vectorized marking passes (0 = ok).
_REASON_CODES = {
    reason: code for code, reason in enumerate(RejectReason, start=1)
}
_REASON_OF_CODE = {code: reason for reason, code in _REASON_CODES.items()}


@dataclass
class QuarantineReport:
    """Reject accounting of one :func:`quarantine_columns` pass."""

    total: int = 0
    by_reason: dict = field(default_factory=dict)  # reason value -> count
    by_kind: dict = field(default_factory=dict)  # "ce"/"ue"/"event" -> count

    def to_dict(self) -> dict:
        return {
            "rejected_events": self.total,
            "rejects": dict(self.by_reason),
            "rejects_by_kind": dict(self.by_kind),
        }


def _mark(codes: np.ndarray, mask: np.ndarray, reason: RejectReason) -> None:
    """Tag rows matching ``mask`` that have no earlier (graver) reason."""
    codes[(codes == 0) & mask] = _REASON_CODES[reason]


#: The CE rules in precedence order (a record gets the first reason it
#: breaks): every field of a group must lie in ``[0, bound)``.  Comparisons
#: with NaN are false and the bounds exclude +inf, so the one interval test
#: also rejects every non-finite value.  Timestamps have no upper bound but
#: must be finite.
CE_RULES = (
    (RejectReason.BAD_TIMESTAMP, (CE_T,), math.inf),
    (
        RejectReason.BAD_COORDINATE,
        (CE_ROW, CE_COLUMN, CE_BANK, CE_DEVICE0),
        MAX_COORDINATE,
    ),
    (
        RejectReason.BAD_COUNT,
        (
            CE_DQ_COUNT, CE_BEAT_COUNT, CE_DQ_INTERVAL, CE_BEAT_INTERVAL,
            CE_N_DEVICES, CE_ERROR_BITS,
        ),
        MAX_COUNT,
    ),
)


def _in_bounds(values, bound):
    """``0 <= values < bound``, elementwise on arrays, plain on scalars."""
    return (values >= 0) & (values < bound)


def ce_reject_reason(row) -> RejectReason | None:
    """Why one CE fails :data:`CE_RULES`, or ``None`` when it is valid.

    ``row`` is indexed by the ``CE_*`` column constants: a columnar CE row,
    or just its leading value fields ``CE_T .. CE_DEVICE0`` (the online
    serving path checks each CE this way before it touches DIMM state).
    """
    for reason, fields, bound in CE_RULES:
        for index in fields:
            if not _in_bounds(row[index], bound):
                return reason
    return None


def _ce_reject_codes(rows: np.ndarray) -> np.ndarray:
    """:func:`ce_reject_reason` over a whole CE table at once."""
    codes = np.zeros(rows.shape[0], dtype=np.int8)
    if not rows.size:
        return codes
    for reason, fields, bound in CE_RULES:
        valid = _in_bounds(rows[:, list(fields)], bound).all(axis=1)
        _mark(codes, ~valid, reason)
    return codes


def _ue_reject_codes(rows: np.ndarray) -> np.ndarray:
    codes = np.zeros(rows.shape[0], dtype=np.int8)
    if not rows.size:
        return codes
    t = rows[:, UE_T]
    _mark(codes, ~np.isfinite(t) | (t < 0), RejectReason.BAD_TIMESTAMP)
    return codes


def _event_reject_codes(rows: np.ndarray) -> np.ndarray:
    codes = np.zeros(rows.shape[0], dtype=np.int8)
    if not rows.size:
        return codes
    t = rows[:, EV_T]
    _mark(codes, ~np.isfinite(t) | (t < 0), RejectReason.BAD_TIMESTAMP)
    kind = rows[:, EV_KIND]
    _mark(
        codes,
        ~np.isfinite(kind) | (kind < 0) | (kind >= len(KIND_CODES)),
        RejectReason.BAD_EVENT_KIND,
    )
    return codes


def _dimm_label(columns: TelemetryColumns, raw: float) -> str:
    code = int(raw)
    if 0 <= code < len(columns.dimms):
        return columns.dimms.name(code)
    return f"<dimm:{code}>"


def quarantine_columns(
    columns: TelemetryColumns, bus=None, metrics=None, platform: str = ""
) -> tuple[TelemetryColumns, QuarantineReport]:
    """Split malformed rows out of a columnar store.

    Returns ``(valid_columns, report)``.  With zero rejects the input
    object itself is returned (identity — the clean-run bit-for-bit
    guarantee); otherwise a new :class:`TelemetryColumns` holding only the
    valid rows, sharing the original vocabularies.  ``bus`` (optional)
    receives one :data:`DEAD_LETTER_TOPIC` message per rejected record.
    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) counts rejects as
    ``repro_quarantine_rejects_total{reason,platform}`` for standalone
    callers; the replay engines instead project their reports' health
    ledgers, so they leave this unset (no double counting).
    """
    ce_rows = columns.ces.rows()
    ue_rows = columns.ues.rows()
    ev_rows = columns.events.rows()
    ce_codes = _ce_reject_codes(ce_rows)
    ue_codes = _ue_reject_codes(ue_rows)
    ev_codes = _event_reject_codes(ev_rows)

    report = QuarantineReport()
    total = int(
        np.count_nonzero(ce_codes)
        + np.count_nonzero(ue_codes)
        + np.count_nonzero(ev_codes)
    )
    if total == 0:
        _count_rejects(metrics, platform, report)
        return columns, report

    filtered = TelemetryColumns()
    filtered.dimms = columns.dimms
    filtered.servers = columns.servers
    filtered.details = columns.details
    filtered.ces.extend(ce_rows[ce_codes == 0])
    filtered.ues.extend(ue_rows[ue_codes == 0])
    filtered.events.extend(ev_rows[ev_codes == 0])
    filtered.version = columns.version

    for kind, rows, codes, t_col, dimm_col in (
        ("ce", ce_rows, ce_codes, CE_T, CE_DIMM),
        ("ue", ue_rows, ue_codes, UE_T, UE_DIMM),
        ("event", ev_rows, ev_codes, EV_T, EV_DIMM),
    ):
        for i in np.flatnonzero(codes).tolist():
            reason = _REASON_OF_CODE[int(codes[i])]
            report.total += 1
            report.by_reason[reason.value] = (
                report.by_reason.get(reason.value, 0) + 1
            )
            report.by_kind[kind] = report.by_kind.get(kind, 0) + 1
            if bus is not None:
                bus.publish(
                    DEAD_LETTER_TOPIC,
                    {
                        "kind": kind,
                        "reason": reason.value,
                        "timestamp_hours": float(rows[i, t_col]),
                        "dimm": _dimm_label(columns, rows[i, dimm_col]),
                    },
                )
    _count_rejects(metrics, platform, report)
    return filtered, report


def _count_rejects(metrics, platform: str, report: QuarantineReport) -> None:
    """Mirror one quarantine pass's by-reason counts into a registry."""
    if metrics is None:
        return
    family = metrics.counter(
        "repro_quarantine_rejects_total",
        "Quarantined records by typed RejectReason.",
        labels=("reason", "platform"),
    )
    for reason in RejectReason:
        family.labels(reason=reason.value, platform=platform).inc(
            report.by_reason.get(reason.value, 0)
        )
