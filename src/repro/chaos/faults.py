"""Deterministic telemetry fault injection.

The paper's collectors (BMC/MCE pollers flushing to a data lake) lose,
duplicate, delay and garble records in production; every replay path in
this repo historically assumed a pristine stream.  This module makes the
mess *reproducible*: a :class:`TelemetryFaultInjector` is a pure
``LogStore -> LogStore`` transform driven by one seeded generator, so the
same ``(specs, seed)`` pair always yields the same faulted campaign — the
property the hypothesis suite pins down and the ``chaos_replay`` scenario
leans on to sweep fault rates against a clean baseline.

Fault model (each spec is optional and composable):

* :class:`OutageSpec` — per-server collector outages: a server drawn into
  an outage loses *every* record inside its gap window (the collector was
  down, nothing was flushed);
* :class:`DropSpec` — independent record loss;
* :class:`DelaySpec` — bounded late arrival: the collector flushed late,
  so the record lands in the stream at ``t + U(0, max_delay_hours)``.
  Both replay engines key ordering off timestamps, so late arrival and
  bounded reordering are the same fault here by construction;
* :class:`DuplicateSpec` — at-least-once delivery: the record appears
  twice;
* :class:`CorruptSpec` — field corruption of CE records: impossible
  bank/row/column coordinates, negative bit counts, or a garbled
  timestamp.  Every corruption is *detectable* by
  :func:`repro.chaos.quarantine.quarantine_columns`, which is what makes
  "dead-letter count == injected corrupt count" an exact invariant.

Specs are applied per record in the fixed order outage -> drop -> delay ->
duplicate -> corrupt (corruption last, and drawn independently per emitted
copy, so a duplicated record can corrupt one copy and not the other).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from repro.telemetry.log_store import LogStore, iter_stream
from repro.telemetry.records import CERecord


def _check_rate(rate: float) -> None:
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"fault rate must be in [0, 1], got {rate!r}")


@dataclass(frozen=True)
class DropSpec:
    """Drop each record independently with probability ``rate``."""

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)


@dataclass(frozen=True)
class DuplicateSpec:
    """Emit each record twice with probability ``rate`` (at-least-once)."""

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)


@dataclass(frozen=True)
class DelaySpec:
    """Delay each record by ``U(0, max_delay_hours)`` with probability
    ``rate`` — the bounded late-arrival / reordering fault."""

    rate: float
    max_delay_hours: float = 6.0

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.max_delay_hours < 0:
            raise ValueError("max_delay_hours must be >= 0")


@dataclass(frozen=True)
class CorruptSpec:
    """Corrupt each emitted CE record with probability ``rate``.

    Corruptions are always detectably invalid (negative or >= 2^20
    coordinates, negative counts, negative timestamps), never silent.
    """

    rate: float

    def __post_init__(self) -> None:
        _check_rate(self.rate)


@dataclass(frozen=True)
class OutageSpec:
    """Each server independently suffers one collector outage with
    probability ``rate``: a ``duration_hours`` window in which all of its
    records are lost."""

    rate: float
    duration_hours: float = 24.0

    def __post_init__(self) -> None:
        _check_rate(self.rate)
        if self.duration_hours < 0:
            raise ValueError("duration_hours must be >= 0")


_SPEC_TYPES = (OutageSpec, DropSpec, DelaySpec, DuplicateSpec, CorruptSpec)


@dataclass
class InjectionReport:
    """What one :meth:`TelemetryFaultInjector.inject` call did."""

    seed: int = 0
    input_records: int = 0
    output_records: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    corrupted: int = 0
    outage_dropped: int = 0
    outage_seconds: float = 0.0
    outage_servers: tuple = ()
    outage_windows: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "input_records": self.input_records,
            "output_records": self.output_records,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "delayed": self.delayed,
            "corrupted": self.corrupted,
            "outage_dropped": self.outage_dropped,
            "outage_seconds": round(self.outage_seconds, 1),
            "outage_servers": list(self.outage_servers),
        }


class TelemetryFaultInjector:
    """Seeded, deterministic fault transform over a telemetry campaign.

    ``specs`` may hold at most one spec of each type (faults compose
    across types, not within one).  Records are visited in the store's
    merged-stream order (:func:`iter_stream` — globally time-sorted with
    CE < UE < event ties), every random decision comes from one
    ``np.random.default_rng(seed)``, and the output records are re-sorted
    by their (possibly delayed) timestamps before ingestion — so the
    faulted store is a valid campaign both engines replay identically.
    """

    def __init__(self, specs, seed: int = 0):
        self.specs = tuple(specs)
        self.seed = int(seed)
        by_type: dict[type, object] = {}
        for spec in self.specs:
            if not isinstance(spec, _SPEC_TYPES):
                raise TypeError(
                    f"unknown fault spec {spec!r}; expected one of "
                    f"{[t.__name__ for t in _SPEC_TYPES]}"
                )
            if type(spec) in by_type:
                raise ValueError(
                    f"duplicate {type(spec).__name__}: one spec per fault "
                    f"type (rates compose across types, not within one)"
                )
            by_type[type(spec)] = spec
        self._outage: OutageSpec | None = by_type.get(OutageSpec)
        self._drop: DropSpec | None = by_type.get(DropSpec)
        self._delay: DelaySpec | None = by_type.get(DelaySpec)
        self._duplicate: DuplicateSpec | None = by_type.get(DuplicateSpec)
        self._corrupt: CorruptSpec | None = by_type.get(CorruptSpec)

    def inject(self, store: LogStore) -> tuple[LogStore, InjectionReport]:
        """Return a new faulted :class:`LogStore` plus the fault ledger."""
        rng = np.random.default_rng(self.seed)
        report = InjectionReport(seed=self.seed, input_records=len(store))
        outages = self._draw_outages(store, rng, report)

        drop = self._drop if self._drop and self._drop.rate > 0 else None
        delay = self._delay if self._delay and self._delay.rate > 0 else None
        duplicate = (
            self._duplicate
            if self._duplicate and self._duplicate.rate > 0 else None
        )
        corrupt = (
            self._corrupt if self._corrupt and self._corrupt.rate > 0 else None
        )

        out_records: list = []
        for record in iter_stream(store):
            t = record.timestamp_hours
            window = outages.get(record.server_id)
            if window is not None and window[0] <= t < window[1]:
                report.outage_dropped += 1
                continue
            if drop is not None and rng.random() < drop.rate:
                report.dropped += 1
                continue
            if delay is not None and rng.random() < delay.rate:
                record = dataclasses.replace(
                    record,
                    timestamp_hours=t
                    + float(rng.uniform(0.0, delay.max_delay_hours)),
                )
                report.delayed += 1
            copies = 1
            if duplicate is not None and rng.random() < duplicate.rate:
                copies = 2
                report.duplicated += 1
            for _ in range(copies):
                emitted = record
                if (
                    corrupt is not None
                    and isinstance(emitted, CERecord)
                    and rng.random() < corrupt.rate
                ):
                    emitted = _corrupt_ce(emitted, rng)
                    report.corrupted += 1
                out_records.append(emitted)

        # Stable re-sort by (possibly delayed) timestamp: ties keep the
        # emission order, i.e. iter_stream's CE < UE < event convention.
        out_records.sort(key=lambda record: record.timestamp_hours)
        faulted = LogStore(configs=store.configs)
        faulted.ingest_bulk(out_records)
        report.output_records = len(faulted)
        return faulted, report

    def _draw_outages(
        self, store: LogStore, rng, report: InjectionReport
    ) -> dict[str, tuple[float, float]]:
        """Deterministic per-server gap windows (sorted-server order)."""
        outage = self._outage
        if outage is None or outage.rate <= 0 or outage.duration_hours <= 0:
            return {}
        servers = sorted(
            {
                record.server_id
                for record in (store.ces + store.ues + store.events)
            }
        )
        end_hour = store.end_hour
        windows: dict[str, tuple[float, float]] = {}
        seconds = 0.0
        for server in servers:
            if rng.random() >= outage.rate:
                continue
            start = float(
                rng.uniform(0.0, max(end_hour - outage.duration_hours, 0.0))
            )
            stop = start + outage.duration_hours
            windows[server] = (start, stop)
            seconds += (min(stop, end_hour) - start) * 3600.0
        report.outage_servers = tuple(sorted(windows))
        report.outage_windows = dict(windows)
        report.outage_seconds = max(seconds, 0.0)
        return windows


def _corrupt_ce(ce: CERecord, rng) -> CERecord:
    """One detectably-invalid mutation of a CE record."""
    mode = int(rng.integers(0, 3))
    if mode == 0:
        # Impossible coordinate: negative or past the 2^20 address bound.
        target = ("row", "column", "bank")[int(rng.integers(0, 3))]
        if rng.random() < 0.5:
            value = -1 - int(rng.integers(0, 1 << 10))
        else:
            value = (1 << 20) + int(rng.integers(0, 1 << 10))
        return dataclasses.replace(ce, **{target: value})
    if mode == 1:
        # Garbled payload: negative bit-count statistics.
        target = ("dq_count", "beat_count", "error_bit_count")[
            int(rng.integers(0, 3))
        ]
        return dataclasses.replace(ce, **{target: -1 - int(rng.integers(0, 8))})
    # Garbled clock: negative timestamp.
    return dataclasses.replace(
        ce, timestamp_hours=-1.0 - float(rng.random())
    )
