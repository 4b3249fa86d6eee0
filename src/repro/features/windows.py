"""Per-DIMM history in array form, and fleet-wide window indices.

The feature extractors slice a DIMM's CE/event history by time window many
times per sample; :class:`DimmHistory` stores everything as sorted numpy
arrays so each slice is two binary searches.  It is what the per-sample
reference (``FeaturePipeline.transform_one``) reads.

:class:`FleetWindows` is the fast path's companion: it resolves the window
boundary indices every extractor needs for many samples of many DIMMs in
one fleet-wide rank-keyed search, so the vectorized ``compute_batch``
paths replace per-sample slicing with cumulative-sum / segment
aggregations over shared indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.columnar import (
    CE_DEVICE0,
    FleetArrays,
    ce_value_arrays,
    ce_values,
    segmented_searchsorted,
)
from repro.telemetry.records import CERecord, MemEventKind, MemEventRecord

#: Observation sub-windows (hours) used by the temporal extractor; the
#: paper's feature store materialises CE statistics at several intervals.
SUB_WINDOWS_HOURS = (1.0, 6.0, 24.0, 120.0)

#: Inclusive-end slack: windows end at ``t + EPS`` so the CE that triggered
#: a sample at time ``t`` is part of its own observation window.
EPS = 1e-9

#: Memory events that count as repair actions.
REPAIR_KINDS = (
    MemEventKind.PAGE_OFFLINE,
    MemEventKind.ROW_SPARED,
    MemEventKind.BANK_SPARED,
    MemEventKind.PCLS_APPLIED,
)


@dataclass
class DimmHistory:
    """Sorted array view of one DIMM's telemetry."""

    dimm_id: str
    server_id: str
    times: np.ndarray  # CE timestamps (hours), sorted
    dq_count: np.ndarray
    beat_count: np.ndarray
    dq_interval: np.ndarray
    beat_interval: np.ndarray
    n_devices: np.ndarray
    error_bits: np.ndarray
    rows: np.ndarray
    columns: np.ndarray
    banks: np.ndarray
    devices: np.ndarray  # primary (worst) device per CE
    storm_times: np.ndarray
    repair_times: np.ndarray  # page offline + sparing events

    @classmethod
    def from_records(
        cls,
        dimm_id: str,
        ces: list[CERecord],
        events: list[MemEventRecord],
    ) -> "DimmHistory":
        ces = sorted(ces, key=lambda ce: ce.timestamp_hours)
        server_id = ces[0].server_id if ces else ""
        storm_times = sorted(
            e.timestamp_hours for e in events if e.kind is MemEventKind.CE_STORM
        )
        repair_times = sorted(
            e.timestamp_hours for e in events if e.kind in REPAIR_KINDS
        )
        # One pass over the records: their CE-table value columns.
        table = np.array(
            [ce_values(ce) for ce in ces], dtype=float
        ).reshape(len(ces), CE_DEVICE0 + 1)
        return cls(
            dimm_id=dimm_id,
            server_id=server_id,
            **ce_value_arrays(table),
            storm_times=np.asarray(storm_times, dtype=float),
            repair_times=np.asarray(repair_times, dtype=float),
        )

    def window(self, start_hour: float, end_hour: float) -> slice:
        """Index slice of CEs with timestamps in ``[start, end)``."""
        lo = int(np.searchsorted(self.times, start_hour, side="left"))
        hi = int(np.searchsorted(self.times, end_hour, side="left"))
        return slice(lo, hi)

    def count_in(self, start_hour: float, end_hour: float) -> int:
        sl = self.window(start_hour, end_hour)
        return sl.stop - sl.start

    def storms_in(self, start_hour: float, end_hour: float) -> int:
        lo = int(np.searchsorted(self.storm_times, start_hour, side="left"))
        hi = int(np.searchsorted(self.storm_times, end_hour, side="left"))
        return hi - lo

    def repairs_in(self, start_hour: float, end_hour: float) -> int:
        lo = int(np.searchsorted(self.repair_times, start_hour, side="left"))
        hi = int(np.searchsorted(self.repair_times, end_hour, side="left"))
        return hi - lo

    @property
    def first_ce_hour(self) -> float | None:
        return float(self.times[0]) if self.times.size else None

    def __len__(self) -> int:
        return int(self.times.size)


class FleetWindows:
    """Shared window indices for samples across a whole fleet at once.

    ``fleet`` is a :class:`repro.telemetry.columnar.FleetArrays` — every
    DIMM's history concatenated into ragged arrays — and sample ``i``
    belongs to DIMM segment ``sample_seg[i]``.  Every extractor's
    ``compute_batch`` works off the same ``(lo, hi)`` index pairs: ``hi``
    is resolved once, and the ``lo`` for each distinct window length on
    first use (cached).  Window indices are *global* (into the concatenated
    arrays), and every boundary resolution happens in one fleet-wide
    search (:func:`segmented_searchsorted`) instead of two
    ``np.searchsorted`` calls per DIMM.  Because window members never
    cross segment boundaries, the aggregations (``counts`` / ``expand`` /
    ``pairs`` and the extractors' segment reductions keyed by sample id)
    run once over the whole fleet, bit-for-bit equal to
    :meth:`~repro.features.pipeline.FeaturePipeline.transform_one` per
    sample.
    """

    def __init__(
        self, fleet: FleetArrays, ts: np.ndarray, sample_seg: np.ndarray
    ):
        self.history = fleet
        self.ts = np.asarray(ts, dtype=float)
        self.sample_seg = np.asarray(sample_seg, dtype=np.int64)
        #: Window end bound (``t + EPS``), shared by every window length.
        self.ends = self.ts + EPS
        self._base = fleet.ce_offsets[self.sample_seg]
        self.hi = self._resolve(self.ends)
        self._lo: dict[float, np.ndarray] = {}
        self._pairs: dict[float, tuple[np.ndarray, np.ndarray]] = {}

    def _resolve(self, boundaries: np.ndarray) -> np.ndarray:
        within = segmented_searchsorted(
            self.history.times,
            self.history.ce_offsets,
            boundaries,
            self.sample_seg,
        )
        return within + self._base

    def lo(self, window_hours: float) -> np.ndarray:
        """Start indices of the ``[t - w, t + EPS)`` windows (cached)."""
        key = float(window_hours)
        lo = self._lo.get(key)
        if lo is None:
            lo = self._resolve(self.ts - key)
            self._lo[key] = lo
        return lo

    def prefetch(self, windows_hours) -> None:
        """Resolve several window lengths with one fused segmented search."""
        missing = [
            w for w in dict.fromkeys(map(float, windows_hours))
            if w not in self._lo
        ]
        if not missing:
            return
        boundaries = np.concatenate([self.ts - w for w in missing])
        segments = np.tile(self.sample_seg, len(missing))
        found = segmented_searchsorted(
            self.history.times, self.history.ce_offsets, boundaries, segments
        )
        n = self.ts.size
        for j, w in enumerate(missing):
            self._lo[w] = found[j * n : (j + 1) * n] + self._base

    def counts(self, window_hours: float) -> np.ndarray:
        """CE counts in ``[t - w, t + EPS)`` per sample."""
        return self.hi - self.lo(window_hours)

    def expand(self, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Flatten windows into parallel ``(sample_id, ce_index)`` arrays.

        Sample ids come out sorted, so each sample's window members form a
        contiguous segment — the layout the segment aggregations rely on.
        """
        sizes = hi - lo
        total = int(sizes.sum())
        if total == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        sample_ids = np.repeat(np.arange(sizes.size), sizes)
        starts = np.cumsum(sizes) - sizes
        offsets = np.arange(total) - np.repeat(starts, sizes)
        return sample_ids, np.repeat(lo, sizes) + offsets

    def pairs(self, window_hours: float) -> tuple[np.ndarray, np.ndarray]:
        """Cached :meth:`expand` of the ``[t - w, t + EPS)`` windows.

        The spatial and bit-level extractors work on the same observation
        window, so the flattened (sample, CE) pairs are built once and
        shared.
        """
        key = float(window_hours)
        cached = self._pairs.get(key)
        if cached is None:
            cached = self.expand(self.lo(key), self.hi)
            self._pairs[key] = cached
        return cached

    def gap_array(self) -> np.ndarray:
        """Inter-arrival gaps of ``history.times`` with an ``inf`` sentinel.

        Derived purely from the (immutable) history, so replay kernels
        override this to serve one cached copy instead of re-deriving it
        for every micro-batch.
        """
        return np.append(np.diff(self.history.times), np.inf)

    def multi_device_prefix(self) -> np.ndarray:
        """Prefix counts of multi-device CEs (cacheable like
        :meth:`gap_array`)."""
        return prefix_sum(self.history.n_devices >= 2)

    def hierarchy_ranks(self) -> "HierarchyRanks":
        """Dense ranks of every CE's spatial group keys (cacheable like
        :meth:`gap_array`)."""
        return hierarchy_ranks(self.history)

    def since_first(self, observation_hours: float) -> np.ndarray:
        """Hours between each sample time and its DIMM's first CE."""
        fleet = self.history
        counts = np.diff(fleet.ce_offsets)
        if fleet.times.size:
            firsts = fleet.times[
                np.minimum(fleet.ce_offsets[:-1], fleet.times.size - 1)
            ]
        else:
            firsts = np.zeros(counts.size)
        seg = self.sample_seg
        return np.where(
            counts[seg] > 0, self.ts - firsts[seg], float(observation_hours)
        )

    def storm_counts(
        self, observation_hours: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample CE-storm counts in ``[t - w, t + EPS)`` and ``[0, t + EPS)``."""
        return self._event_counts(
            self.history.storm_times,
            self.history.storm_offsets,
            observation_hours,
            with_total=True,
        )

    def repair_counts(self, observation_hours: float) -> np.ndarray:
        """Per-sample repair-action counts in ``[t - w, t + EPS)``."""
        return self._event_counts(
            self.history.repair_times,
            self.history.repair_offsets,
            observation_hours,
            with_total=False,
        )

    @property
    def event_ends(self) -> np.ndarray:
        """Upper bound for storm/repair window queries.

        The offline pass counts events in ``[t - w, t + EPS)``; the replay
        kernels override this to ``t`` (arrival-exact: an event logged at
        exactly ``t`` sorts *after* the CE in stream order, so the
        per-event state has not seen it yet when the CE is served).
        """
        return self.ends

    def _event_counts(
        self,
        times: np.ndarray,
        offsets: np.ndarray,
        observation_hours: float,
        with_total: bool,
    ):
        n = self.ts.size
        if not times.size:
            return (np.zeros(n), np.zeros(n)) if with_total else np.zeros(n)
        queries = np.concatenate([self.event_ends, self.ts - observation_hours])
        segments = np.tile(self.sample_seg, 2)
        bounds = segmented_searchsorted(times, offsets, queries, segments)
        hi, lo = bounds[:n], bounds[n:]
        if not with_total:
            return hi - lo
        lo0 = segmented_searchsorted(
            times,
            offsets,
            np.zeros(offsets.size - 1),
            np.arange(offsets.size - 1),
        )
        return hi - lo, hi - lo0[self.sample_seg]


def compose_keys(*arrays: np.ndarray) -> np.ndarray:
    """Pack DRAM-hierarchy coordinate arrays into single int64 keys, 2^20
    per level (a four-level cell key wraps for devices >= 8)."""
    key = arrays[0].astype(np.int64)
    for array in arrays[1:]:
        key = key * 1_048_576 + array.astype(np.int64)
    return key


@dataclass(frozen=True)
class HierarchyRanks:
    """Dense ranks of every fleet CE's DRAM-hierarchy group keys.

    The keys are :func:`compose_keys` of a CE's coordinates: a bank key is
    (device, bank), a row key (bank key, row), a column key (bank key,
    column) and a cell key (row key, column), which wraps in int64.  A
    dense rank gives equal keys one integer and orders as the keys do, so
    ``sample * stride + rank`` sorts (sample, key) pairs exactly as a
    lexsort of (sample, key) would, with one stable ``argsort`` of a
    single int64 key.
    """

    bank_keys: np.ndarray  # the (device, bank) key itself
    row_line: np.ndarray  # rank of the row key
    row_pair: np.ndarray  # rank of (row key, column)
    column_line: np.ndarray  # rank of the column key
    column_pair: np.ndarray  # rank of (column key, row)
    cell: np.ndarray  # rank of the cell key
    stride: int  # exceeds every rank


def hierarchy_ranks(fleet: FleetArrays) -> HierarchyRanks:
    """The :class:`HierarchyRanks` of every CE in ``fleet``."""
    bank_keys = compose_keys(fleet.devices, fleet.banks)
    row_keys = compose_keys(bank_keys, fleet.rows)
    row_line = _dense_rank(row_keys)
    column_line = _dense_rank(compose_keys(bank_keys, fleet.columns))
    # Ranks stay below the CE count, so a pair of ranks packs wrap-free.
    stride = max(fleet.times.size, 1)
    return HierarchyRanks(
        bank_keys=bank_keys,
        row_line=row_line,
        row_pair=_dense_rank(row_line * stride + _dense_rank(fleet.columns)),
        column_line=column_line,
        column_pair=_dense_rank(
            column_line * stride + _dense_rank(fleet.rows)
        ),
        cell=_dense_rank(compose_keys(row_keys, fleet.columns)),
        stride=stride,
    )


def _dense_rank(keys: np.ndarray) -> np.ndarray:
    """Each key's index among the sorted distinct keys."""
    return np.unique(keys, return_inverse=True)[1]


def prefix_sum(values: np.ndarray) -> np.ndarray:
    """Length ``n + 1`` cumulative sum; window sums become two gathers."""
    out = np.zeros(values.size + 1, dtype=float)
    np.cumsum(values, out=out[1:])
    return out
