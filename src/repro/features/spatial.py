"""Spatial DRAM-hierarchy features (paper Section VI: "number of faults ...
within different time intervals", fault-mode flags from the Section V
analysis)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.features.windows import (
    EPS,
    DimmHistory,
    FleetWindows,
    compose_keys,
)
from repro.telemetry.columnar import FleetArrays


class SpatialExtractor:
    """Distribution of CEs across the DRAM hierarchy in the window."""

    group = "spatial"

    def __init__(
        self,
        observation_hours: float = 120.0,
        cell_threshold: int = 2,
        line_threshold: int = 3,
        min_distinct: int = 2,
    ):
        self.observation_hours = observation_hours
        self.cell_threshold = cell_threshold
        self.line_threshold = line_threshold
        self.min_distinct = min_distinct

    def names(self) -> list[str]:
        return [
            "spatial_distinct_rows",
            "spatial_distinct_columns",
            "spatial_distinct_banks",
            "spatial_distinct_devices",
            "spatial_max_ces_one_cell",
            "spatial_max_ces_one_row",
            "spatial_max_ces_one_column",
            "spatial_cell_fault",
            "spatial_row_fault",
            "spatial_column_fault",
            "spatial_bank_fault",
            "spatial_multi_device_fault",
        ]

    def compute(self, history: DimmHistory, t: float) -> list[float]:
        sl = history.window(t - self.observation_hours, t + EPS)
        rows = history.rows[sl]
        columns = history.columns[sl]
        banks = history.banks[sl]
        devices = history.devices[sl]
        n_devices = history.n_devices[sl]

        if rows.size == 0:
            return [0.0] * 7 + [0.0] * 5

        # Composite keys for cells / rows / columns within (device, bank).
        cell_keys = compose_keys(devices, banks, rows, columns)
        row_keys = compose_keys(devices, banks, rows)
        column_keys = compose_keys(devices, banks, columns)

        max_cell = _max_group_count(cell_keys)
        row_unique, row_counts = np.unique(row_keys, return_counts=True)
        column_unique, column_counts = np.unique(column_keys, return_counts=True)

        has_cell = max_cell >= self.cell_threshold

        # A row fault needs enough CEs on one row across >= min_distinct
        # columns (and symmetrically for columns).
        has_row = False
        faulty_row_banks: set[int] = set()
        for key, count in zip(row_unique, row_counts):
            if count < self.line_threshold:
                continue
            mask = row_keys == key
            if np.unique(columns[mask]).size >= self.min_distinct:
                has_row = True
                faulty_row_banks.add(
                    int(compose_keys(devices[mask][:1], banks[mask][:1])[0])
                )
        has_column = False
        faulty_column_banks: set[int] = set()
        for key, count in zip(column_unique, column_counts):
            if count < self.line_threshold:
                continue
            mask = column_keys == key
            if np.unique(rows[mask]).size >= self.min_distinct:
                has_column = True
                faulty_column_banks.add(
                    int(compose_keys(devices[mask][:1], banks[mask][:1])[0])
                )
        has_bank = bool(faulty_row_banks & faulty_column_banks)
        multi_device = bool((n_devices >= 2).any())

        return [
            float(np.unique(row_keys).size),
            float(np.unique(column_keys).size),
            float(np.unique(compose_keys(devices, banks)).size),
            float(np.unique(devices).size),
            float(max_cell),
            float(row_counts.max()),
            float(column_counts.max()),
            float(has_cell),
            float(has_row),
            float(has_column),
            float(has_bank),
            float(multi_device),
        ]


    def compute_online(self, window, t: float) -> list[float]:
        """:meth:`compute` off an
        :class:`~repro.streaming.incremental.IncrementalWindowState`
        already advanced to ``t``."""
        return window.spatial_block()

    def compute_batch(
        self, fleet: FleetArrays, ts: np.ndarray, windows: FleetWindows
    ) -> np.ndarray:
        """Vectorized :meth:`compute` for many samples across the fleet.

        Windows are flattened into (sample, CE) pairs — overlapping windows
        duplicate members, but every group statistic then reduces to sorted
        run-length segments, with no per-sample Python loops.
        """
        n = windows.ts.size
        out = np.zeros((n, len(self.names())), dtype=float)
        lo = windows.lo(self.observation_hours)
        hi = windows.hi
        sid, idx = windows.pairs(self.observation_hours)
        if sid.size == 0:
            return out

        # Rank keys: every group key depends only on the CE, so the
        # fleet's dense ranks (built once per fleet) order the pairs by
        # (sample, key) with one stable argsort of ``sid * stride + rank``.
        # The row-side order (sample, row key, column) is grouped by bank
        # and device too (row keys embed the (device, bank) prefix without
        # wraparound), yielding all the distinct counts without separate
        # sorts.
        ranks = windows.hierarchy_ranks()
        keyed = sid * ranks.stride
        bank_keys = ranks.bank_keys[idx]
        row_side = _line_side(
            sid, keyed, ranks.row_line[idx], ranks.row_pair[idx],
            bank_keys, fleet.devices[idx],
            self.line_threshold, self.min_distinct, n,
        )
        column_side = _line_side(
            sid, keyed, ranks.column_line[idx], ranks.column_pair[idx],
            bank_keys, None,
            self.line_threshold, self.min_distinct, n,
        )
        max_cell = _max_group_per_sample(
            keyed + ranks.cell[idx], ranks.stride, n
        )

        out[:, 0] = row_side.distinct_lines
        out[:, 1] = column_side.distinct_lines
        out[:, 2] = row_side.distinct_banks
        out[:, 3] = row_side.distinct_devices
        out[:, 4] = max_cell
        out[:, 5] = row_side.max_line
        out[:, 6] = column_side.max_line
        out[:, 7] = (max_cell >= self.cell_threshold).astype(float)
        out[:, 8] = row_side.has_fault
        out[:, 9] = column_side.has_fault
        # Bank fault: some (device, bank) hosts both a row and a column fault.
        if row_side.fault_pairs.size and column_side.fault_pairs.size:
            shared = np.intersect1d(
                row_side.fault_pairs, column_side.fault_pairs
            )
            out[shared >> 32, 10] = 1.0

        multi_cum = windows.multi_device_prefix()
        out[:, 11] = ((multi_cum[hi] - multi_cum[lo]) > 0).astype(float)
        return out


def _max_group_count(keys: np.ndarray) -> int:
    if keys.size == 0:
        return 0
    _, counts = np.unique(keys, return_counts=True)
    return int(counts.max())


def _max_group_per_sample(keys: np.ndarray, stride: int, n: int) -> np.ndarray:
    """Largest same-key group size inside each sample's window, from
    ``sample * stride + rank`` keys."""
    ordered = np.sort(keys)
    starts = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    counts = np.diff(np.append(starts, ordered.size))
    result = np.zeros(n)
    np.maximum.at(result, ordered[starts] // stride, counts.astype(float))
    return result


@dataclass
class _LineSideStats:
    """Everything one hierarchy side yields from a single sort."""

    distinct_lines: np.ndarray
    max_line: np.ndarray
    has_fault: np.ndarray
    fault_pairs: np.ndarray
    distinct_banks: np.ndarray | None = None
    distinct_devices: np.ndarray | None = None


def _line_side(
    sid: np.ndarray,
    keyed: np.ndarray,
    line_rank: np.ndarray,
    pair_rank: np.ndarray,
    bank_keys: np.ndarray,
    devices: np.ndarray | None,
    line_threshold: int,
    min_distinct: int,
    n: int,
) -> _LineSideStats:
    """Per-sample statistics of one hierarchy side (rows or columns).

    A line is faulty when it has >= ``line_threshold`` CEs across >=
    ``min_distinct`` distinct cross coordinates.  ``keyed`` is ``sid *
    stride`` and ``pair_rank`` ranks (line key, cross coordinate), so one
    stable argsort orders the pairs by (sample, line key, cross).  Because
    line keys embed the (device, bank) prefix without wraparound, the same
    sorted order is grouped by bank and (when ``devices`` is given) by
    device, so distinct bank / device counts ride along for free.
    """
    pair_keys = keyed + pair_rank
    order = np.argsort(pair_keys, kind="stable")
    s = sid[order]
    k = line_rank[order]
    p = pair_keys[order]
    b = bank_keys[order]

    sid_start = np.ones(s.size, dtype=bool)
    sid_start[1:] = s[1:] != s[:-1]
    group_start = sid_start.copy()
    group_start[1:] |= k[1:] != k[:-1]
    cross_start = np.ones(s.size, dtype=bool)
    np.not_equal(p[1:], p[:-1], out=cross_start[1:])

    gid = np.cumsum(group_start) - 1
    group_counts = np.bincount(gid)
    distinct_cross = np.bincount(gid[cross_start])

    starts = np.flatnonzero(group_start)
    group_sample = s[starts]
    group_bank = b[starts]

    distinct_lines = np.bincount(group_sample, minlength=n).astype(float)
    max_line = np.zeros(n)
    np.maximum.at(max_line, group_sample, group_counts.astype(float))

    has_fault = np.zeros(n)
    faulty = (group_counts >= line_threshold) & (distinct_cross >= min_distinct)
    if faulty.any():
        has_fault[group_sample[faulty]] = 1.0
        # Bank keys are two compose levels (< 2^25), so (sample << 32) |
        # bank is collision-free in int64.
        pairs = (group_sample[faulty].astype(np.int64) << 32) + group_bank[faulty]
    else:
        pairs = np.empty(0, dtype=np.int64)

    stats = _LineSideStats(
        distinct_lines=distinct_lines,
        max_line=max_line,
        has_fault=has_fault,
        fault_pairs=pairs,
    )
    if devices is not None:
        bank_start = sid_start.copy()
        bank_start[1:] |= b[1:] != b[:-1]
        stats.distinct_banks = np.bincount(
            s[bank_start], minlength=n
        ).astype(float)
        d = devices[order]
        device_start = sid_start.copy()
        device_start[1:] |= d[1:] != d[:-1]
        stats.distinct_devices = np.bincount(
            s[device_start], minlength=n
        ).astype(float)
    return stats
