"""Bit-level error features: DQ/beat counts, intervals and risky patterns.

These encode the Section V / Figure 5 analysis as model features — the
distribution of error bits across DQs and beats, including the two
platform-risky signatures (2 DQs with a 4-beat interval; whole-chip-wide
patterns) and multi-device bursts.
"""

from __future__ import annotations

import numpy as np

from repro.features.windows import EPS, DimmHistory, FleetWindows
from repro.telemetry.columnar import FleetArrays


class BitLevelExtractor:
    group = "bitlevel"

    def __init__(self, observation_hours: float = 120.0):
        self.observation_hours = observation_hours

    def names(self) -> list[str]:
        return [
            "bit_max_dq_count",
            "bit_mode_dq_count",
            "bit_max_beat_count",
            "bit_mode_beat_count",
            "bit_max_dq_interval",
            "bit_max_beat_interval",
            "bit_mode_beat_interval",
            "bit_risky_2dq_interval4_count",
            "bit_whole_chip_count",
            "bit_wide_dq_count",
            "bit_multi_device_ce_count",
            "bit_mean_error_bits",
            "bit_max_error_bits",
        ]

    def compute(self, history: DimmHistory, t: float) -> list[float]:
        sl = history.window(t - self.observation_hours, t + EPS)
        dq_count = history.dq_count[sl]
        beat_count = history.beat_count[sl]
        dq_interval = history.dq_interval[sl]
        beat_interval = history.beat_interval[sl]
        n_devices = history.n_devices[sl]
        error_bits = history.error_bits[sl]

        if dq_count.size == 0:
            return [0.0] * len(self.names())

        risky_stride4 = float(np.sum((dq_count == 2) & (beat_interval == 4)))
        whole_chip = float(np.sum((dq_count == 4) & (beat_count >= 5)))
        wide_dq = float(np.sum(dq_count >= 3))

        return [
            float(dq_count.max()),
            _mode(dq_count),
            float(beat_count.max()),
            _mode(beat_count),
            float(dq_interval.max()),
            float(beat_interval.max()),
            _mode(beat_interval),
            risky_stride4,
            whole_chip,
            wide_dq,
            float(np.sum(n_devices >= 2)),
            float(error_bits.mean()),
            float(error_bits.max()),
        ]

    def compute_online(self, window, t: float) -> list[float]:
        """:meth:`compute` off an
        :class:`~repro.streaming.incremental.IncrementalWindowState`
        already advanced to ``t``."""
        return window.bitlevel_block()

    def compute_batch(
        self, fleet: FleetArrays, ts: np.ndarray, windows: FleetWindows
    ) -> np.ndarray:
        """Vectorized :meth:`compute` for many samples across the fleet.

        The bit-level columns are tiny non-negative integers, so each
        window's histogram is one dense ``bincount`` over the flattened
        (sample, CE) pairs — max and mode both fall out of it — and the
        conditional counts are weighted bincounts over the same pairs.
        """
        n = windows.ts.size
        out = np.zeros((n, len(self.names())), dtype=float)
        sizes = windows.counts(self.observation_hours)
        nonempty = sizes > 0
        if not nonempty.any():
            return out
        sid, idx = windows.pairs(self.observation_hours)

        # Gather each column to pair level once; the histogram and every
        # conditional count reuse the same gathered arrays.
        dq = fleet.dq_count[idx]
        beats = fleet.beat_count[idx]
        beat_iv = fleet.beat_interval[idx]
        err = fleet.error_bits[idx]

        maxima, modes = _max_and_mode(
            sid,
            (dq, beats, fleet.dq_interval[idx], beat_iv, err),
            n,
        )
        out[:, 0], out[:, 1] = maxima[0], modes[0]
        out[:, 2], out[:, 3] = maxima[1], modes[1]
        out[:, 4] = maxima[2]
        out[:, 5], out[:, 6] = maxima[3], modes[3]
        out[:, 12] = maxima[4]

        def window_sum(values: np.ndarray) -> np.ndarray:
            return np.bincount(sid, weights=values, minlength=n)

        out[:, 7] = window_sum((dq == 2) & (beat_iv == 4))
        out[:, 8] = window_sum((dq == 4) & (beats >= 5))
        out[:, 9] = window_sum(dq >= 3)
        out[:, 10] = window_sum(fleet.n_devices[idx] >= 2)
        # Error-bit counts are integer-valued, so the weighted-bincount sum
        # is exact and the mean matches the per-sample path bit-for-bit.
        out[:, 11] = np.divide(
            window_sum(err),
            sizes,
            out=np.zeros(n),
            where=nonempty,
        )

        out[~nonempty] = 0.0
        return out


def _mode(values: np.ndarray) -> float:
    """Most frequent value; ties break toward the larger value."""
    unique, counts = np.unique(values, return_counts=True)
    best = np.flatnonzero(counts == counts.max())
    return float(unique[best].max())


def _max_and_mode(
    sid: np.ndarray, value_columns: tuple[np.ndarray, ...], n: int
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-window max and mode (ties toward the larger value), per column.

    Every column holds small non-negative integers stored as floats, so one
    fused dense (sample, value) histogram — all columns side by side in a
    single ``bincount`` — answers both statistics for all of them.  Rows of
    empty windows report garbage; callers zero them out wholesale.
    """
    codes = [column.astype(np.int64) for column in value_columns]
    cardinalities = [
        int(column.max()) + 1 if column.size else 1 for column in codes
    ]
    total = sum(cardinalities)
    base = sid * total
    fused = np.empty(len(codes) * sid.size, dtype=np.int64)
    offset = 0
    offsets = []
    for j, column in enumerate(codes):
        offsets.append(offset)
        fused[j * sid.size : (j + 1) * sid.size] = base + offset + column
        offset += cardinalities[j]
    histogram = np.bincount(fused, minlength=n * total).reshape(n, total)

    maxima, modes = [], []
    for offset, cardinality in zip(offsets, cardinalities):
        counts = histogram[:, offset : offset + cardinality][:, ::-1]
        maxima.append((cardinality - 1 - np.argmax(counts > 0, axis=1)).astype(float))
        modes.append((cardinality - 1 - np.argmax(counts, axis=1)).astype(float))
    return maxima, modes
