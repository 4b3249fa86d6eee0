"""Temporal CE features (counts, rates, recency, storminess)."""

from __future__ import annotations

import numpy as np

from repro.features.windows import (
    EPS,
    SUB_WINDOWS_HOURS,
    DimmHistory,
    FleetWindows,
)
from repro.telemetry.columnar import FleetArrays


class TemporalExtractor:
    """CE dynamics over the observation window ending at sample time t."""

    group = "temporal"

    def __init__(self, observation_hours: float = 120.0):
        self.observation_hours = observation_hours

    def names(self) -> list[str]:
        names = [f"temporal_ce_count_{_window_tag(w)}" for w in SUB_WINDOWS_HOURS]
        names += [
            "temporal_ce_rate_per_hour",
            "temporal_log_ce_count",
            "temporal_hours_since_first_ce",
            "temporal_hours_since_last_ce",
            "temporal_mean_interarrival",
            "temporal_min_interarrival",
            "temporal_max_ces_in_hour_1d",
            "temporal_storm_count_5d",
            "temporal_storm_count_total",
            "temporal_repair_count_5d",
            "temporal_ce_acceleration",
        ]
        return names

    def compute(self, history: DimmHistory, t: float) -> list[float]:
        observation = self.observation_hours
        counts = [
            float(history.count_in(t - w, t + EPS)) for w in SUB_WINDOWS_HOURS
        ]
        count_5d = history.count_in(t - observation, t + EPS)
        sl = history.window(t - observation, t + EPS)
        times = history.times[sl]

        hours_since_first = t - history.first_ce_hour if len(history) else observation
        hours_since_last = t - float(times[-1]) if times.size else observation

        if times.size >= 2:
            # Telescoped mean keeps the arithmetic identical to the batch
            # path's (last - first) / (n - 1) form.
            mean_gap = float((times[-1] - times[0]) / (times.size - 1))
            min_gap = float(np.diff(times).min())
        else:
            mean_gap = observation
            min_gap = observation

        # Burstiness: max CEs in any single hour of the last day.
        day_slice = history.window(t - 24.0, t + EPS)
        day_times = history.times[day_slice]
        if day_times.size:
            buckets = np.floor(day_times - (t - 24.0)).astype(int)
            max_hourly = float(np.bincount(buckets, minlength=24).max())
        else:
            max_hourly = 0.0

        # Acceleration: recent-day rate vs window-average rate.
        rate_5d = count_5d / observation
        rate_1d = history.count_in(t - 24.0, t + EPS) / 24.0
        acceleration = rate_1d / rate_5d if rate_5d > 0 else 0.0

        return counts + [
            rate_5d,
            float(np.log1p(count_5d)),
            float(hours_since_first),
            float(hours_since_last),
            mean_gap,
            min_gap,
            max_hourly,
            float(history.storms_in(t - observation, t + EPS)),
            float(history.storms_in(0.0, t + EPS)),
            float(history.repairs_in(t - observation, t + EPS)),
            acceleration,
        ]

    def compute_online(self, window, t: float) -> list[float]:
        """:meth:`compute` off an
        :class:`~repro.streaming.incremental.IncrementalWindowState`
        already advanced to ``t``."""
        return window.temporal_block(t)

    def compute_batch(
        self, fleet: FleetArrays, ts: np.ndarray, windows: FleetWindows
    ) -> np.ndarray:
        """Vectorized :meth:`compute` for many samples across the fleet."""
        ts = windows.ts
        n = ts.size
        observation = self.observation_hours
        times = fleet.times
        windows.prefetch(SUB_WINDOWS_HOURS + (observation, 24.0))
        hi = windows.hi
        lo_obs = windows.lo(observation)
        lo_day = windows.lo(24.0)

        out = np.empty((n, len(self.names())), dtype=float)
        for j, w in enumerate(SUB_WINDOWS_HOURS):
            out[:, j] = windows.counts(w)
        base = len(SUB_WINDOWS_HOURS)

        count_5d = (hi - lo_obs).astype(float)
        sizes = hi - lo_obs
        nonempty = sizes > 0

        hours_since_first = windows.since_first(observation)
        if times.size:
            last_time = times[np.maximum(hi - 1, 0)]
            first_time = times[np.minimum(lo_obs, times.size - 1)]
        else:
            last_time = np.zeros(n)
            first_time = np.zeros(n)
        hours_since_last = np.where(nonempty, ts - last_time, observation)

        multi = sizes >= 2
        span = last_time - first_time
        mean_gap = np.where(
            multi, span / np.maximum(sizes - 1, 1), observation
        )
        # min over gaps[lo : hi - 1] == min of diff(times[lo:hi]); the
        # interleaved-pairs reduceat answers every window in one C call
        # (odd positions cover the unwanted inter-window stretches).  The
        # inf sentinel keeps every index legal without clipping away the
        # final gap; windows with fewer than two CEs are masked after.
        gaps = windows.gap_array()
        bounds = np.empty(2 * n, dtype=np.int64)
        bounds[0::2] = np.minimum(lo_obs, gaps.size - 1)
        bounds[1::2] = np.minimum(
            np.maximum(hi - 1, bounds[0::2]), gaps.size - 1
        )
        min_gap = np.where(
            multi, np.minimum.reduceat(gaps, bounds)[0::2], observation
        )

        max_hourly = _max_hourly_batch(times, ts, windows.pairs(24.0))

        rate_5d = count_5d / observation
        rate_1d = (hi - lo_day) / 24.0
        acceleration = np.divide(
            rate_1d, rate_5d, out=np.zeros(n), where=rate_5d > 0
        )

        out[:, base + 0] = rate_5d
        out[:, base + 1] = np.log1p(count_5d)
        out[:, base + 2] = hours_since_first
        out[:, base + 3] = hours_since_last
        out[:, base + 4] = mean_gap
        out[:, base + 5] = min_gap
        out[:, base + 6] = max_hourly
        # Storm / repair event counts resolve through the windows object so
        # the same code serves the offline pass and the replay kernels'
        # arrival-exact prefixes.
        storm_5d, storm_total = windows.storm_counts(observation)
        out[:, base + 7] = storm_5d
        out[:, base + 8] = storm_total
        out[:, base + 9] = windows.repair_counts(observation)
        out[:, base + 10] = acceleration
        return out


def _max_hourly_batch(
    times: np.ndarray,
    ts: np.ndarray,
    day_pairs: tuple[np.ndarray, np.ndarray],
) -> np.ndarray:
    """Max CEs in any single hour of each sample's trailing day.

    Uses the same ``floor(time - (t - 24))`` bucketisation as the
    per-sample path over the flattened (sample, CE) pairs; one dense
    (sample, hour-bucket) histogram yields every sample's answer.
    """
    sid, idx = day_pairs
    if sid.size == 0:
        return np.zeros(ts.size)
    buckets = np.floor(times[idx] - (ts[sid] - 24.0)).astype(np.int64)
    histogram = np.bincount(
        sid * 25 + buckets, minlength=ts.size * 25  # bucket range is [0, 24]
    ).reshape(ts.size, 25)
    return histogram.max(axis=1).astype(float)


def _window_tag(hours: float) -> str:
    if hours < 24.0:
        return f"{int(hours)}h"
    return f"{int(hours / 24.0)}d"
