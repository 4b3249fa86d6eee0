"""Incremental per-DIMM windowed feature state for streaming serving.

The offline extractors (:mod:`repro.features.temporal` / ``spatial`` /
``bitlevel`` / ``static``) answer "what does the window ``[t - w, t + EPS)``
look like" by re-scanning a DIMM's history arrays on every scored CE.  This
module keeps the answer *current* instead: every windowed aggregate the
pipeline serves is maintained by delta add/evict as CEs arrive, so a scored
CE costs amortized O(1) bookkeeping (plus one vectorised pass over the tiny
trailing-day window for the burstiness feature) rather than a full
re-extraction.

The contract is strict bit-for-bit parity:
:meth:`IncrementalFeatureExtractor.serve` returns exactly the vector
:meth:`repro.features.pipeline.FeaturePipeline.transform_one` would return
for the same history prefix, at every event — enforced by the streaming
parity suite and the replay engine's ``verify_parity`` mode.  Everything is
exact because every maintained statistic is either an integer count, a
comparison-stable min/max over unchanged float values, or an arithmetic
expression evaluated with the identical operations:

* window boundaries are two-pointer cursors whose advance condition
  (``times[p] < t - w``) is the same comparison ``np.searchsorted(...,
  side="left")`` performs;
* min inter-arrival is a monotonic deque over the same float gaps
  ``np.diff`` produces;
* spatial distinct/max/fault statistics are counting multisets with a
  count-frequency ladder for exact max maintenance under eviction;
* bit-level max/mode come from small dense histograms (the values are tiny
  non-negative integers), and the error-bit mean divides an exactly
  representable integer sum;
* the environment (sibling-pressure) feature advances per-server cursors
  over the *fitted* server index instead of re-running binary searches.

Out-of-order arrivals are tolerated: the state flags itself dirty and
rebuilds (stable re-sort, counters replayed) on the next computation, and a
query at a timestamp behind the stream falls back to the reference
``transform_one`` path (counted in :attr:`IncrementalWindowState.fallbacks`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.features.windows import EPS, SUB_WINDOWS_HOURS, DimmHistory, REPAIR_KINDS
from repro.telemetry.columnar import (
    REPAIR_CODES,
    STORM_CODE,
    ce_value_arrays,
    ce_values,
)
from repro.telemetry.records import CERecord, MemEventKind, MemEventRecord

#: 2^20 per hierarchy level — the same packing ``windows.compose_keys``
#: uses, so composed keys here equal the offline composite keys exactly.
_LEVEL = 1_048_576

#: The offline extractors build composite keys in int64, and the four-level
#: *cell* key overflows for device indices >= 8 (17 * 2^60 wraps) — silently
#: aliasing cells across devices, identically in the per-sample and batch
#: engines.  Bit-for-bit parity therefore requires the same equality
#: classes: the incremental cell multiset keys are reduced modulo 2^64
#: (unsigned wrap ≡ int64 wrap for equality).  The three-level row/column
#: keys stay well inside int64 and are exact.
_MASK64 = (1 << 64) - 1


def _hist_add(hist: list, value: int) -> None:
    if value >= len(hist):
        hist.extend([0] * (value + 1 - len(hist)))
    hist[value] += 1


def _max_and_mode(hist: list) -> tuple[float, float]:
    """(max value present, most frequent value with ties toward larger)."""
    best_count = 0
    mode = 0
    max_value = 0
    for value in range(len(hist) - 1, -1, -1):
        count = hist[value]
        if count:
            if max_value == 0 and best_count == 0:
                max_value = value
            if count > best_count:
                best_count = count
                mode = value
    return float(max_value), float(mode)


class IncrementalWindowState:
    """Every windowed aggregate of one DIMM, kept current per event.

    Create through :meth:`IncrementalFeatureExtractor.state_for`; feed with
    :meth:`add_ce` / :meth:`add_storm` / :meth:`add_repair` (or the record /
    columnar-row conveniences) and read feature vectors through
    :meth:`IncrementalFeatureExtractor.serve`.
    """

    def __init__(self, extractor: "IncrementalFeatureExtractor", dimm_id: str,
                 server_id: str = ""):
        self._x = extractor
        self.dimm_id = dimm_id
        self.server_id = server_id
        self.fallbacks = 0
        #: Late-arrival recoveries: count of full :meth:`_rebuild` passes
        #: (a health counter — out-of-order telemetry made the incremental
        #: cursors unsound and the state re-sorted + replayed itself).
        self.rebuilds = 0
        # Raw per-CE storage (arrival order).
        self.times: list[float] = []
        self.rows_data: list[tuple] = []
        self.first_time: float | None = None
        self.storm_times: list[float] = []
        self.repair_times: list[float] = []
        self._negative_storms = 0
        self._dirty = False
        self._last_t = float("-inf")
        # Window cursors: one start index per distinct window length.
        self._lo = [0] * len(extractor.windows)
        self._add_ptr = 0
        self._storm_lo = 0
        self._storm_hi = 0
        self._repair_lo = 0
        self._repair_hi = 0
        # Sliding minimum over inter-arrival gaps (index, gap), increasing.
        self._gaps: deque[tuple[int, float]] = deque()
        # Bit-level histograms + windowed pattern counters.
        self._h_dq: list[int] = []
        self._h_beat: list[int] = []
        self._h_dqi: list[int] = []
        self._h_bti: list[int] = []
        self._h_ebits: list[int] = []
        self._ebits_sum = 0
        self._risky4 = 0
        self._whole_chip = 0
        self._wide_dq = 0
        self._multi_dev = 0
        # Spatial counting multisets (observation window).  ``_cell`` keys
        # are int64-wrapped (see _MASK64) to mirror the offline cell
        # statistics; ``_rowcell`` keeps the exact (row line, column) pairs
        # that drive the distinct-cross counts.
        self._cell: dict[int, int] = {}
        self._cell_freq: dict[int, int] = {}
        self._cell_max = 0
        self._rowcell: dict[int, int] = {}
        self._row: dict[int, int] = {}
        self._row_freq: dict[int, int] = {}
        self._row_max = 0
        self._row_cross: dict[int, int] = {}  # distinct columns per row line
        self._col: dict[int, int] = {}
        self._col_freq: dict[int, int] = {}
        self._col_max = 0
        self._col_cross: dict[int, int] = {}  # distinct rows per column line
        self._colcell: dict[int, int] = {}  # (column line, row) multiset
        self._bankc: dict[int, int] = {}
        self._devc: dict[int, int] = {}
        self._faulty_rows: set[int] = set()
        self._faulty_cols: set[int] = set()
        self._faulty_row_banks: dict[int, int] = {}
        self._faulty_col_banks: dict[int, int] = {}
        self._banks_both = 0
        # Environment cursors over the fitted server index (lazy).
        self._env_times: list[float] | None = None
        self._env_resolved = False
        self._env_lo = 0
        self._env_hi = 0

    def __len__(self) -> int:
        return len(self.times)

    def __getstate__(self) -> dict:
        # ``_env_times`` is the extractor's cached list of fitted server
        # times: an unpickled state resolves it again, it is never stored.
        state = self.__dict__.copy()
        state["_env_times"] = None
        state["_env_resolved"] = False
        return state

    # -- ingestion ---------------------------------------------------------

    def add_ce(self, t: float, dq_count, beat_count, dq_interval,
               beat_interval, n_devices, error_bits, row, column, bank,
               device) -> None:
        """Append one CE from raw field values (floats or ints)."""
        times = self.times
        if times:
            if t < times[-1]:
                self._dirty = True
        else:
            self.first_time = t
        times.append(t)
        self.rows_data.append((
            t, int(dq_count), int(beat_count), int(dq_interval),
            int(beat_interval), int(n_devices), int(error_bits),
            int(row), int(column), int(bank), int(device),
        ))

    def add_ce_row(self, t: float, row: tuple) -> None:
        """Append one pre-decoded CE row (the fleet engine's fast path).

        ``row`` must already be the exact ``rows_data`` tuple —
        ``(t, dq_count, beat_count, dq_interval, beat_interval, n_devices,
        error_bits, row, column, bank, device)`` with integer fields as
        Python ints.  Bulk columnar decodes (``astype(int64).tolist()``)
        truncate exactly like the per-field ``int()`` of :meth:`add_ce`,
        so the state stays bit-for-bit identical.
        """
        times = self.times
        if times:
            if t < times[-1]:
                self._dirty = True
        else:
            self.first_time = t
        times.append(t)
        self.rows_data.append(row)

    def add_ce_record(self, ce: CERecord) -> None:
        if not self.server_id:
            self.server_id = ce.server_id
        self.add_ce(*ce_values(ce))

    def add_storm(self, t: float) -> None:
        st = self.storm_times
        if st and t < st[-1]:
            self._dirty = True
        if t < 0.0:
            self._negative_storms += 1
        st.append(t)

    def add_repair(self, t: float) -> None:
        rt = self.repair_times
        if rt and t < rt[-1]:
            self._dirty = True
        rt.append(t)

    def add_event_record(self, event: MemEventRecord) -> None:
        if event.kind is MemEventKind.CE_STORM:
            self.add_storm(event.timestamp_hours)
        elif event.kind in REPAIR_KINDS:
            self.add_repair(event.timestamp_hours)

    def add_event_code(self, kind_code: int, t: float) -> None:
        """Columnar-row ingestion (the replay engine's event path)."""
        if kind_code == STORM_CODE:
            self.add_storm(t)
        elif kind_code in REPAIR_CODES:
            self.add_repair(t)

    # -- reference view ----------------------------------------------------

    def history_view(self) -> DimmHistory:
        """Accumulated state as a :class:`DimmHistory` (reference paths)."""
        n = len(self.rows_data)
        table = (
            np.asarray(self.rows_data, dtype=float).reshape(n, 11)
            if n else np.empty((0, 11))
        )
        if n and self._dirty:
            order = np.argsort(table[:, 0], kind="stable")
            table = table[order]
        return DimmHistory(
            dimm_id=self.dimm_id,
            server_id=self.server_id,
            **ce_value_arrays(table),
            storm_times=np.asarray(sorted(self.storm_times), dtype=float),
            repair_times=np.asarray(sorted(self.repair_times), dtype=float),
        )

    # -- maintenance -------------------------------------------------------

    def _rebuild(self) -> None:
        """Recover from out-of-order arrivals: stable re-sort, replay counters."""
        self.rebuilds += 1
        order = sorted(range(len(self.rows_data)),
                       key=lambda i: self.rows_data[i][0])
        self.rows_data = [self.rows_data[i] for i in order]
        self.times = [row[0] for row in self.rows_data]
        self.first_time = self.times[0] if self.times else None
        self.storm_times.sort()
        self.repair_times.sort()
        fresh = IncrementalWindowState(self._x, self.dimm_id, self.server_id)
        for name in (
            "_lo", "_add_ptr", "_storm_lo", "_storm_hi", "_repair_lo",
            "_repair_hi", "_gaps", "_h_dq", "_h_beat", "_h_dqi", "_h_bti",
            "_h_ebits", "_ebits_sum", "_risky4", "_whole_chip", "_wide_dq",
            "_multi_dev", "_cell", "_cell_freq", "_cell_max", "_rowcell",
            "_row",
            "_row_freq", "_row_max", "_row_cross", "_col", "_col_freq",
            "_col_max", "_col_cross", "_colcell", "_bankc", "_devc",
            "_faulty_rows", "_faulty_cols", "_faulty_row_banks",
            "_faulty_col_banks", "_banks_both", "_env_lo", "_env_hi",
        ):
            setattr(self, name, getattr(fresh, name))
        self._last_t = float("-inf")
        self._dirty = False

    def _absorb(self, n: int) -> None:
        """Fold CEs ``[add_ptr, n)`` into the observation-window aggregates."""
        times = self.times
        gaps = self._gaps
        h_dq, h_beat = self._h_dq, self._h_beat
        h_dqi, h_bti, h_ebits = self._h_dqi, self._h_bti, self._h_ebits
        for i in range(self._add_ptr, n):
            (t, dq, beat, dqi, bti, ndev, ebits,
             row, col, bank, dev0) = self.rows_data[i]
            if i:
                gap = t - times[i - 1]
                while gaps and gaps[-1][1] >= gap:
                    gaps.pop()
                gaps.append((i - 1, gap))
            _hist_add(h_dq, dq)
            _hist_add(h_beat, beat)
            _hist_add(h_dqi, dqi)
            _hist_add(h_bti, bti)
            _hist_add(h_ebits, ebits)
            self._ebits_sum += ebits
            if dq == 2 and bti == 4:
                self._risky4 += 1
            if dq == 4 and beat >= 5:
                self._whole_chip += 1
            if dq >= 3:
                self._wide_dq += 1
            if ndev >= 2:
                self._multi_dev += 1

            bank_key = dev0 * _LEVEL + bank
            row_key = bank_key * _LEVEL + row
            col_key = bank_key * _LEVEL + col
            cell_key = (row_key * _LEVEL + col) & _MASK64
            rowcell_key = row_key * _LEVEL + col
            colcell_key = col_key * _LEVEL + row

            self._devc[dev0] = self._devc.get(dev0, 0) + 1
            self._bankc[bank_key] = self._bankc.get(bank_key, 0) + 1

            count = self._rowcell.get(rowcell_key, 0)
            self._rowcell[rowcell_key] = count + 1
            if count == 0:
                self._row_cross[row_key] = self._row_cross.get(row_key, 0) + 1

            count = self._cell.get(cell_key, 0)
            self._cell[cell_key] = count + 1
            freq = self._cell_freq
            if count:
                if freq[count] == 1:
                    del freq[count]
                else:
                    freq[count] -= 1
            freq[count + 1] = freq.get(count + 1, 0) + 1
            if count + 1 > self._cell_max:
                self._cell_max = count + 1

            count = self._colcell.get(colcell_key, 0)
            self._colcell[colcell_key] = count + 1
            if count == 0:
                self._col_cross[col_key] = self._col_cross.get(col_key, 0) + 1

            count = self._row.get(row_key, 0)
            self._row[row_key] = count + 1
            freq = self._row_freq
            if count:
                if freq[count] == 1:
                    del freq[count]
                else:
                    freq[count] -= 1
            freq[count + 1] = freq.get(count + 1, 0) + 1
            if count + 1 > self._row_max:
                self._row_max = count + 1
            self._update_row_fault(row_key, bank_key)

            count = self._col.get(col_key, 0)
            self._col[col_key] = count + 1
            freq = self._col_freq
            if count:
                if freq[count] == 1:
                    del freq[count]
                else:
                    freq[count] -= 1
            freq[count + 1] = freq.get(count + 1, 0) + 1
            if count + 1 > self._col_max:
                self._col_max = count + 1
            self._update_col_fault(col_key, bank_key)
        self._add_ptr = n

    def _evict(self, i: int) -> None:
        """Remove CE ``i``'s contribution as it leaves the observation window."""
        (_, dq, beat, dqi, bti, ndev, ebits,
         row, col, bank, dev0) = self.rows_data[i]
        self._h_dq[dq] -= 1
        self._h_beat[beat] -= 1
        self._h_dqi[dqi] -= 1
        self._h_bti[bti] -= 1
        self._h_ebits[ebits] -= 1
        self._ebits_sum -= ebits
        if dq == 2 and bti == 4:
            self._risky4 -= 1
        if dq == 4 and beat >= 5:
            self._whole_chip -= 1
        if dq >= 3:
            self._wide_dq -= 1
        if ndev >= 2:
            self._multi_dev -= 1

        bank_key = dev0 * _LEVEL + bank
        row_key = bank_key * _LEVEL + row
        col_key = bank_key * _LEVEL + col
        cell_key = (row_key * _LEVEL + col) & _MASK64
        rowcell_key = row_key * _LEVEL + col
        colcell_key = col_key * _LEVEL + row

        count = self._devc[dev0]
        if count == 1:
            del self._devc[dev0]
        else:
            self._devc[dev0] = count - 1
        count = self._bankc[bank_key]
        if count == 1:
            del self._bankc[bank_key]
        else:
            self._bankc[bank_key] = count - 1

        count = self._rowcell[rowcell_key]
        if count == 1:
            del self._rowcell[rowcell_key]
            cross = self._row_cross[row_key]
            if cross == 1:
                del self._row_cross[row_key]
            else:
                self._row_cross[row_key] = cross - 1
        else:
            self._rowcell[rowcell_key] = count - 1

        count = self._cell[cell_key]
        if count == 1:
            del self._cell[cell_key]
        else:
            self._cell[cell_key] = count - 1
        freq = self._cell_freq
        if freq[count] == 1:
            del freq[count]
            if count == self._cell_max:
                self._cell_max = count - 1
        else:
            freq[count] -= 1
        if count > 1:
            freq[count - 1] = freq.get(count - 1, 0) + 1

        count = self._colcell[colcell_key]
        if count == 1:
            del self._colcell[colcell_key]
            cross = self._col_cross[col_key]
            if cross == 1:
                del self._col_cross[col_key]
            else:
                self._col_cross[col_key] = cross - 1
        else:
            self._colcell[colcell_key] = count - 1

        count = self._row[row_key]
        if count == 1:
            del self._row[row_key]
        else:
            self._row[row_key] = count - 1
        freq = self._row_freq
        if freq[count] == 1:
            del freq[count]
            if count == self._row_max:
                self._row_max = count - 1
        else:
            freq[count] -= 1
        if count > 1:
            freq[count - 1] = freq.get(count - 1, 0) + 1
        self._update_row_fault(row_key, bank_key)

        count = self._col[col_key]
        if count == 1:
            del self._col[col_key]
        else:
            self._col[col_key] = count - 1
        freq = self._col_freq
        if freq[count] == 1:
            del freq[count]
            if count == self._col_max:
                self._col_max = count - 1
        else:
            freq[count] -= 1
        if count > 1:
            freq[count - 1] = freq.get(count - 1, 0) + 1
        self._update_col_fault(col_key, bank_key)

    def _update_row_fault(self, row_key: int, bank_key: int) -> None:
        faulty = (
            self._row.get(row_key, 0) >= self._x.line_threshold
            and self._row_cross.get(row_key, 0) >= self._x.min_distinct
        )
        if faulty:
            if row_key not in self._faulty_rows:
                self._faulty_rows.add(row_key)
                banks = self._faulty_row_banks
                count = banks.get(bank_key, 0) + 1
                banks[bank_key] = count
                if count == 1 and bank_key in self._faulty_col_banks:
                    self._banks_both += 1
        elif row_key in self._faulty_rows:
            self._faulty_rows.discard(row_key)
            banks = self._faulty_row_banks
            count = banks[bank_key] - 1
            if count:
                banks[bank_key] = count
            else:
                del banks[bank_key]
                if bank_key in self._faulty_col_banks:
                    self._banks_both -= 1

    def _update_col_fault(self, col_key: int, bank_key: int) -> None:
        faulty = (
            self._col.get(col_key, 0) >= self._x.line_threshold
            and self._col_cross.get(col_key, 0) >= self._x.min_distinct
        )
        if faulty:
            if col_key not in self._faulty_cols:
                self._faulty_cols.add(col_key)
                banks = self._faulty_col_banks
                count = banks.get(bank_key, 0) + 1
                banks[bank_key] = count
                if count == 1 and bank_key in self._faulty_row_banks:
                    self._banks_both += 1
        elif col_key in self._faulty_cols:
            self._faulty_cols.discard(col_key)
            banks = self._faulty_col_banks
            count = banks[bank_key] - 1
            if count:
                banks[bank_key] = count
            else:
                del banks[bank_key]
                if bank_key in self._faulty_row_banks:
                    self._banks_both -= 1

    # -- feature computation -----------------------------------------------

    def advance(self, t: float) -> bool:
        """Move every window cursor to instant ``t``.

        Returns ``False`` (and moves nothing) when ``t`` regresses behind
        the stream and the caller must take the reference path; the block
        methods below read the state as advanced here.
        """
        if self._dirty:
            self._rebuild()
        times = self.times
        n = len(times)
        if t < self._last_t or (n and t < times[-1]):
            return False
        self._last_t = t
        x = self._x

        if self._add_ptr < n:
            self._absorb(n)

        lo = self._lo
        for w_idx in x.plain_windows:
            boundary = t - x.windows[w_idx]
            p = lo[w_idx]
            while p < n and times[p] < boundary:
                p += 1
            lo[w_idx] = p
        boundary = t - x.observation
        p = lo[x.obs_idx]
        while p < n and times[p] < boundary:
            self._evict(p)
            p += 1
        lo[x.obs_idx] = p

        gaps = self._gaps
        while gaps and gaps[0][0] < p:
            gaps.popleft()
        return True

    def _count_obs(self) -> int:
        return len(self.times) - self._lo[self._x.obs_idx]

    def temporal_block(self, t: float) -> list[float]:
        """The temporal block at the advanced instant ``t``."""
        x = self._x
        observation = x.observation
        times = self.times
        n = len(times)
        lo = self._lo
        lo_obs = lo[x.obs_idx]
        count_obs = n - lo_obs
        counts = [float(n - lo[w_idx]) for w_idx in x.sub_idx]
        count_5d = float(count_obs)
        since_first = (
            t - self.first_time if self.first_time is not None
            else float(observation)
        )
        since_last = t - times[-1] if count_obs else float(observation)
        if count_obs >= 2:
            mean_gap = float((times[-1] - times[lo_obs]) / (count_obs - 1))
            min_gap = self._gaps[0][1]
        else:
            mean_gap = float(observation)
            min_gap = float(observation)

        lo_day = lo[x.day_idx]
        if lo_day < n:
            base = t - 24.0
            hourly = [0] * 25
            max_hourly = 0
            for tt in times[lo_day:]:
                bucket = int(tt - base)  # == floor: operand is non-negative
                count = hourly[bucket] + 1
                hourly[bucket] = count
                if count > max_hourly:
                    max_hourly = count
            max_hourly = float(max_hourly)
        else:
            max_hourly = 0.0

        rate_5d = count_obs / observation
        rate_1d = (n - lo_day) / 24.0
        acceleration = rate_1d / rate_5d if rate_5d > 0 else 0.0

        end = t + EPS
        boundary = t - observation
        st = self.storm_times
        p = self._storm_hi
        m = len(st)
        while p < m and st[p] < end:
            p += 1
        self._storm_hi = p
        q = self._storm_lo
        while q < p and st[q] < boundary:
            q += 1
        self._storm_lo = q
        rt = self.repair_times
        rp = self._repair_hi
        m = len(rt)
        while rp < m and rt[rp] < end:
            rp += 1
        self._repair_hi = rp
        rq = self._repair_lo
        while rq < rp and rt[rq] < boundary:
            rq += 1
        self._repair_lo = rq

        return counts + [
            rate_5d,
            float(np.log1p(count_5d)),
            float(since_first),
            float(since_last),
            mean_gap,
            min_gap,
            max_hourly,
            float(p - q),
            float(p - self._negative_storms),
            float(rp - rq),
            acceleration,
        ]

    def spatial_block(self) -> list[float]:
        """The spatial block over the advanced observation window."""
        if not self._count_obs():
            return [0.0] * 12
        x = self._x
        return [
            float(len(self._row)),
            float(len(self._col)),
            float(len(self._bankc)),
            float(len(self._devc)),
            float(self._cell_max),
            float(self._row_max),
            float(self._col_max),
            float(self._cell_max >= x.cell_threshold),
            float(bool(self._faulty_rows)),
            float(bool(self._faulty_cols)),
            float(self._banks_both > 0),
            float(self._multi_dev > 0),
        ]

    def bitlevel_block(self) -> list[float]:
        """The bit-level block over the advanced observation window."""
        count_obs = self._count_obs()
        if not count_obs:
            return [0.0] * 13
        max_dq, mode_dq = _max_and_mode(self._h_dq)
        max_beat, mode_beat = _max_and_mode(self._h_beat)
        max_dqi, _ = _max_and_mode(self._h_dqi)
        max_bti, mode_bti = _max_and_mode(self._h_bti)
        max_ebits, _ = _max_and_mode(self._h_ebits)
        return [
            max_dq,
            mode_dq,
            max_beat,
            mode_beat,
            max_dqi,
            max_bti,
            mode_bti,
            float(self._risky4),
            float(self._whole_chip),
            float(self._wide_dq),
            float(self._multi_dev),
            float(self._ebits_sum / count_obs),
            max_ebits,
        ]

    def environment_block(self, t: float) -> list[float]:
        """The environment (sibling-pressure) block at the advanced ``t``."""
        x = self._x
        if not self._env_resolved:
            self._env_times = x.env_times_list(self.server_id)
            self._env_resolved = True
        et = self._env_times
        if et is None:
            return [0.0, 0.0]
        end = t + EPS
        boundary = t - x.observation
        m = len(et)
        p = self._env_hi
        while p < m and et[p] < end:
            p += 1
        self._env_hi = p
        q = self._env_lo
        while q < p and et[q] < boundary:
            q += 1
        self._env_lo = q
        own = float(len(self.times) - self._lo[x.sub_idx[x.own_count_pos]])
        sibling = max(0.0, float(p - q) - own)
        return [sibling, float(sibling > 0)]


class IncrementalFeatureExtractor:
    """Streaming twin of a fitted :class:`FeaturePipeline`.

    Binds the pipeline's extractor parameters, fitted environment index and
    static encoder once; :meth:`serve` then produces per-event feature
    vectors from :class:`IncrementalWindowState` aggregates, bit-for-bit
    equal to ``pipeline.transform_one`` on the same history prefix.
    """

    def __init__(self, pipeline):
        if not pipeline._fitted:
            raise RuntimeError("pipeline not fitted")
        self.pipeline = pipeline
        observation = float(pipeline.temporal.observation_hours)
        for extractor in (pipeline.spatial, pipeline.bitlevel,
                          pipeline.environment):
            if float(extractor.observation_hours) != observation:
                raise ValueError(
                    "incremental serving requires one shared observation "
                    "window across extractors"
                )
        self.observation = observation
        self.windows = list(dict.fromkeys(
            [float(w) for w in SUB_WINDOWS_HOURS] + [observation, 24.0]
        ))
        index = {w: i for i, w in enumerate(self.windows)}
        self.sub_idx = [index[float(w)] for w in SUB_WINDOWS_HOURS]
        self.obs_idx = index[observation]
        self.day_idx = index[24.0]
        self.plain_windows = [i for i in range(len(self.windows))
                              if i != self.obs_idx]
        #: Position (within the sub-window counts) of the count the
        #: environment extractor subtracts as the DIMM's own contribution —
        #: the 120 h sub-window, exactly as ``transform_one`` wires it.
        self.own_count_pos = SUB_WINDOWS_HOURS.index(120.0)
        self.cell_threshold = pipeline.spatial.cell_threshold
        self.line_threshold = pipeline.spatial.line_threshold
        self.min_distinct = pipeline.spatial.min_distinct
        self.env = pipeline.environment
        self.static = pipeline.static
        self.n_features = len(pipeline.feature_names())
        self._static_cache: dict = {}
        self._env_lists: dict[str, list[float] | None] = {}

    def state_for(self, dimm_id: str, server_id: str = "") -> IncrementalWindowState:
        return IncrementalWindowState(self, dimm_id, server_id)

    def env_times_list(self, server_id: str) -> list[float] | None:
        """The fitted server CE times as a shared plain-float list."""
        cached = self._env_lists.get(server_id, _UNSET)
        if cached is _UNSET:
            times = self.env.fitted_times(server_id)
            cached = times.tolist() if times is not None else None
            self._env_lists[server_id] = cached
        return cached

    def static_block(self, config) -> list[float]:
        """Cached ``static.compute(config)`` (configs are time-invariant)."""
        block = self._static_cache.get(config)
        if block is None:
            block = self.static.compute(config)
            self._static_cache[config] = block
        return block

    def serve(self, state: IncrementalWindowState, config, t: float) -> np.ndarray:
        """Feature vector of ``state`` at instant ``t``.

        Bit-for-bit equal to ``pipeline.transform_one(history, config, t)``
        on the equivalent history.  Queries behind the stream head fall back
        to that reference path (counted in ``state.fallbacks``).  Each
        windowed block is entered through its extractor's
        ``compute_online``, so the online path runs through the same
        ``compute*`` methods as every other feature path (the seam
        ``perfbench``'s per-layer timing wraps).
        """
        pipeline = self.pipeline
        if not state.advance(t):
            state.fallbacks += 1
            return pipeline.transform_one(state.history_view(), config, t)
        return np.asarray(
            pipeline.temporal.compute_online(state, t)
            + pipeline.spatial.compute_online(state, t)
            + pipeline.bitlevel.compute_online(state, t)
            + pipeline.environment.compute_online(state, t)
            + self.static_block(config),
            dtype=float,
        )


#: Sentinel distinguishing "not cached" from a cached ``None``.
_UNSET = object()
