"""Spatial fast path vs the per-sample reference on hand-built histories.

``SpatialExtractor.compute_batch`` orders (sample, CE) pairs by integer
rank keys built once per fleet; ``compute`` groups one window's CEs with
``np.unique``.  The histories here are built to stress that ordering:
many CEs on one cell, one row or one column across several devices,
counts exactly at the ``line_threshold`` and ``min_distinct`` boundaries,
the largest device index with the largest coordinates the 2^20-per-level
keys hold (the cell key wraps in int64), same-timestamp ties, windows of
one CE and empty windows.  Both fast-path entry points must equal
``compute`` bit for bit: the offline :class:`FleetWindows` and the replay
kernel's :class:`PrefixWindows`, which serves the kernel's copy of the
ranks.
"""

import numpy as np
import pytest

from repro.features.pipeline import FeaturePipeline
from repro.features.spatial import SpatialExtractor
from repro.features.windows import DimmHistory, FleetWindows
from repro.streaming.kernels import ReplayKernel
from repro.telemetry.columnar import MAX_DEVICE
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import CERecord, DimmConfigRecord

#: The largest coordinate a 2^20-per-level key holds without aliasing.
TOP = (1 << 20) - 1
LAST_DEVICE = MAX_DEVICE - 1


def _ce(dimm, t, devices, bank, row, column):
    devices = (devices,) if isinstance(devices, int) else tuple(devices)
    return CERecord(
        timestamp_hours=float(t), server_id="s0", dimm_id=dimm, rank=0,
        bank=bank, row=row, column=column, devices=devices, dq_count=1,
        beat_count=1, dq_interval=0, beat_interval=0, error_bit_count=1,
    )


def _hostile_ces() -> list[CERecord]:
    ces = []
    # One cell hit again and again, then on other devices (same bank, row
    # and column, so only the device prefix tells the keys apart), with a
    # timestamp tie and a multi-device CE.
    ces += [_ce("cell", t, 2, 1, 40, 9) for t in range(1, 7)]
    ces += [_ce("cell", t, d, 1, 40, 9)
            for t, d in ((6, 0), (7, 7), (8, LAST_DEVICE))]
    ces.append(_ce("cell", 8, (4, LAST_DEVICE), 1, 40, 9))
    # One row across eight columns and three devices, one column across
    # eight rows and two devices.
    ces += [_ce("row", 10 + 0.5 * i, (0, 17, LAST_DEVICE)[i % 3], 0, 300, i)
            for i in range(8)]
    ces += [_ce("column", 10 + 0.5 * i, (5, 6)[i % 2], 15, i, 1023)
            for i in range(8)]
    # Threshold boundaries (line_threshold=3, min_distinct=2): row 5 has
    # 3 CEs on one column (no row fault), then a 4th on a second column (a
    # row fault); column 2 then reaches 3 CEs on 3 rows (a column fault in
    # the same bank, so a bank fault).  Row 9 stops at 2 CEs on 2 columns.
    # The last CE comes alone, long after the rest.
    ces += [_ce("edge", t, 1, 3, row, col) for t, row, col in (
        (1, 5, 1), (2, 5, 1), (3, 5, 1), (4, 5, 2), (5, 6, 2), (6, 7, 2),
        (7, 9, 4), (8, 9, 5), (200, 5, 3),
    )]
    # The largest device and coordinates: the cell key wraps in int64.
    ces += [_ce("top", t, LAST_DEVICE, TOP, row, col) for t, row, col in (
        (3, TOP, TOP), (3, TOP, TOP), (4, TOP, 0), (5, TOP, TOP - 1),
        (6, 0, TOP), (7, TOP - 1, TOP), (8, TOP, TOP),
    )]
    ces += [_ce("top", 9, (0, LAST_DEVICE), 0, 0, 0)]
    return ces


def _store() -> LogStore:
    store = LogStore()
    ces = _hostile_ces()
    for dimm in dict.fromkeys(ce.dimm_id for ce in ces):
        store.add_config(DimmConfigRecord(
            dimm_id=dimm, server_id="s0", platform="synthetic",
            manufacturer="m0", part_number="p0", capacity_gb=32,
            data_width=4, frequency_mts=2933, chip_process="1y",
        ))
    store.ingest_bulk(ces)
    return store


EXTRACTORS = [
    SpatialExtractor(),
    SpatialExtractor(cell_threshold=3, line_threshold=4, min_distinct=3),
    SpatialExtractor(observation_hours=2.0, line_threshold=2),
]


@pytest.mark.parametrize(
    "extractor", EXTRACTORS,
    ids=["default", "raised-thresholds", "two-hour-window"],
)
def test_fleet_windows_match_per_sample(extractor):
    store = _store()
    fleet = store.fleet_arrays()
    ts_parts, seg_parts, reference = [], [], []
    for i, dimm in enumerate(fleet.dimm_ids):
        history = DimmHistory.from_records(dimm, store.ces_for_dimm(dimm), [])
        times = history.times
        # CE instants (one-CE windows included), just after them, window
        # starts exactly on a CE, before the first CE and long after the
        # last (empty windows).
        ts = np.concatenate([
            times, times + 0.37, times + extractor.observation_hours,
            [0.0, 1e6],
        ])
        ts_parts.append(ts)
        seg_parts.append(np.full(ts.size, i, dtype=np.int64))
        reference += [extractor.compute(history, float(t)) for t in ts]
    ts = np.concatenate(ts_parts)
    windows = FleetWindows(fleet, ts, np.concatenate(seg_parts))
    batch = extractor.compute_batch(fleet, ts, windows)
    expected = np.array(reference)
    assert np.array_equal(batch, expected)
    # The histories reach every fault flag, and empty windows occur.
    assert expected[:, 7:11].any(axis=0).all()
    assert (windows.counts(extractor.observation_hours) == 0).any()


def test_replay_kernel_prefix_windows_match_per_sample():
    store = _store()
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    kernel = ReplayKernel(
        pipeline, store.columns, store.configs, min_ces_before_scoring=1
    )
    assert kernel.n_queries == len(store.ces)
    rows = np.arange(kernel.n_queries)
    got = kernel.features_for(rows)
    names = pipeline.feature_names()
    spatial = slice(
        names.index(pipeline.spatial.names()[0]),
        names.index(pipeline.spatial.names()[-1]) + 1,
    )
    for row in rows:
        reference = kernel.reference_for_query(int(row))
        assert np.array_equal(got[row, spatial], reference[spatial]), row
        assert np.array_equal(got[row], reference), row
