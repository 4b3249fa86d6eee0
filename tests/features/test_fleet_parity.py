"""Parity of the cross-DIMM fleet extraction engine.

The fleet pass (one :class:`FleetWindows` over every DIMM's concatenated
history) and the per-sample reference (:meth:`transform_one`) must
produce bit-for-bit identical feature matrices and sample sets — across
all three simulated platforms.
"""

import numpy as np
import pytest

from repro.features.pipeline import ENGINES, FeaturePipeline
from repro.features.windows import DimmHistory
from repro.obs.tracing import NULL_TRACER
from repro.telemetry.log_store import LogStore


@pytest.fixture(scope="module", params=["intel_purley", "intel_whitley", "k920"])
def platform_sim(request, tiny_study):
    return request.param, tiny_study[request.param]


@pytest.fixture(scope="module")
def fitted(platform_sim):
    _, sim = platform_sim
    pipeline = FeaturePipeline()
    pipeline.fit(sim.store)
    return pipeline


def _reference_rows(fitted, store, dimm_id, ts):
    history = DimmHistory.from_records(
        dimm_id, store.ces_for_dimm(dimm_id), store.events_for_dimm(dimm_id)
    )
    config = store.config_for(dimm_id)
    return [fitted.transform_one(history, config, float(t)) for t in ts]


class TestFleetMatrixParity:
    def test_transform_fleet_equals_per_sample_at_any_instant(
        self, platform_sim, fitted
    ):
        """Fleet rows == transform_one at CE instants, off-CE instants and
        out-of-range extremes, over the first 40 DIMMs."""
        _, sim = platform_sim
        store = sim.store
        fleet = store.fleet_arrays()
        ts_parts, seg_parts, rows = [], [], []
        for i, dimm_id in enumerate(fleet.dimm_ids[:40]):
            lo, hi = fleet.ce_offsets[i], fleet.ce_offsets[i + 1]
            times = fleet.times[lo:hi]
            ts = np.concatenate([times, times + 0.37, [0.0, 1e6]])
            ts.sort()
            ts_parts.append(ts)
            seg_parts.append(np.full(ts.size, i, dtype=np.int64))
            rows.extend(_reference_rows(fitted, store, dimm_id, ts))
        fleet_X = fitted.transform_fleet(
            fleet,
            [store.config_for(d) for d in fleet.dimm_ids],
            np.concatenate(ts_parts),
            np.concatenate(seg_parts),
        )
        assert np.array_equal(fleet_X, np.vstack(rows))

    def test_transform_fleet_equals_per_sample(self, platform_sim, fitted):
        """Fleet rows == transform_one for mid-fleet DIMMs only, with the
        DIMMs before and after them sampled nowhere."""
        _, sim = platform_sim
        store = sim.store
        fleet = store.fleet_arrays()
        n = min(5, fleet.n_dimms)
        first = (fleet.n_dimms - n) // 2
        ts_parts, seg_parts, rows = [], [], []
        for i in range(first, first + n):
            lo, hi = fleet.ce_offsets[i], fleet.ce_offsets[i + 1]
            ts = np.concatenate([fleet.times[lo:hi][:10], [0.0, 1e6]])
            ts.sort()
            ts_parts.append(ts)
            seg_parts.append(np.full(ts.size, i, dtype=np.int64))
            rows.extend(_reference_rows(fitted, store, fleet.dimm_ids[i], ts))
        fleet_X = fitted.transform_fleet(
            fleet,
            [store.config_for(d) for d in fleet.dimm_ids],
            np.concatenate(ts_parts),
            np.concatenate(seg_parts),
        )
        assert np.array_equal(fleet_X, np.vstack(rows))


class TestBuildSamplesParity:
    def test_fleet_equals_per_sample(self, platform_sim, fitted):
        name, sim = platform_sim
        store = sim.store
        fleet = fitted.build_samples(
            store, name, sim.duration_hours, engine="fleet"
        )
        reference = fitted.build_samples(
            store, name, sim.duration_hours, engine="per_sample"
        )
        assert np.array_equal(fleet.X, reference.X)
        assert np.array_equal(fleet.y, reference.y)
        assert np.array_equal(fleet.times, reference.times)
        assert list(fleet.dimm_ids) == list(reference.dimm_ids)
        assert len(fleet) > 0

    @pytest.mark.parametrize("engine", ["warp", "batch"])
    def test_unknown_engine_rejected(self, platform_sim, fitted, engine):
        name, sim = platform_sim
        with pytest.raises(ValueError, match="unknown engine"):
            fitted.build_samples(sim.store, name, engine=engine)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_last_heartbeat_reports_the_whole_build(
        self, platform_sim, fitted, engine
    ):
        name, sim = platform_sim
        obs = _HeartbeatLog()
        samples = fitted.build_samples(
            sim.store, name, sim.duration_hours, engine=engine,
            obs=obs, heartbeat_every=1,
        )
        sources = {source for source, _ in obs.beats}
        assert sources == {"build_samples"}
        last = obs.beats[-1][1]
        assert last["fraction"] == 1.0
        assert last["samples"] == len(samples) > 0


class _HeartbeatLog:
    """Records ``build_samples`` heartbeats in publication order."""

    tracer = NULL_TRACER

    def __init__(self):
        self.beats = []

    def heartbeat(self, source, fields, worker=""):
        self.beats.append((source, dict(fields)))


def test_empty_store_builds_empty_sample_set(purley_sim):
    pipeline = FeaturePipeline()
    pipeline.fit(purley_sim.store)
    empty = LogStore()
    samples = pipeline.build_samples(empty, "none", campaign_end_hour=100.0)
    assert len(samples) == 0
    assert samples.X.shape == (0, len(pipeline.feature_names()))
