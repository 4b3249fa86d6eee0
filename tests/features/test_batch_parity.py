"""Train/serve parity of the vectorized feature-extraction fast path.

The fleet pass (:meth:`FeaturePipeline.transform_fleet`, and each
extractor's ``compute_batch`` over :class:`FleetWindows`) and the
per-sample ``transform_one`` reference must produce bit-for-bit identical
feature values — over a DIMM's whole history, over every arrival prefix
the online path serves, and over an empty history.  This is the
train/serve-consistency guarantee the paper's feature store is built
around.
"""

import numpy as np
import pytest

from repro.features.pipeline import FeaturePipeline
from repro.features.windows import DimmHistory, FleetWindows
from repro.mlops.feature_store import FeatureStore
from repro.telemetry.columnar import FleetArrays
from repro.telemetry.records import CERecord, MemEventKind, MemEventRecord


@pytest.fixture(scope="module")
def fitted(purley_sim):
    pipeline = FeaturePipeline()
    pipeline.fit(purley_sim.store)
    return pipeline


def _history(store, dimm_id):
    return DimmHistory.from_records(
        dimm_id, store.ces_for_dimm(dimm_id), store.events_for_dimm(dimm_id)
    )


def _one_dimm_fleet(history):
    """A one-segment :class:`FleetArrays` holding exactly ``history``."""
    return FleetArrays(
        dimm_ids=[history.dimm_id],
        server_ids=[history.server_id],
        times=history.times,
        dq_count=history.dq_count,
        beat_count=history.beat_count,
        dq_interval=history.dq_interval,
        beat_interval=history.beat_interval,
        n_devices=history.n_devices,
        error_bits=history.error_bits,
        rows=history.rows,
        columns=history.columns,
        banks=history.banks,
        devices=history.devices,
        ce_offsets=np.array([0, len(history)]),
        storm_times=history.storm_times,
        storm_offsets=np.array([0, history.storm_times.size]),
        repair_times=history.repair_times,
        repair_offsets=np.array([0, history.repair_times.size]),
        ue_hours=np.array([np.nan]),
    )


def _fleet_rows(pipeline, history, config, ts):
    """The fleet pass's rows for one DIMM at ``ts``."""
    ts = np.asarray(ts, dtype=float)
    return pipeline.transform_fleet(
        _one_dimm_fleet(history), [config], ts, np.zeros(ts.size, np.int64)
    )


def _sample_times(history):
    """CE instants, off-CE instants, and out-of-range extremes."""
    return np.concatenate(
        [history.times, history.times + 0.37, [0.0, 1e6]]
    )


class TestFleetMatchesPerSample:
    def test_full_pipeline_bit_for_bit(self, purley_sim, fitted):
        store = purley_sim.store
        checked = 0
        for dimm_id in store.dimm_ids_with_ces()[:25]:
            history = _history(store, dimm_id)
            config = store.config_for(dimm_id)
            ts = _sample_times(history)
            fleet = _fleet_rows(fitted, history, config, ts)
            reference = np.vstack(
                [fitted.transform_one(history, config, float(t)) for t in ts]
            )
            assert np.array_equal(fleet, reference), dimm_id
            checked += ts.size
        assert checked > 0

    def test_each_extractor_matches(self, purley_sim, fitted):
        store = purley_sim.store
        dimm_id = store.dimm_ids_with_ces()[0]
        history = _history(store, dimm_id)
        fleet = _one_dimm_fleet(history)
        ts = _sample_times(history)
        windows = FleetWindows(fleet, ts, np.zeros(ts.size, np.int64))
        for extractor in (fitted.temporal, fitted.spatial, fitted.bitlevel):
            batch = extractor.compute_batch(fleet, ts, windows)
            reference = np.vstack(
                [extractor.compute(history, float(t)) for t in ts]
            )
            assert np.array_equal(batch, reference), extractor.group

    def test_empty_history(self, fitted, purley_sim):
        store = purley_sim.store
        dimm_id = store.dimm_ids_with_ces()[0]
        config = store.config_for(dimm_id)
        empty = DimmHistory.from_records("empty", [], [])
        ts = np.array([10.0, 500.0])
        fleet = _fleet_rows(fitted, empty, config, ts)
        reference = np.vstack(
            [fitted.transform_one(empty, config, float(t)) for t in ts]
        )
        assert np.array_equal(fleet, reference)

    def test_empty_ts(self, fitted, purley_sim):
        store = purley_sim.store
        dimm_id = store.dimm_ids_with_ces()[0]
        history = _history(store, dimm_id)
        config = store.config_for(dimm_id)
        out = _fleet_rows(fitted, history, config, np.empty(0))
        assert out.shape == (0, len(fitted.feature_names()))

    def test_build_samples_fleet_equals_per_sample(self, purley_sim, fitted):
        store = purley_sim.store
        fleet = fitted.build_samples(store, "intel_purley",
                                     purley_sim.duration_hours)
        reference = fitted.build_samples(store, "intel_purley",
                                         purley_sim.duration_hours,
                                         engine="per_sample")
        assert np.array_equal(fleet.X, reference.X)
        assert np.array_equal(fleet.y, reference.y)
        assert np.array_equal(fleet.times, reference.times)
        assert list(fleet.dimm_ids) == list(reference.dimm_ids)


def _ce(t, row=1):
    return CERecord(
        timestamp_hours=t, server_id="s0", dimm_id="d0", rank=0,
        bank=0, row=row, column=1, devices=(0,), dq_count=1,
        beat_count=1, dq_interval=0, beat_interval=0,
        error_bit_count=1,
    )


class TestOnlineServingParity:
    def test_prefix_matches_fleet_row(self, purley_sim, fitted):
        """serve_online == transform_one == fleet row on every arrival
        prefix (events logged so far included)."""
        store = purley_sim.store
        feature_store = FeatureStore(fitted)
        checked = 0
        for dimm_id in store.dimm_ids_with_ces()[:8]:
            ces = store.ces_for_dimm(dimm_id)
            events = store.events_for_dimm(dimm_id)
            config = store.config_for(dimm_id)
            merged = sorted(ces + events, key=lambda r: r.timestamp_hours)
            seen_ces, seen_events = [], []
            for record in merged:
                if isinstance(record, CERecord):
                    seen_ces.append(record)
                else:
                    seen_events.append(record)
                if len(seen_ces) < 2:
                    continue
                t = record.timestamp_hours
                prefix = DimmHistory.from_records(
                    dimm_id, seen_ces, seen_events
                )
                online = feature_store.serve_online(prefix, config, t)
                reference = fitted.transform_one(prefix, config, t)
                fleet_row = _fleet_rows(fitted, prefix, config, [t])[0]
                assert np.array_equal(online, reference)
                assert np.array_equal(online, fleet_row)
                checked += 1
        assert checked > 0

    def test_from_records_sorts_out_of_order_records(self):
        history = DimmHistory.from_records(
            "d0",
            [_ce(3.0), _ce(1.0), _ce(2.0)],
            [
                MemEventRecord(5.0, "s0", "d0", MemEventKind.CE_STORM),
                MemEventRecord(4.0, "s0", "d0", MemEventKind.PAGE_OFFLINE),
            ],
        )
        assert list(history.times) == [1.0, 2.0, 3.0]
        assert history.storms_in(0.0, 10.0) == 1
        assert history.repairs_in(0.0, 10.0) == 1
        assert len(history) == 3

    def test_from_records_keeps_columns_aligned(self):
        times = [float(t) for t in range(100)]
        history = DimmHistory.from_records(
            "d0", [_ce(t, row=int(t)) for t in reversed(times)], []
        )
        assert list(history.times) == times
        assert list(history.rows) == [int(t) for t in times]
        assert history.server_id == "s0"
