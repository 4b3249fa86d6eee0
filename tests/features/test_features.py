"""Tests for windows, extractors, labeling, sampling and the pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features import (
    DimmHistory,
    FeaturePipeline,
    FeaturePipelineConfig,
    LabelingParams,
    SampleValidity,
    SamplingParams,
    aggregate_by_dimm,
    choose_sample_times,
    label_at,
    sample_validity,
    temporal_split,
)
from repro.features.sampling import SampleSet
from repro.telemetry.records import CERecord, MemEventKind, MemEventRecord


def ce(t, row=1, column=1, dq=1, beats=1, beat_iv=0, devices=(0,)):
    return CERecord(
        timestamp_hours=t, server_id="s0", dimm_id="d0", rank=0, bank=0,
        row=row, column=column, devices=devices, dq_count=dq,
        beat_count=beats, dq_interval=0, beat_interval=beat_iv,
        error_bit_count=dq * beats,
    )


def history(ces, events=()):
    return DimmHistory.from_records("d0", list(ces), list(events))


class TestDimmHistory:
    def test_sorted_and_sliced(self):
        h = history([ce(3.0), ce(1.0), ce(2.0)])
        assert list(h.times) == [1.0, 2.0, 3.0]
        assert h.count_in(1.5, 2.5) == 1
        assert h.first_ce_hour == 1.0
        assert len(h) == 3

    def test_event_separation(self):
        events = [
            MemEventRecord(1.0, "s0", "d0", MemEventKind.CE_STORM),
            MemEventRecord(2.0, "s0", "d0", MemEventKind.PAGE_OFFLINE),
        ]
        h = history([ce(1.0)], events)
        assert h.storms_in(0, 10) == 1
        assert h.repairs_in(0, 10) == 1


class TestExtractors:
    def test_feature_vector_matches_schema(self, purley_sim):
        pipeline = FeaturePipeline()
        pipeline.fit(purley_sim.store)
        dimm_id = purley_sim.store.dimm_ids_with_ces()[0]
        h = DimmHistory.from_records(
            dimm_id,
            purley_sim.store.ces_for_dimm(dimm_id),
            purley_sim.store.events_for_dimm(dimm_id),
        )
        config = purley_sim.store.config_for(dimm_id)
        vector = pipeline.transform_one(h, config, t=500.0)
        assert vector.shape == (len(pipeline.feature_names()),)
        assert np.all(np.isfinite(vector))

    def test_feature_groups_partition_columns(self):
        pipeline = FeaturePipeline()
        groups = pipeline.feature_groups()
        all_indices = sorted(i for idx in groups.values() for i in idx)
        assert all_indices == list(range(len(pipeline.feature_names())))

    def test_risky_pattern_feature_counts_events(self):
        pipeline = FeaturePipeline()
        records = [ce(t, dq=2, beats=2, beat_iv=4) for t in (1.0, 2.0, 3.0)]
        h = history(records)
        index = pipeline.feature_names().index("bit_risky_2dq_interval4_count")
        temporal = pipeline.temporal.compute(h, 5.0)
        bitlevel = pipeline.bitlevel.compute(h, 5.0)
        assert bitlevel[pipeline.bitlevel.names().index("bit_risky_2dq_interval4_count")] == 3.0
        assert temporal[pipeline.temporal.names().index("temporal_ce_count_5d")] == 3.0
        assert index >= 0

    def test_spatial_fault_flags(self):
        pipeline = FeaturePipeline()
        row_fault = [ce(t, row=5, column=int(t)) for t in (1.0, 2.0, 3.0)]
        values = pipeline.spatial.compute(history(row_fault), 5.0)
        names = pipeline.spatial.names()
        assert values[names.index("spatial_row_fault")] == 1.0
        assert values[names.index("spatial_column_fault")] == 0.0

    def test_empty_window_is_all_zeros(self):
        pipeline = FeaturePipeline()
        h = history([ce(1.0)])
        values = pipeline.bitlevel.compute(h, 500.0)  # window long past
        assert all(v == 0.0 for v in values)


class TestLabeling:
    PARAMS = LabelingParams(lead_hours=3.0, prediction_window_hours=720.0)

    def test_positive_inside_window(self):
        assert label_at(100.0, ue_hour=104.0, params=self.PARAMS) == 1
        assert label_at(100.0, ue_hour=800.0, params=self.PARAMS) == 1

    def test_negative_outside_window(self):
        assert label_at(100.0, ue_hour=102.0, params=self.PARAMS) == 0  # in lead
        assert label_at(100.0, ue_hour=900.0, params=self.PARAMS) == 0  # beyond
        assert label_at(100.0, ue_hour=None, params=self.PARAMS) == 0

    def test_validity_rules(self):
        params = self.PARAMS
        assert sample_validity(100.0, None, 2000.0, params) is SampleValidity.VALID
        assert sample_validity(150.0, 120.0, 2000.0, params) is SampleValidity.AFTER_UE
        assert sample_validity(1900.0, None, 2000.0, params) is SampleValidity.CENSORED
        # Censored window but with a known UE inside it: still valid.
        assert sample_validity(1900.0, 1950.0, 2000.0, params) is SampleValidity.VALID

    def test_param_validation(self):
        with pytest.raises(ValueError):
            LabelingParams(lead_hours=-1.0)
        with pytest.raises(ValueError):
            LabelingParams(prediction_window_hours=0.0)

    @given(
        t=st.floats(0, 1000),
        ue=st.floats(0, 2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_label_is_window_membership(self, t, ue):
        params = self.PARAMS
        label = label_at(t, ue, params)
        inside = t + params.lead_hours <= ue < t + params.horizon_hours
        assert label == int(inside)


class TestSampling:
    def test_choose_sample_times_caps(self):
        rng = np.random.default_rng(0)
        times = np.linspace(0, 100, 200)
        chosen = choose_sample_times(times, max_samples=10, min_history_ces=2, rng=rng)
        assert 1 <= chosen.size <= 10
        assert set(chosen) <= set(times)

    def test_min_history_enforced(self):
        rng = np.random.default_rng(0)
        assert choose_sample_times(np.array([1.0]), 10, 3, rng).size == 0

    @pytest.mark.parametrize(
        "field", ["max_samples_per_dimm", "min_history_ces"]
    )
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_rejected(self, field, value):
        # 0 samples would divide by zero in choose_sample_times, and a
        # 0-CE history would slice from the last CE only.
        with pytest.raises(ValueError, match=f"{field} must be at least 1"):
            SamplingParams(**{field: value})

    def test_temporal_split_separates_periods(self, purley_sim, tiny_protocol):
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=tiny_protocol.labeling, sampling=tiny_protocol.sampling
            )
        )
        samples = pipeline.build_samples(
            purley_sim.store, "intel_purley", purley_sim.duration_hours
        )
        split = temporal_split(samples, purley_sim.duration_hours, tiny_protocol.sampling)
        split_hour = tiny_protocol.sampling.train_fraction * purley_sim.duration_hours
        assert np.all(split.train.times < split_hour)
        assert np.all(split.validation.times < split_hour)
        assert np.all(split.test.times >= split_hour)
        # Validation DIMMs are disjoint from train DIMMs.
        assert not (set(split.train.dimm_ids) & set(split.validation.dimm_ids))

    def test_aggregate_by_dimm_pools_topk(self):
        samples = SampleSet(
            X=np.zeros((4, 1)),
            y=np.array([0, 1, 0, 0]),
            times=np.arange(4.0),
            dimm_ids=np.array(["a", "a", "a", "b"], dtype=object),
            feature_names=["f"],
        )
        ids, y, scores = aggregate_by_dimm(
            samples, np.array([0.9, 0.3, 0.6, 0.2]), top_k=2
        )
        assert list(ids) == ["a", "b"]
        assert y.tolist() == [1, 0]
        assert scores[0] == pytest.approx((0.9 + 0.6) / 2)

    def test_drop_feature_groups_zeroes_columns(self):
        samples = SampleSet(
            X=np.ones((2, 3)),
            y=np.array([0, 1]),
            times=np.zeros(2),
            dimm_ids=np.array(["a", "b"], dtype=object),
            feature_names=["f0", "f1", "f2"],
            feature_groups={"g": [1, 2]},
        )
        ablated = samples.drop_feature_groups(("g",))
        assert ablated.X[:, 0].tolist() == [1.0, 1.0]
        assert ablated.X[:, 1:].sum() == 0.0


class TestPipelineEndToEnd:
    def test_samples_have_no_label_leakage(self, purley_sim, tiny_protocol):
        """No sample may be taken at or after its DIMM's UE."""
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=tiny_protocol.labeling, sampling=tiny_protocol.sampling
            )
        )
        samples = pipeline.build_samples(
            purley_sim.store, "intel_purley", purley_sim.duration_hours
        )
        assert len(samples) > 0
        for dimm_id, t in zip(samples.dimm_ids, samples.times):
            ues = purley_sim.store.ues_for_dimm(dimm_id)
            if ues:
                assert t < ues[0].timestamp_hours

    def test_positive_rate_is_moderate(self, purley_sim, tiny_protocol):
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=tiny_protocol.labeling, sampling=tiny_protocol.sampling
            )
        )
        samples = pipeline.build_samples(
            purley_sim.store, "intel_purley", purley_sim.duration_hours
        )
        assert 0.0 < samples.positive_rate < 0.5


class TestColumnarFit:
    def test_server_ce_times_matches_record_walk(self, purley_sim):
        """fit() reads the columnar CE table; parity with store.ces walk."""
        from repro.features.pipeline import server_ce_times

        store = purley_sim.store
        expected: dict[str, list[float]] = {}
        for record in store.ces:
            expected.setdefault(record.server_id, []).append(
                record.timestamp_hours
            )
        columnar = server_ce_times(store)
        assert set(columnar) == set(expected)
        for server, times in expected.items():
            np.testing.assert_array_equal(
                np.sort(columnar[server]), np.sort(np.asarray(times))
            )

    def test_fitted_environment_index_is_bit_identical(self, purley_sim):
        """A pipeline fitted columnar equals one fitted via the old walk."""
        columnar_pipeline = FeaturePipeline().fit(purley_sim.store)

        walk_pipeline = FeaturePipeline()
        walk_pipeline.static.fit(purley_sim.store.configs)
        server_times: dict[str, list[float]] = {}
        for record in purley_sim.store.ces:
            server_times.setdefault(record.server_id, []).append(
                record.timestamp_hours
            )
        walk_pipeline.environment.fit(
            {s: np.asarray(t) for s, t in server_times.items()}
        )
        walk_pipeline._fitted = True

        columnar_index = columnar_pipeline.environment._server_times
        walk_index = walk_pipeline.environment._server_times
        assert set(columnar_index) == set(walk_index)
        for server in walk_index:
            np.testing.assert_array_equal(
                columnar_index[server], walk_index[server]
            )

        # And the served feature values agree bit-for-bit.
        dimm_id = purley_sim.store.dimm_ids_with_ces()[0]
        server = purley_sim.store.ces_for_dimm(dimm_id)[0].server_id
        for t in (100.0, 500.0, 1200.0):
            assert columnar_pipeline.environment.compute(
                server, 1.0, t
            ) == walk_pipeline.environment.compute(server, 1.0, t)

    def test_empty_store_fit(self):
        from repro.telemetry.log_store import LogStore

        pipeline = FeaturePipeline().fit(LogStore())
        assert pipeline.feature_names()
