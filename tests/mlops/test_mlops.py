"""Tests for the MLOps framework components."""

import numpy as np
import pytest

from repro.mlops.data_pipeline import DataLake, DataPipeline, default_ingestion_pipeline
from repro.mlops.feature_store import FeatureDefinition, FeatureRegistry, FeatureStore
from repro.mlops.model_registry import (
    CiCdPipeline,
    GatePolicy,
    ModelRegistry,
    ModelStage,
)
from repro.mlops.monitoring import (
    Dashboard,
    DriftMonitor,
    DriftReport,
    _kolmogorov_sf,
    ks_two_sample,
    population_stability_index,
)
from repro.mlops.serving import Alarm, AlarmSystem
from repro.features.pipeline import FeaturePipeline
from repro.telemetry.records import CERecord, DimmConfigRecord


def ce(t, dimm="d0", row=1):
    return CERecord(
        timestamp_hours=t, server_id="s0", dimm_id=dimm, rank=0, bank=0,
        row=row, column=1, devices=(0,), dq_count=1, beat_count=1,
        dq_interval=0, beat_interval=0, error_bit_count=1,
    )


class TestDataPipeline:
    def test_stages_run_in_registration_order(self):
        pipeline = DataPipeline()
        order = []
        for name in ("c", "a", "b"):
            pipeline.add_stage(name, lambda r, n=name: (order.append(n), r + [n])[1])
        records, results = pipeline.run([])
        assert order == ["c", "a", "b"]
        assert records == ["c", "a", "b"]  # each stage fed the next
        assert [r.stage for r in results] == ["c", "a", "b"]
        assert [r.records_out for r in results] == [1, 2, 3]

    def test_duplicate_stage_rejected(self):
        pipeline = DataPipeline()
        pipeline.add_stage("a", lambda r: r)
        with pytest.raises(ValueError, match="duplicate stage"):
            pipeline.add_stage("a", lambda r: r)

    def test_stage_failure_is_captured(self):
        pipeline = DataPipeline()
        pipeline.add_stage("boom", lambda r: 1 / 0)
        records, results = pipeline.run([ce(1.0)])
        assert records == []
        assert not results[0].ok
        assert "ZeroDivisionError" in results[0].error

    def test_failed_stage_stops_the_chain(self):
        pipeline = DataPipeline()
        ran = []
        pipeline.add_stage("first", lambda r: (ran.append("first"), r)[1])
        pipeline.add_stage("boom", lambda r: 1 / 0)
        pipeline.add_stage("last", lambda r: (ran.append("last"), r)[1])
        records, results = pipeline.run([ce(1.0), ce(2.0)])
        assert ran == ["first"]
        assert [(r.stage, r.ok) for r in results] == [
            ("first", True), ("boom", False),
        ]
        assert results[1].records_in == 2
        assert pipeline.runs == [results]

    def test_default_pipeline_dedups_and_sorts(self):
        pipeline = default_ingestion_pipeline()
        duplicate = ce(2.0)
        records, results = pipeline.run([duplicate, ce(1.0), duplicate])
        assert [r.stage for r in results] == ["validate", "deduplicate", "sort"]
        assert all(r.ok for r in results)
        assert [r.timestamp_hours for r in records] == [1.0, 2.0]

    def test_data_lake_roundtrip(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        lake.write_partition("bmc", [ce(1.0), ce(2.0)])
        assert lake.partitions["bmc"] == 2
        store = lake.as_log_store()
        assert len(store.ces) == 2

    @pytest.mark.parametrize("edit", [
        lambda line: "7",
        lambda line: line.replace('"dq_count": 1', '"dq_count": "3"'),
        lambda line: line[: len(line) // 2],
        lambda line: line.replace(
            '"timestamp_hours": 1.0', '"timestamp_hours": 1' + "0" * 400
        ),
        lambda line: "[" * 100_000,
    ], ids=[
        "non-object", "mistyped-field", "broken-json",
        "timestamp-beyond-float", "too-deeply-nested",
    ])
    def test_data_lake_rejects_malformed_line(self, tmp_path, edit):
        lake = DataLake(tmp_path / "lake")
        path = lake.write_partition("bmc", [ce(1.0)])
        line = path.read_text().strip()
        edited = edit(line)
        assert edited != line
        path.write_text(edited + "\n")
        for read in (lambda: lake.read_partition("bmc"), lake.as_log_store):
            with pytest.raises(ValueError, match="bmc.jsonl"):
                read()


    def test_data_lake_rejects_mistyped_config(self, tmp_path):
        lake = DataLake(tmp_path / "lake")
        config = DimmConfigRecord(
            "d0", "s0", "p", "A", "pn", 32, 4, 2666, "1y"
        )
        path = lake.write_partition("inventory", [config])
        path.write_text(path.read_text().replace(
            '"capacity_gb": 32', '"capacity_gb": "32"'
        ))
        with pytest.raises(ValueError, match="inventory.jsonl"):
            lake.read_partition("inventory")


class TestFeatureStoreAndRegistry:
    def test_registry_rejects_downgrade(self):
        registry = FeatureRegistry()
        registry.register(FeatureDefinition("f", "g", version=2))
        with pytest.raises(ValueError):
            registry.register(FeatureDefinition("f", "g", version=1))

    def test_registry_covers_pipeline(self):
        pipeline = FeaturePipeline()
        registry = FeatureRegistry()
        count = registry.register_pipeline(pipeline)
        assert count == len(pipeline.feature_names())
        assert registry.by_group("bitlevel")

    def test_materialize_and_select(self, purley_sim):
        pipeline = FeaturePipeline()
        store = FeatureStore(pipeline)
        snapshot = store.materialize(
            "snap1", purley_sim.store, "intel_purley", purley_sim.duration_hours
        )
        assert len(snapshot.samples) > 0
        with pytest.raises(ValueError):
            store.materialize("snap1", purley_sim.store, "intel_purley")
        X, names = store.select_features(
            snapshot.samples, ["temporal_ce_count_5d", "bit_max_dq_count"]
        )
        assert X.shape == (len(snapshot.samples), 2)
        with pytest.raises(KeyError):
            store.select_features(snapshot.samples, ["nope"])


class TestModelRegistryAndGate:
    def _register(self, registry, f1, platform="p"):
        return registry.register(platform, "lightgbm", object(), 0.5, {"f1": f1})

    def test_first_deployment_needs_floor(self):
        registry = ModelRegistry()
        cicd = CiCdPipeline(registry, GatePolicy(min_value=0.3))
        bad = self._register(registry, 0.1)
        assert not cicd.submit(bad).promoted
        good = self._register(registry, 0.5)
        assert cicd.submit(good).promoted
        assert registry.production_model("p") is good

    def test_promotion_requires_improvement(self):
        registry = ModelRegistry()
        cicd = CiCdPipeline(registry, GatePolicy(min_improvement=0.05))
        first = self._register(registry, 0.5)
        cicd.submit(first)
        worse = self._register(registry, 0.52)
        assert not cicd.submit(worse).promoted
        better = self._register(registry, 0.6)
        assert cicd.submit(better).promoted
        assert first.stage is ModelStage.ARCHIVED

    def test_rollback_restores_previous(self):
        registry = ModelRegistry()
        cicd = CiCdPipeline(registry)
        first = self._register(registry, 0.5)
        cicd.submit(first)
        second = self._register(registry, 0.6)
        cicd.submit(second)
        restored = registry.rollback("p")
        assert restored is first
        assert registry.production_model("p") is first

    def test_stage_transitions_validated(self):
        registry = ModelRegistry()
        version = self._register(registry, 0.5)
        with pytest.raises(ValueError):
            registry.promote_to_production(version)  # not staged yet


class TestMonitoring:
    def test_dashboard_counters_and_series(self):
        dashboard = Dashboard()
        dashboard.increment("x")
        dashboard.increment("x", 2.0)
        dashboard.record("s", 1.0, 0.5)
        snapshot = dashboard.snapshot()
        assert snapshot["x"] == 3.0
        assert snapshot["s.latest"] == 0.5

    def test_psi_zero_for_same_distribution(self):
        rng = np.random.default_rng(0)
        sample = rng.normal(size=2000)
        assert population_stability_index(sample, sample) < 0.01

    def test_psi_large_for_shifted_distribution(self):
        rng = np.random.default_rng(0)
        assert population_stability_index(
            rng.normal(0, 1, 2000), rng.normal(3, 1, 2000)
        ) > 0.25

    def test_drift_monitor_detects_shift(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(size=(500, 2))
        monitor = DriftMonitor(reference, ["a", "b"], min_samples=50)
        assert monitor.check() == []  # not enough serving samples yet
        for _ in range(100):
            monitor.observe(rng.normal(5, 1, size=2))
        assert monitor.needs_retraining()
        monitor.reset()
        assert monitor.buffered == 0

    def test_drift_monitor_quiet_without_shift(self):
        rng = np.random.default_rng(0)
        reference = rng.normal(size=(500, 2))
        monitor = DriftMonitor(reference, ["a", "b"], min_samples=50)
        for _ in range(100):
            monitor.observe(rng.normal(0, 1, size=2))
        assert not monitor.needs_retraining()

    def test_ks_identical_samples(self):
        sample = np.sin(np.arange(200) * 0.3)
        assert ks_two_sample(sample, sample) == (0.0, 1.0)

    def test_ks_disjoint_samples(self):
        statistic, pvalue = ks_two_sample(np.arange(100.0), np.arange(100.0) + 1e3)
        assert statistic == 1.0
        assert 0.0 <= pvalue < 1e-40

    # (reference, observed, scipy.stats.ks_2samp statistic, asymptotic
    # p-value = scipy.stats.kstwobign.sf(sqrt(en) * D)), recorded with
    # scipy 1.17.1.
    KS_CASES = {
        "sin-vs-cos": (
            np.sin(np.arange(120) * 0.7), np.cos(np.arange(90) * 1.3) + 0.2,
            0.21666666666666667, 0.015995869287326322,
        ),
        "ties": (
            (np.arange(60) % 7).astype(float), (np.arange(45) % 5).astype(float),
            0.26666666666666666, 0.0516113916471346,
        ),
        "large": (
            np.sin(np.arange(3000) * 0.37),
            np.sin(np.arange(12000) * 0.11) * 1.1 + 0.05,
            0.1681666666666667, 2.2289582723327155e-59,
        ),
    }

    @pytest.mark.parametrize("case", sorted(KS_CASES))
    def test_ks_matches_scipy(self, case):
        reference, observed, scipy_statistic, asymptotic_p = self.KS_CASES[case]
        statistic, pvalue = ks_two_sample(reference, observed)
        assert abs(statistic - scipy_statistic) <= 1e-15
        assert pvalue == pytest.approx(asymptotic_p, rel=1e-12)
        assert ks_two_sample(observed, reference)[0] == statistic

    # x -> scipy.stats.kstwobign.sf(x), recorded with scipy 1.17.1.  The
    # points straddle the switch between the two series at x = 1.18.
    KOLMOGOROV_SF = {
        0.0: 1.0,
        0.2: 0.999999999999495,
        0.8: 0.5441424115741981,
        1.1799: 0.12351204971188676,
        1.18: 0.1234538094297657,
        2.0: 0.0006709252557796953,
        6.0: 1.0760372320042276e-31,
    }

    @pytest.mark.parametrize("x", sorted(KOLMOGOROV_SF))
    def test_kolmogorov_sf_matches_kstwobign(self, x):
        assert _kolmogorov_sf(x) == pytest.approx(
            self.KOLMOGOROV_SF[x], rel=1e-14
        )

    def test_drift_report_needs_psi_and_ks(self):
        def report(psi, pvalue):
            return DriftReport("f", psi=psi, ks_statistic=0.5, ks_pvalue=pvalue)

        assert report(0.3, 0.001).is_drifted()
        assert not report(0.2, 0.001).is_drifted()  # PSI below threshold
        assert not report(0.3, 0.05).is_drifted()  # KS not significant
        assert report(0.2, 0.001).is_drifted(psi_threshold=0.1)

    def test_drift_monitor_skips_constant_features(self):
        rng = np.random.default_rng(0)
        reference = np.column_stack([rng.normal(size=200), np.ones(200)])
        monitor = DriftMonitor(reference, ["a", "flag"], min_samples=10)
        for value in rng.normal(size=20):
            monitor.observe([value, 1.0])
        assert [report.feature for report in monitor.check()] == ["a"]


class TestAlarmSystem:
    def _alarm(self, dimm="d0"):
        return Alarm(1.0, "p", "s0", dimm, 0.9, 1)

    def test_deduplicates_per_dimm(self):
        system = AlarmSystem()
        assert system.raise_alarm(self._alarm())
        assert not system.raise_alarm(self._alarm())
        assert system.active_count == 1
        system.acknowledge("d0")
        assert system.raise_alarm(self._alarm())
