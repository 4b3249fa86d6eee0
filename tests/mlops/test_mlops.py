"""Tests for the MLOps framework components."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
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
    def test_stages_run_in_topological_order(self):
        pipeline = DataPipeline()
        order = []
        pipeline.add_stage("a", lambda r: (order.append("a"), r)[1])
        pipeline.add_stage("b", lambda r: (order.append("b"), r)[1], after=("a",))
        pipeline.add_stage("c", lambda r: (order.append("c"), r)[1], after=("b",))
        pipeline.run([ce(1.0)])
        assert order == ["a", "b", "c"]

    def test_cycle_rejected(self):
        pipeline = DataPipeline()
        pipeline.add_stage("a", lambda r: r)
        with pytest.raises(ValueError):
            pipeline.add_stage("a", lambda r: r)

    def test_unknown_dependency_rejected(self):
        pipeline = DataPipeline()
        with pytest.raises(ValueError, match="unknown dependency"):
            pipeline.add_stage("b", lambda r: r, after=("missing",))

    def test_stage_failure_is_captured(self):
        pipeline = DataPipeline()
        pipeline.add_stage("boom", lambda r: 1 / 0)
        records, results = pipeline.run([ce(1.0)])
        assert records == []
        assert not results[0].ok
        assert "ZeroDivisionError" in results[0].error

    def test_default_pipeline_dedups_and_sorts(self):
        pipeline = default_ingestion_pipeline()
        duplicate = ce(2.0)
        records, results = pipeline.run([duplicate, ce(1.0), duplicate])
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
    ], ids=["non-object", "mistyped-field", "broken-json"])
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

    def test_cli_import_leaves_scipy_stats_unloaded(self):
        # Every CLI call and spawn-started worker imports repro.cli;
        # scipy.stats (~1 s, ~60 MiB) loads only when a drift check runs.
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        probe = (
            "import sys, repro.cli, repro.mlops; "
            "print('scipy.stats' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


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
