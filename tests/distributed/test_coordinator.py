"""Coordinator contract: sharded replay merges bit-for-bit, faults heal."""

from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
import textwrap
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro
from repro.distributed import coordinator as coordinator_module
from repro.distributed.coordinator import ReplayCoordinator, _run_pool
from repro.fleetops.cost import CostModel
from repro.streaming.bus import EventBus


def make_coordinator(assignments, make_fleet_policy, **kwargs):
    defaults = dict(
        policy=make_fleet_policy(),
        cost_model=CostModel(),
        bus=EventBus(),
        workers=2,
        rescore_interval_hours=0.0,
        batch_size=256,
        engine="batched",
    )
    defaults.update(kwargs)
    return ReplayCoordinator(assignments, **defaults)


class CountingModel:
    """Delegates scoring; counts how often this process pickles it."""

    pickles = 0

    def __init__(self, inner):
        self.inner = inner

    def predict_proba(self, X):
        return self.inner.predict_proba(X)

    def __reduce__(self):
        CountingModel.pickles += 1
        return (CountingModel, (self.inner,))


def _index_and_pid(payload):
    return payload["index"], payload["tag"], os.getpid()


class TestReplayParity:
    def test_two_workers_match_single_process(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        parity_baseline,
    ):
        coordinator = make_coordinator(fleet_assignments, make_fleet_policy)
        report = coordinator.replay(fleet_stores)
        parity_check(coordinator, report)
        assert report.distributed["partitions"] == 2
        for name, platform in report.platforms.items():
            # Candidates are per-DIMM: the workers score the same rows.
            baseline = parity_baseline["platforms"][name]
            assert platform["predicted"] == baseline["predicted"]
            assert platform["predicted"] >= platform["scored"]
        # The workers' stages, summed.
        assert set(report.stage_seconds) == {
            "ingest", "features", "predict", "alarms"
        }
        assert report.stage_seconds["predict"] == pytest.approx(
            report.predict_seconds
        )

    def test_three_workers_match_single_process(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, workers=3
        )
        report = coordinator.replay(fleet_stores)
        parity_check(coordinator, report)
        assert report.distributed["partitions"] == 3

    def test_per_event_engine_matches_too(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, engine="per_event"
        )
        report = coordinator.replay(fleet_stores)
        parity_check(coordinator, report)

    def test_single_worker_runs_inline(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, workers=1
        )
        report = coordinator.replay(fleet_stores)
        parity_check(coordinator, report)
        assert report.distributed["partitions"] == 1


class TestFaultPaths:
    def test_halted_worker_resumes_from_checkpoint(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        tmp_path,
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, shard_dir=tmp_path
        )
        report = coordinator.replay(
            fleet_stores, halt_partition=1, halt_after=40
        )
        parity_check(coordinator, report)
        assert (tmp_path / "checkpoint_0001.pkl").exists()

    def test_crashed_worker_is_retried(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        tmp_path,
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, shard_dir=tmp_path
        )
        report = coordinator.replay(fleet_stores, fail_partition=0)
        parity_check(coordinator, report)
        # The injected crash left its one-shot marker behind.
        assert (tmp_path / "failed_0000.marker").exists()

    def test_duplicate_outcome_delivery_is_idempotent(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        tmp_path,
    ):
        import time

        from repro.fleetops.stream import merge_fleet_streams

        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, shard_dir=tmp_path
        )
        stream = merge_fleet_streams(fleet_stores, decode_payloads=False)
        start = time.perf_counter()
        from repro.distributed.shards import write_fleet_shards

        manifest = write_fleet_shards(
            {name: s.columns for name, s in fleet_stores.items()},
            coordinator.n_shards,
            tmp_path,
        )
        coordinator.manifest = manifest
        payloads = coordinator._payloads(
            tmp_path, manifest, dict(stream.end_hours), None, None, None
        )
        outcomes = coordinator._run_payloads(payloads)
        # An at-least-once transport redelivers partition 0: merge must
        # keep the first outcome per index and drop the duplicate.
        report = coordinator.merge(
            outcomes + [outcomes[0]],
            stream,
            time.perf_counter() - start,
        )
        parity_check(coordinator, report)
        assert report.distributed["partitions"] == coordinator.n_shards


class TestCoordinatorShare:
    """The coordinator runs partitions ``i % workers == 0`` itself."""

    def test_coordinator_runs_its_share_in_process(self):
        parts = [{"index": index} for index in range(5)]
        results = _run_pool(_index_and_pid, {"tag": "run"}, parts, 2)
        assert [index for index, _, _ in results] == list(range(5))
        assert {tag for _, tag, _ in results} == {"run"}
        here = [pid == os.getpid() for _, _, pid in results]
        assert here[0] and here[2] and here[4]

    def test_run_wide_payload_crosses_once_per_worker(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check
    ):
        # One shared instance: a payload crossing pickles it once.
        model = CountingModel(
            next(iter(fleet_assignments.values())).model
        )
        counted = {
            name: dataclasses.replace(assignment, model=model)
            for name, assignment in fleet_assignments.items()
        }
        CountingModel.pickles = 0
        coordinator = make_coordinator(
            counted, make_fleet_policy, workers=2, n_shards=4
        )
        report = coordinator.replay(fleet_stores)
        parity_check(coordinator, report)
        assert report.distributed["partitions"] == 4
        assert CountingModel.pickles <= coordinator.workers - 1

    @pytest.mark.parametrize("partition", [0, 1])
    def test_crash_heals_on_either_side(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        tmp_path, partition,
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, n_shards=5,
            shard_dir=tmp_path,
        )
        report = coordinator.replay(fleet_stores, fail_partition=partition)
        parity_check(coordinator, report)
        assert (tmp_path / f"failed_{partition:04d}.marker").exists()

    @pytest.mark.parametrize("partition", [0, 1])
    def test_halt_resumes_on_either_side(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        tmp_path, partition,
    ):
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, n_shards=5,
            shard_dir=tmp_path,
        )
        report = coordinator.replay(
            fleet_stores, halt_partition=partition, halt_after=40
        )
        parity_check(coordinator, report)
        assert (tmp_path / f"checkpoint_{partition:04d}.pkl").exists()

    def test_thread_rung_matches(
        self, fleet_stores, fleet_assignments, make_fleet_policy, parity_check,
        monkeypatch,
    ):
        def no_processes(*args, **kwargs):
            raise PermissionError("no process pools here")

        built = []

        class RecordingThreads(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            coordinator_module, "ProcessPoolExecutor", no_processes
        )
        monkeypatch.setattr(
            coordinator_module, "ThreadPoolExecutor", RecordingThreads
        )
        coordinator = make_coordinator(
            fleet_assignments, make_fleet_policy, n_shards=5
        )
        report = coordinator.replay(fleet_stores)
        parity_check(coordinator, report)
        assert built == [1]


SPAWN_SCRIPT = textwrap.dedent(
    """
    import multiprocessing

    import numpy as np
    from repro.distributed.coordinator import ReplayCoordinator
    from repro.features.pipeline import FeaturePipeline
    from repro.fleetops.engine import ServingAssignment
    from repro.simulator import FleetConfig, k920_platform, simulate_fleet


    class SumModel:
        pickles = 0

        def predict_proba(self, X):
            X = np.asarray(X, dtype=float)
            return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 100.0))

        def __reduce__(self):
            SumModel.pickles += 1
            return (SumModel, ())


    def replay(sim, assignment, workers):
        coordinator = ReplayCoordinator(
            {"k920": assignment}, workers=workers, n_shards=3
        )
        report = coordinator.replay({"k920": sim.store})
        return coordinator.score_logs, report.costs, report.bus_counts


    if __name__ == "__main__":
        multiprocessing.set_start_method("spawn")
        sim = simulate_fleet(
            FleetConfig(
                platform=k920_platform(scale=0.1),
                duration_hours=720.0,
                seed=3,
            )
        )
        pipeline = FeaturePipeline()
        pipeline.fit(sim.store)
        assignment = ServingAssignment(
            platform="k920",
            model_name="sum",
            train_platform="k920",
            model=SumModel(),
            threshold=0.985,
            pipeline=pipeline,
            configs=sim.store.configs,
            live_from_hour=360.0,
        )
        inline = replay(sim, assignment, 1)
        assert SumModel.pickles == 0
        spawned = replay(sim, assignment, 2)
        assert spawned == inline, "2-worker spawn replay diverged"
        assert inline[0]["k920"], "nothing was scored"
        # One pool process, and the run-wide payload pickled once for it.
        assert SumModel.pickles == 1, SumModel.pickles
        print("spawn parity ok")
    """
)


def test_spawn_start_method_matches_inline(tmp_path):
    script = tmp_path / "spawn_replay.py"
    script.write_text(SPAWN_SCRIPT, encoding="utf-8")
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert "spawn parity ok" in result.stdout
