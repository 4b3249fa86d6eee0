"""Coordinator contract: sharded replay merges bit-for-bit, faults heal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.distributed.coordinator import (
    ReplayCoordinator,
    build_samples_distributed,
)
from repro.features.pipeline import FeaturePipeline
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


class TestShardedSampleBuild:
    def test_distributed_build_is_bit_identical(self, purley_sim):
        pipeline = FeaturePipeline()
        pipeline.fit(purley_sim.store)
        serial = pipeline.build_samples(
            purley_sim.store, platform="intel_purley"
        )
        sharded = build_samples_distributed(
            pipeline,
            purley_sim.store,
            platform="intel_purley",
            workers=2,
        )
        assert np.array_equal(serial.X, sharded.X)
        assert np.array_equal(serial.y, sharded.y)
        assert np.array_equal(serial.times, sharded.times)
        assert list(serial.dimm_ids) == list(sharded.dimm_ids)
        assert serial.feature_names == sharded.feature_names
