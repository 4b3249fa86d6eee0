"""The ``distributed_replay`` scenario, the shard cache tier, and the CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments.cache import ArtifactCache, ShardSetKey, SimulationKey
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import RunSpec
from repro.fleetops.scenario import render_fleet_extras


def tiny_spec(tiny_protocol, scenario="distributed_replay", **params):
    return RunSpec(
        scenario=scenario,
        platforms=("intel_purley", "k920"),
        models=("lightgbm",),
        scale=tiny_protocol.scale,
        hours=tiny_protocol.duration_hours,
        seed=tiny_protocol.seed,
        max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
        params=params,
    )


def seeded_cache(spec, tiny_study, root=None):
    cache = ArtifactCache(root)
    context = RunContext(spec, cache=cache)
    for platform in spec.platforms:
        cache.put_simulation(
            context.simulation_key(platform), tiny_study[platform]
        )
    return cache


class TestDistributedReplayScenario:
    @pytest.fixture(scope="class")
    def result(self, tiny_study, tiny_protocol):
        spec = tiny_spec(
            tiny_protocol,
            replay_workers=2,
            serve={"max_records": 300},
        )
        cache = seeded_cache(spec, tiny_study)
        return run_spec(spec, protocol=tiny_protocol, cache=cache)

    def test_parity_gates_all_pass(self, result):
        parity = result.extras["distributed_replay"]["parity"]
        assert parity == {
            "score_logs": True,
            "alarm_summaries": True,
            "costs": True,
            "fleet_cost": True,
            "bus_counts": True,
            "all": True,
        }

    def test_serving_slice_loses_nothing(self, result):
        serving = result.extras["distributed_replay"]["serving"]
        assert serving["lost"] == 0
        assert serving["answered"] == serving["submitted"]
        assert serving["records"] > 0
        assert serving["p50_ms"] <= serving["p99_ms"]

    def test_report_and_cells_shape(self, result):
        payload = result.extras["distributed_replay"]
        assert payload["workers"] == 2
        report = payload["report"]
        assert report["distributed"]["partitions"] == 2
        assert set(report["platforms"]) == {"intel_purley", "k920"}
        assert payload["baseline"]["events_per_second"] > 0
        assert len(result.cells) == 2
        assert result.any_nonfinite() == []

    def test_renderer_mentions_parity(self, result):
        from repro.distributed.scenario import render_distributed_extras

        rendered = render_distributed_extras(result.extras)
        assert "parity: OK" in rendered
        assert "async serving" in rendered


class TestWorkersParams:
    def test_fleet_ops_with_workers_reports_distributed(
        self, tiny_study, tiny_protocol
    ):
        spec = tiny_spec(tiny_protocol, scenario="fleet_ops")
        spec.params["replay_workers"] = 2
        cache = seeded_cache(spec, tiny_study)
        result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        report = result.extras["fleet_ops"]["report"]
        assert report["distributed"]["workers"] == 2
        assert report["distributed"]["partitions"] == 2
        assert report["scored"] > 0
        assert set(report["stage_seconds"]) == {
            "ingest", "features", "predict", "alarms"
        }
        assert "  stages: " in render_fleet_extras(result.extras)

    def test_streaming_with_workers_reports_like_in_process(
        self, tiny_study, tiny_protocol
    ):
        """``streaming_replay`` over the coordinator reports the in-process
        schema (plus ``distributed``), with the workers' summed stages."""
        from repro.streaming.scenario import render_streaming_extras

        def streaming(**params):
            spec = RunSpec(
                scenario="streaming_replay",
                platforms=("intel_purley",),
                models=("lightgbm",),
                scale=tiny_protocol.scale,
                hours=tiny_protocol.duration_hours,
                seed=tiny_protocol.seed,
                max_samples_per_dimm=(
                    tiny_protocol.sampling.max_samples_per_dimm
                ),
                params={"batch_size": 64, **params},
            )
            return run_spec(
                spec, protocol=tiny_protocol,
                cache=seeded_cache(spec, tiny_study),
            )

        def report(result):
            return result.extras["streaming_replay"]["intel_purley"][
                "lightgbm"
            ]["streaming"]

        local = streaming(verify_parity=True)
        sharded = streaming(replay_workers=2)
        local_report, sharded_report = report(local), report(sharded)
        assert set(local_report) - {"parity"} <= set(sharded_report)
        assert sharded_report["distributed"]["workers"] == 2
        assert set(sharded_report["stage_seconds"]) == {
            "ingest", "features", "predict", "alarms"
        }
        assert "    stages: " in render_streaming_extras(sharded.extras)

    def test_streaming_verify_rejects_workers(self, tiny_protocol):
        spec = RunSpec(
            scenario="streaming_replay",
            platforms=("intel_purley",),
            models=("lightgbm",),
            scale=tiny_protocol.scale,
            hours=tiny_protocol.duration_hours,
            seed=tiny_protocol.seed,
            params={"verify_parity": True, "replay_workers": 2},
        )
        with pytest.raises(ValueError, match="replay_workers"):
            run_spec(spec, protocol=tiny_protocol)


class TestShardCacheTier:
    @pytest.fixture()
    def shard_key(self, tiny_protocol):
        return ShardSetKey(
            simulations=(
                SimulationKey(
                    "intel_purley", tiny_protocol.scale, tiny_protocol.seed,
                    tiny_protocol.duration_hours,
                ),
            ),
            n_shards=2,
        )

    def test_build_then_disk_hit(self, tiny_study, shard_key, tmp_path):
        cache = ArtifactCache(tmp_path)
        stores = {
            "intel_purley": tiny_study["intel_purley"].store.columns
        }
        shard_dir, manifest = cache.shard_set(shard_key, lambda: stores)
        assert manifest.n_shards == 2
        assert cache.counters["shards"].builds == 1
        # Memory tier.
        again_dir, _ = cache.shard_set(
            shard_key, lambda: pytest.fail("must not rebuild")
        )
        assert again_dir == shard_dir
        assert cache.counters["shards"].memory_hits == 1
        # Disk tier (fresh cache object, same root).
        fresh = ArtifactCache(tmp_path)
        fresh_dir, fresh_manifest = fresh.shard_set(
            shard_key, lambda: pytest.fail("must not rebuild")
        )
        assert fresh_dir == shard_dir
        assert fresh_manifest == manifest
        assert fresh.counters["shards"].disk_hits == 1

    def test_stale_format_rebuilds_in_place(
        self, tiny_study, shard_key, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        stores = {
            "intel_purley": tiny_study["intel_purley"].store.columns
        }
        shard_dir, _ = cache.shard_set(shard_key, lambda: stores)
        manifest_path = shard_dir / "manifest.json"
        payload = json.loads(manifest_path.read_text())
        payload["format"] = 0  # a different (older) shard layout
        manifest_path.write_text(json.dumps(payload))
        fresh = ArtifactCache(tmp_path)
        _, manifest = fresh.shard_set(shard_key, lambda: stores)
        assert fresh.counters["shards"].builds == 1
        assert fresh.counters["shards"].disk_hits == 0
        assert json.loads(manifest_path.read_text())["format"] == (
            manifest.format
        )

    def test_missing_shard_file_rebuilds(
        self, tiny_study, shard_key, tmp_path
    ):
        cache = ArtifactCache(tmp_path)
        stores = {
            "intel_purley": tiny_study["intel_purley"].store.columns
        }
        shard_dir, manifest = cache.shard_set(shard_key, lambda: stores)
        (shard_dir / manifest.shards[0]["path"]).unlink()
        fresh = ArtifactCache(tmp_path)
        fresh.shard_set(shard_key, lambda: stores)
        assert fresh.counters["shards"].builds == 1
        assert (shard_dir / manifest.shards[0]["path"]).exists()

    def test_memory_only_cache_refuses(self, shard_key):
        cache = ArtifactCache()
        with pytest.raises(ValueError, match="disk cache root"):
            cache.shard_set(shard_key, dict)


class TestShardCli:
    def test_shard_command_writes_set_and_caches(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "set"
        argv = [
            "shard", "--platforms", "intel_purley", "--scale", "0.05",
            "--hours", "720", "--seed", "7", "--shards", "2",
            "--out", str(out),
        ]
        assert main(argv) == 0
        captured = capsys.readouterr().out
        assert "wrote 2 shards" in captured
        assert (out / "manifest.json").exists()

    def test_shard_command_into_cache_tier(self, tmp_path, capsys):
        from repro.cli import main

        cache_dir = tmp_path / "artifacts"
        argv = [
            "shard", "--platforms", "intel_purley", "--scale", "0.05",
            "--hours", "720", "--seed", "7", "--shards", "2",
            "--cache-dir", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "shard sets built=1" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "shard sets built=0" in second
        assert "disk_hits=1" in second

    def test_shard_command_needs_a_destination(self, capsys):
        from repro.cli import main

        assert main(["shard", "--platforms", "intel_purley"]) == 2
        assert "give --out" in capsys.readouterr().err
