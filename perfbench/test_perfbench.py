"""Tests for the benchmark's own code, on a tiny generated campaign.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import time

import pytest

import gen_inputs
import hostspeed
import layers
import workloads

SEED = 3
END_TO_END = {metric["name"] for metric in gen_inputs.BENCHMARK["end_to_end"]}


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Models, campaign and references at a small scale, in a temp dir."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gen_inputs, "BUILD", tmp_path_factory.mktemp("inputs"))
        patch.setattr(gen_inputs, "TRAIN_SCALE", 0.05)
        patch.setattr(gen_inputs, "POPULATION_SCALE", 0.05)
        patch.setattr(gen_inputs, "STUDY_SCALE", 0.05)
        patch.setattr(workloads, "STUDY_TREES", 10)
        patch.setattr(gen_inputs, "SERVE_RECORDS", 120)
        patch.setattr(gen_inputs, "SERVE_OPEN_RECORDS", 60)
        for workload in workloads.WORKLOADS:
            gen_inputs.ensure_models()
            gen_inputs.ensure_campaign(SEED)
            gen_inputs.ensure_reference(SEED, workload)
        yield


def _reference(workload: str) -> dict:
    path = gen_inputs.seed_dir(SEED) / f"ref-{workload}.json"
    return json.loads(path.read_text("utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_metrics_extracted_on_tiny_campaign(tiny, workload):
    plain = workloads.measure(workload, SEED, seconds=0, trace=False)
    assert plain["correct"] and plain["failed"] == 0
    assert plain["attempted"] >= 1
    assert set(plain["metrics"]) == END_TO_END
    assert all(value > 0 for value in plain["metrics"].values())

    traced = workloads.measure(workload, SEED, seconds=0, trace=True)
    assert traced["correct"]
    assert set(traced["metrics"]) == set(layers.PER_LAYER)
    assert traced["metrics"]["ml.predict_calls"] > 0
    assert traced["metrics"]["telemetry.load_s"] > 0
    if workload == "fleet_replay":
        for name in ("simulator.simulate_s", "ml.fit_s", "ml.fit_trees",
                     "evaluation.score_s", "features.build_samples_s",
                     "features.samples"):
            assert traced["metrics"][name] > 0, name


def test_speed_probe_rescales_seconds_only():
    probe = hostspeed.SpeedProbe(".")
    probe.times = [1.0, 2.0, 3.0]
    probe.costs = [hostspeed.REFERENCE_US, 2 * hostspeed.REFERENCE_US, 9e9]
    assert probe.factor(0.5, 2.5) == 1.5
    scaled = probe.scale({"wall_s": 3.0, "events": 7}, 0.5, 2.5)
    assert scaled == {"wall_s": 2.0, "events": 7}


def test_speed_probe_reads_forked_processes(tmp_path):
    with hostspeed.SpeedProbe(tmp_path) as probe:
        start = time.perf_counter()
        pid = os.fork()
        if pid == 0:  # a worker: busy for 0.2 s, probing itself
            while time.perf_counter() < start + 0.2:
                pass
            os._exit(0)
        os.waitpid(pid, 0)
        assert list(tmp_path.glob("probe-*.bin"))
        assert len(probe._samples(start, time.perf_counter())) > len(
            probe.times
        )
    assert not list(tmp_path.glob("probe-*.bin"))


def test_every_per_layer_metric_says_what_it_should_move():
    assert set(layers.SHOULD_MOVE) == set(layers.PER_LAYER)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tampered_reference_fails_every_operation(tiny, workload):
    reference = {key: "0" * 64 for key in _reference(workload)}
    result = workloads.measure(
        workload, SEED, seconds=0, trace=False, reference=reference
    )
    assert not result["correct"]
    assert result["detail"]["failed_fraction"] == 1.0


@pytest.mark.parametrize("workload", ["study", "fleet_replay", "serve"])
def test_proxies_change_no_output(tiny, workload):
    inputs = workloads.load_inputs(SEED)
    if workload == "study":
        reference = workloads.study_reference(inputs)
        op = workloads.study_op
    else:
        reference = _reference(workload)
        op = workloads.OPERATIONS[workload]
    clock = layers.Clock()
    _, plain_ok, _ = op(inputs, reference)
    _, traced_ok, _ = op(inputs, reference, clock)
    assert plain_ok and traced_ok
    # The proxies really were on the hot path.
    assert clock.values["ml.predict_calls"] > 0
    if workload == "study":
        assert clock.values["ml.fit_trees"] == 3 * workloads.STUDY_TREES
    else:
        assert clock.values["features.temporal_s"] > 0
