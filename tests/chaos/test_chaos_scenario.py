"""The chaos_replay scenario: sweep shape, invariants, clean-point parity."""

import pytest

from repro.chaos.scenario import render_chaos_extras
from repro.experiments.cache import ArtifactCache
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import RunSpec


def _spec(tiny_protocol, **params):
    defaults = {
        "fault_rates": (0.0, 0.02, 0.05),
        "batch_size": 64,
        "engine": "batched",
    }
    defaults.update(params)
    return RunSpec(
        scenario="chaos_replay",
        platforms=("intel_purley",),
        models=("lightgbm",),
        scale=tiny_protocol.scale,
        hours=tiny_protocol.duration_hours,
        seed=tiny_protocol.seed,
        max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
        params=defaults,
    )


def _run(tiny_study, tiny_protocol, spec, obs=None):
    cache = ArtifactCache()
    context = RunContext(spec, cache=cache)
    cache.put_simulation(
        context.simulation_key("intel_purley"), tiny_study["intel_purley"]
    )
    return run_spec(spec, protocol=tiny_protocol, cache=cache, obs=obs)


class TestChaosScenario:
    @pytest.fixture(scope="class")
    def result(self, tiny_study, tiny_protocol):
        return _run(tiny_study, tiny_protocol, _spec(tiny_protocol))

    @pytest.fixture(scope="class")
    def payload(self, result):
        return result.extras["chaos_replay"]["intel_purley"]["lightgbm"]

    def test_sweep_has_one_point_per_rate(self, payload):
        assert payload["fault_rates"] == [0.0, 0.02, 0.05]
        assert len(payload["curve"]) == 3
        assert [p["fault_rate"] for p in payload["curve"]] == [0.0, 0.02, 0.05]

    def test_dead_letters_equal_injected_corruptions(self, payload):
        """The exact invariant the CI smoke job gates on."""
        for point in payload["curve"]:
            assert point["dead_letter"] == point["injection"]["corrupted"]

    def test_clean_point_sees_no_faults(self, payload):
        clean = payload["curve"][0]
        assert clean["dead_letter"] == 0
        assert clean["injection"]["dropped"] == 0
        assert clean["injection"]["corrupted"] == 0
        assert clean["health"]["rejected_events"] == 0
        assert clean["health"]["outage_seconds"] == 0.0

    def test_faulted_points_report_degradation(self, payload):
        worst = payload["curve"][-1]
        injection = worst["injection"]
        assert injection["dropped"] > 0
        assert injection["corrupted"] > 0
        assert worst["health"]["rejected_events"] == injection["corrupted"]
        assert worst["report"]["events"] < payload["curve"][0]["report"]["events"]

    def test_cell_comes_from_the_clean_point(self, result, payload):
        cell = result.cell("intel_purley", "intel_purley", "lightgbm")
        assert cell.result.supported
        clean = payload["curve"][0]
        assert cell.result.precision == clean["alarms"]["precision"]
        assert cell.result.recall == clean["alarms"]["recall"]

    def test_every_point_settles_costs(self, payload):
        for point in payload["curve"]:
            assert "total_cost" in point["cost"]
            assert "savings_fraction" in point["cost"]

    def test_render_mentions_every_rate(self, result):
        text = render_chaos_extras(result.extras)
        assert "CHAOS REPLAY" in text
        for rate in (0.0, 0.02, 0.05):
            assert f"rate={rate:.3f}" in text

    def test_clean_point_matches_streaming_replay(
        self, tiny_study, tiny_protocol, payload
    ):
        """Fault rate 0.0 is bit-identical to a plain streaming_replay run
        of the same spec — the injector-disabled parity guarantee."""
        spec = RunSpec(
            scenario="streaming_replay",
            platforms=("intel_purley",),
            models=("lightgbm",),
            scale=tiny_protocol.scale,
            hours=tiny_protocol.duration_hours,
            seed=tiny_protocol.seed,
            max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
            params={"batch_size": 64, "engine": "batched"},
        )
        streaming = _run(tiny_study, tiny_protocol, spec)
        reference = streaming.extras["streaming_replay"]["intel_purley"][
            "lightgbm"
        ]["streaming"]
        clean = payload["curve"][0]["report"]
        assert clean["alarms"] == reference["alarms"]
        assert clean["scored"] == reference["scored"]
        assert clean["events"] == reference["events"]

    def test_bus_metrics_are_split_per_fault_rate(
        self, tiny_study, tiny_protocol
    ):
        """Each sweep point's bus counters land under its own
        ``fault_rate`` label, like its ``repro_replay_*`` counters."""
        from repro.chaos.quarantine import DEAD_LETTER_TOPIC
        from repro.obs import Observability

        obs = Observability()
        spec = _spec(tiny_protocol, fault_rates=(0.0, 0.05))
        result = _run(tiny_study, tiny_protocol, spec, obs=obs)
        curve = result.extras["chaos_replay"]["intel_purley"]["lightgbm"][
            "curve"
        ]
        faulted = curve[-1]
        assert faulted["dead_letter"] > 0
        samples = obs.metrics.snapshot()["repro_bus_messages_total"][
            "samples"
        ]
        dead_letters = {
            sample["labels"].get("fault_rate"): sample["value"]
            for sample in samples
            if sample["labels"]["topic"] == DEAD_LETTER_TOPIC
        }
        assert dead_letters["0.05"] == faulted["dead_letter"]

    def test_empty_rate_list_rejected(self, tiny_study, tiny_protocol):
        spec = _spec(tiny_protocol, fault_rates=())
        with pytest.raises(ValueError, match="at least one fault rate"):
            _run(tiny_study, tiny_protocol, spec)

    def test_unknown_engine_rejected(self, tiny_study, tiny_protocol):
        spec = _spec(tiny_protocol, engine="warp")
        with pytest.raises(ValueError, match="unknown replay engine"):
            _run(tiny_study, tiny_protocol, spec)
