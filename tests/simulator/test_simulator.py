"""Tests for the fleet simulator: RNG, workload, platforms, injection, fleet."""

import numpy as np
import pytest

from repro.dram.geometry import DimmGeometry
from repro.simulator import (
    ARCHETYPES,
    PLATFORM_ORDER,
    FaultSampler,
    FleetConfig,
    activation_times,
    child_rng,
    k920_platform,
    poisson_arrivals,
    purley_platform,
    sample_workload,
    simulate_fleet,
    standard_platforms,
    whitley_platform,
)
from repro.simulator.calibration import PAPER_TABLE1, PRESETS
from repro.simulator.workload import WorkloadModel


class TestRng:
    def test_child_rng_is_deterministic(self):
        a = child_rng(7, "x", 1).random(5)
        b = child_rng(7, "x", 1).random(5)
        assert np.array_equal(a, b)

    def test_child_rng_differs_by_key(self):
        a = child_rng(7, "x").random(5)
        b = child_rng(7, "y").random(5)
        assert not np.array_equal(a, b)

    def test_poisson_arrivals_sorted_in_range(self):
        rng = np.random.default_rng(0)
        times = poisson_arrivals(rng, 5.0, 10.0, 20.0)
        assert np.all(np.diff(times) >= 0)
        assert times.min() >= 10.0 and times.max() < 20.0

    def test_poisson_arrivals_empty_cases(self):
        rng = np.random.default_rng(0)
        assert poisson_arrivals(rng, 0.0, 0, 10).size == 0
        assert poisson_arrivals(rng, 1.0, 10, 10).size == 0

    def test_poisson_rate_is_respected(self):
        rng = np.random.default_rng(1)
        counts = [poisson_arrivals(rng, 2.0, 0, 100).size for _ in range(30)]
        assert np.mean(counts) == pytest.approx(200, rel=0.1)


class TestWorkload:
    def test_intensity_is_positive_and_bounded(self):
        model = WorkloadModel(base=1.0, diurnal_amplitude=0.3)
        hours = np.linspace(0, 48, 200)
        intensity = model.intensity(hours)
        assert np.all(intensity > 0)
        assert np.max(intensity) <= model.peak_intensity + 1e-9

    def test_diurnal_period_is_24h(self):
        model = WorkloadModel()
        assert model.intensity(3.0) == pytest.approx(model.intensity(27.0))

    def test_sample_workload_varies(self):
        models = {sample_workload(np.random.default_rng(i)).base for i in range(5)}
        assert len(models) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadModel(base=0.0)
        with pytest.raises(ValueError):
            WorkloadModel(diurnal_amplitude=1.0)


class TestPlatforms:
    def test_standard_platforms_cover_paper_order(self):
        platforms = standard_platforms()
        assert tuple(platforms) == PLATFORM_ORDER

    @pytest.mark.parametrize("factory", [purley_platform, whitley_platform, k920_platform])
    def test_archetype_weights_sum_to_one(self, factory):
        platform = factory()
        assert sum(platform.archetype_weights.values()) == pytest.approx(1.0)

    def test_scale_controls_population(self):
        assert purley_platform(0.5).dimms_with_ce == 600
        assert purley_platform(1.0).dimms_with_ce == 1200

    def test_sudden_shares_match_paper(self):
        for name, platform in standard_platforms().items():
            assert platform.sudden_ue_share == pytest.approx(
                PAPER_TABLE1[name].sudden_ue_share, abs=0.01
            )

    def test_archetype_catalogue_has_risky_signature(self):
        assert "row_risky" in ARCHETYPES
        rng = np.random.default_rng(0)
        profile = ARCHETYPES["row_risky"].make_profile(rng)
        assert profile.beat_stride == 4

    def test_presets_exist(self):
        assert {"tiny", "small", "paper_shape"} <= set(PRESETS)


class TestFaultInjection:
    def test_sampler_draws_valid_faults(self):
        platform = purley_platform(0.1)
        sampler = FaultSampler(platform, DimmGeometry())
        rng = np.random.default_rng(0)
        for _ in range(30):
            injected = sampler.sample_dimm_faults(rng, 1000.0)
            assert 1 <= len(injected) <= 2
            for item in injected:
                assert item.fault.ce_rate_per_hour > 0
                assert 0 <= item.fault.onset_hour < 700.0

    def test_platform_joint_prob_override_applies(self):
        platform = whitley_platform(0.1)
        sampler = FaultSampler(platform, DimmGeometry())
        rng = np.random.default_rng(0)
        for _ in range(50):
            injected = sampler.sample_fault(rng, ARCHETYPES["multi_device"], 1000.0)
            assert injected.fault.multi_device_joint_prob == platform.multi_joint_prob

    def test_activation_times_sorted_and_bounded(self):
        platform = purley_platform(0.1)
        sampler = FaultSampler(platform, DimmGeometry())
        rng = np.random.default_rng(3)
        injected = sampler.sample_fault(rng, ARCHETYPES["row_risky"], 1000.0)
        workload = WorkloadModel()
        times = activation_times(rng, injected, workload, 1000.0)
        assert np.all(np.diff(times) >= 0)
        if times.size:
            assert times.min() >= injected.fault.onset_hour
            assert times.max() < 1000.0


class TestFleet:
    def test_simulation_is_deterministic(self):
        config = FleetConfig(platform=purley_platform(0.02), duration_hours=500.0, seed=3)
        a = simulate_fleet(config)
        b = simulate_fleet(config)
        assert len(a.store.ces) == len(b.store.ces)
        assert len(a.store.ues) == len(b.store.ues)

    def test_all_faulty_dimms_have_configs(self, purley_sim):
        store = purley_sim.store
        for dimm_id in store.dimm_ids_with_ces():
            assert store.config_for(dimm_id).platform == "intel_purley"

    def test_ue_terminates_dimm_stream(self, purley_sim):
        """No CE may be logged after a DIMM's first UE (it was replaced)."""
        store = purley_sim.store
        for ue in store.ues:
            later = store.ces_for_dimm(ue.dimm_id, start_hour=ue.timestamp_hours + 1e-9)
            assert not later

    def test_sudden_ue_dimms_have_no_ces(self, purley_sim):
        for dimm in purley_sim.truth.sudden_ue_dimms:
            assert not purley_sim.store.ces_for_dimm(dimm.dimm_id)
            ues = purley_sim.store.ues_for_dimm(dimm.dimm_id)
            assert ues and ues[0].sudden

    def test_predictable_ue_dimms_have_prior_ces(self, purley_sim):
        for dimm in purley_sim.truth.predictable_ue_dimms:
            ces = purley_sim.store.ces_for_dimm(
                dimm.dimm_id, end_hour=dimm.ue_hour
            )
            assert ces, f"{dimm.dimm_id} UE'd without prior CEs"

    def test_sudden_share_tracks_platform(self, whitley_sim):
        truth = whitley_sim.truth
        total = len(truth.predictable_ue_dimms) + len(truth.sudden_ue_dimms)
        if total >= 10:
            share = len(truth.sudden_ue_dimms) / total
            assert share == pytest.approx(0.58, abs=0.15)

    def test_timestamps_within_campaign(self, purley_sim):
        assert purley_sim.store.end_hour <= purley_sim.duration_hours

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FleetConfig(platform=purley_platform(0.02), duration_hours=0.0)
        with pytest.raises(ValueError):
            FleetConfig(platform=purley_platform(0.02), wear_tau_hours=-1.0)
