"""Scenario runs: transfer-matrix parity, pooled/mixed smoke, spec handling."""

import math

import numpy as np
import pytest

from repro.evaluation.table2 import run_table2
from repro.experiments.cache import ArtifactCache
from repro.experiments.registry import UnknownNameError
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import RunSpec

PAIR = ("intel_purley", "intel_whitley")


def assert_results_bit_identical(left, right):
    """Field-wise ModelResult equality where NaN == NaN (bit parity)."""
    import dataclasses

    for field in dataclasses.fields(left):
        a = getattr(left, field.name)
        b = getattr(right, field.name)
        if isinstance(a, float) and math.isnan(a):
            assert isinstance(b, float) and math.isnan(b), field.name
        else:
            assert a == b, (field.name, a, b)


def _seeded_cache(spec, study):
    """An in-memory cache pre-populated with the session fixtures' campaigns.

    The fixture campaigns were simulated at per-platform scales, so they are
    seeded under the spec's keys — the cache is content-addressed by key,
    which is exactly what lets tests (or callers with their own campaigns)
    bypass re-simulation.
    """
    cache = ArtifactCache()
    context = RunContext(spec, cache=cache)
    for platform in spec.platforms:
        cache.put_simulation(context.simulation_key(platform), study[platform])
    return cache


@pytest.fixture(scope="module")
def pair_spec(tiny_protocol):
    return RunSpec(
        scenario="transfer_matrix",
        platforms=PAIR,
        models=("lightgbm",),
        scale=tiny_protocol.scale,
        hours=tiny_protocol.duration_hours,
        seed=tiny_protocol.seed,
        max_samples_per_dimm=tiny_protocol.sampling.max_samples_per_dimm,
    )


@pytest.fixture(scope="module")
def transfer_result(pair_spec, tiny_study, tiny_protocol):
    cache = _seeded_cache(pair_spec, tiny_study)
    return run_spec(pair_spec, protocol=tiny_protocol, cache=cache)


class TestTransferMatrix:
    def test_grid_is_complete(self, transfer_result):
        assert len(transfer_result.cells) == 4  # 2x2 pairs, one model
        for train in PAIR:
            for test in PAIR:
                cell = transfer_result.cell(train, test, "lightgbm")
                assert cell.result.platform == test

    def test_diagonal_matches_legacy_table2_bit_for_bit(
        self, transfer_result, tiny_study, tiny_protocol
    ):
        legacy = run_table2(
            tiny_protocol,
            simulations={name: tiny_study[name] for name in PAIR},
            model_names=("lightgbm",),
        )
        for platform in PAIR:
            old = legacy.result("lightgbm", platform)
            new = transfer_result.cell(platform, platform, "lightgbm").result
            assert_results_bit_identical(old, new)

    def test_off_diagonal_metrics_finite(self, transfer_result):
        for train in PAIR:
            for test in PAIR:
                if train == test:
                    continue
                result = transfer_result.cell(train, test, "lightgbm").result
                assert result.supported
                for value in (result.precision, result.recall, result.f1):
                    assert math.isfinite(value)
                assert result.test_dimms > 0
        assert transfer_result.any_nonfinite() == []

    def test_each_platform_simulated_and_extracted_once(
        self, pair_spec, tiny_study, tiny_protocol
    ):
        cache = _seeded_cache(pair_spec, tiny_study)
        run_spec(pair_spec, protocol=tiny_protocol, cache=cache)
        stats = cache.stats()
        assert stats["simulation"]["builds"] == 0  # all seeded
        assert stats["samples"]["builds"] == len(PAIR)  # one per platform
        # 2x2 grid touches each platform's artifacts multiple times:
        assert stats["samples"]["memory_hits"] == 0  # memoised experiments

    def test_rule_baseline_unsupported_off_its_platform(
        self, pair_spec, tiny_study, tiny_protocol
    ):
        spec = pair_spec.with_overrides(["models=risky_ce_pattern"])
        cache = _seeded_cache(spec, tiny_study)
        result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        # Purley-only heuristic: any pair that touches whitley is X.
        assert result.cell(
            "intel_purley", "intel_purley", "risky_ce_pattern"
        ).result.supported
        for train, test in (
            ("intel_purley", "intel_whitley"),
            ("intel_whitley", "intel_purley"),
            ("intel_whitley", "intel_whitley"),
        ):
            assert not result.cell(train, test, "risky_ce_pattern").result.supported


class TestOtherScenarios:
    def test_single_platform_equals_transfer_diagonal(
        self, pair_spec, tiny_study, tiny_protocol, transfer_result
    ):
        spec = pair_spec.with_overrides(["scenario=single_platform"])
        cache = _seeded_cache(spec, tiny_study)
        single = run_spec(spec, protocol=tiny_protocol, cache=cache)
        assert len(single.cells) == 2
        for platform in PAIR:
            assert_results_bit_identical(
                single.cell(platform, platform, "lightgbm").result,
                transfer_result.cell(platform, platform, "lightgbm").result,
            )

    def test_pooled_training_covers_every_platform(
        self, pair_spec, tiny_study, tiny_protocol
    ):
        spec = pair_spec.with_overrides(["scenario=pooled_training"])
        cache = _seeded_cache(spec, tiny_study)
        result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        assert len(result.cells) == 2
        for platform in PAIR:
            cell = result.cell("pooled", platform, "lightgbm")
            assert cell.result.supported
            assert math.isfinite(cell.result.f1)

    def test_pooled_training_fits_each_model_once(
        self, pair_spec, tiny_study, tiny_protocol
    ):
        """The pooled model is trained once and shared across platforms."""
        from repro.experiments.registry import MODELS
        from repro.ml.gbdt import GbdtClassifier, GbdtParams

        fits = []

        class _CountingGbdt(GbdtClassifier):
            def fit(self, X, y, eval_set=None):
                fits.append(len(y))
                return super().fit(X, y, eval_set=eval_set)

        MODELS.register(
            "counting_gbdt",
            lambda names, seed: _CountingGbdt(
                GbdtParams(n_estimators=20, seed=seed)
            ),
        )
        try:
            spec = pair_spec.with_overrides(
                ["scenario=pooled_training", "models=counting_gbdt"]
            )
            cache = _seeded_cache(spec, tiny_study)
            result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        finally:
            MODELS.unregister("counting_gbdt")
        assert len(result.cells) == len(PAIR)  # one cell per test platform
        assert len(fits) == 1  # ... from a single shared fit

    def test_mixed_fleet_single_combined_test(
        self, pair_spec, tiny_study, tiny_protocol
    ):
        spec = pair_spec.with_overrides(["scenario=mixed_fleet"])
        cache = _seeded_cache(spec, tiny_study)
        result = run_spec(spec, protocol=tiny_protocol, cache=cache)
        assert len(result.cells) == 1
        cell = result.cell("pooled", "mixed_fleet", "lightgbm")
        assert cell.result.supported
        assert math.isfinite(cell.result.f1)
        # The mixed test fleet is the union of the per-platform test fleets.
        per_platform = [
            run_spec(
                pair_spec.with_overrides(
                    ["scenario=single_platform", f"platforms={p}"]
                ),
                protocol=tiny_protocol,
                cache=_seeded_cache(
                    pair_spec.with_overrides([f"platforms={p}"]), tiny_study
                ),
            ).cell(p, p, "lightgbm").result.test_dimms
            for p in PAIR
        ]
        assert cell.result.test_dimms == sum(per_platform)


class TestRunResult:
    def test_render_and_serialisation(self, transfer_result, tmp_path):
        rendered = transfer_result.render()
        assert "transfer_matrix" in rendered
        assert "intel_purley" in rendered and "intel_whitley" in rendered
        payload = transfer_result.to_dict()
        assert payload["scenario"] == "transfer_matrix"
        assert len(payload["cells"]) == 4
        out = tmp_path / "result.json"
        transfer_result.to_json_file(out)
        assert out.exists()

    def test_to_table2_diagonal_only(self, transfer_result):
        table = transfer_result.to_table2()
        for platform in PAIR:
            assert table.result("lightgbm", platform).platform == platform


class TestSpec:
    def test_override_round_trip(self):
        spec = RunSpec().with_overrides(
            ["scale=0.1", "models=lightgbm,random_forest",
             "engine=per_sample", "seed=11"]
        )
        assert spec.scale == 0.1
        assert spec.models == ("lightgbm", "random_forest")
        assert spec.engine == "per_sample"
        restored = RunSpec.from_dict(spec.to_dict())
        assert restored == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = RunSpec(scenario="transfer_matrix", scale=0.05)
        path = tmp_path / "spec.json"
        spec.to_json_file(path)
        assert RunSpec.from_json_file(path) == spec

    def test_bad_overrides_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            RunSpec().with_overrides(["scale"])
        with pytest.raises(ValueError, match="unknown RunSpec key"):
            RunSpec().with_overrides(["frobnicate=1"])
        # The sample build is one process; a spec naming workers is stale.
        with pytest.raises(ValueError, match="unknown RunSpec key"):
            RunSpec().with_overrides(["workers=2"])
        with pytest.raises(ValueError, match="unknown RunSpec keys"):
            RunSpec.from_dict({**RunSpec().to_dict(), "workers": 2})

    @pytest.mark.parametrize("engine", ["warp", "batch"])
    def test_unknown_engine_rejected(self, engine):
        with pytest.raises(ValueError, match="engine"):
            RunSpec(engine=engine).validate()

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            RunSpec(scale=0.0).validate()
        with pytest.raises(ValueError, match="duplicates"):
            RunSpec(platforms=("k920", "k920")).validate()

    def test_unknown_scenario_raises(self, tiny_protocol):
        with pytest.raises(UnknownNameError, match="frobnicate"):
            run_spec(
                RunSpec(scenario="frobnicate", platforms=("intel_purley",)),
                protocol=tiny_protocol,
            )

    def test_unknown_platform_raises_before_simulating(self):
        spec = RunSpec(
            scenario="single_platform",
            platforms=("vax_11",),
            models=("lightgbm",),
            scale=0.02,
            hours=100.0,
        )
        with pytest.raises(UnknownNameError, match="vax_11"):
            run_spec(spec)
