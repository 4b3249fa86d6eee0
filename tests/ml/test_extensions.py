"""Tests for model persistence, hyperparameter search and the cost model."""

import json

import numpy as np
import pytest

from repro.ml.cost import CostModel
from repro.ml.forest import RandomForestClassifier, RandomForestParams
from repro.ml.gbdt import GbdtClassifier, GbdtParams
from repro.ml.metrics import ConfusionCounts
from repro.ml.model_io import load_forest, load_gbdt, save_forest, save_gbdt


def fitted_models(n=600, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0.3).astype(int)
    gbdt = GbdtClassifier(
        GbdtParams(n_estimators=20, early_stopping_rounds=None)
    ).fit(X, y)
    forest = RandomForestClassifier(RandomForestParams(n_estimators=15)).fit(X, y)
    return X, gbdt, forest


class TestModelIo:
    def test_gbdt_roundtrip_predicts_identically(self, tmp_path):
        X, gbdt, _ = fitted_models()
        path = save_gbdt(gbdt, tmp_path / "model.json")
        loaded = load_gbdt(path)
        np.testing.assert_array_equal(
            loaded.predict_proba(X).view(np.int64),
            gbdt.predict_proba(X).view(np.int64),
        )

    def test_forest_roundtrip_predicts_identically(self, tmp_path):
        X, _, forest = fitted_models()
        path = save_forest(forest, tmp_path / "forest.json")
        loaded = load_forest(path)
        np.testing.assert_array_equal(
            loaded.predict_proba(X).view(np.int64),
            forest.predict_proba(X).view(np.int64),
        )

    def test_unfitted_model_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            save_gbdt(GbdtClassifier(), tmp_path / "x.json")

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "other"}')
        with pytest.raises(ValueError):
            load_gbdt(path)
        with pytest.raises(ValueError):
            load_forest(path)


def _corrupt(path, mutate, forest=False):
    """Rewrite the second tree of a saved artifact through ``mutate``."""
    payload = json.loads(path.read_text())
    item = payload["trees"][1]
    mutate(item["tree"] if forest else item)
    path.write_text(json.dumps(payload))
    return path


def _first_internal(tree):
    return next(i for i, feature in enumerate(tree["feature"]) if feature >= 0)


def _set(field, value, node=_first_internal):
    def mutate(tree):
        tree[field][node(tree)] = value
    return mutate


def _empty(tree):
    for field in ("feature", "threshold", "left", "right", "value"):
        tree[field] = []


CORRUPTIONS = {
    "short_threshold": (lambda tree: tree["threshold"].pop(), "equal length"),
    "empty_tree": (_empty, "non-empty"),
    "feature_past_last": (_set("feature", 5), "feature index"),
    "feature_below_leaf_marker": (_set("feature", -2), "feature index"),
    "left_out_of_range": (_set("left", 10_000), "left child"),
    "right_not_after_parent": (_set("right", 0), "right child"),
    "threshold_over_255": (_set("threshold", 256), "threshold"),
    "threshold_negative": (_set("threshold", -1), "threshold"),
    "nan_value": (_set("value", float("nan"), node=lambda tree: 0), "non-finite"),
    "inf_value": (_set("value", float("inf"), node=lambda tree: 0), "non-finite"),
    "non_integer_index": (_set("left", "x"), "malformed"),
}


class TestModelIoRejectsCorruptTrees:
    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_gbdt_load_raises_value_error(self, tmp_path, name):
        _, gbdt, _ = fitted_models()
        mutate, message = CORRUPTIONS[name]
        path = _corrupt(save_gbdt(gbdt, tmp_path / "model.json"), mutate)
        with pytest.raises(ValueError, match=f"tree 1: .*{message}"):
            load_gbdt(path)

    @pytest.mark.parametrize("name", sorted(CORRUPTIONS))
    def test_forest_load_raises_value_error(self, tmp_path, name):
        _, _, forest = fitted_models()
        mutate, message = CORRUPTIONS[name]
        path = _corrupt(
            save_forest(forest, tmp_path / "forest.json"), mutate, forest=True
        )
        with pytest.raises(ValueError, match=f"tree 1: .*{message}"):
            load_forest(path)


class TestSearch:
    def test_random_search_finds_learnable_config(self):
        from repro.features.sampling import SampleSet
        from repro.ml.search import random_search_gbdt

        rng = np.random.default_rng(0)
        n = 800
        X = rng.normal(size=(n, 6))
        y = (X[:, 0] > 0.8).astype(int)
        dimms = np.array([f"d{i // 4}" for i in range(n)], dtype=object)
        samples = SampleSet(
            X=X, y=y, times=np.arange(n, dtype=float), dimm_ids=dimms,
            feature_names=[f"f{i}" for i in range(6)],
        )
        train = samples.subset(np.arange(n) < 600)
        validation = samples.subset(np.arange(n) >= 600)
        results = random_search_gbdt(train, validation, n_trials=4, seed=1)
        assert len(results) == 4
        assert results[0].validation_ap >= results[-1].validation_ap
        assert results[0].validation_ap > 0.5

    def test_search_requires_validation_positives(self):
        from repro.features.sampling import SampleSet
        from repro.ml.search import random_search_gbdt

        samples = SampleSet(
            X=np.zeros((10, 2)), y=np.zeros(10, dtype=int),
            times=np.arange(10.0),
            dimm_ids=np.array([f"d{i}" for i in range(10)], dtype=object),
            feature_names=["a", "b"],
        )
        with pytest.raises(ValueError):
            random_search_gbdt(samples, samples, n_trials=1)


class TestCostModel:
    COUNTS = ConfusionCounts(tp=10, fp=5, fn=5, tn=100)

    def test_savings_positive_for_decent_predictor(self):
        model = CostModel()
        assert model.savings(self.COUNTS) > 0
        assert 0 < model.relative_savings(self.COUNTS) <= 1

    def test_no_prediction_baseline(self):
        model = CostModel(unplanned_failure_cost=100)
        assert model.cost_without_prediction(self.COUNTS) == 1500.0

    def test_breakeven_matches_closed_form(self):
        model = CostModel(
            unplanned_failure_cost=100, planned_migration_cost=10,
            false_alarm_cost=10,
        )
        p = model.breakeven_precision()
        # At exactly break-even precision, expected alarm value is zero:
        # p * (100 - 10) == (1 - p) * 10
        assert p * 90 == pytest.approx((1 - p) * 10)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(false_alarm_cost=-1)

    def test_useless_migration_never_breaks_even(self):
        model = CostModel(unplanned_failure_cost=10, planned_migration_cost=10)
        assert model.breakeven_precision() == 1.0
