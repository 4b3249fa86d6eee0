"""Tests for the risky-CE-pattern baseline and heuristics."""

import numpy as np
import pytest

from repro.baselines import (
    CeCountThresholdModel,
    RULE_FEATURES,
    RiskyCeParams,
    RiskyCePatternModel,
)

FEATURES = list(RULE_FEATURES) + [
    "temporal_ce_count_5d",
    "static_part_number_code",
]


def synthetic_rule_data(n=400, seed=0):
    """Positives concentrate where the risky stride-4 indicator is high."""
    rng = np.random.default_rng(seed)
    X = np.zeros((n, len(FEATURES)))
    risky = rng.random(n) < 0.3
    X[:, 0] = np.where(risky, rng.integers(2, 20, n), 0)  # risky count
    X[:, 2] = rng.integers(1, 3, n)  # max dq count
    X[:, FEATURES.index("temporal_ce_count_5d")] = rng.integers(1, 50, n)
    X[:, -1] = rng.integers(0, 3, n)  # part number code
    y = (risky & (rng.random(n) < 0.6)).astype(int)
    return X, y


class TestRiskyCePattern:
    def test_requires_rule_features(self):
        with pytest.raises(ValueError, match="rule features"):
            RiskyCePatternModel(["foo", "static_part_number_code"])

    def test_requires_group_feature(self):
        with pytest.raises(ValueError, match="group feature"):
            RiskyCePatternModel(list(RULE_FEATURES))

    def test_supports_purley_only(self):
        assert RiskyCePatternModel.supports("intel_purley")
        assert not RiskyCePatternModel.supports("intel_whitley")
        assert not RiskyCePatternModel.supports("k920")

    def test_mines_and_predicts_risky_rule(self):
        X, y = synthetic_rule_data()
        model = RiskyCePatternModel(FEATURES).fit(X, y)
        assert model.rule_count > 0
        predictions = model.predict(X)
        # The mined rules should capture the bulk of the positives while
        # staying far above the ~18% base rate in precision.
        recall = predictions[y == 1].mean()
        precision = y[predictions == 1].mean()
        assert recall > 0.7
        assert precision > 1.3 * y.mean()

    def test_no_rules_when_no_signal(self):
        rng = np.random.default_rng(0)
        X = np.zeros((200, len(FEATURES)))
        X[:, -1] = rng.integers(0, 3, 200)
        y = rng.integers(0, 2, 200)  # labels independent of features
        model = RiskyCePatternModel(
            FEATURES, params=RiskyCeParams(min_rule_precision=0.99)
        ).fit(X, y)
        assert model.predict(X).sum() == 0

    def test_predict_proba_is_binary(self):
        X, y = synthetic_rule_data()
        model = RiskyCePatternModel(FEATURES).fit(X, y)
        assert set(np.unique(model.predict_proba(X))) <= {0.0, 1.0}

    def test_rule_scores_are_precisions(self):
        X, y = synthetic_rule_data()
        model = RiskyCePatternModel(FEATURES).fit(X, y)
        scores = model.rule_scores(X)
        assert scores.max() <= 1.0
        assert (scores[model.predict(X) == 1] > 0).all()

    def test_fixed_operating_point_flag(self):
        assert RiskyCePatternModel.fixed_operating_point


class TestHeuristics:
    def test_ce_count_threshold_learns(self):
        rng = np.random.default_rng(0)
        X = np.zeros((300, len(FEATURES)))
        counts = rng.integers(0, 100, 300)
        X[:, FEATURES.index("temporal_ce_count_5d")] = counts
        y = (counts > 60).astype(int)
        model = CeCountThresholdModel(FEATURES).fit(X, y)
        assert model.threshold_ is not None
        predictions = model.predict(X)
        assert (predictions == y).mean() > 0.9

    def test_requires_feature(self):
        with pytest.raises(ValueError):
            CeCountThresholdModel(["other"])

    def test_predict_before_fit_raises(self):
        model = CeCountThresholdModel(FEATURES)
        with pytest.raises(RuntimeError):
            model.predict_proba(np.zeros((1, len(FEATURES))))
