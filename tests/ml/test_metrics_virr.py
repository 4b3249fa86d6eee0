"""Tests for metrics, VIRR and threshold selection."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.ml.metrics import (
    ConfusionCounts,
    average_precision,
    confusion,
    log_loss,
    precision_recall_curve,
    roc_auc,
)
from repro.ml.threshold import select_threshold, sweep_operating_points
from repro.ml.virr import breakeven_precision, virr, virr_from_counts


class TestConfusion:
    def test_counts(self):
        counts = confusion([1, 1, 0, 0, 1], [1, 0, 1, 0, 1])
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (2, 1, 1, 1)
        assert counts.precision == pytest.approx(2 / 3)
        assert counts.recall == pytest.approx(2 / 3)
        assert counts.f1 == pytest.approx(2 / 3)

    def test_degenerate_cases(self):
        empty = ConfusionCounts(0, 0, 0, 5)
        assert empty.precision == 0.0
        assert empty.recall == 0.0
        assert empty.f1 == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            confusion([1, 0], [1])
        with pytest.raises(ValueError):
            confusion([2, 0], [1, 0])
        with pytest.raises(ValueError):
            confusion([], [])


class TestCurves:
    def test_perfect_ranking(self):
        y = [0, 0, 1, 1]
        s = [0.1, 0.2, 0.8, 0.9]
        assert roc_auc(y, s) == 1.0
        assert average_precision(y, s) == pytest.approx(1.0)

    def test_inverted_ranking(self):
        assert roc_auc([0, 0, 1, 1], [0.9, 0.8, 0.2, 0.1]) == 0.0

    def test_auc_handles_ties(self):
        assert roc_auc([0, 1, 0, 1], [0.5, 0.5, 0.5, 0.5]) == pytest.approx(0.5)

    def test_single_class_auc_is_half(self):
        assert roc_auc([1, 1], [0.3, 0.9]) == 0.5

    def test_pr_curve_monotone_recall(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 100)
        s = rng.random(100)
        precision, recall, thresholds = precision_recall_curve(y, s)
        assert np.all(np.diff(recall) >= 0)
        assert np.all(np.diff(thresholds) <= 0)
        assert recall[-1] == 1.0

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_ap_between_base_rate_and_one(self, seed):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, 50)
        if y.sum() in (0, 50):
            return
        s = rng.random(50)
        ap = average_precision(y, s)
        assert 0.0 < ap <= 1.0

    def test_log_loss_prefers_confident_truth(self):
        assert log_loss([1, 0], [0.9, 0.1]) < log_loss([1, 0], [0.6, 0.4])


class TestVirr:
    def test_paper_formula_examples(self):
        # LightGBM Purley row of Table II: P=0.54, R=0.80 -> VIRR ~ 0.65.
        assert virr(0.54, 0.80, y_c=0.1) == pytest.approx(0.652, abs=1e-3)

    def test_no_prediction_gives_zero(self):
        assert virr(0.0, 0.0) == 0.0

    def test_precision_below_y_c_goes_negative(self):
        assert virr(0.05, 0.5, y_c=0.1) < 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            virr(0.5, 0.5, y_c=1.5)
        with pytest.raises(ValueError):
            virr(0.0, 0.5)

    def test_breakeven(self):
        assert breakeven_precision(0.2) == 0.2

    @given(
        tp=st.integers(1, 500),
        fp=st.integers(0, 500),
        fn=st.integers(0, 500),
        y_c=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_closed_form_matches_exact_accounting(self, tp, fp, fn, y_c):
        counts = ConfusionCounts(tp=tp, fp=fp, fn=fn, tn=10)
        breakdown = virr_from_counts(counts, y_c=y_c)
        closed_form = virr(counts.precision, counts.recall, y_c)
        assert breakdown.virr == pytest.approx(closed_form, abs=1e-9)


class TestThreshold:
    def test_select_threshold_maximises_objective(self):
        y = [0, 0, 0, 1, 1]
        s = [0.1, 0.2, 0.3, 0.8, 0.9]
        point = select_threshold(y, s, objective="f1")
        assert point.f1 == 1.0
        assert confusion(y, np.asarray(s) >= point.threshold).f1 == 1.0

    def test_sweep_contains_all_distinct_scores(self):
        y = [0, 1, 0, 1]
        s = [0.1, 0.4, 0.4, 0.9]
        points = sweep_operating_points(y, s)
        assert len(points) == 3  # distinct scores

    def test_virr_objective_falls_back_when_all_negative(self):
        y = [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]
        s = [0.2, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3, 0.25]
        point = select_threshold(y, s, objective="virr", y_c=0.9)
        assert point.f1 > 0

    def test_invalid_objective(self):
        with pytest.raises(ValueError):
            select_threshold([0, 1], [0.1, 0.9], objective="accuracy")
