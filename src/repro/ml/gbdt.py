"""LightGBM-style gradient-boosted decision trees.

Binary-logloss boosting with the algorithmic features that define LightGBM
[Ke et al., NeurIPS'17]: histogram split finding, leaf-wise tree growth
(via :class:`~repro.ml.tree.GradientTree`), optional GOSS (Gradient-based
One-Side Sampling), per-tree feature subsampling, shrinkage, class
weighting for imbalance, and early stopping on a validation set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.metrics import log_loss
from repro.ml.tree import Binner, GradientTree, TreePack, TreeParams


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=float)
    positive = x >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-x[positive]))
    exp_x = np.exp(x[~positive])
    out[~positive] = exp_x / (1.0 + exp_x)
    return out


@dataclass(frozen=True)
class GbdtParams:
    n_estimators: int = 300
    learning_rate: float = 0.08
    num_leaves: int = 31
    max_depth: int = 8
    min_samples_leaf: int = 20
    reg_lambda: float = 1.0
    max_bins: int = 64
    colsample: float = 0.9  # fraction of features per tree
    subsample: float = 1.0  # row subsample when GOSS is off
    goss: bool = False
    goss_top_rate: float = 0.2
    goss_other_rate: float = 0.1
    scale_pos_weight: float | None = None  # None = auto-balance
    early_stopping_rounds: int | None = 30
    seed: int = 0

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_leaves=self.num_leaves,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_gain=1e-6,
            reg_lambda=self.reg_lambda,
            max_bins=self.max_bins,
        )


class GbdtClassifier:
    """Binary gradient-boosting classifier with a LightGBM-like recipe."""

    name = "lightgbm"

    def __init__(self, params: GbdtParams | None = None):
        self.params = params or GbdtParams()
        self._binner: Binner | None = None
        self._trees: list[GradientTree] = []
        self._bias = 0.0
        self._pack: TreePack | None = None
        self.best_iteration_: int | None = None

    def fit(self, X, y, eval_set: tuple | None = None) -> "GbdtClassifier":
        params = self.params
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("inconsistent shapes")
        if set(np.unique(y)) - {0.0, 1.0}:
            raise ValueError("y must be binary")

        rng = np.random.default_rng(params.seed)
        self._pack = None
        self._binner = Binner(params.max_bins)
        binned = self._binner.fit_transform(X)
        n, n_features = binned.shape

        positives = float(y.sum())
        negatives = float(n - positives)
        if params.scale_pos_weight is not None:
            pos_weight = params.scale_pos_weight
        else:
            pos_weight = max(1.0, negatives / max(positives, 1.0))
        sample_weight = np.where(y == 1.0, pos_weight, 1.0)

        prior = np.clip(positives * pos_weight / (positives * pos_weight + negatives),
                        1e-6, 1 - 1e-6)
        self._bias = float(np.log(prior / (1.0 - prior)))
        raw = np.full(n, self._bias)

        eval_binned = eval_labels = None
        eval_raw = None
        if eval_set is not None:
            eval_x, eval_labels = eval_set
            eval_binned = self._binner.transform(np.asarray(eval_x, dtype=float))
            eval_labels = np.asarray(eval_labels, dtype=float)
            eval_raw = np.full(eval_binned.shape[0], self._bias)

        best_loss = np.inf
        best_round = 0
        self._trees = []
        subset_size = max(1, int(round(params.colsample * n_features)))
        tree_params = params.tree_params()

        for round_index in range(params.n_estimators):
            probability = _sigmoid(raw)
            g = (probability - y) * sample_weight
            h = probability * (1.0 - probability) * sample_weight

            indices, g_fit, h_fit = self._sample_rows(rng, g, h)
            features = rng.choice(n_features, size=subset_size, replace=False)
            tree = GradientTree(tree_params)
            tree.fit(binned[indices], g_fit, h_fit, feature_subset=features)
            self._trees.append(tree)
            raw += params.learning_rate * tree.predict(binned)

            if eval_binned is not None:
                eval_raw += params.learning_rate * tree.predict(eval_binned)
                loss = log_loss(eval_labels.astype(int), _sigmoid(eval_raw))
                if loss < best_loss - 1e-7:
                    best_loss = loss
                    best_round = round_index
                elif (
                    params.early_stopping_rounds is not None
                    and round_index - best_round >= params.early_stopping_rounds
                ):
                    self._trees = self._trees[: best_round + 1]
                    break
        self.best_iteration_ = len(self._trees)
        return self

    def _sample_rows(
        self, rng: np.random.Generator, g: np.ndarray, h: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Row sampling: GOSS or plain subsampling."""
        params = self.params
        n = g.shape[0]
        if params.goss:
            top = max(1, int(params.goss_top_rate * n))
            other = max(1, int(params.goss_other_rate * n))
            order = np.argsort(-np.abs(g), kind="stable")
            top_idx = order[:top]
            rest = order[top:]
            if len(rest) > other:
                rest = rng.choice(rest, size=other, replace=False)
            amplify = (1.0 - params.goss_top_rate) / max(
                params.goss_other_rate, 1e-12
            )
            indices = np.concatenate([top_idx, rest])
            g_fit = g[indices].copy()
            h_fit = h[indices].copy()
            g_fit[top:] *= amplify
            h_fit[top:] *= amplify
            return indices, g_fit, h_fit
        if params.subsample < 1.0:
            size = max(1, int(params.subsample * n))
            indices = rng.choice(n, size=size, replace=False)
            return indices, g[indices], h[indices]
        indices = np.arange(n)
        return indices, g, h

    def predict_raw(self, X) -> np.ndarray:
        if self._binner is None or not self._trees:
            raise RuntimeError("model not fitted")
        if self._pack is None:
            learning_rate = self.params.learning_rate
            self._pack = TreePack(self._trees, lambda value: learning_rate * value)
        binned = self._binner.transform(np.asarray(X, dtype=float))
        # Bias first, then each tree's shrunken leaf in order: the same
        # additions as fit's ``raw += learning_rate * tree.predict(...)``.
        return self._pack.accumulate(binned, self._bias)

    def predict_proba(self, X) -> np.ndarray:
        return _sigmoid(self.predict_raw(X))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)

    def feature_importance(self) -> np.ndarray:
        """Split-count importance per feature (monitoring dashboards use this)."""
        if self._binner is None:
            raise RuntimeError("model not fitted")
        importance = np.zeros(len(self._binner.n_bins), dtype=float)
        for tree in self._trees:
            for feature in tree.feature:
                if feature >= 0:
                    importance[feature] += 1.0
        total = importance.sum()
        return importance / total if total else importance
