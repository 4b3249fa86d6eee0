"""Random Forest classifier on the histogram tree engine.

Bagged variance-reduction trees: with ``g = -y`` and ``h = 1`` the
:class:`~repro.ml.tree.GradientTree` leaf value is the bootstrap-sample
label mean and its split gain is variance reduction, which for binary
labels is equivalent to the Gini criterion up to scaling.  Per-tree feature
subsampling defaults to sqrt(n_features), the standard choice.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.ml.tree import Binner, GradientTree, TreePack, TreeParams


@dataclass(frozen=True)
class RandomForestParams:
    n_estimators: int = 200
    max_depth: int = 12
    max_leaves: int = 255
    min_samples_leaf: int = 5
    max_bins: int = 64
    bootstrap: bool = True
    class_weight_balanced: bool = True
    seed: int = 0

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_leaves=self.max_leaves,
            max_depth=self.max_depth,
            min_samples_leaf=self.min_samples_leaf,
            min_gain=1e-9,
            reg_lambda=1e-6,  # plain mean leaves, no shrinkage
            max_bins=self.max_bins,
        )


class RandomForestClassifier:
    """Binary random-forest classifier with predict_proba."""

    name = "random_forest"

    def __init__(self, params: RandomForestParams | None = None):
        self.params = params or RandomForestParams()
        self._binner: Binner | None = None
        self._trees: list[tuple[GradientTree, np.ndarray]] = []
        self._pack: TreePack | None = None

    def fit(self, X, y, eval_set: tuple | None = None) -> "RandomForestClassifier":
        """Fit the forest; ``eval_set`` is accepted for interface parity."""
        del eval_set
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
        subset_size = max(1, int(np.sqrt(n_features)))

        # Balanced resampling: bootstrap draws are weighted so the two
        # classes contribute equally, a simple class_weight analogue.
        if params.class_weight_balanced:
            positives = max(1.0, y.sum())
            negatives = max(1.0, n - y.sum())
            weights = np.where(y == 1.0, 0.5 / positives, 0.5 / negatives)
        else:
            weights = np.full(n, 1.0 / n)

        self._trees = []
        tree_params = params.tree_params()
        for _ in range(params.n_estimators):
            if params.bootstrap:
                indices = rng.choice(n, size=n, replace=True, p=weights)
            else:
                indices = np.arange(n)
            features = rng.choice(n_features, size=subset_size, replace=False)
            tree = GradientTree(replace(tree_params))
            tree.fit(binned[indices], g=-y[indices], h=np.ones(len(indices)),
                     feature_subset=features)
            self._trees.append((tree, features))
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self._binner is None or not self._trees:
            raise RuntimeError("model not fitted")
        if self._pack is None:
            self._pack = TreePack(
                [tree for tree, _features in self._trees],
                lambda value: np.clip(value, 0.0, 1.0),
            )
        binned = self._binner.transform(np.asarray(X, dtype=float))
        votes = self._pack.accumulate(binned, 0.0)
        return votes / len(self._trees)

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)
