"""Naive baselines used as sanity floors in tests and ablations."""

from __future__ import annotations

import numpy as np


class CeCountThresholdModel:
    """Predict failure when the 5-day CE count exceeds a tuned threshold.

    The classic "too many CEs -> replace" operator heuristic.  The threshold
    is chosen on training data to maximise F1.
    """

    name = "ce_count_threshold"

    def __init__(self, feature_names: list[str], feature: str = "temporal_ce_count_5d"):
        if feature not in feature_names:
            raise ValueError(f"missing feature {feature!r}")
        self._column = feature_names.index(feature)
        self.threshold_: float | None = None

    def fit(self, X, y, eval_set: tuple | None = None) -> "CeCountThresholdModel":
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        values = X[:, self._column]
        best_f1, best_threshold = -1.0, float(values.max()) + 1.0
        for candidate in np.unique(np.quantile(values, np.linspace(0.5, 0.99, 25))):
            predicted = values >= candidate
            tp = float(np.sum(predicted & (y == 1)))
            fp = float(np.sum(predicted & (y == 0)))
            fn = float(np.sum(~predicted & (y == 1)))
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            if f1 > best_f1:
                best_f1, best_threshold = f1, float(candidate)
        self.threshold_ = best_threshold
        return self

    def predict_proba(self, X) -> np.ndarray:
        if self.threshold_ is None:
            raise RuntimeError("model not fitted")
        values = np.asarray(X, dtype=float)[:, self._column]
        # Smooth score: distance to threshold squashed into (0, 1).
        return 1.0 / (1.0 + np.exp(-(values - self.threshold_) / (self.threshold_ + 1.0)))

    def predict(self, X, threshold: float = 0.5) -> np.ndarray:
        return (self.predict_proba(X) >= threshold).astype(int)
