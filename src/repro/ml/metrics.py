"""Binary-classification metrics (paper Section IV).

Implemented from scratch on numpy: confusion counts, precision / recall /
F1, precision-recall curves, average precision and ROC-AUC.  All functions
accept plain array-likes and validate shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ConfusionCounts:
    """TP / FP / FN / TN with the paper's derived measures."""

    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0


def _validate(y_true, y_score_or_pred) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    other = np.asarray(y_score_or_pred)
    if y_true.shape != other.shape or y_true.ndim != 1:
        raise ValueError(
            f"shape mismatch: y_true {y_true.shape} vs {other.shape}"
        )
    if y_true.size == 0:
        raise ValueError("empty inputs")
    unique = set(np.unique(y_true).tolist())
    if not unique <= {0, 1, False, True}:
        raise ValueError(f"y_true must be binary, got values {sorted(unique)}")
    return y_true.astype(bool), other


def confusion(y_true, y_pred) -> ConfusionCounts:
    """Confusion counts from binary predictions."""
    y_true, y_pred = _validate(y_true, y_pred)
    y_pred = y_pred.astype(bool)
    return ConfusionCounts(
        tp=int(np.sum(y_true & y_pred)),
        fp=int(np.sum(~y_true & y_pred)),
        fn=int(np.sum(y_true & ~y_pred)),
        tn=int(np.sum(~y_true & ~y_pred)),
    )


def precision_recall_curve(
    y_true, y_score
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision and recall at every distinct score threshold.

    Returns ``(precision, recall, thresholds)`` where predictions are
    ``score >= threshold``; thresholds descend, so recall ascends.
    """
    y_true, y_score = _validate(y_true, y_score)
    order = np.argsort(-y_score, kind="stable")
    sorted_true = y_true[order]
    sorted_score = y_score[order]

    # Evaluate only at the last occurrence of each distinct score.
    distinct = np.flatnonzero(np.diff(sorted_score)) if y_score.size > 1 else np.array([], dtype=int)
    boundaries = np.concatenate([distinct, [y_score.size - 1]])

    tp_cum = np.cumsum(sorted_true)
    positives = int(tp_cum[-1])
    tps = tp_cum[boundaries]
    fps = boundaries + 1 - tps
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(tps + fps > 0, tps / (tps + fps), 0.0)
    recall = tps / positives if positives else np.zeros_like(tps, dtype=float)
    thresholds = sorted_score[boundaries]
    return precision.astype(float), recall.astype(float), thresholds


def average_precision(y_true, y_score) -> float:
    """Area under the PR curve via the step-wise interpolation."""
    precision, recall, _ = precision_recall_curve(y_true, y_score)
    recall_steps = np.diff(np.concatenate([[0.0], recall]))
    return float(np.sum(recall_steps * precision))


def roc_auc(y_true, y_score) -> float:
    """Rank-based AUC (equivalent to the Mann-Whitney U statistic)."""
    y_true, y_score = _validate(y_true, y_score)
    positives = int(np.sum(y_true))
    negatives = y_true.size - positives
    if positives == 0 or negatives == 0:
        return 0.5
    order = np.argsort(y_score, kind="stable")
    ranks = np.empty(y_score.size, dtype=float)
    sorted_scores = y_score[order]
    # Average ranks over ties.
    i = 0
    while i < y_score.size:
        j = i
        while j + 1 < y_score.size and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    positive_rank_sum = float(np.sum(ranks[y_true]))
    u_statistic = positive_rank_sum - positives * (positives + 1) / 2.0
    return u_statistic / (positives * negatives)


def log_loss(y_true, y_prob, eps: float = 1e-12) -> float:
    """Mean negative log-likelihood of binary labels."""
    y_true, y_prob = _validate(y_true, y_prob)
    p = np.clip(y_prob.astype(float), eps, 1.0 - eps)
    return float(-np.mean(np.where(y_true, np.log(p), np.log(1.0 - p))))
