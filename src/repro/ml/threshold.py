"""Operating-point (decision-threshold) selection.

Models output scores; the paper reports precision / recall / F1 / VIRR at a
chosen operating point.  We tune the threshold on a validation split —
never on test — maximising either F1 or VIRR.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ml.metrics import precision_recall_curve
from repro.ml.virr import DEFAULT_COLD_FRACTION, virr


@dataclass(frozen=True)
class OperatingPoint:
    threshold: float
    precision: float
    recall: float
    f1: float
    virr: float


def sweep_operating_points(
    y_true,
    y_score,
    y_c: float = DEFAULT_COLD_FRACTION,
) -> list[OperatingPoint]:
    """All distinct operating points of a scored validation set."""
    precision, recall, thresholds = precision_recall_curve(y_true, y_score)
    points = []
    for p, r, threshold in zip(precision, recall, thresholds):
        f1 = 2.0 * p * r / (p + r) if (p + r) > 0 else 0.0
        point_virr = virr(p, r, y_c) if (r == 0.0 or p > 0.0) else 0.0
        points.append(
            OperatingPoint(
                threshold=float(threshold),
                precision=float(p),
                recall=float(r),
                f1=float(f1),
                virr=float(point_virr),
            )
        )
    return points


def select_threshold(
    y_true,
    y_score,
    objective: str = "f1",
    y_c: float = DEFAULT_COLD_FRACTION,
    min_precision: float = 0.0,
) -> OperatingPoint:
    """Best validation operating point under ``objective`` (f1 or virr).

    ``min_precision`` optionally constrains the search (useful for VIRR,
    which rewards recall only while precision stays above y_c).
    """
    if objective not in ("f1", "virr"):
        raise ValueError(f"objective must be 'f1' or 'virr', got {objective!r}")
    points = sweep_operating_points(y_true, y_score, y_c)
    eligible = [p for p in points if p.precision >= min_precision]
    if not eligible:
        eligible = points
    key = (lambda p: p.f1) if objective == "f1" else (lambda p: p.virr)
    best_value = max(key(p) for p in eligible)
    if best_value <= 0.0 and objective == "virr":
        # Fall back to F1 if no threshold achieves positive VIRR.
        key = lambda p: p.f1  # noqa: E731
        best_value = max(key(p) for p in eligible)
    # Regularised pick: among near-optimal points (within 10% of the best),
    # prefer the most balanced precision/recall, and among equally balanced
    # ones the lowest threshold.  Extreme thresholds tend to overfit small
    # validation sets and transfer poorly across time; a lower cut keeps the
    # alarm sensitive to slightly weaker scores at serving time.
    near_optimal = [p for p in eligible if key(p) >= 0.9 * best_value]
    return min(
        near_optimal,
        key=lambda p: (round(abs(p.precision - p.recall), 6), p.threshold),
    )
