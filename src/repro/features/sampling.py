"""Sample generation and temporal train/validation/test splitting.

Samples are drawn at CE arrival instants (a new CE is the natural trigger
for re-scoring a DIMM; production re-scores every prediction interval, but
between CEs the features — hence the score — barely move).  Per-DIMM caps
keep chatty DIMMs from dominating the set.

The split is *temporal* (train on the earlier part of the campaign, test on
the later part), matching production deployment; validation is carved out
of the training period *by DIMM* so threshold tuning never sees a test
DIMM's samples.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class SamplingParams:
    max_samples_per_dimm: int = 24
    train_fraction: float = 0.6  # campaign time fraction used for training
    validation_dimm_fraction: float = 0.30  # of train DIMMs, for tuning
    min_history_ces: int = 2  # require some history before sampling
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0.0 <= self.validation_dimm_fraction < 1.0:
            raise ValueError("validation_dimm_fraction must be in [0, 1)")
        if self.max_samples_per_dimm < 1:
            raise ValueError("max_samples_per_dimm must be at least 1")
        if self.min_history_ces < 1:
            raise ValueError("min_history_ces must be at least 1")


@dataclass
class SampleSet:
    """A feature matrix with labels and provenance."""

    X: np.ndarray
    y: np.ndarray
    times: np.ndarray
    dimm_ids: np.ndarray  # dtype=object
    feature_names: list[str]
    feature_groups: dict[str, list[int]] = field(default_factory=dict)
    platform: str = ""

    def __post_init__(self) -> None:
        n = self.X.shape[0]
        if not (len(self.y) == len(self.times) == len(self.dimm_ids) == n):
            raise ValueError("inconsistent sample-set lengths")
        if self.X.shape[1] != len(self.feature_names):
            raise ValueError("feature_names do not match X columns")

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def positive_rate(self) -> float:
        return float(self.y.mean()) if len(self) else 0.0

    def subset(self, mask: np.ndarray) -> "SampleSet":
        return SampleSet(
            X=self.X[mask],
            y=self.y[mask],
            times=self.times[mask],
            dimm_ids=self.dimm_ids[mask],
            feature_names=self.feature_names,
            feature_groups=self.feature_groups,
            platform=self.platform,
        )

    def drop_feature_groups(self, groups: tuple[str, ...]) -> "SampleSet":
        """Ablation helper: zero out whole feature groups.

        Columns are zeroed rather than removed so that feature indices stay
        stable for models already referring to named columns.
        """
        X = self.X.copy()
        for group in groups:
            for index in self.feature_groups.get(group, []):
                X[:, index] = 0.0
        return SampleSet(
            X=X,
            y=self.y,
            times=self.times,
            dimm_ids=self.dimm_ids,
            feature_names=self.feature_names,
            feature_groups=self.feature_groups,
            platform=self.platform,
        )


def concat_sample_sets(sets: list[SampleSet], platform: str = "") -> SampleSet:
    """Row-concatenate sample sets sharing one feature schema.

    This is how the pooled-training and mixed-fleet scenarios assemble a
    union fleet from per-platform sample sets; the inputs must agree on
    ``feature_names`` (column order included) or the matrices would not be
    comparable.
    """
    if not sets:
        raise ValueError("concat_sample_sets needs at least one sample set")
    names = sets[0].feature_names
    for other in sets[1:]:
        if other.feature_names != names:
            raise ValueError(
                "cannot concatenate sample sets with different feature schemas"
            )
    return SampleSet(
        X=np.vstack([s.X for s in sets]),
        y=np.concatenate([s.y for s in sets]),
        times=np.concatenate([s.times for s in sets]),
        dimm_ids=np.concatenate([s.dimm_ids for s in sets]),
        feature_names=names,
        feature_groups=sets[0].feature_groups,
        platform=platform,
    )


@dataclass
class SplitSampleSets:
    train: SampleSet
    validation: SampleSet
    test: SampleSet


def _dimm_in_validation(dimm_id: str, fraction: float, seed: int) -> bool:
    digest = hashlib.sha256(f"{seed}:{dimm_id}".encode()).digest()
    return (int.from_bytes(digest[:4], "little") / 2**32) < fraction


def temporal_split(
    samples: SampleSet,
    campaign_hours: float,
    params: SamplingParams,
) -> SplitSampleSets:
    """Train/validation/test split as described in the module docstring."""
    split_hour = params.train_fraction * campaign_hours
    in_train_period = samples.times < split_hour
    # dtype=bool keeps an EMPTY sample set (e.g. a campaign shorter than the
    # labeling horizon) flowing through as empty splits instead of tripping
    # ufunc type errors on a float64 empty array.
    in_validation = np.array(
        [
            _dimm_in_validation(d, params.validation_dimm_fraction, params.seed)
            for d in samples.dimm_ids
        ],
        dtype=bool,
    )
    train_mask = in_train_period & ~in_validation
    val_mask = in_train_period & in_validation
    test_mask = ~in_train_period
    return SplitSampleSets(
        train=samples.subset(train_mask),
        validation=samples.subset(val_mask),
        test=samples.subset(test_mask),
    )


def choose_sample_times(
    ce_times: np.ndarray,
    max_samples: int,
    min_history_ces: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampling instants for one DIMM: CE arrivals, thinned to the cap.

    ``rng`` is drawn once per DIMM that needs thinning and never
    otherwise, so both sample-build engines, walking the fleet's DIMMs
    in the same order, consume it identically.
    """
    if ce_times.size < min_history_ces:
        return np.empty(0)
    eligible = ce_times[min_history_ces - 1 :]
    if eligible.size <= max_samples:
        return eligible
    # Deterministic even thinning plus one random offset keeps both early
    # and late samples while avoiding aliasing with burst structure.
    indices = np.linspace(0, eligible.size - 1, max_samples).astype(int)
    jitter = int(rng.integers(0, max(1, eligible.size // max_samples)))
    indices = np.clip(indices + jitter, 0, eligible.size - 1)
    return eligible[np.unique(indices)]


def aggregate_by_dimm(
    samples: SampleSet, scores: np.ndarray, top_k: int = 3
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DIMM-level view: top-k-mean score and max label per DIMM.

    The paper's TP/FP/FN/VIRR accounting is per failing unit (a DIMM/server
    that is or is not acted upon), so Table II metrics aggregate sample
    scores to DIMM granularity.  Pooling uses the mean of the ``top_k``
    highest sample scores — a single-sample spike does not flag a DIMM, but
    a sustained high score does.

    Returns ``(dimm_ids, y_dimm, score_dimm)`` sorted by dimm id.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.shape[0] != len(samples):
        raise ValueError("scores do not match samples")
    if scores.size == 0:
        return (
            np.empty(0, dtype=object),
            np.empty(0, dtype=int),
            np.empty(0, dtype=float),
        )
    ids, groups = np.unique(samples.dimm_ids, return_inverse=True)
    y = np.zeros(ids.size, dtype=int)
    np.maximum.at(y, groups, samples.y.astype(int))

    # Rank each DIMM's samples by descending score (stable, like the
    # per-DIMM sorted() it replaces) and pool the top-k mean per group.
    order = np.lexsort((-scores, groups))
    sorted_groups = groups[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_groups[1:] != sorted_groups[:-1]))
    )
    sizes = np.diff(np.append(starts, sorted_groups.size))
    rank = np.arange(sorted_groups.size) - np.repeat(starts, sizes)
    take = rank < top_k
    pooled_sum = np.zeros(ids.size)
    np.add.at(pooled_sum, sorted_groups[take], scores[order][take])
    pooled = pooled_sum / np.bincount(sorted_groups[take], minlength=ids.size)
    return ids.astype(object), y, pooled
