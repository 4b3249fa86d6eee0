"""End-to-end experiment runner: simulate -> features -> train -> evaluate.

The evaluation granularity is the DIMM (the unit that gets migrated /
replaced): sample scores are aggregated per DIMM with max-pooling, the
decision threshold is tuned on held-out *validation DIMMs* from the
training period, and precision / recall / F1 / VIRR are reported on the
temporally disjoint test period — mirroring how the paper's production
pipeline consumes predictions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.heuristics import CeCountThresholdModel
from repro.baselines.risky_ce import RiskyCePatternModel
from repro.evaluation.protocol import ExperimentProtocol
from repro.experiments.registry import MODELS, register_model
from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig
from repro.features.sampling import SampleSet, aggregate_by_dimm, temporal_split
from repro.ml.forest import RandomForestClassifier, RandomForestParams
from repro.ml.ft_transformer import FtTransformerClassifier, FtTransformerParams
from repro.ml.gbdt import GbdtClassifier, GbdtParams
from repro.ml.metrics import average_precision, confusion, roc_auc
from repro.ml.virr import virr
from repro.simulator.fleet import SimulationResult

#: Table II row order.
MODEL_ORDER = ("risky_ce_pattern", "random_forest", "lightgbm", "ft_transformer")

#: Sentinel: "tune the alarm-budget flag rate on this experiment's splits"
#: (``None`` is a legal explicit value meaning the no-positives fallback).
_TUNE_FLAG_RATE = object()


@register_model("risky_ce_pattern")
def _build_risky(feature_names: list[str], seed: int):
    return RiskyCePatternModel(feature_names)


@register_model("random_forest")
def _build_forest(feature_names: list[str], seed: int):
    return RandomForestClassifier(RandomForestParams(n_estimators=150, seed=seed))


@register_model("lightgbm")
def _build_gbdt(feature_names: list[str], seed: int):
    return GbdtClassifier(GbdtParams(n_estimators=250, seed=seed))


@register_model("ft_transformer")
def _build_ft(feature_names: list[str], seed: int):
    return FtTransformerClassifier(
        FtTransformerParams(dim=24, n_heads=4, n_blocks=2, ffn_hidden=48,
                            max_epochs=35, patience=6, seed=seed)
    )


@register_model("ce_count_threshold")
def _build_ce_count(feature_names: list[str], seed: int):
    return CeCountThresholdModel(feature_names)


#: Back-compat alias: the model registry satisfies the read-only mapping
#: contract the old hand-rolled builder dict exposed.
MODEL_BUILDERS = MODELS


@dataclass(frozen=True)
class ModelResult:
    """One (platform, model) cell of Table II."""

    platform: str
    model_name: str
    supported: bool
    precision: float = float("nan")
    recall: float = float("nan")
    f1: float = float("nan")
    virr: float = float("nan")
    threshold: float = float("nan")
    sample_auc: float = float("nan")
    sample_ap: float = float("nan")
    test_dimms: int = 0
    test_positive_dimms: int = 0

    def as_row(self) -> tuple:
        if not self.supported:
            return ("X", "X", "X", "X")
        return (
            f"{self.precision:.2f}",
            f"{self.recall:.2f}",
            f"{self.f1:.2f}",
            f"{self.virr:.2f}",
        )


@dataclass
class PlatformExperiment:
    """Prepared data of one platform, reusable across models."""

    platform: str
    samples: SampleSet
    train: SampleSet
    validation: SampleSet
    test: SampleSet
    protocol: ExperimentProtocol

    @classmethod
    def prepare(
        cls,
        simulation: SimulationResult,
        protocol: ExperimentProtocol,
    ) -> "PlatformExperiment":
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=protocol.labeling, sampling=protocol.sampling
            )
        )
        samples = pipeline.build_samples(
            simulation.store,
            platform=simulation.platform.name,
            campaign_end_hour=simulation.duration_hours,
        )
        return cls.from_samples(samples, protocol, simulation.duration_hours)

    @classmethod
    def from_samples(
        cls,
        samples: SampleSet,
        protocol: ExperimentProtocol,
        campaign_hours: float,
    ) -> "PlatformExperiment":
        """Split an already extracted (possibly cache-served) sample set."""
        split = temporal_split(samples, campaign_hours, protocol.sampling)
        return cls(
            platform=samples.platform,
            samples=samples,
            train=split.train,
            validation=split.validation,
            test=split.test,
            protocol=protocol,
        )

    def _alarm_budget_flag_rate(self, model) -> float | None:
        """Alarm-budget flag rate tuned on the training period.

        With few positive DIMMs, a raw score threshold tuned on validation
        transfers poorly across time (score calibration drifts as the fleet
        ages).  Production systems instead fix an *alarm budget*: flag the
        top fraction of units.  The budget multiple (flagged fraction /
        training positive fraction) is the tuned hyperparameter — selected
        on training-period DIMMs only, no test data involved — so one tuned
        rate serves every test fleet a trained model is applied to (the
        transfer matrix tunes once per row).  Returns ``None`` when the
        tuning period has no positive DIMMs.
        """
        tune_y_parts = []
        tune_score_parts = []
        for split in (self.train, self.validation):
            if len(split) == 0:
                continue
            _, split_y, split_scores = aggregate_by_dimm(
                split, model.predict_proba(split.X)
            )
            tune_y_parts.append(split_y)
            tune_score_parts.append(split_scores)
        tune_y = np.concatenate(tune_y_parts)
        tune_scores = np.concatenate(tune_score_parts)
        positive_rate = float(tune_y.mean()) if tune_y.size else 0.0
        if positive_rate == 0.0:
            return None

        best_factor, best_f1 = 1.5, -1.0
        for factor in (0.75, 1.0, 1.25, 1.5, 2.0, 3.0):
            rate = min(0.5, factor * positive_rate)
            cut = float(np.quantile(tune_scores, 1.0 - rate))
            counts = confusion(tune_y, (tune_scores >= cut).astype(int))
            if counts.f1 > best_f1:
                best_f1, best_factor = counts.f1, factor
        return min(0.5, best_factor * positive_rate)

    @staticmethod
    def _apply_flag_rate(flag_rate: float | None, test_scores: np.ndarray) -> float:
        """The flag rate as a score threshold on one test fleet's quantile."""
        if flag_rate is None:  # no tuning positives: flag the top 5%
            return float(np.quantile(test_scores, 0.95)) if test_scores.size else 0.5
        return float(np.quantile(test_scores, 1.0 - flag_rate))

    def run_model(
        self,
        model_name: str,
        model=None,
        refit: bool = True,
        flag_rate: "float | None" = _TUNE_FLAG_RATE,
    ) -> ModelResult:
        """Train one model and evaluate it at DIMM granularity.

        ``refit=False`` (only meaningful with an explicit ``model``) skips
        the ``fit`` call, and an explicit ``flag_rate`` (a float, or
        ``None`` for the no-positives fallback) skips the alarm-budget
        tuning — for callers that evaluate one trained model against
        several test sets, e.g. a transfer-matrix row.
        """
        protocol = self.protocol
        if model is None:
            builder = MODEL_BUILDERS[model_name]
            model = builder(self.samples.feature_names, protocol.seed)
            refit = True

        supports = getattr(model, "supports", None)
        if supports is not None and not supports(self.platform):
            return ModelResult(
                platform=self.platform, model_name=model_name, supported=False
            )
        if min(len(self.train), len(self.validation), len(self.test)) == 0:
            raise ValueError(
                f"empty split for {self.platform}: "
                f"train={len(self.train)}, val={len(self.validation)}, "
                f"test={len(self.test)}"
            )

        if refit:
            model.fit(
                self.train.X,
                self.train.y,
                eval_set=(self.validation.X, self.validation.y),
            )

        test_sample_scores = model.predict_proba(self.test.X)
        _, test_y, test_scores = aggregate_by_dimm(self.test, test_sample_scores)

        if getattr(model, "fixed_operating_point", False):
            # Rule-based models emit binary decisions; no threshold tuning.
            threshold = 0.5
        else:
            if flag_rate is _TUNE_FLAG_RATE:
                flag_rate = self._alarm_budget_flag_rate(model)
            threshold = self._apply_flag_rate(flag_rate, test_scores)
        predictions = (test_scores >= threshold).astype(int)
        counts = confusion(test_y, predictions)
        model_virr = (
            virr(counts.precision, counts.recall, protocol.y_c)
            if counts.recall > 0
            else 0.0
        )

        if self.test.y.sum() > 0 and self.test.y.sum() < len(self.test):
            sample_auc = roc_auc(self.test.y, test_sample_scores)
            sample_ap = average_precision(self.test.y, test_sample_scores)
        else:
            sample_auc = float("nan")
            sample_ap = float("nan")

        return ModelResult(
            platform=self.platform,
            model_name=model_name,
            supported=True,
            precision=counts.precision,
            recall=counts.recall,
            f1=counts.f1,
            virr=model_virr,
            threshold=float(threshold),
            sample_auc=sample_auc,
            sample_ap=sample_ap,
            test_dimms=int(len(test_y)),
            test_positive_dimms=int(test_y.sum()),
        )


def run_platform(
    simulation: SimulationResult,
    protocol: ExperimentProtocol,
    model_names: tuple[str, ...] = MODEL_ORDER,
) -> dict[str, ModelResult]:
    """All models on one platform."""
    experiment = PlatformExperiment.prepare(simulation, protocol)
    return {name: experiment.run_model(name) for name in model_names}
