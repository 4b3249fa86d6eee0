"""From-scratch ML substrate: trees, boosting, transformer, metrics, VIRR."""

from repro.ml.autograd import Tensor, no_grad, parameter, zeros_parameter
from repro.ml.cost import CostModel
from repro.ml.model_io import load_forest, load_gbdt, save_forest, save_gbdt
from repro.ml.forest import RandomForestClassifier, RandomForestParams
from repro.ml.ft_transformer import FtTransformerClassifier, FtTransformerParams
from repro.ml.gbdt import GbdtClassifier, GbdtParams
from repro.ml.metrics import (
    ConfusionCounts,
    average_precision,
    confusion,
    log_loss,
    precision_recall_curve,
    roc_auc,
)
from repro.ml.optim import Adam
from repro.ml.threshold import (
    OperatingPoint,
    select_threshold,
    sweep_operating_points,
)
from repro.ml.tree import Binner, GradientTree, TreeParams
from repro.ml.virr import (
    DEFAULT_COLD_FRACTION,
    VirrBreakdown,
    breakeven_precision,
    virr,
    virr_from_counts,
)

__all__ = [
    "Adam",
    "CostModel",
    "load_forest",
    "load_gbdt",
    "save_forest",
    "save_gbdt",
    "Binner",
    "ConfusionCounts",
    "DEFAULT_COLD_FRACTION",
    "FtTransformerClassifier",
    "FtTransformerParams",
    "GbdtClassifier",
    "GbdtParams",
    "GradientTree",
    "OperatingPoint",
    "RandomForestClassifier",
    "RandomForestParams",
    "Tensor",
    "TreeParams",
    "VirrBreakdown",
    "average_precision",
    "breakeven_precision",
    "confusion",
    "log_loss",
    "no_grad",
    "parameter",
    "precision_recall_curve",
    "roc_auc",
    "select_threshold",
    "sweep_operating_points",
    "virr",
    "virr_from_counts",
    "zeros_parameter",
]
