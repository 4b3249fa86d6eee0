"""Baselines: the SC'22 risky-CE-pattern rules and naive heuristics."""

from repro.baselines.heuristics import CeCountThresholdModel
from repro.baselines.risky_ce import (
    RULE_FEATURES,
    RiskyCeParams,
    RiskyCePatternModel,
)

__all__ = [
    "CeCountThresholdModel",
    "RULE_FEATURES",
    "RiskyCeParams",
    "RiskyCePatternModel",
]
