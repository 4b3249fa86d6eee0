"""MLOps framework: data pipeline, feature store, deployment, monitoring."""

from repro.mlops.data_pipeline import (
    DataLake,
    DataPipeline,
    StageResult,
    default_ingestion_pipeline,
)
from repro.mlops.feature_store import (
    FeatureDefinition,
    FeatureRegistry,
    FeatureStore,
    MaterializedFeatures,
)
from repro.mlops.lifecycle import LifecycleReport, run_lifecycle
from repro.mlops.migration import MigrationLedger, MigrationSimulator
from repro.mlops.model_registry import (
    CiCdPipeline,
    GateDecision,
    GatePolicy,
    ModelRegistry,
    ModelStage,
    ModelVersion,
)
from repro.mlops.monitoring import (
    Dashboard,
    DriftMonitor,
    DriftReport,
    MetricSeries,
    population_stability_index,
)
from repro.mlops.serving import Alarm, AlarmSystem, OnlinePredictionService

__all__ = [
    "Alarm",
    "AlarmSystem",
    "CiCdPipeline",
    "Dashboard",
    "DataLake",
    "DataPipeline",
    "DriftMonitor",
    "DriftReport",
    "FeatureDefinition",
    "FeatureRegistry",
    "FeatureStore",
    "GateDecision",
    "GatePolicy",
    "LifecycleReport",
    "MaterializedFeatures",
    "MetricSeries",
    "MigrationLedger",
    "MigrationSimulator",
    "ModelRegistry",
    "ModelStage",
    "ModelVersion",
    "OnlinePredictionService",
    "StageResult",
    "default_ingestion_pipeline",
    "population_stability_index",
    "run_lifecycle",
]
