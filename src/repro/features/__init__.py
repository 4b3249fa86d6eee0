"""Feature engineering: windows, extractors, labeling, sampling, pipeline."""

from repro.features.bitlevel import BitLevelExtractor
from repro.features.labeling import (
    LabelingParams,
    SampleValidity,
    label_at,
    labels_at,
    labels_at_fleet,
    sample_validity,
    valid_sample_mask,
    valid_sample_mask_fleet,
)
from repro.features.pipeline import ENGINES, FeaturePipeline, FeaturePipelineConfig
from repro.features.sampling import (
    SampleSet,
    SamplingParams,
    SplitSampleSets,
    aggregate_by_dimm,
    choose_sample_times,
    temporal_split,
)
from repro.features.spatial import SpatialExtractor
from repro.features.static import EnvironmentExtractor, StaticEncoder
from repro.features.temporal import TemporalExtractor
from repro.features.windows import SUB_WINDOWS_HOURS, DimmHistory, FleetWindows

__all__ = [
    "BitLevelExtractor",
    "DimmHistory",
    "ENGINES",
    "FleetWindows",
    "EnvironmentExtractor",
    "FeaturePipeline",
    "FeaturePipelineConfig",
    "LabelingParams",
    "SUB_WINDOWS_HOURS",
    "SampleSet",
    "SampleValidity",
    "SamplingParams",
    "SpatialExtractor",
    "SplitSampleSets",
    "StaticEncoder",
    "TemporalExtractor",
    "aggregate_by_dimm",
    "choose_sample_times",
    "label_at",
    "labels_at",
    "labels_at_fleet",
    "sample_validity",
    "temporal_split",
    "valid_sample_mask",
    "valid_sample_mask_fleet",
]
