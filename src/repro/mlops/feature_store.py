"""Feature store (paper Figure 6, centre).

Implements the three responsibilities the paper assigns to the feature
store:

* **Transformation** — batch (training) and stream (online) paths that run
  the *same* registered transform, guaranteeing train/serve consistency;
* **Storage** — materialised feature matrices, versioned by transform
  version and keyed by (dimm, timestamp);
* **Serving** — on-demand feature selection so different models (e.g. one
  per CPU architecture) consume different feature subsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.features.pipeline import FeaturePipeline
from repro.features.sampling import SampleSet


@dataclass(frozen=True)
class FeatureDefinition:
    """Registry entry: one named feature with its group and description."""

    name: str
    group: str
    description: str = ""
    version: int = 1


class FeatureRegistry:
    """Catalogue of feature definitions shared across teams' models."""

    def __init__(self) -> None:
        self._definitions: dict[str, FeatureDefinition] = {}

    def register(self, definition: FeatureDefinition) -> None:
        existing = self._definitions.get(definition.name)
        if existing is not None and existing.version >= definition.version:
            raise ValueError(
                f"feature {definition.name!r} already registered at "
                f"version {existing.version}"
            )
        self._definitions[definition.name] = definition

    def register_pipeline(self, pipeline: FeaturePipeline) -> int:
        """Register every feature a pipeline produces; returns the count."""
        groups = pipeline.feature_groups()
        name_to_group = {}
        for group, indices in groups.items():
            for index in indices:
                name_to_group[pipeline.feature_names()[index]] = group
        count = 0
        for name in pipeline.feature_names():
            if name not in self._definitions:
                self.register(
                    FeatureDefinition(name=name, group=name_to_group.get(name, ""))
                )
                count += 1
        return count

    def get(self, name: str) -> FeatureDefinition:
        return self._definitions[name]

    def names(self) -> list[str]:
        return sorted(self._definitions)

    def by_group(self, group: str) -> list[str]:
        return sorted(
            name
            for name, definition in self._definitions.items()
            if definition.group == group
        )

    def __len__(self) -> int:
        return len(self._definitions)


@dataclass
class MaterializedFeatures:
    """One stored batch of features (a training snapshot)."""

    snapshot_id: str
    samples: SampleSet
    transform_version: int


class FeatureStore:
    """Batch + stream transformation, storage and serving."""

    def __init__(self, pipeline: FeaturePipeline, transform_version: int = 1):
        self.pipeline = pipeline
        self.transform_version = transform_version
        self.registry = FeatureRegistry()
        self.registry.register_pipeline(pipeline)
        self._snapshots: dict[str, MaterializedFeatures] = {}
        self.stream_requests = 0

    # -- batch path (training) ----------------------------------------------

    def materialize(
        self,
        snapshot_id: str,
        store,
        platform: str,
        campaign_end_hour: float | None = None,
    ) -> MaterializedFeatures:
        """Run the batch transformation and store the snapshot."""
        if snapshot_id in self._snapshots:
            raise ValueError(f"snapshot {snapshot_id!r} already exists")
        samples = self.pipeline.build_samples(
            store, platform=platform, campaign_end_hour=campaign_end_hour
        )
        snapshot = MaterializedFeatures(
            snapshot_id=snapshot_id,
            samples=samples,
            transform_version=self.transform_version,
        )
        self._snapshots[snapshot_id] = snapshot
        return snapshot

    def snapshot(self, snapshot_id: str) -> MaterializedFeatures:
        return self._snapshots[snapshot_id]

    def snapshot_ids(self) -> list[str]:
        return sorted(self._snapshots)

    # -- stream path (online prediction) ---------------------------------------

    def serve_online(self, history, config, t: float) -> np.ndarray:
        """Transform one DIMM state for online prediction.

        ``history`` is the DIMM's :class:`~repro.features.windows.DimmHistory`
        up to ``t``.  Calls ``FeaturePipeline.transform_one``, the reference
        that :meth:`materialize`'s fleet pass and the online service's
        incremental vectors are pinned to bit for bit — the
        train/serve-consistency guarantee the paper calls out.
        """
        self.stream_requests += 1
        return self.pipeline.transform_one(history, config, t)

    # -- serving with on-demand selection ----------------------------------------

    def select_features(
        self, samples: SampleSet, names: list[str]
    ) -> tuple[np.ndarray, list[str]]:
        """Column subset by feature name (per-model feature selection)."""
        index = {name: i for i, name in enumerate(samples.feature_names)}
        missing = [name for name in names if name not in index]
        if missing:
            raise KeyError(f"unknown features: {missing}")
        columns = [index[name] for name in names]
        return samples.X[:, columns], names
