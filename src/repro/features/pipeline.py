"""End-to-end feature pipeline: LogStore -> labeled SampleSet.

Mirrors the paper's feature-store transformations (Section VII): temporal,
spatial, bit-level, static and environment features, computed per sampling
instant, with labels from :mod:`repro.features.labeling`.  The same
pipeline object serves batch construction (training) and single-sample
transformation (online serving), guaranteeing train/serve consistency.

One reference, one fast path:

* :meth:`FeaturePipeline.transform_one` — one DIMM at one instant over a
  :class:`~repro.features.windows.DimmHistory`; the executable reference
  every other feature path is pinned to, bit for bit.
  ``build_samples(engine="per_sample")`` calls it once per sample.
* ``build_samples(engine="fleet")`` (default) — ONE cross-DIMM pass: the
  log store's columnar fleet view feeds
  :class:`~repro.features.windows.FleetWindows`, and the temporal, spatial
  and bit-level extractors' ``compute_batch`` run once over the whole
  fleet's ragged arrays, in this process.

Around them, online serving
(:class:`~repro.streaming.incremental.IncrementalFeatureExtractor`) keeps a
per-DIMM incremental window state, pinned to ``transform_one`` by the
parity suites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.features.bitlevel import BitLevelExtractor
from repro.features.labeling import (
    LabelingParams,
    labels_at,
    labels_at_fleet,
    valid_sample_mask,
    valid_sample_mask_fleet,
)
from repro.features.sampling import (
    SampleSet,
    SamplingParams,
    choose_sample_times,
)
from repro.features.spatial import SpatialExtractor
from repro.features.static import EnvironmentExtractor, StaticEncoder
from repro.features.temporal import TemporalExtractor
from repro.obs.tracing import NULL_TRACER
from repro.features.windows import DimmHistory, FleetWindows
from repro.telemetry.columnar import CE_SERVER, CE_T, FleetArrays
from repro.telemetry.log_store import LogStore

#: Engine names accepted by :meth:`FeaturePipeline.build_samples`.
ENGINES = ("fleet", "per_sample")


def server_ce_times(store: LogStore) -> dict[str, np.ndarray]:
    """Per-server CE timestamp arrays, read off the columnar CE table.

    Groups the columnar CE table by interned server code (one stable
    argsort, zero record-object loops).  The value *sets* equal what the
    old ``store.ces`` record walk produced; value order may differ, which
    is immaterial because the environment extractor sorts each server's
    times at fit time (parity is pinned by a test).
    """
    rows = store.columns.ces.rows()
    if rows.shape[0] == 0:
        return {}
    codes = rows[:, CE_SERVER].astype(np.int64)
    times = rows[:, CE_T]
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    boundaries = np.flatnonzero(
        np.concatenate(([True], sorted_codes[1:] != sorted_codes[:-1]))
    )
    starts = np.append(boundaries, sorted_codes.size)
    sorted_times = times[order]
    return {
        store.columns.servers.name(int(sorted_codes[lo])): sorted_times[lo:hi]
        for lo, hi in zip(starts[:-1], starts[1:])
    }


@dataclass
class FeaturePipelineConfig:
    labeling: LabelingParams = field(default_factory=LabelingParams)
    sampling: SamplingParams = field(default_factory=SamplingParams)


class FeaturePipeline:
    """Builds labeled samples from a log store (and serves single samples)."""

    def __init__(self, config: FeaturePipelineConfig | None = None):
        self.config = config or FeaturePipelineConfig()
        observation = self.config.labeling.observation_hours
        self.temporal = TemporalExtractor(observation)
        self.spatial = SpatialExtractor(observation)
        self.bitlevel = BitLevelExtractor(observation)
        self.static = StaticEncoder()
        self.environment = EnvironmentExtractor(observation)
        self._fitted = False

    # -- fitting ----------------------------------------------------------

    def fit(self, store: LogStore) -> "FeaturePipeline":
        """Fit the static encoder and the server-level CE index.

        The server index is grouped straight from the columnar CE table
        (one argsort over the interned server codes) instead of walking
        ``store.ces`` record objects; :func:`server_ce_times` is the shared
        helper and the record-walk parity is pinned by a test.
        """
        self.static.fit(store.configs)
        self.environment.fit(server_ce_times(store))
        self._fitted = True
        return self

    # -- feature schema -----------------------------------------------------

    def feature_names(self) -> list[str]:
        return (
            self.temporal.names()
            + self.spatial.names()
            + self.bitlevel.names()
            + self.environment.names()
            + self.static.names()
        )

    def feature_groups(self) -> dict[str, list[int]]:
        groups: dict[str, list[int]] = {}
        offset = 0
        for extractor in (
            self.temporal,
            self.spatial,
            self.bitlevel,
            self.environment,
            self.static,
        ):
            names = extractor.names()
            groups.setdefault(extractor.group, []).extend(
                range(offset, offset + len(names))
            )
            offset += len(names)
        return groups

    # -- transformation ------------------------------------------------------

    def transform_one(
        self, history: DimmHistory, config, t: float
    ) -> np.ndarray:
        """Feature vector for one DIMM at one instant.

        The executable reference every other feature path is pinned to,
        bit for bit.
        """
        if not self._fitted:
            raise RuntimeError("pipeline not fitted")
        temporal = self.temporal.compute(history, t)
        own_count_5d = temporal[3]  # 5-day CE count (4th sub-window)
        windowed = (
            temporal
            + self.spatial.compute(history, t)
            + self.bitlevel.compute(history, t)
            + self.environment.compute(history.server_id, own_count_5d, t)
        )
        return np.asarray(windowed + self.static.compute(config), dtype=float)

    def transform_fleet(
        self,
        fleet: FleetArrays,
        configs: list,
        ts: np.ndarray,
        sample_seg: np.ndarray,
    ) -> np.ndarray:
        """Feature matrix for MANY DIMMs' samples in one cross-fleet pass.

        ``ts`` / ``sample_seg`` must be grouped by ascending segment (DIMM
        index into ``fleet``), the order :meth:`build_samples` produces;
        ``configs[i]`` is segment ``i``'s config.  Row ``i`` equals
        :meth:`transform_one` of segment ``sample_seg[i]``'s history at
        ``ts[i]``, bit-for-bit — but the five extractors each run once over
        the whole fleet instead of once per sample.
        """
        if not self._fitted:
            raise RuntimeError("pipeline not fitted")
        ts = np.asarray(ts, dtype=float)
        sample_seg = np.asarray(sample_seg, dtype=np.int64)
        if ts.size == 0:
            return np.empty((0, len(self.feature_names())))
        windows = FleetWindows(fleet, ts, sample_seg)
        temporal = self.temporal.compute_batch(fleet, ts, windows)
        own_counts_5d = temporal[:, 3]  # 5-day CE count (4th sub-window)
        server_codes = np.asarray(
            [self.environment.server_code(s) for s in fleet.server_ids],
            dtype=np.int64,
        )
        counts = np.bincount(sample_seg, minlength=fleet.n_dimms)
        return np.hstack(
            [
                temporal,
                self.spatial.compute_batch(fleet, ts, windows),
                self.bitlevel.compute_batch(fleet, ts, windows),
                self.environment.compute_fleet(
                    server_codes[sample_seg], own_counts_5d, ts
                ),
                np.repeat(self.static.compute_rows(configs), counts, axis=0),
            ]
        )

    def build_samples(
        self,
        store: LogStore,
        platform: str = "",
        campaign_end_hour: float | None = None,
        engine: str | None = None,
        tracer=None,
        obs=None,
        heartbeat_every: int = 0,
    ) -> SampleSet:
        """Batch construction of the labeled sample set for one platform.

        ``engine`` picks the extraction strategy (see module docstring);
        the default (``None``) is the cross-DIMM fleet pass.  Both engines
        yield bit-for-bit identical sample sets.  ``tracer`` optionally
        records fit/extract spans (:mod:`repro.obs`); ``obs`` passes the
        whole bundle (its tracer wins unless ``tracer`` is set) and
        ``heartbeat_every`` publishes live ``build_samples`` heartbeats —
        once after the pass on the fleet engine, every N DIMMs (and after
        the last) otherwise.  Extraction itself is untouched either way.
        """
        if engine is None:
            engine = "fleet"
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; expected {ENGINES}")
        if tracer is None:
            tracer = obs.tracer if obs is not None else NULL_TRACER
        hb = int(heartbeat_every) if obs is not None else 0
        with tracer.span("build_samples", platform=platform, engine=engine):
            if not self._fitted:
                with tracer.span("build_samples.fit"):
                    self.fit(store)
            end_hour = (
                campaign_end_hour
                if campaign_end_hour is not None
                else store.end_hour
            )
            with tracer.span("build_samples.extract"):
                if engine == "fleet":
                    samples = self._build_fleet(store, platform, end_hour)
                    if hb:
                        obs.heartbeat("build_samples", {
                            "shards": 1,
                            "total": 1,
                            "fraction": 1.0,
                            "samples": len(samples),
                        })
                    return samples
                return self._build_per_sample(
                    store, platform, end_hour, obs=obs, heartbeat_every=hb,
                )

    # -- fleet engine -------------------------------------------------------

    def _build_fleet(
        self, store: LogStore, platform: str, end_hour: float
    ) -> SampleSet:
        """The whole fleet's samples in one cross-DIMM pass."""
        labeling = self.config.labeling
        sampling = self.config.sampling
        rng = np.random.default_rng(sampling.seed)
        fleet = store.fleet_arrays()
        ts_parts = [np.empty(0, dtype=float)]
        seg_parts = [np.empty(0, dtype=np.int64)]
        for i in range(fleet.n_dimms):
            candidates = choose_sample_times(
                fleet.times[fleet.ce_offsets[i] : fleet.ce_offsets[i + 1]],
                sampling.max_samples_per_dimm,
                sampling.min_history_ces,
                rng,
            )
            ts_parts.append(candidates)
            seg_parts.append(np.full(candidates.size, i, dtype=np.int64))
        ts = np.concatenate(ts_parts)
        seg = np.concatenate(seg_parts)
        mask = valid_sample_mask_fleet(
            ts, fleet.ue_hours[seg], end_hour, labeling
        )
        ts = ts[mask]
        seg = seg[mask]
        configs = [store.config_for(dimm_id) for dimm_id in fleet.dimm_ids]
        return SampleSet(
            X=self.transform_fleet(fleet, configs, ts, seg),
            y=labels_at_fleet(ts, fleet.ue_hours[seg], labeling),
            times=ts,
            dimm_ids=np.asarray(fleet.dimm_ids, dtype=object)[seg],
            feature_names=self.feature_names(),
            feature_groups=self.feature_groups(),
            platform=platform,
        )

    # -- per-sample reference engine -----------------------------------------

    def _build_per_sample(
        self,
        store: LogStore,
        platform: str,
        end_hour: float,
        obs=None,
        heartbeat_every: int = 0,
    ) -> SampleSet:
        labeling = self.config.labeling
        sampling = self.config.sampling
        rng = np.random.default_rng(sampling.seed)

        blocks: list[np.ndarray] = []
        label_parts: list[np.ndarray] = []
        time_parts: list[np.ndarray] = []
        dimm_parts: list[np.ndarray] = []

        hb = heartbeat_every if obs is not None else 0
        dimm_ids = store.dimm_ids_with_ces()
        n_samples = 0
        for done, dimm_id in enumerate(dimm_ids, start=1):
            ces = store.ces_for_dimm(dimm_id)
            events = store.events_for_dimm(dimm_id)
            history = DimmHistory.from_records(dimm_id, ces, events)
            config = store.config_for(dimm_id)
            ues = store.ues_for_dimm(dimm_id)
            ue_hour = ues[0].timestamp_hours if ues else None

            ts = np.asarray(
                choose_sample_times(
                    history.times,
                    sampling.max_samples_per_dimm,
                    sampling.min_history_ces,
                    rng,
                ),
                dtype=float,
            )
            ts = ts[valid_sample_mask(ts, ue_hour, end_hour, labeling)]
            if ts.size:
                blocks.append(np.vstack(
                    [self.transform_one(history, config, float(t)) for t in ts]
                ))
                label_parts.append(labels_at(ts, ue_hour, labeling))
                time_parts.append(ts)
                dimm_parts.append(np.full(ts.size, dimm_id, dtype=object))
                n_samples += ts.size
            # Published once this DIMM is done, so the last heartbeat
            # reports the whole build.
            if hb and (done % hb == 0 or done == len(dimm_ids)):
                obs.heartbeat("build_samples", {
                    "dimms": done,
                    "total": len(dimm_ids),
                    "fraction": done / len(dimm_ids),
                    "samples": n_samples,
                })

        names = self.feature_names()
        if blocks:
            X = np.vstack(blocks)
            y = np.concatenate(label_parts).astype(int)
            times = np.concatenate(time_parts)
            dimm_ids = np.concatenate(dimm_parts)
        else:
            X = np.empty((0, len(names)))
            y = np.empty(0, dtype=int)
            times = np.empty(0, dtype=float)
            dimm_ids = np.empty(0, dtype=object)
        return SampleSet(
            X=X,
            y=y,
            times=times,
            dimm_ids=dimm_ids,
            feature_names=names,
            feature_groups=self.feature_groups(),
            platform=platform,
        )
