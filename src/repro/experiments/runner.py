"""The run loop: ``RunSpec`` -> cached artifacts -> scenario -> ``RunResult``.

:class:`RunContext` is the only object scenarios see.  It resolves names
through the registries and hands out artifacts through the
:class:`~repro.experiments.cache.ArtifactCache`, memoising the derived
per-platform :class:`~repro.evaluation.experiment.PlatformExperiment`
objects for the duration of one run so that e.g. the transfer matrix
builds each platform's simulation and SampleSet exactly once for all of
its row *and* column cells.
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.cache import ArtifactCache, SampleSetKey, SimulationKey
from repro.experiments.registry import PLATFORMS, SCENARIOS
from repro.experiments.results import RunResult
from repro.experiments.spec import RunSpec
from repro.obs import Observability


def _ensure_builtins() -> None:
    """Import the modules whose decorators populate the registries."""
    import repro.chaos.scenario  # noqa: F401  (chaos_replay)
    import repro.distributed.scenario  # noqa: F401  (distributed_replay)
    import repro.evaluation.experiment  # noqa: F401  (models)
    import repro.experiments.scenarios  # noqa: F401  (scenarios)
    import repro.fleetops.scenario  # noqa: F401  (fleet_ops)
    import repro.simulator.platforms  # noqa: F401  (platforms)
    import repro.streaming.scenario  # noqa: F401  (streaming_replay)


class RunContext:
    """Artifact access for one scenario run."""

    def __init__(
        self,
        spec: RunSpec,
        protocol=None,
        cache: ArtifactCache | None = None,
        obs=None,
    ):
        _ensure_builtins()
        spec.validate()
        self.spec = spec
        self.protocol = protocol if protocol is not None else spec.protocol()
        root = Path(spec.cache_dir) if spec.cache_dir else None
        self.cache = cache if cache is not None else ArtifactCache(root)
        self._experiments: dict[str, object] = {}
        #: One :class:`~repro.obs.Observability` bundle per run when the
        #: ``observability`` param is set; scenarios thread it into the
        #: engines and ``run_spec`` attaches its snapshot to
        #: ``extras["observability"]``.  ``None`` keeps every hot path on
        #: the zero-cost no-op default.  A caller-supplied ``obs`` (the
        #: CLI's ``--serve-metrics`` path, which scrapes it live) takes
        #: precedence over the param-driven private bundle.
        params = spec.params or {}
        if obs is not None:
            self.obs = obs
        else:
            self.obs = Observability() if params.get("observability") else None
        if self.obs is not None:
            self.cache.attach_obs(self.obs)

    # -- artifact accessors ------------------------------------------------

    def simulation_key(self, platform: str) -> SimulationKey:
        # Per-platform scale/hours overrides flow into the content key, so
        # heterogeneous fleets cache their campaigns independently.
        return SimulationKey(
            platform=platform,
            scale=self.spec.effective_scale(platform),
            seed=self.spec.seed,
            hours=self.spec.effective_hours(platform),
        )

    def effective_hours(self, platform: str) -> float:
        """The platform's campaign length (override-aware)."""
        return self.spec.effective_hours(platform)

    def samples_key(self, platform: str) -> SampleSetKey:
        return SampleSetKey(
            simulation=self.simulation_key(platform),
            protocol_fingerprint=self.protocol.features_fingerprint(),
        )

    def simulation(self, platform: str):
        """The platform's campaign, built at most once per content key."""
        return self.cache.simulation(
            self.simulation_key(platform), lambda: self._simulate(platform)
        )

    def samples(self, platform: str):
        """The platform's labeled SampleSet, built at most once per key."""
        return self.cache.samples(
            self.samples_key(platform), lambda: self._extract(platform)
        )

    def experiment(self, platform: str):
        """The platform's split experiment (memoised per run)."""
        cached = self._experiments.get(platform)
        if cached is None:
            from repro.evaluation.experiment import PlatformExperiment

            cached = PlatformExperiment.from_samples(
                self.samples(platform),
                self.protocol,
                self.spec.effective_hours(platform),
            )
            self._experiments[platform] = cached
        return cached

    # -- builders ----------------------------------------------------------

    def _simulate(self, platform: str):
        from repro.simulator.fleet import FleetConfig, simulate_fleet

        factory = PLATFORMS.resolve(platform)
        return simulate_fleet(
            FleetConfig(
                platform=factory(self.spec.effective_scale(platform)),
                duration_hours=self.spec.effective_hours(platform),
                seed=self.spec.seed,
            )
        )

    def _extract(self, platform: str):
        from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig

        simulation = self.simulation(platform)
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=self.protocol.labeling, sampling=self.protocol.sampling
            )
        )
        params = self.spec.params or {}
        return pipeline.build_samples(
            simulation.store,
            platform=platform,
            campaign_end_hour=simulation.duration_hours,
            engine=self.spec.engine,
            tracer=self.obs.tracer if self.obs is not None else None,
            obs=self.obs,
            heartbeat_every=int(params.get("heartbeat_every", 0) or 0),
        )


def run_spec(
    spec: RunSpec,
    protocol=None,
    cache: ArtifactCache | None = None,
    obs=None,
) -> RunResult:
    """Run one declarative spec end to end.

    ``protocol`` overrides the spec-derived
    :class:`~repro.evaluation.protocol.ExperimentProtocol` (used by the
    legacy ``run_table2`` shim, which carries a full protocol object);
    ``cache`` shares one :class:`ArtifactCache` across several runs in the
    same process; ``obs`` injects a caller-owned observability bundle
    (the CLI passes the one its telemetry server is already scraping).
    """
    context = RunContext(spec, protocol=protocol, cache=cache, obs=obs)
    scenario = SCENARIOS.resolve(spec.scenario)
    outcome = scenario(context)
    # Scenarios usually return the cell grid; ones with payloads beyond the
    # grid (e.g. streaming_replay's throughput reports) return
    # ``(cells, extras)``.  The extras dict is the discriminator, so a
    # scenario returning its cells as a plain tuple still parses as a grid.
    if (
        isinstance(outcome, tuple)
        and len(outcome) == 2
        and isinstance(outcome[1], dict)
    ):
        cells, extras = outcome
    else:
        cells, extras = outcome, {}
    if context.obs is not None:
        extras = dict(extras)
        extras.setdefault("observability", context.obs.payload())
    return RunResult(
        scenario=spec.scenario,
        spec=spec.to_dict(),
        cells=list(cells),
        cache_stats=context.cache.stats(),
        extras=extras,
    )
