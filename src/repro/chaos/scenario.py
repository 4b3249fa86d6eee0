"""The ``chaos_replay`` scenario: replay quality under telemetry faults.

For every (platform, model) pair the scenario

1. fits the serving pipeline and trains the model exactly like
   ``streaming_replay`` (the clean, fault-free reference point),
2. sweeps a fault-rate curve: at each rate the
   :class:`~repro.chaos.faults.TelemetryFaultInjector` perturbs the
   campaign's telemetry (drops, duplicates, bounded delays, field
   corruption, per-server collector outages) and the corrupted stream is
   replayed through a fresh :class:`~repro.streaming.replay.ReplayEngine`
   — corrupt records land on the bus dead-letter topic instead of
   crashing the walk (with obs on, every metric of the point, bus
   counters included, carries its ``fault_rate`` label), and
3. reports, per point, alarm-level precision/recall, the degradation
   health counters, the dead-letter count, and the settled
   :class:`~repro.fleetops.cost.CostModel` economics — the cost
   degradation curve vs the clean baseline.

Rate 0.0 skips injection entirely, so the curve's first point is
bit-identical to a plain ``streaming_replay`` run of the same spec (the
clean-run parity guarantee the CI chaos smoke job gates on).

Scenario parameters (``spec.params``): ``fault_rates`` (default
``(0.0, 0.02, 0.05)``), ``engine`` (``batched`` | ``per_event``),
``batch_size``, ``rescore_interval_hours``, ``max_delay_hours`` (delay
spec bound, default 6), ``outage_hours`` (outage window length, default
24), and ``chaos_seed`` (injector RNG seed, default the protocol seed).
"""

from __future__ import annotations

from repro.chaos.faults import (
    CorruptSpec,
    DelaySpec,
    DropSpec,
    DuplicateSpec,
    InjectionReport,
    OutageSpec,
    TelemetryFaultInjector,
)
from repro.chaos.quarantine import DEAD_LETTER_TOPIC
from repro.evaluation.experiment import MODEL_BUILDERS, ModelResult
from repro.experiments.registry import register_scenario
from repro.experiments.results import Cell
from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig
from repro.ml.virr import virr
from repro.obs.alerts import DEFAULT_REPLAY_RULES, AlertEngine
from repro.streaming.bus import EventBus
from repro.streaming.replay import REPLAY_ENGINES, ReplayEngine
from repro.streaming.scenario import (
    DEFAULT_RESCORE_INTERVAL_HOURS,
    serving_threshold,
)

#: Default fault-rate sweep (the CI smoke job runs exactly these).
DEFAULT_FAULT_RATES = (0.0, 0.02, 0.05)


def fault_specs(
    rate: float, max_delay_hours: float, outage_hours: float
) -> tuple:
    """The sweep's composed fault mix at one rate.

    Drops, delays and corruption run at ``rate``; duplicates at half of it
    (duplication is rarer than loss in real collectors); outages hit each
    server with probability ``rate`` for one ``outage_hours`` window.
    """
    return (
        DropSpec(rate=rate),
        DuplicateSpec(rate=rate / 2.0),
        DelaySpec(rate=rate, max_delay_hours=max_delay_hours),
        CorruptSpec(rate=rate),
        OutageSpec(rate=rate, duration_hours=outage_hours),
    )


@register_scenario("chaos_replay")
def chaos_replay(ctx):
    """Sweep fault rates; report alarm quality + cost degradation curves."""
    params = ctx.spec.params or {}
    fault_rates = tuple(
        float(rate) for rate in params.get("fault_rates", DEFAULT_FAULT_RATES)
    )
    if not fault_rates:
        raise ValueError("chaos_replay needs at least one fault rate")
    batch_size = int(params.get("batch_size", 256))
    rescore = float(
        params.get("rescore_interval_hours", DEFAULT_RESCORE_INTERVAL_HOURS)
    )
    max_delay_hours = float(params.get("max_delay_hours", 6.0))
    outage_hours = float(params.get("outage_hours", 24.0))
    chaos_seed = int(params.get("chaos_seed", ctx.protocol.seed))
    replay_engine = str(params.get("engine", "batched"))
    heartbeat_every = int(params.get("heartbeat_every", 0) or 0)
    if replay_engine not in REPLAY_ENGINES:
        raise ValueError(
            f"unknown replay engine {replay_engine!r}; "
            f"valid: {list(REPLAY_ENGINES)}"
        )
    if ctx.obs is not None and ctx.obs.alerts is None:
        # SLO rules ride the replay heartbeats; the engine's private bus
        # keeps obs.alert traffic out of the replay bus_counts, so the
        # clean-point parity guarantee is untouched.
        ctx.obs.alerts = AlertEngine(DEFAULT_REPLAY_RULES)

    cells: list[Cell] = []
    extras: dict = {"chaos_replay": {}}
    for platform in ctx.spec.platforms:
        simulation = ctx.simulation(platform)
        experiment = ctx.experiment(platform)
        hours = ctx.effective_hours(platform)
        split_hour = ctx.protocol.sampling.train_fraction * hours
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=ctx.protocol.labeling, sampling=ctx.protocol.sampling
            )
        )
        pipeline.fit(simulation.store)
        platform_extras = extras["chaos_replay"].setdefault(platform, {})
        for model_name in ctx.spec.models:
            builder = MODEL_BUILDERS[model_name]
            model = builder(experiment.samples.feature_names, ctx.protocol.seed)
            offline = experiment.run_model(model_name, model=model)
            if not offline.supported:
                cells.append(Cell(platform, platform, model_name, offline))
                continue
            threshold = serving_threshold(
                model, experiment.train, experiment.validation
            )
            curve: list[dict] = []
            for rate in fault_rates:
                if rate > 0.0:
                    injector = TelemetryFaultInjector(
                        fault_specs(rate, max_delay_hours, outage_hours),
                        seed=chaos_seed,
                    )
                    store, injection = injector.inject(simulation.store)
                else:
                    # The clean point replays the original store object, so
                    # it is bit-identical to streaming_replay by
                    # construction (quarantine passes it through untouched).
                    store, injection = simulation.store, InjectionReport(
                        seed=chaos_seed
                    )
                engine = ReplayEngine(
                    pipeline,
                    model,
                    threshold,
                    platform,
                    configs=store.configs,
                    labeling=ctx.protocol.labeling,
                    bus=EventBus(),
                    live_from_hour=split_hour,
                    rescore_interval_hours=rescore,
                    batch_size=batch_size,
                    engine=replay_engine,
                    obs=ctx.obs,
                    obs_labels={"fault_rate": f"{rate:g}"},
                    heartbeat_every=heartbeat_every,
                )
                report = engine.replay(store, model_name=model_name)
                health = dict(report.health)
                health["outage_seconds"] = injection.outage_seconds
                curve.append(
                    {
                        "fault_rate": rate,
                        "alarms": report.alarms,
                        "health": health,
                        "dead_letter": report.bus_counts.get(
                            DEAD_LETTER_TOPIC, 0
                        ),
                        "cost": engine.cost.to_dict(),
                        "injection": injection.to_dict(),
                        "report": report.to_dict(),
                    }
                )
            clean = min(curve, key=lambda point: point["fault_rate"])
            summary = clean["alarms"]
            precision, recall = summary["precision"], summary["recall"]
            clean_virr = (
                virr(precision, recall, ctx.protocol.y_c)
                if recall > 0 and precision > 0
                else 0.0
            )
            cells.append(
                Cell(
                    platform, platform, model_name,
                    ModelResult(
                        platform=platform,
                        model_name=model_name,
                        supported=True,
                        precision=precision,
                        recall=recall,
                        f1=summary["f1"],
                        virr=clean_virr,
                        threshold=float(threshold),
                        test_dimms=clean["report"]["scored_dimms"],
                        test_positive_dimms=summary["ue_dimms_predictable"],
                    ),
                )
            )
            platform_extras[model_name] = {
                "engine": replay_engine,
                "fault_rates": list(fault_rates),
                "curve": curve,
            }
    return cells, extras


def render_chaos_extras(extras: dict) -> str:
    """Human-readable fault-rate curves from the ``extras`` payload."""
    lines = ["CHAOS REPLAY"]
    for platform, models in extras.get("chaos_replay", {}).items():
        for model_name, payload in models.items():
            lines.append(
                f"  {platform}/{model_name} (engine={payload['engine']}):"
            )
            for point in payload["curve"]:
                alarms = point["alarms"]
                health = point["health"]
                cost = point["cost"]
                injection = point["injection"]
                lines.append(
                    f"    rate={point['fault_rate']:.3f}: "
                    f"P/R={alarms['precision']:.2f}/{alarms['recall']:.2f} "
                    f"dead_letter={point['dead_letter']} "
                    f"(dropped={injection['dropped']} "
                    f"corrupted={injection['corrupted']} "
                    f"outage_s={health['outage_seconds']:.0f}) "
                    f"cost={cost['total_cost']:.1f} "
                    f"savings={cost['savings_fraction']:.1%}"
                )
    return "\n".join(lines)
