"""The ``streaming_replay`` scenario: online serving vs the offline path.

For every (platform, model) pair the scenario

1. serves the platform's cached simulation and SampleSet through the
   artifact cache (so re-runs re-simulate nothing),
2. trains the model on the training split and derives a sample-level
   serving threshold (validation F1 point capped by a ~3x alarm budget,
   exactly the lifecycle's tuning),
3. replays the whole campaign through the
   :class:`~repro.streaming.replay.ReplayEngine` (a one-platform fleet
   replay) — incremental windowed features, micro-batched scoring, alarm
   incidents — with the model going live at the train/test split hour, and
4. reports alarm-level precision/recall next to the offline Table II cell
   (computed from the *same* fitted model, so the only difference is
   serving semantics).

Scenario parameters (``spec.params``): ``batch_size`` (default 256),
``rescore_interval_hours`` (default 5 minutes, the production cadence),
``verify_parity`` (cross-check every served vector against
``transform_one``; the CI smoke job turns this on), ``engine``
(``"batched"`` — the column-wise replay kernels — or ``"per_event"``,
the pure-Python reference loop), and ``replay_workers`` (> 1 replays
through the distributed coordinator's DIMM-sharded worker processes).
"""

from __future__ import annotations

import numpy as np

from repro.evaluation.experiment import MODEL_BUILDERS, ModelResult
from repro.experiments.registry import register_scenario
from repro.experiments.results import Cell
from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig
from repro.ml.threshold import select_threshold
from repro.ml.virr import virr
from repro.mlops.serving import RESCORE_INTERVAL_HOURS
from repro.streaming.bus import EventBus
from repro.streaming.replay import (
    REPLAY_ENGINES,
    ReplayEngine,
    StreamingReport,
)

#: Default production rescoring cadence (the serving layer's, verbatim).
DEFAULT_RESCORE_INTERVAL_HOURS = RESCORE_INTERVAL_HOURS


def serving_threshold(model, train, validation) -> float:
    """Sample-level threshold: validation F1 point, alarm-budget capped.

    Mirrors the lifecycle's tuning: the streaming service alarms the moment
    one scoring crosses the threshold, so calibration happens on
    single-sample scores, with a ~3x-positive-rate alarm budget keeping the
    operating point sensitive under score drift.  Shared production logic:
    the ``fleet_ops`` scenario calibrates every routed model through it.
    """
    if getattr(model, "fixed_operating_point", False):
        return 0.5
    tune = validation if len(validation) and validation.y.sum() else train
    scores = model.predict_proba(tune.X)
    if tune.y.sum() == 0:
        return 0.5
    point = select_threshold(tune.y, scores, objective="f1")
    positive_rate = float(tune.y.mean())
    budget_cut = float(
        np.quantile(scores, 1.0 - min(0.5, 3.0 * positive_rate))
    )
    return min(point.threshold, budget_cut)


@register_scenario("streaming_replay")
def streaming_replay(ctx):
    """Replay each platform's stream through the streaming subsystem."""
    params = ctx.spec.params or {}
    batch_size = int(params.get("batch_size", 256))
    rescore = float(
        params.get("rescore_interval_hours", DEFAULT_RESCORE_INTERVAL_HOURS)
    )
    verify = bool(params.get("verify_parity", False))
    replay_engine = str(params.get("engine", "batched"))
    replay_workers = int(params.get("replay_workers", 0))
    heartbeat_every = int(params.get("heartbeat_every", 0) or 0)
    if replay_engine not in REPLAY_ENGINES:
        raise ValueError(
            f"unknown replay engine {replay_engine!r}; "
            f"valid: {list(REPLAY_ENGINES)}"
        )
    if verify and replay_workers > 1:
        raise ValueError(
            "verify_parity needs the in-process engine; drop replay_workers"
        )

    cells: list[Cell] = []
    extras: dict = {"streaming_replay": {}}
    for platform in ctx.spec.platforms:
        simulation = ctx.simulation(platform)
        experiment = ctx.experiment(platform)
        hours = ctx.effective_hours(platform)
        split_hour = ctx.protocol.sampling.train_fraction * hours
        # The serving pipeline is fitted exactly as the offline extraction
        # was (full campaign store), so streamed vectors live in the same
        # feature space as the cached SampleSet.
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=ctx.protocol.labeling, sampling=ctx.protocol.sampling
            )
        )
        pipeline.fit(simulation.store)
        platform_extras = extras["streaming_replay"].setdefault(platform, {})
        for model_name in ctx.spec.models:
            builder = MODEL_BUILDERS[model_name]
            model = builder(experiment.samples.feature_names, ctx.protocol.seed)
            # Offline reference: the canonical Table II evaluation.  It fits
            # ``model`` on the platform's training split (fits are
            # deterministic, so this is the exact single_platform cell) and
            # the same fitted model then serves the streaming replay.
            offline = experiment.run_model(model_name, model=model)
            if not offline.supported:
                cells.append(Cell(platform, platform, model_name, offline))
                continue
            threshold = serving_threshold(
                model, experiment.train, experiment.validation
            )
            if replay_workers > 1:
                report = _replay_distributed(
                    ctx, platform, model_name, model, threshold, pipeline,
                    simulation, split_hour, rescore, batch_size,
                    replay_engine, replay_workers, heartbeat_every,
                )
            else:
                engine = ReplayEngine(
                    pipeline,
                    model,
                    threshold,
                    platform,
                    configs=simulation.store.configs,
                    labeling=ctx.protocol.labeling,
                    bus=EventBus(),
                    live_from_hour=split_hour,
                    rescore_interval_hours=rescore,
                    batch_size=batch_size,
                    engine=replay_engine,
                    verify_parity=verify,
                    obs=ctx.obs,
                    heartbeat_every=heartbeat_every,
                )
                report = engine.replay(
                    simulation.store, model_name=model_name
                )
            summary = report.alarms
            precision, recall = summary["precision"], summary["recall"]
            streaming_virr = (
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
                        virr=streaming_virr,
                        threshold=float(threshold),
                        test_dimms=report.scored_dimms,
                        test_positive_dimms=summary["ue_dimms_predictable"],
                    ),
                )
            )
            platform_extras[model_name] = {
                "streaming": report.to_dict(),
                "offline": {
                    "precision": float(offline.precision),
                    "recall": float(offline.recall),
                    "f1": float(offline.f1),
                    "virr": float(offline.virr),
                    "test_dimms": offline.test_dimms,
                    "test_positive_dimms": offline.test_positive_dimms,
                },
            }
    return cells, extras


def _replay_distributed(
    ctx, platform, model_name, model, threshold, pipeline, simulation,
    split_hour, rescore, batch_size, replay_engine, replay_workers,
    heartbeat_every=0,
):
    """One platform's replay via the sharded coordinator.

    Returns the same :class:`StreamingReport` as the in-process engine,
    plus the coordinator's ``distributed`` stats.  The coordinator's
    coherent-flush contract makes the result identical for any worker
    count.
    """
    from repro.distributed.coordinator import ReplayCoordinator
    from repro.fleetops.engine import ServingAssignment

    assignment = ServingAssignment(
        platform=platform,
        model_name=model_name,
        train_platform=platform,
        model=model,
        threshold=float(threshold),
        pipeline=pipeline,
        configs=simulation.store.configs,
        live_from_hour=split_hour,
    )
    coordinator = ReplayCoordinator(
        {platform: assignment},
        ctx.protocol.labeling,
        policy=None,
        bus=EventBus(),
        workers=replay_workers,
        rescore_interval_hours=rescore,
        batch_size=batch_size,
        engine=replay_engine,
        obs=ctx.obs,
        heartbeat_every=heartbeat_every,
    )
    fleet_report = coordinator.replay({platform: simulation.store})
    return StreamingReport.from_fleet(fleet_report, platform)


def render_streaming_extras(extras: dict) -> str:
    """Human-readable summary of the scenario's ``extras`` payload."""
    lines = ["STREAMING REPLAY"]
    for platform, models in extras.get("streaming_replay", {}).items():
        for model_name, payload in models.items():
            s = payload["streaming"]
            o = payload["offline"]
            a = s["alarms"]
            lines.append(
                f"  {platform}/{model_name}: {s['events']} events in "
                f"{s['seconds']:.2f}s ({s['events_per_second']:.0f} ev/s, "
                f"engine={s.get('engine', 'per_event')}), "
                f"scored={s['scored']} on {s['scored_dimms']} DIMMs "
                f"(batches={s['batches']}, fallbacks={s['fallbacks']})"
            )
            stages = s.get("stage_seconds")
            if stages:
                lines.append(
                    "    stages: "
                    + " ".join(
                        f"{stage}={seconds:.3f}s"
                        for stage, seconds in stages.items()
                    )
                )
            lines.append(
                f"    alarms: raised={a['raised']} suppressed={a['suppressed']} "
                f"tp={a['tp']} late={a['late']} fp={a['fp']} "
                f"censored={a['censored']}"
            )
            lines.append(
                f"    alarm-level P/R/F1 = {a['precision']:.2f}/"
                f"{a['recall']:.2f}/{a['f1']:.2f}  (offline Table II: "
                f"{o['precision']:.2f}/{o['recall']:.2f}/{o['f1']:.2f})"
            )
            if "parity" in s:
                lines.append(
                    f"    parity: {s['parity']['checked']} vectors checked, "
                    f"{s['parity']['mismatches']} mismatches"
                )
    return "\n".join(lines)
