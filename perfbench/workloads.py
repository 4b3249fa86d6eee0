"""The benchmark's workloads: set-up, timed phase, correctness check, metrics.

Run one measurement in this process and print its result as one JSON line::

    python3 perfbench/workloads.py --workload fleet_replay --seed 3 \
        --seconds 6 --trace 0

``perfbench/run.py`` is the entry point; it generates the inputs first
(``gen_inputs.py``) and runs this module in a fresh process, so that
``peak_rss_mb`` and ``cpu_s`` cover the measured workload only.

Every workload repeats its timed operation until ``--seconds`` have passed
and reports medians.  ``--trace 1`` alternates plain and traced repeats:
the traced ones wrap public objects in timing proxies (``layers.py``) and
pass ``obs=Observability()``; per-layer figures come from those, and
``obs.trace_overhead_fraction`` compares the two kinds of repeat.  A traced
``fleet_replay`` run also makes one study pass (:func:`study_pass`).
Reported times are rescaled to a reference host speed (``hostspeed.py``).
"""

from __future__ import annotations

import argparse
import asyncio
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time

import gen_inputs
import hostspeed
import layers
from gen_inputs import HOURS, PLATFORMS, SERVE_PLATFORM, WORKLOADS, digest

from repro.distributed.coordinator import ReplayCoordinator, apply_policy
from repro.distributed.service import AsyncScoringService
from repro.experiments.cache import ArtifactCache, CachedSimulation
from repro.experiments.registry import PLATFORMS as PLATFORM_SPECS
from repro.experiments.registry import register_model
from repro.experiments.runner import RunContext, run_spec
from repro.experiments.spec import RunSpec
from repro.features.pipeline import FeaturePipeline, FeaturePipelineConfig
from repro.fleetops.cost import CostModel, combine_summaries
from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
from repro.fleetops.policy import (
    ActionBudget,
    MitigationPolicyConfig,
    PolicyEngine,
)
from repro.fleetops.stream import merge_fleet_streams
from repro.ml.gbdt import GbdtClassifier, GbdtParams
from repro.ml.model_io import load_gbdt
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.obs import Observability
from repro.obs.metrics import percentile
from repro.simulator.fleet import FleetConfig, simulate_fleet
from repro.streaming.bus import EventBus
from repro.streaming.scenario import DEFAULT_RESCORE_INTERVAL_HOURS
from repro.telemetry.log_store import LogStore, iter_stream
from repro.telemetry.records import CERecord

RESCORE_HOURS = DEFAULT_RESCORE_INTERVAL_HOURS
BATCH_SIZE = 256
#: Coordinator worker processes (= nproc of the reference 2-core machine).
WORKERS = 2
#: ``serve``: open-loop offered rate (records/s).  Measured on a 2-core
#: machine, the open loop's p99 stays at 30-42 ms up to 250 records/s,
#: reaches 68-101 ms at 300 and 370-530 ms at 400 records/s; 250 is the
#: highest rate tried below that knee, so no request is shed.
SERVE_RATE = 250.0
#: ``AsyncScoringService``'s default batch limit.
SERVE_MAX_BATCH = 64
#: The batcher's wait for a batch to fill: the service's default in the
#: open loop; longer in the closed loop, where 64 requests are queued at
#: once.  Gathering them took about 2 ms itself on a 2-core VM, so with the
#: default wait the host's speed decided where batches were cut: a host
#: 1.7x slower made the loop up to 2.9x slower, through more, smaller
#: predict calls.  At 20 ms every closed-loop batch but the last is full.
SERVE_OPEN_WAIT_MS = 2.0
SERVE_CLOSED_WAIT_MS = 20.0
#: Closed-loop in-flight submissions: one full batch.  With fewer in flight
#: every batch waits out the batcher's 2 ms timer, and on a shared host
#: those sleeps woke late: at 32 in flight, wall time exceeded CPU time by
#: 0.2 to 1.7 s in a 2.5 s loop.  At 64 the gap is 0.01 to 0.05 s.
SERVE_INFLIGHT = SERVE_MAX_BATCH
#: Open-loop passes in a traced ``serve`` run; their latencies are pooled.
SERVE_OPEN_PASSES = 3
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5
#: The study pass: the registered model name and its fixed number of trees.
STUDY_MODEL = "lightgbm_fixed"
STUDY_TREES = 100
#: ``sharded_replay`` replays the k920 part of the fleet only: its
#: coherent-flush workers make one predict call per few rows, so the whole
#: fleet would take ~8 s per repeat on 2 cores.
SHARDED_PLATFORMS = ("k920",)


@dataclasses.dataclass
class Inputs:
    seed: int
    stores: dict
    assignments: dict
    labeling: object
    load_s: float = 0.0  # LogStore.load_jsonl, summed over platforms
    fit_s: float = 0.0  # FeaturePipeline.fit, summed over platforms


def load_inputs(seed: int) -> Inputs:
    """Load the seed's fleet and the models; fit the feature pipelines.

    Every workload sets up the whole fleet, even those that serve a part
    of it: a set-up of one small
    campaign (~0.1 s) varied by 40% between runs, too much for ``setup_s``
    to be compared.
    """
    campaign = gen_inputs.seed_dir(seed)
    models = gen_inputs.models_dir()
    meta = json.loads((campaign / "meta.json").read_text("utf-8"))
    thresholds = json.loads((models / "meta.json").read_text("utf-8"))[
        "thresholds"
    ]
    protocol = gen_inputs.spec(seed, gen_inputs.POPULATION_SCALE).protocol()
    inputs = Inputs(seed, {}, {}, protocol.labeling)
    for platform in PLATFORMS:
        t0 = time.perf_counter()
        store = LogStore.load_jsonl(campaign / f"campaign-{platform}.jsonl")
        t1 = time.perf_counter()
        pipeline = FeaturePipeline(
            FeaturePipelineConfig(
                labeling=protocol.labeling, sampling=protocol.sampling
            )
        )
        pipeline.fit(store)
        inputs.load_s += t1 - t0
        inputs.fit_s += time.perf_counter() - t1
        inputs.stores[platform] = store
        inputs.assignments[platform] = ServingAssignment(
            platform=platform,
            model_name="lightgbm",
            train_platform=platform,
            model=load_gbdt(models / f"model-{platform}.json"),
            threshold=thresholds[platform],
            pipeline=pipeline,
            configs=store.configs,
            live_from_hour=meta["live_from_hour"],
        )
    return inputs


def warm_up(inputs: Inputs) -> None:
    """One tiny predict per model so lazy set-up is paid before timing."""
    for assignment in inputs.assignments.values():
        width = len(assignment.pipeline.feature_names())
        assignment.model.predict_proba([[0.0] * width])


def make_policy(seed: int) -> PolicyEngine:
    """The ``fleet_ops`` scenario's default mitigation policy."""
    return PolicyEngine(
        policy=MitigationPolicyConfig.from_params(None),
        budget=ActionBudget.from_params(None),
        seed=seed,
    )


#: Set while the study pass runs, so the models it fits are timed.
_fit_clock = None


@register_model(STUDY_MODEL)
def _study_gbdt(feature_names, seed):
    """``lightgbm``'s recipe with early stopping off: a fixed number of
    trees, so the fit's work does not jump with the seed's sample."""
    model = GbdtClassifier(
        GbdtParams(
            n_estimators=STUDY_TREES, early_stopping_rounds=None, seed=seed
        )
    )
    return model if _fit_clock is None else _fit_clock.model(model)


# -- digests -----------------------------------------------------------------


def fleet_digests(engine, report) -> dict:
    return {
        "score_logs": digest(engine.score_logs),
        "costs": digest(
            {
                "costs": report.costs,
                "fleet_cost": report.fleet_cost,
                "actions": report.actions,
            }
        ),
    }


def sharded_digests(score_logs: dict, costs: dict, fleet_cost: dict) -> dict:
    canonical = {
        platform: sorted(log, key=lambda row: (row[1], row[0]))
        for platform, log in score_logs.items()
    }
    return {
        "score_logs": digest(canonical),
        "costs": digest({"costs": costs, "fleet_cost": fleet_cost}),
    }


def alarm_digests(alarms: list) -> dict:
    """Digests of the alarmed DIMM set and of the exact alarm keys.

    With requests in flight, the rescore throttle only sees a DIMM's
    earlier request once it completes, so a DIMM can alarm on an earlier
    CE than the serial path does.  The check is therefore on the set of
    alarmed DIMMs; exact ``(dimm, hour, score)`` agreement is reported.
    """
    return {
        "dimms": digest(sorted({a.dimm_id for a in alarms})),
        "alarms": digest(
            sorted((a.dimm_id, a.timestamp_hours, a.score) for a in alarms)
        ),
    }


def study_digests(result) -> dict:
    return {"cells": digest([cell.to_dict() for cell in result.cells])}


def fleet_quality(report) -> dict:
    """Fleet alarm-level F1 (incidents pooled over platforms) and VIRR."""
    tp = late = fp = caught = predictable = 0
    for platform in report.platforms.values():
        alarms = platform["alarms"]
        tp += alarms["tp"]
        late += alarms["late"]
        fp += alarms["fp"]
        caught += alarms["ue_dimms_caught"]
        predictable += alarms["ue_dimms_predictable"]
    precision = tp / (tp + late + fp) if tp + late + fp else 0.0
    recall = caught / predictable if predictable else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return {"f1": f1, "virr": float(report.fleet_cost.get("virr", 0.0))}


# -- timed operations --------------------------------------------------------
#
# Each returns ``(events, checks_ok, layer_values)``; the caller times it.
# ``layer_values`` may carry ``timed_from``/``timed_s``/``timed_cpu_s`` when
# only part of the operation is the timed phase.


def study_campaign(seed: int, platform: str):
    """Simulate the platform's study population and keep the seed's servers.

    Returns ``(campaign, simulate_seconds)``.
    """
    t0 = time.perf_counter()
    simulation = simulate_fleet(
        FleetConfig(
            platform=PLATFORM_SPECS.resolve(platform)(gen_inputs.STUDY_SCALE),
            duration_hours=HOURS,
            seed=gen_inputs.POPULATION_SEED,
        )
    )
    simulate_s = time.perf_counter() - t0
    store = simulation.store
    records = (*store.configs.values(), *store.ces, *store.ues, *store.events)
    keep = gen_inputs.sample_servers(
        seed, platform, [record.server_id for record in records]
    )
    sample = LogStore()
    sample.ingest_bulk(
        record for record in records if record.server_id in keep
    )
    campaign = CachedSimulation(
        platform=simulation.platform, store=sample, duration_hours=HOURS
    )
    return campaign, simulate_s


def run_study(seed: int, engine: str = "fleet", obs=None):
    """simulate -> build_samples -> fit -> 3x3 scoring of the transfer matrix.

    Returns ``(result, context, simulate_seconds, run_spec_seconds)``.
    """
    spec = RunSpec(
        scenario="transfer_matrix",
        platforms=PLATFORMS,
        models=(STUDY_MODEL,),
        scale=gen_inputs.STUDY_SCALE,
        hours=HOURS,
        seed=seed,
        engine=engine,
    )
    context = RunContext(spec, cache=ArtifactCache())
    simulate_s = 0.0
    for platform in PLATFORMS:
        campaign, seconds = study_campaign(seed, platform)
        context.cache.put_simulation(context.simulation_key(platform), campaign)
        simulate_s += seconds
    t0 = time.perf_counter()
    result = run_spec(spec, cache=context.cache, obs=obs)
    return result, context, simulate_s, time.perf_counter() - t0


def study_op(inputs: Inputs, reference: dict, clock=None):
    """The transfer matrix on the seed's sample of the study population.

    Not a workload: ten-seed sets of it spread by 24-29% of their median
    (IQR) in two of three tries, against 11-19% for the replays on the same
    machine, beyond the benchmark's bounds.  :func:`study_pass` runs it
    once per traced ``fleet_replay`` run instead.
    """
    global _fit_clock
    obs = Observability() if clock is not None else None
    _fit_clock = clock
    try:
        result, context, simulate_s, run_s = run_study(inputs.seed, obs=obs)
    finally:
        _fit_clock = None
    ok = study_digests(result) == reference
    events = sum(
        len(context.simulation(platform).store) for platform in PLATFORMS
    )
    values = {}
    if clock is not None:
        samples = sum(len(context.samples(p)) for p in PLATFORMS)
        values = layers.study_layers(
            run_s, simulate_s, obs, samples, result.cells, clock
        )
    return events, ok, values


def fleet_engine(inputs: Inputs, assignments=None, **options):
    """A ``FleetReplayEngine`` with the ``fleet_ops`` scenario's settings
    (and its score logs kept), ``options`` overriding them."""
    settings = dict(
        labeling=inputs.labeling,
        policy=make_policy(inputs.seed),
        cost_model=CostModel(),
        bus=EventBus(),
        rescore_interval_hours=RESCORE_HOURS,
        batch_size=BATCH_SIZE,
        engine="batched",
        collect_scores=True,
    )
    settings.update(options)
    return FleetReplayEngine(assignments or inputs.assignments, **settings)


def fleet_replay_op(inputs: Inputs, reference: dict, clock=None):
    """One in-process batched pass over the merged fleet, policy and cost."""
    obs = Observability() if clock is not None else None
    assignments = inputs.assignments
    if clock is not None:
        assignments = {
            p: dataclasses.replace(a, model=clock.model(a.model))
            for p, a in assignments.items()
        }
    with layers.proxied_extractors(inputs, clock):
        t0 = time.perf_counter()
        stream = merge_fleet_streams(inputs.stores, decode_payloads=False)
        merge_s = time.perf_counter() - t0
        engine = fleet_engine(inputs, assignments=assignments, obs=obs)
        report = engine.replay(stream, inputs.stores)
    ok = fleet_digests(engine, report) == reference
    values = {}
    if clock is not None:
        values = layers.fleet_layers(report, obs, merge_s)
        values.update(fleet_quality(report))
    return report.events, ok, values


def sharded_part(inputs: Inputs) -> Inputs:
    """The ``SHARDED_PLATFORMS`` part of the loaded fleet."""
    return dataclasses.replace(
        inputs,
        stores={p: inputs.stores[p] for p in SHARDED_PLATFORMS},
        assignments={p: inputs.assignments[p] for p in SHARDED_PLATFORMS},
    )


def sharded_replay_op(inputs: Inputs, reference: dict, clock=None):
    """A coordinator replay with ``WORKERS`` processes over DIMM shards."""
    inputs = sharded_part(inputs)
    obs = Observability() if clock is not None else None
    shard_dir = gen_inputs.BUILD / "tmp" / "shards"
    shutil.rmtree(shard_dir, ignore_errors=True)
    coordinator = ReplayCoordinator(
        inputs.assignments,
        inputs.labeling,
        policy=make_policy(inputs.seed),
        cost_model=CostModel(),
        bus=EventBus(),
        workers=WORKERS,
        rescore_interval_hours=RESCORE_HOURS,
        batch_size=BATCH_SIZE,
        engine="batched",
        shard_dir=shard_dir,
        obs=obs,
    )
    report = coordinator.replay(inputs.stores)
    ok = (
        sharded_digests(
            coordinator.score_logs, report.costs, report.fleet_cost
        )
        == reference
    )
    values = {}
    if clock is not None:
        values = layers.sharded_layers(report, obs, shard_dir)
        values.update(fleet_quality(report))
    shutil.rmtree(shard_dir, ignore_errors=True)
    return report.events, ok, values


def online_service(inputs: Inputs, model=None) -> OnlinePredictionService:
    assignment = inputs.assignments[SERVE_PLATFORM]
    registry = ModelRegistry()
    version = registry.register(
        SERVE_PLATFORM,
        assignment.model_name,
        model if model is not None else assignment.model,
        float(assignment.threshold),
        {},
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    service = OnlinePredictionService(
        FeatureStore(assignment.pipeline),
        registry,
        AlarmSystem(),
        SERVE_PLATFORM,
    )
    for dimm_id, config in inputs.stores[SERVE_PLATFORM].configs.items():
        service.register_config(dimm_id, config)
    return service


def serve_records(inputs: Inputs) -> list:
    """The head of the purley stream: ``SERVE_RECORDS`` records."""
    stream = iter_stream(inputs.stores[SERVE_PLATFORM])
    count = gen_inputs.SERVE_RECORDS
    return [record for _, record in zip(range(count), stream)]


def scoring_service(inputs: Inputs, max_wait_ms: float,
                    clock=None) -> AsyncScoringService:
    model = inputs.assignments[SERVE_PLATFORM].model
    service = online_service(
        inputs, model=clock.model(model) if clock is not None else None
    )
    front = clock.service(service) if clock is not None else service
    return AsyncScoringService(
        front,
        max_batch=SERVE_MAX_BATCH,
        max_wait_ms=max_wait_ms,
        max_queue=256,
    )


def _failures(service: AsyncScoringService) -> int:
    stats = service.stats.summary()
    return stats["shed"] + stats["fallbacks"] + stats["lost"]


async def _closed_loop(service, records, alarms):
    """``SERVE_INFLIGHT`` coroutines submit ``records`` in stream order.

    Returns the loop's ``(start, wall_seconds, cpu_seconds)``, ``start``
    on the ``perf_counter`` clock.
    """
    pending = iter(records)

    async def client():
        for record in pending:
            alarm = await service.submit(record)
            if alarm is not None:
                alarms.append(alarm)

    await service.start()
    cpu0 = _cpu_seconds()
    start = time.perf_counter()
    await asyncio.gather(*(client() for _ in range(SERVE_INFLIGHT)))
    seconds = time.perf_counter() - start
    cpu = _cpu_seconds() - cpu0
    await service.stop()
    return start, seconds, cpu


async def _open_loop(service, records, alarms, latencies, lags):
    """``records`` offered at ``SERVE_RATE``; each CE is timed from when
    it was due, and ``lags`` says how late the generator ran."""

    async def timed(record, due):
        alarm = await service.submit(record)
        if isinstance(record, CERecord):
            latencies.append(time.perf_counter() - due)
        if alarm is not None:
            alarms.append(alarm)

    await service.start()
    start = time.perf_counter()
    tasks = []
    for index, record in enumerate(records):
        due = start + index / SERVE_RATE
        await asyncio.sleep(max(due - time.perf_counter(), 0.0))
        lags.append(max(time.perf_counter() - due, 0.0))
        tasks.append(asyncio.ensure_future(timed(record, due)))
    await asyncio.gather(*tasks)
    await service.stop()


def serve_op(inputs: Inputs, reference: dict, clock=None):
    """The served records through ``AsyncScoringService`` in a closed loop;
    the loop itself is the timed phase."""
    service = scoring_service(inputs, SERVE_CLOSED_WAIT_MS, clock)
    records = serve_records(inputs)
    alarms = []
    with layers.proxied_extractors(inputs, clock):
        start, seconds, cpu = asyncio.run(
            _closed_loop(service, records, alarms)
        )
    failures = _failures(service)
    digests = alarm_digests(alarms)
    values = {
        "serve.failures": failures,
        "serve.submitted": service.stats.submitted,
        "serve.exact_alarms": digests["alarms"] == reference["alarms"],
        "timed_from": start,
        "timed_s": seconds,
        "timed_cpu_s": cpu,
    }
    if clock is not None:
        values.update(layers.serve_layers(service.stats.summary()))
    ok = digests["dimms"] == reference["dimms"] and failures == 0
    return len(records), ok, values


def open_loop_pass(inputs: Inputs, reference: dict) -> dict:
    """The first ``SERVE_OPEN_RECORDS`` served records at ``SERVE_RATE``
    through a fresh service, checked like a repeat (:func:`_attempts`)."""
    service = scoring_service(inputs, SERVE_OPEN_WAIT_MS)
    records = serve_records(inputs)[: gen_inputs.SERVE_OPEN_RECORDS]
    alarms, latencies, lags = [], [], []
    asyncio.run(_open_loop(service, records, alarms, latencies, lags))
    failures = _failures(service)
    ok = (
        alarm_digests(alarms)["dimms"] == reference["open_dimms"]
        and failures == 0
    )
    return {
        "ok": ok,
        "values": {
            "serve.failures": failures,
            "serve.submitted": service.stats.submitted,
            "serve.open_ms": [seconds * 1e3 for seconds in latencies],
            "serve.lag_ms": [seconds * 1e3 for seconds in lags],
        },
    }


OPERATIONS = {
    "fleet_replay": fleet_replay_op,
    "sharded_replay": sharded_replay_op,
    "serve": serve_op,
}


# -- reference paths, run once per seed by gen_inputs.py ---------------------


def study_reference(inputs: Inputs) -> dict:
    """The same transfer matrix with samples built by the ``per_sample``
    reference extraction engine."""
    result, *_ = run_study(inputs.seed, engine="per_sample")
    return study_digests(result)


def fleet_replay_reference(inputs: Inputs) -> dict:
    """The ``per_event`` reference engine's score logs and cost digest."""
    stream = merge_fleet_streams(inputs.stores, decode_payloads=True)
    engine = fleet_engine(inputs, engine="per_event")
    return fleet_digests(engine, engine.replay(stream, inputs.stores))


def sharded_replay_reference(inputs: Inputs) -> dict:
    """The coherent-flush single-process baseline the coordinator matches:
    one pass without policy, then mitigation in canonical incident order."""
    inputs = sharded_part(inputs)
    engine = fleet_engine(inputs, policy=None, coherent_flush=True)
    stream = merge_fleet_streams(inputs.stores, decode_payloads=False)
    engine.replay(stream, inputs.stores)
    policy = make_policy(inputs.seed)
    alarms = {name: rt.alarms for name, rt in engine.runtimes.items()}
    apply_policy(policy, alarms, stream.end_hours)
    costs, summaries = {}, []
    for platform, manager in alarms.items():
        summary, _ = CostModel().settle(
            platform,
            manager,
            policy,
            float(inputs.assignments[platform].live_from_hour),
        )
        costs[platform] = summary.to_dict()
        summaries.append(summary)
    return sharded_digests(
        engine.score_logs, costs, combine_summaries(summaries).to_dict()
    )


def serve_reference(inputs: Inputs) -> dict:
    """The alarms of a serial ``observe()`` replay of the served records;
    ``open_dimms`` is the alarmed DIMM set of the open loop's records."""
    service = online_service(inputs)
    answers = [service.observe(record) for record in serve_records(inputs)]
    head = answers[: gen_inputs.SERVE_OPEN_RECORDS]
    return dict(
        alarm_digests([alarm for alarm in answers if alarm]),
        open_dimms=alarm_digests([alarm for alarm in head if alarm])["dimms"],
    )


REFERENCES = {
    "fleet_replay": fleet_replay_reference,
    "sharded_replay": sharded_replay_reference,
    "serve": serve_reference,
}


# -- measurement -------------------------------------------------------------


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # ru_maxrss is KiB on Linux


def _repeat(workload, inputs, reference, probe, clock=None) -> dict:
    """One timed repeat: wall, CPU (self + children), events, check.

    Every ``*_s`` figure is rescaled to the reference host speed by the
    probe's factor over the timed phase (:mod:`hostspeed`).
    """
    op = OPERATIONS[workload]
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    events, ok, values = op(inputs, reference, clock)
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0
    t0 = values.pop("timed_from", t0)
    wall = values.pop("timed_s", wall)
    cpu = values.pop("timed_cpu_s", cpu)
    if clock is not None:
        values = {**clock.snapshot(), **values}
    factor = probe.factor(t0, t0 + wall)
    return {
        "wall_s": wall / factor,
        "cpu_s": cpu / factor,
        "host_factor": factor,
        "events": events,
        "ok": bool(ok),
        "values": probe.scale(values, t0, t0 + wall),
    }


def study_pass(inputs: Inputs, probe) -> tuple[bool, dict]:
    """One traced run of the paper's Table II path: simulate ->
    build_samples -> fit -> 3x3 scoring, checked against the same run with
    the ``per_sample`` reference extraction engine."""
    reference = study_reference(inputs)
    clock = layers.Clock()
    t0 = time.perf_counter()
    _, ok, values = study_op(inputs, reference, clock)
    snapshot = clock.snapshot()
    values.update(
        {name: snapshot[name] for name in ("ml.fit_s", "ml.fit_trees")}
    )
    return ok, probe.scale(values, t0, time.perf_counter())


def _attempts(workload, rep) -> tuple[int, int]:
    """``(attempted, failed)`` operations of one repeat."""
    if workload == "serve":
        attempted = rep["values"]["serve.submitted"]
        if not rep["ok"]:
            return attempted, attempted
        return attempted, rep["values"]["serve.failures"]
    return 1, 0 if rep["ok"] else 1


def measure(workload: str, seed: int, seconds: float, trace: bool,
            reference: dict | None = None) -> dict:
    """Set up ``SETUPS`` times, then repeat the workload for ``seconds``.

    A :class:`hostspeed.SpeedProbe` runs throughout, except in serve's
    open-loop passes, whose latencies stay as measured.
    """
    if reference is None:
        path = gen_inputs.seed_dir(seed) / f"ref-{workload}.json"
        reference = json.loads(path.read_text("utf-8"))
    setups, inputs = [], None
    plain, traced, study = [], [], {}
    attempted = failed = 0
    with hostspeed.SpeedProbe(gen_inputs.BUILD / "tmp" / "probe") as probe:
        for _ in range(SETUPS):
            inputs = None  # free the previous set-up's campaign first
            t0 = time.perf_counter()
            inputs = load_inputs(seed)
            warm_up(inputs)
            t1 = time.perf_counter()
            setup = {
                "setup_s": t1 - t0,
                "telemetry.load_s": inputs.load_s,
                "features.fit_s": inputs.fit_s,
                "host_factor": probe.factor(t0, t1),
            }
            setups.append(probe.scale(setup, t0, t1))

        start = time.perf_counter()
        while True:
            plain.append(_repeat(workload, inputs, reference, probe))
            if trace:
                traced.append(
                    _repeat(workload, inputs, reference, probe, layers.Clock())
                )
            if time.perf_counter() - start >= seconds:
                break

        # The untimed study pass of a traced fleet_replay run counts as
        # one more attempted operation.
        if trace and workload == "fleet_replay":
            study_ok, study = study_pass(inputs, probe)
            attempted += 1
            failed += 0 if study_ok else 1

    if workload == "serve":  # the closed loop's rate, at reference speed
        for rep in plain:
            capacity = rep["events"] / rep["wall_s"]
            rep["values"]["serve.capacity_rps"] = capacity
    # The open-loop passes of a traced serve run count like repeats.
    passes, latency = [], {}
    if trace and workload == "serve":
        passes = [
            open_loop_pass(inputs, reference)
            for _ in range(SERVE_OPEN_PASSES)
        ]
        pooled = [ms for rep in passes for ms in rep["values"]["serve.open_ms"]]
        lags = [ms for rep in passes for ms in rep["values"]["serve.lag_ms"]]
        latency = {
            "serve.p50_ms": percentile(pooled, 50),
            "serve.p99_ms": percentile(pooled, 99),
            "serve.generator_lag_ms": percentile(lags, 99),
        }
    for rep in plain + traced + passes:
        a, f = _attempts(workload, rep)
        attempted += a
        failed += f

    median = statistics.median
    walls = [rep["wall_s"] for rep in plain]
    metrics = {
        "setup_s": median(s["setup_s"] for s in setups),
        "wall_s": median(walls),
        "events_per_s": median(rep["events"] / rep["wall_s"] for rep in plain),
        "cpu_s": median(rep["cpu_s"] for rep in plain),
        "peak_rss_mb": _peak_rss_mb(),
    }
    detail = {
        "workload": workload,
        "seed": seed,
        "repeats": len(plain),
        "samples": {
            "setup_s": [s["setup_s"] for s in setups],
            "wall_s": walls,
            "cpu_s": [rep["cpu_s"] for rep in plain],
            "setup_host_factor": [s["host_factor"] for s in setups],
            "host_factor": [rep["host_factor"] for rep in plain],
        },
        "events": plain[0]["events"],
        "failed_fraction": failed / attempted,
        **latency,
    }
    if passes:
        detail["serve.latency_samples"] = sum(
            len(rep["values"]["serve.open_ms"]) for rep in passes
        )
    if workload == "serve":
        detail["serve.exact_alarm_repeats"] = sum(
            rep["values"]["serve.exact_alarms"] for rep in plain
        )
    if study:
        detail["study.f1"] = study.pop("f1")  # f1 stays the replay's
    if trace:
        metrics = layers.per_layer_metrics(
            setups, plain, traced, failed / attempted
        )
        metrics.update(latency)
        metrics.update(study)
        detail["traced_samples"] = {
            "wall_s": [rep["wall_s"] for rep in traced]
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark measurement")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
