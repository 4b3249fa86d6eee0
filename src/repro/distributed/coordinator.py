"""Replay coordinator: fan fleet-replay partitions out, merge bit-for-bit.

The coordinator shards the fleet by DIMM (see
:mod:`repro.distributed.shards`), runs one
:class:`~repro.fleetops.engine.FleetReplayEngine` per shard in a worker
process, and merges the per-partition score logs, alarm managers and
event-bus traffic back into one :class:`FleetReport` that is
**bit-for-bit identical** to the single-process replay:

* every replay decision is per-DIMM (min-CE gating, rescore throttle,
  alarm suppression window, incident lifecycle) and the model is
  *row-wise*: a row's score does not depend on the other rows in its
  ``predict_proba`` call (see below); workers run with the engine's
  ``coherent_flush`` mode so micro-batch flush timing — the one
  cross-DIMM coupling (admission consults the alarm state, incidents
  open at flush) — cannot leak between DIMMs, and a DIMM partition
  reproduces exactly the scores and incidents its DIMMs see in the
  full merged walk.  The single-process baseline the parity suite and
  CI gate compare against runs with the same mode;
* score logs are concatenated and stably sorted by ``(t, dimm_id)`` —
  the canonical order the parity suite compares in;
* per-platform alarm managers merge by concatenating incidents (sorted
  by ``(opened_hour, dimm_id)``), unioning the disjoint per-DIMM UE
  maps, and summing counters; every field of
  :meth:`AlarmManager.summary` is an order-invariant reduction over
  incidents, so the merged summary equals the single-process one;
* each worker records its bus traffic via an ``ALL_TOPICS`` subscriber
  and ships the ``(topic, payload)`` batch home; the coordinator
  republishes them in partition order, so downstream subscribers and
  ``bus_counts`` see exactly the single-process event totals — the
  ``EventBus`` is the cross-process fan-in seam;
* workers replay with ``policy=None``; mitigation is applied
  coordinator-side over the merged incidents in canonical
  ``(opened_hour, platform, dimm_id)`` order, then costs settle on the
  merged alarm managers.  (In-engine policy feed order depends on
  micro-batch flush timing, so the deterministic canonical order is the
  distributed contract; the parity suite applies the same canonical
  pass to the single-process baseline when comparing settled costs.)

The row-wise contract is what makes three results hold: N-worker
identity, batched ≡ ``per_event``, and coherent mode's up-front scoring
(every candidate scored in a few large blocks, not per flush).  The tree
models meet it bit for bit.  ``FtTransformerClassifier`` does not: its
matrix products round differently with the batch shape, so 200 rows
scored one at a time and in one call differ by up to 2.2e-16 (one BLAS
thread).  With it, the three results hold to that rounding only.

Fan-out: the coordinator is one of the ``workers`` partition runners.
It replays partitions ``i`` with ``i % workers == 0`` itself while a pool
of ``workers - 1`` processes replays the rest, so ``workers=2`` forks
one process.  The run-wide part of the payload (assignments with their
models, pipelines and configs, labeling, replay settings, manifest and
shard dir) reaches each pool process once, through the pool initializer:
under fork the process inherits it without pickling, under spawn or
forkserver it is pickled once per process.  A pool task carries only
its partition index and its checkpoint, halt and fail fields.

Fault tolerance uses the chaos tier's ladder: the process pool falls
back to threads then inline on pool-level failures, a pool worker that
dies with a transient error is retried with backoff and finally rerun
inline, a partition the coordinator runs itself gets the inline rung's
single retry, a partition halted mid-walk (``halt_after``) leaves a
checkpoint that the coordinator resumes deterministically, and
duplicate result delivery is idempotent (partitions merge keyed by
index, first result wins).
"""

from __future__ import annotations

import pickle
import tempfile
import time
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

from repro.distributed.shards import ShardManifest, load_shard, write_fleet_shards
from repro.features.labeling import LabelingParams
from repro.fleetops.cost import CostModel, combine_summaries
from repro.fleetops.engine import (
    _NULL_POLICY,
    FleetReplayEngine,
    FleetReport,
    ServingAssignment,
)
from repro.fleetops.stream import merge_fleet_streams
from repro.obs.bridge import Observability
from repro.obs.tracing import NULL_TRACER
from repro.streaming.alarms import AlarmManager
from repro.streaming.bus import ALL_TOPICS, EventBus
from repro.telemetry.log_store import LogStore


@dataclass
class PartitionOutcome:
    """Everything one worker ships home for one partition."""

    index: int
    halted: bool = False
    checkpoint: str | None = None
    events: int = 0
    seconds: float = 0.0
    predict_seconds: float = 0.0
    #: The worker engine's ``FleetReport.stage_seconds``.
    stage_seconds: dict = field(default_factory=dict)
    #: platform -> {"alarms": AlarmManager, "score_log": [...], counters}.
    platforms: dict = field(default_factory=dict)
    #: The worker bus's traffic, in publish order.
    bus_events: list = field(default_factory=list)
    #: The worker bus's final per-topic counts.  Equals the recorded
    #: traffic for an uninterrupted run; a checkpoint-resumed run only
    #: records post-resume publishes, so the coordinator reconciles its
    #: counts against these (the resumed engine restores the pre-halt
    #: accounting from the snapshot).
    bus_counts: dict = field(default_factory=dict)
    health: dict = field(default_factory=dict)
    #: The worker's serialized Observability bundle (metrics snapshot +
    #: span tree + heartbeat progress), when the coordinator runs with
    #: observability on.  Folded into the coordinator registry under a
    #: ``worker="wN"`` label and grafted into the coordinator span tree.
    obs_payload: dict | None = None


def _replay_partition(payload: dict) -> PartitionOutcome:
    """Worker body: replay one shard with a private engine and bus.

    Module-level so it pickles into worker processes (the same
    constraint as ``features.pipeline._extract_payload``).
    """
    manifest = ShardManifest.from_dict(payload["manifest"])
    index = payload["index"]
    columns_by = load_shard(
        payload["shard_dir"], manifest, index, mmap=payload["mmap"]
    )
    stores = {
        platform: LogStore(columns)
        for platform, columns in columns_by.items()
        if len(columns.ces) + len(columns.ues) + len(columns.events)
    }
    outcome = PartitionOutcome(index=index)
    if payload.get("fail_partition") == index:
        # Test hook: simulate a worker crash once (a marker on shared
        # disk makes the retry succeed, like a real transient death).
        marker = Path(payload["shard_dir"]) / f"failed_{index:04d}.marker"
        if not marker.exists():
            marker.write_text("injected", encoding="utf-8")
            raise OSError(f"injected worker failure on partition {index}")
    if not stores:
        return outcome
    bus = EventBus()
    bus.subscribe(
        ALL_TOPICS,
        lambda topic, event: outcome.bus_events.append((topic, event)),
    )
    wobs = Observability() if payload.get("observability") else None
    engine = FleetReplayEngine(
        payload["assignments"],
        labeling=payload["labeling"],
        policy=None,
        cost_model=CostModel(),
        bus=bus,
        min_ces_before_scoring=payload["min_ces_before_scoring"],
        rescore_interval_hours=payload["rescore_interval_hours"],
        batch_size=payload["batch_size"],
        engine=payload["engine"],
        collect_scores=True,
        end_hours=payload["end_hours"],
        coherent_flush=True,
        obs=wobs,
        heartbeat_every=payload.get("heartbeat_every", 0),
    )
    stream = merge_fleet_streams(
        stores, decode_payloads=(payload["engine"] != "batched")
    )
    report = engine.replay(
        stream,
        stores,
        checkpoint_path=payload.get("checkpoint_path"),
        resume_from=payload.get("resume_from"),
        halt_after=payload.get("halt_after"),
    )
    outcome.events = report.events
    outcome.seconds = report.seconds
    outcome.predict_seconds = report.predict_seconds
    if report.halted:
        outcome.halted = True
        outcome.checkpoint = payload.get("checkpoint_path")
        outcome.bus_events = []  # superseded by the resumed run's outcome
        return outcome
    outcome.bus_counts = bus.counts()
    outcome.health = dict(report.health)
    outcome.stage_seconds = dict(report.stage_seconds)
    if wobs is not None:
        # Plain dicts/lists only — pickles cleanly across the pool seam.
        outcome.obs_payload = wobs.payload()
    for platform, runtime in engine.runtimes.items():
        alarms = runtime.alarms
        alarms.bus = None  # handler closures don't pickle
        outcome.platforms[platform] = {
            "alarms": alarms,
            "score_log": engine.score_logs.get(platform, []),
            "events": report.platforms[platform]["events"],
            "ces": report.platforms[platform]["ces"],
            "ues": report.platforms[platform]["ues"],
            "mem_events": report.platforms[platform]["mem_events"],
            "scored": runtime.scored,
            "batches": runtime.batches,
            "predicted": runtime.predicted,
            "scored_dimms": len(runtime.scored_dimms),
            "fallbacks": runtime.fallbacks(),
            "rebuilds": runtime.rebuilds(),
            "health": report.platforms[platform]["health"],
        }
    return outcome


#: ``(fn, run_wide)`` of the pool this worker process belongs to.  Set
#: once per pool process by :func:`_init_runner`; never in the
#: coordinator, whose own partitions get their payloads directly.
_RUNNER: tuple | None = None


def _init_runner(fn, run_wide: dict) -> None:
    """Pool initializer: keep the run-wide payload for every task."""
    global _RUNNER
    _RUNNER = (fn, run_wide)


def _run_part(part: dict):
    """Pool task: one partition from its small per-partition payload."""
    fn, run_wide = _RUNNER
    return fn({**run_wide, **part})


def _run_inline(fn, payload: dict):
    """One partition in this process, with one retry on a transient death."""
    try:
        return fn(payload)
    except (OSError, pickle.PicklingError, MemoryError):
        return fn(payload)


def _partition_result(
    resubmit, inline, future, retries: int = 2, backoff: float = 0.05
):
    """One pool partition's result with the crashed-worker retry taxonomy.

    A broken pool re-raises so the caller falls back to the next pool
    class wholesale; a transient worker death (OSError / pickling /
    memory) retries with backoff via ``resubmit()`` and finally reruns
    ``inline()``; anything else is a genuine bug.
    """
    for attempt in range(retries):
        try:
            return future.result()
        except BrokenExecutor:
            raise
        except (OSError, pickle.PicklingError, MemoryError):
            time.sleep(backoff * (2**attempt))
            try:
                future = resubmit()
            except (RuntimeError, BrokenExecutor):
                return inline()
    try:
        return future.result()
    except BrokenExecutor:
        raise
    except (OSError, pickle.PicklingError, MemoryError):
        return inline()


def _run_pool(fn, run_wide: dict, parts: list[dict], workers: int) -> list:
    """Run ``fn({**run_wide, **part})`` for every part, in part order.

    ``workers`` counts concurrent runners, this process included: part
    ``i`` with ``i % workers == 0`` runs here while ``workers - 1`` pool
    workers run the rest.  Pool processes receive ``run_wide`` once,
    through the pool initializer, and each task ships only its ``part``;
    pool threads share it directly.  The resilience ladder is process
    pool -> threads -> inline, each rung catching pool-construction and
    teardown failures wholesale.  Results already in hand carry over
    when a rung falls through, and every part run in this process gets
    one retry on a transient death.
    """
    payloads = [{**run_wide, **part} for part in parts]
    results: dict[int, object] = {}
    pooled = [index for index in range(len(parts)) if index % workers]
    rungs = () if not pooled else (
        (
            ProcessPoolExecutor,
            {"initializer": _init_runner, "initargs": (fn, run_wide)},
            lambda index: (_run_part, parts[index]),
        ),
        (ThreadPoolExecutor, {}, lambda index: (fn, payloads[index])),
    )
    for pool_cls, options, task in rungs:
        try:
            with pool_cls(
                max_workers=min(workers - 1, len(pooled)), **options
            ) as pool:
                futures = {
                    index: pool.submit(*task(index))
                    for index in pooled
                    if index not in results
                }
                for index in range(0, len(parts), workers):
                    if index not in results:
                        results[index] = _run_inline(fn, payloads[index])
                for index, future in futures.items():
                    results[index] = _partition_result(
                        partial(pool.submit, *task(index)),
                        partial(fn, payloads[index]),
                        future,
                    )
                # Every result is in hand: let the pool processes exit
                # in the background instead of waiting out their
                # teardown (8 ms for a forked 150 MB process, 2-core VM).
                pool.shutdown(wait=False)
                break
        except (
            OSError,
            PermissionError,
            RuntimeError,
            pickle.PicklingError,
            BrokenExecutor,
        ):
            continue
    for index, payload in enumerate(payloads):
        if index not in results:
            results[index] = _run_inline(fn, payload)
    return [results[index] for index in range(len(parts))]


class ReplayCoordinator:
    """Shard a fleet, replay partitions in workers, merge bit-for-bit."""

    def __init__(
        self,
        assignments: dict[str, ServingAssignment],
        labeling: LabelingParams | None = None,
        *,
        policy=None,
        cost_model: CostModel | None = None,
        bus: EventBus | None = None,
        workers: int = 2,
        n_shards: int | None = None,
        min_ces_before_scoring: int = 2,
        rescore_interval_hours: float = 0.0,
        batch_size: int = 256,
        engine: str = "batched",
        shard_dir=None,
        mmap: bool = True,
        obs=None,
        heartbeat_every: int = 0,
    ):
        if not assignments:
            raise ValueError("ReplayCoordinator needs at least one assignment")
        self.assignments = dict(assignments)
        self.labeling = labeling if labeling is not None else LabelingParams()
        self.policy = policy
        self.cost_model = cost_model or CostModel()
        self.bus = bus if bus is not None else EventBus()
        self.workers = max(1, int(workers))
        self.n_shards = int(n_shards) if n_shards else self.workers
        self.min_ces_before_scoring = int(min_ces_before_scoring)
        self.rescore_interval_hours = float(rescore_interval_hours)
        self.batch_size = int(batch_size)
        self.engine = engine
        self.shard_dir = shard_dir
        self.mmap = bool(mmap)
        #: Populated by :meth:`replay` (same surface as the engine's).
        self.score_logs: dict[str, list] = {}
        self.alarm_managers: dict[str, AlarmManager] = {}
        self.cost_summaries: dict = {}
        self.manifest: ShardManifest | None = None
        #: Optional :class:`repro.obs.Observability` bundle — spans cover
        #: shard write, worker fan-out (one recorded child per partition,
        #: deterministic: partition count is fixed by the manifest) and
        #: merge; the merged report fills the registry.
        self.obs = obs
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        #: Shipped to every worker: each worker engine publishes its own
        #: live heartbeats into its private registry, which comes home in
        #: :attr:`PartitionOutcome.obs_payload`.
        self.heartbeat_every = int(heartbeat_every)

    # -- orchestration -----------------------------------------------------

    def replay(
        self,
        stores: dict[str, object],
        *,
        shards: tuple | None = None,
        halt_partition: int | None = None,
        halt_after: int | None = None,
        fail_partition: int | None = None,
    ) -> FleetReport:
        """Shard ``stores``, replay every partition, merge the results.

        ``shards`` optionally reuses a pre-written ``(dir, manifest)``
        pair (e.g. from the artifact cache).  ``halt_partition`` /
        ``halt_after`` kill one worker after N walked entries — the
        coordinator resumes it from its checkpoint; ``fail_partition``
        injects a crash on first delivery (retry-path coverage).  Both
        are test/chaos knobs; merged output is identical either way.
        """
        start = time.perf_counter()
        global_stream = merge_fleet_streams(stores, decode_payloads=False)
        if shards is not None:
            shard_dir, manifest = shards
            return self._replay_sharded(
                Path(shard_dir), manifest, global_stream, start,
                halt_partition, halt_after, fail_partition,
            )
        if self.shard_dir is not None:
            shard_dir = Path(self.shard_dir)
            with self._tracer.span("coordinator.shard_write"):
                manifest = write_fleet_shards(
                    {p: s.columns for p, s in stores.items()},
                    self.n_shards,
                    shard_dir,
                )
            return self._replay_sharded(
                shard_dir, manifest, global_stream, start,
                halt_partition, halt_after, fail_partition,
            )
        with tempfile.TemporaryDirectory(prefix="repro-shards-") as tmp:
            shard_dir = Path(tmp)
            with self._tracer.span("coordinator.shard_write"):
                manifest = write_fleet_shards(
                    {p: s.columns for p, s in stores.items()},
                    self.n_shards,
                    shard_dir,
                )
            return self._replay_sharded(
                shard_dir, manifest, global_stream, start,
                halt_partition, halt_after, fail_partition,
            )

    def _payloads(
        self,
        shard_dir: Path,
        manifest: ShardManifest,
        end_hours: dict,
        halt_partition,
        halt_after,
        fail_partition,
    ) -> tuple[dict, list[dict]]:
        """``(run_wide, parts)``: the shared payload and one part per shard."""
        run_wide = {
            "shard_dir": str(shard_dir),
            "manifest": manifest.to_dict(),
            "assignments": self.assignments,
            "labeling": self.labeling,
            "min_ces_before_scoring": self.min_ces_before_scoring,
            "rescore_interval_hours": self.rescore_interval_hours,
            "batch_size": self.batch_size,
            "engine": self.engine,
            "end_hours": end_hours,
            "mmap": self.mmap,
            "observability": self.obs is not None,
            "heartbeat_every": self.heartbeat_every,
        }
        parts = []
        for entry in manifest.shards:
            index = entry["index"]
            part = {
                "index": index,
                "checkpoint_path": None,
                "resume_from": None,
                "halt_after": None,
                "fail_partition": fail_partition,
            }
            if halt_partition == index and halt_after is not None:
                part["halt_after"] = int(halt_after)
                part["checkpoint_path"] = str(
                    shard_dir / f"checkpoint_{index:04d}.pkl"
                )
            parts.append(part)
        return run_wide, parts

    def _run_payloads(self, payloads: tuple[dict, list[dict]]) -> list:
        run_wide, parts = payloads
        outcomes = _run_pool(_replay_partition, run_wide, parts, self.workers)
        # A halted partition left its checkpoint on shared disk; resume
        # it here, deterministically (resumed == uninterrupted).
        resumed = []
        for part, outcome in zip(parts, outcomes):
            while outcome is not None and outcome.halted:
                outcome = _replay_partition(
                    {
                        **run_wide,
                        **part,
                        "halt_after": None,
                        "resume_from": outcome.checkpoint,
                        "fail_partition": None,
                    }
                )
            resumed.append(outcome)
        return resumed

    # -- merging -----------------------------------------------------------

    def merge(
        self,
        outcomes: list[PartitionOutcome],
        global_stream,
        wall_seconds: float,
    ) -> FleetReport:
        """Fold partition outcomes into one canonical fleet report.

        Duplicate deliveries of the same partition are idempotent: the
        first outcome per index wins, later ones are dropped.
        """
        by_index: dict[int, PartitionOutcome] = {}
        for outcome in outcomes:
            if outcome is not None and outcome.index not in by_index:
                by_index[outcome.index] = outcome
        ordered = [by_index[index] for index in sorted(by_index)]

        # Cross-process fan-in: worker buses recorded their traffic;
        # republishing in partition order reproduces the single-process
        # per-topic counts on the coordinator bus.  A checkpoint-resumed
        # partition only recorded post-resume publishes (pre-halt counts
        # live in its restored accounting), so any deficit between a
        # worker's final counts and its recorded traffic is reconciled
        # numerically after the republish.
        deficits: dict[str, int] = {}
        for outcome in ordered:
            recorded: dict[str, int] = {}
            for topic, event in outcome.bus_events:
                self.bus.publish(topic, event)
                recorded[topic] = recorded.get(topic, 0) + 1
            for topic, count in outcome.bus_counts.items():
                delta = count - recorded.get(topic, 0)
                if delta:
                    deficits[topic] = deficits.get(topic, 0) + delta
        if deficits:
            counts = self.bus.counts()
            for topic, delta in deficits.items():
                counts[topic] = counts.get(topic, 0) + delta
            self.bus.restore_counts(counts)

        platforms = list(global_stream.platforms)
        merged_alarms: dict[str, AlarmManager] = {}
        merged_logs: dict[str, list] = {}
        totals: dict[str, dict] = {}
        for platform in platforms:
            merged_alarms[platform] = AlarmManager(
                self.labeling.lead_hours,
                self.labeling.prediction_window_hours,
                bus=None,
            )
            merged_logs[platform] = []
            totals[platform] = {
                "scored": 0, "batches": 0, "predicted": 0, "scored_dimms": 0,
                "fallbacks": 0, "rebuilds": 0, "rejected_events": 0,
                "rejects": {},
            }
        predict_seconds = 0.0
        stage_seconds: dict[str, float] = {}
        for outcome in ordered:
            predict_seconds += outcome.predict_seconds
            for stage, seconds in outcome.stage_seconds.items():
                stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
            for platform, part in outcome.platforms.items():
                merged = merged_alarms[platform]
                alarms: AlarmManager = part["alarms"]
                merged.incidents.extend(alarms.incidents)
                merged.ue_hours.update(alarms.ue_hours)
                merged.ue_predictable.update(alarms.ue_predictable)
                merged.raised += alarms.raised
                merged.suppressed += alarms.suppressed
                merged.expired += alarms.expired
                merged.resolved += alarms.resolved
                merged_logs[platform].extend(part["score_log"])
                total = totals[platform]
                total["scored"] += part["scored"]
                total["batches"] += part["batches"]
                total["predicted"] += part["predicted"]
                total["scored_dimms"] += part["scored_dimms"]
                total["fallbacks"] += part["fallbacks"]
                total["rebuilds"] += part["rebuilds"]
                health = part["health"]
                total["rejected_events"] += health["rejected_events"]
                for reason, count in health["rejects"].items():
                    total["rejects"][reason] = (
                        total["rejects"].get(reason, 0) + count
                    )
        # Canonical orders: logs by (t, dimm), incidents by (open, dimm).
        for platform in platforms:
            merged_logs[platform].sort(key=lambda row: (row[1], row[0]))
            merged_alarms[platform].incidents.sort(
                key=lambda inc: (inc.opened_hour, inc.dimm_id)
            )
        self.score_logs = merged_logs
        self.alarm_managers = merged_alarms

        apply_policy(self.policy, merged_alarms, global_stream.end_hours)

        report = FleetReport(engine=self.engine, stage_seconds=stage_seconds)
        summaries = []
        for platform in platforms:
            alarms = merged_alarms[platform]
            assignment = self.assignments[platform]
            counts = global_stream.counts[platform]
            total = totals[platform]
            live_from = float(assignment.live_from_hour)
            summary, ledger = self.cost_model.settle(
                platform,
                alarms,
                self.policy if self.policy is not None else _NULL_POLICY,
                live_from,
            )
            self.cost_summaries[platform] = summary
            summaries.append(summary)
            report.costs[platform] = summary.to_dict()
            report.platforms[platform] = {
                "model": assignment.model_name,
                "train_platform": assignment.train_platform,
                "threshold": float(assignment.threshold),
                "live_from_hour": live_from,
                "events": sum(counts.values()),
                "ces": counts["ces"],
                "ues": counts["ues"],
                "mem_events": counts["events"],
                "scored": total["scored"],
                "batches": total["batches"],
                "predicted": total["predicted"],
                "scored_dimms": total["scored_dimms"],
                "fallbacks": total["fallbacks"],
                "alarms": alarms.summary(live_from),
                "health": {
                    "rejected_events": total["rejected_events"],
                    "rejects": dict(total["rejects"]),
                    "fallback_scores": total["fallbacks"],
                    "late_rebuilds": total["rebuilds"],
                    "outage_seconds": 0.0,
                },
            }
            report.scored += total["scored"]
        fleet = combine_summaries(summaries)
        self.cost_summaries["fleet"] = fleet
        report.fleet_cost = fleet.to_dict()
        report.actions = (
            self.policy.summary() if self.policy is not None else {}
        )
        report.events = global_stream.events
        report.seconds = wall_seconds
        report.predict_seconds = predict_seconds
        report.events_per_second = (
            report.events / wall_seconds if wall_seconds > 0 else 0.0
        )
        report.bus_counts = self.bus.counts()
        fleet_rejects: dict[str, int] = {}
        for total in totals.values():
            for reason, count in total["rejects"].items():
                fleet_rejects[reason] = fleet_rejects.get(reason, 0) + count
        report.health = {
            "rejected_events": sum(
                total["rejected_events"] for total in totals.values()
            ),
            "rejects": fleet_rejects,
            "fallback_scores": sum(
                total["fallbacks"] for total in totals.values()
            ),
            "late_rebuilds": sum(
                total["rebuilds"] for total in totals.values()
            ),
            "outage_seconds": 0.0,
        }
        report.distributed = {
            "workers": self.workers,
            "partitions": len(ordered),
            "partition_events": [outcome.events for outcome in ordered],
            "shard_fingerprint": (
                self.manifest.fingerprint if self.manifest else None
            ),
        }
        return report

    def _replay_sharded(
        self,
        shard_dir: Path,
        manifest: ShardManifest,
        global_stream,
        start: float,
        halt_partition,
        halt_after,
        fail_partition,
    ) -> FleetReport:
        tracer = self._tracer
        with tracer.span(
            "coordinator",
            workers=self.workers,
            partitions=len(manifest.shards),
            engine=self.engine,
        ) as root:
            self.manifest = manifest
            payloads = self._payloads(
                shard_dir, manifest, dict(global_stream.end_hours),
                halt_partition, halt_after, fail_partition,
            )
            with tracer.span("coordinator.fanout"):
                outcomes = self._run_payloads(payloads)
                for outcome in outcomes:
                    if outcome is not None:
                        tracer.record(
                            "coordinator.partition",
                            wall_seconds=outcome.seconds,
                            index=outcome.index,
                            events=outcome.events,
                        )
                    if outcome is None or outcome.obs_payload is None:
                        continue
                    # Aggregate the worker's private telemetry: metrics
                    # fold into the coordinator registry under a
                    # worker="wN" label, its span tree grafts in as a
                    # child of the fanout span.
                    worker = f"w{outcome.index}"
                    with tracer.span("coordinator.worker", worker=worker):
                        tracer.graft(outcome.obs_payload.get("spans", ()))
                    if self.obs is not None:
                        self.obs.fold_payload(outcome.obs_payload, worker)
            with tracer.span("coordinator.merge"):
                report = self.merge(
                    outcomes, global_stream, time.perf_counter() - start
                )
            root.attributes.update(events=report.events)
        if self.obs is not None and not report.halted:
            # worker="merged" keeps the coordinator-level rollup apart
            # from the per-worker folds sharing the same families.
            self.obs.record_fleet_report(report, {"worker": "merged"})
        return report


def apply_policy(
    policy, alarm_managers: dict[str, AlarmManager], end_hours: dict
) -> None:
    """Feed merged incidents to the policy in canonical order.

    Distributed mitigation contract: incidents across all platforms are
    replayed into the :class:`~repro.fleetops.policy.PolicyEngine` in
    ``(opened_hour, platform, dimm_id)`` order, then the action queue
    drains to the fleet's global end.  Deterministic for a given merged
    result — apply the same pass to a single-process baseline's alarm
    managers to compare settled costs including actions.
    """
    if policy is None:
        return
    entries = []
    for platform in sorted(alarm_managers):
        for incident in alarm_managers[platform].incidents:
            entries.append(
                (incident.opened_hour, platform, incident.dimm_id,
                 platform, incident)
            )
    entries.sort(key=lambda entry: entry[:3])
    for _, _, _, platform, incident in entries:
        policy.on_incident(platform, incident)
    if end_hours:
        policy.advance(max(end_hours.values()))
