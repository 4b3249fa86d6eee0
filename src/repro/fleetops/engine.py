"""Fleet replay engine: the one replay walker, for one platform or many.

The :class:`FleetReplayEngine` consumes ONE
:class:`~repro.fleetops.stream.MergedFleetStream` covering every platform
and keeps one *serving runtime* per platform — incremental feature state,
alarm manager, micro-batch queue, and a routed production model that may
have been trained on a *different* CPU architecture (the transfer-matrix
serving story).  Every opened incident can be handed to a
:class:`~repro.fleetops.policy.PolicyEngine`, and at the end the
:class:`~repro.fleetops.cost.CostModel` settles dispositions x actions
into per-platform and fleet-wide interruption-cost summaries.  A
single-platform replay (:class:`~repro.streaming.replay.ReplayEngine`)
is this engine over a one-platform stream.

Per-platform scoring is bit-for-bit identical to replaying that platform
alone (same scoring schedule, same incremental feature values, same
row-wise model): the merged stream preserves each platform's replay
order, queues are per-platform, and a UE flushes only its own platform's
queue.  The parity suite pins this down.

Two interchangeable engines drive the same decision loop:

* ``engine="batched"`` (default) — one
  :class:`~repro.streaming.kernels.ReplayKernel` per platform precomputes
  every scoring candidate columnwise; the merged walk shrinks to the
  candidates and UEs (``np.lexsort`` over time, kind, platform — the
  same keys as the full merge), and works off a *manifest-only* stream
  (``merge_fleet_streams(..., decode_payloads=False)``);
* ``engine="per_event"`` — the pure-Python reference: the pre-decoded
  merged stream drives per-DIMM incremental state, with per-platform
  state hoisted into parallel lists indexed by the stream's platform
  code.  ``tests/fleetops/test_fleet_engine.py`` pins batched against
  per-event scores, alarms, costs and actions; perfbench's
  ``fleet_replay`` workload times the batched engine.
"""

from __future__ import annotations

import io
import pickle
import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.chaos.checkpoint import ReplayCheckpointer
from repro.chaos.quarantine import quarantine_columns
from repro.features.labeling import LabelingParams
from repro.fleetops.cost import CostModel, CostSummary, combine_summaries
from repro.fleetops.policy import PolicyEngine
from repro.fleetops.stream import (
    CE_TAG,
    UE_TAG,
    MergedFleetStream,
    UndecodedStreamError,
    merge_fleet_streams,
)
from repro.obs.tracing import NULL_TRACER
from repro.streaming.alarms import AlarmManager
from repro.streaming.bus import EventBus
from repro.streaming.incremental import IncrementalFeatureExtractor
from repro.streaming.kernels import ReplayKernel
from repro.streaming.replay import REPLAY_ENGINES
from repro.telemetry.log_store import LogStore

#: Candidate rows per ``features_for`` / ``predict_proba`` call when a
#: coherent-flush replay scores every candidate up front.
SCORE_BLOCK = 4096


@dataclass(frozen=True)
class ServingAssignment:
    """One platform's production serving configuration.

    ``train_platform`` names where the model's training split came from —
    equal to ``platform`` for the within-architecture default, different
    for cross-architecture routing (serve B with a model trained on A).
    """

    platform: str
    model_name: str
    train_platform: str
    model: object
    threshold: float
    pipeline: object  # fitted FeaturePipeline (the platform's feature space)
    configs: dict
    live_from_hour: float = 0.0
    #: Alarms start here (``None``: at ``live_from_hour``).  The lifecycle
    #: scores from hour zero to warm its rescore throttle but only alarms
    #: once the model is deployed.
    alarm_from_hour: float | None = None


#: Every piece of sequential decision state either walk mutates: the one
#: field list a checkpoint saves and a resume restores.  A batched walk
#: keeps no window ``states`` and counts its served fallbacks in
#: ``retired_fallbacks``.  The rest of a runtime (extractor, configs,
#: ``pending_dimms``, ``state_configs``, buffers, timings) is rebuilt.
DECISION_STATE = (
    "alarms", "states", "last_scored", "scored_dimms", "pending",
    "retired_fallbacks", "retired_rebuilds", "scored", "batches",
    "predicted", "parity_checked", "parity_mismatches",
)


class _PlatformRuntime:
    """Mutable per-platform serving state for one replay pass."""

    __slots__ = DECISION_STATE + (
        "assignment", "extractor", "state_configs", "pending_dimms",
        "dimm_name", "server_name", "configs", "threshold", "live_from",
        "alarm_from", "predict_seconds", "matrix_buf",
    )

    def __init__(self, assignment: ServingAssignment, alarms: AlarmManager):
        self.assignment = assignment
        self.extractor = IncrementalFeatureExtractor(assignment.pipeline)
        self.alarms = alarms
        self.states: dict = {}
        self.state_configs: dict = {}
        self.last_scored: dict = {}
        self.scored_dimms: set = set()
        self.pending: list = []
        self.pending_dimms: set = set()
        self.retired_fallbacks = 0
        self.retired_rebuilds = 0
        self.configs = assignment.configs
        self.threshold = float(assignment.threshold)
        self.live_from = float(assignment.live_from_hour)
        self.alarm_from = (
            self.live_from if assignment.alarm_from_hour is None
            else float(assignment.alarm_from_hour)
        )
        self.scored = 0
        self.batches = 0
        #: Rows passed to ``predict_proba``; exceeds ``scored`` when
        #: candidates are scored up front (coherent flush).
        self.predicted = 0
        self.predict_seconds = 0.0
        self.matrix_buf: np.ndarray | None = None
        #: Served vectors cross-checked against the reference, and how
        #: many differed (``verify_parity`` only).
        self.parity_checked = 0
        self.parity_mismatches = 0

    def decision_state(self) -> dict:
        """The sequential decision state a checkpoint saves."""
        return {name: getattr(self, name) for name in DECISION_STATE}

    def restore(self, saved: dict) -> None:
        """Adopt saved decision state; rebuild what derives from it."""
        for name in DECISION_STATE:
            setattr(self, name, saved[name])
        self.pending_dimms = {entry[0] for entry in self.pending}
        self.state_configs = {
            code: self.configs.get(state.dimm_id)
            for code, state in self.states.items()
        }

    def fallbacks(self) -> int:
        return self.retired_fallbacks + sum(
            state.fallbacks for state in self.states.values()
        )

    def rebuilds(self) -> int:
        """Late-arrival recoveries: full window rebuilds this platform paid."""
        return self.retired_rebuilds + sum(
            state.rebuilds for state in self.states.values()
        )


@dataclass
class FleetReport:
    """Everything one :meth:`FleetReplayEngine.replay` pass produced."""

    events: int = 0
    seconds: float = 0.0
    predict_seconds: float = 0.0
    events_per_second: float = 0.0
    scored: int = 0
    engine: str = "per_event"
    #: Wall seconds by stage (same keys as ``StreamingReport``).  A
    #: coordinator report sums its workers' stages, like CPU-seconds, so
    #: their total can exceed ``seconds``.
    stage_seconds: dict = field(default_factory=dict)
    platforms: dict = field(default_factory=dict)  # platform -> report dict
    actions: dict = field(default_factory=dict)  # PolicyEngine.summary()
    costs: dict = field(default_factory=dict)  # platform -> CostSummary dict
    fleet_cost: dict = field(default_factory=dict)  # combined CostSummary
    bus_counts: dict = field(default_factory=dict)
    #: Fleet-wide degradation accounting (per-platform detail lives in each
    #: platform report's ``health`` entry).
    health: dict = field(default_factory=dict)
    #: True when the walk was stopped early by ``halt_after`` (the report
    #: is partial: no finalisation, no costs, no action summary).
    halted: bool = False
    #: Populated by the distributed coordinator (worker/partition stats);
    #: empty for a plain single-process replay.
    distributed: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        payload = {
            "events": self.events,
            "seconds": round(self.seconds, 4),
            "predict_seconds": round(self.predict_seconds, 4),
            "events_per_second": round(self.events_per_second, 1),
            "scored": self.scored,
            "engine": self.engine,
            "stage_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in self.stage_seconds.items()
            },
            "platforms": {k: dict(v) for k, v in self.platforms.items()},
            "actions": dict(self.actions),
            "costs": {k: dict(v) for k, v in self.costs.items()},
            "fleet_cost": dict(self.fleet_cost),
            "bus_counts": dict(self.bus_counts),
            "health": dict(self.health),
        }
        if self.halted:
            payload["halted"] = True
        if self.distributed:
            payload["distributed"] = dict(self.distributed)
        return payload


class FleetReplayEngine:
    """Single-pass streaming scorer over a merged heterogeneous fleet.

    Both walks keep their sequential decision state in one place: the
    ``DECISION_STATE`` fields of each platform runtime, plus ``policy``
    and ``score_logs``.  :meth:`_save` and :meth:`_resume` are the one
    checkpoint save and resume both walks call.  A checkpoint holds no
    feature extractor, pipeline or bus: a resumed walk serves through
    extractors built from the assignments' own pipelines.
    """

    def __init__(
        self,
        assignments: dict[str, ServingAssignment],
        labeling: LabelingParams | None = None,
        *,
        policy: PolicyEngine | None = None,
        cost_model: CostModel | None = None,
        bus: EventBus | None = None,
        min_ces_before_scoring: int = 2,
        rescore_interval_hours: float = 0.0,
        batch_size: int = 256,
        engine: str = "batched",
        collect_scores: bool = False,
        end_hours: dict[str, float] | None = None,
        coherent_flush: bool = False,
        score_hook=None,
        verify_parity: bool = False,
        obs=None,
        obs_labels: dict | None = None,
        heartbeat_every: int = 0,
    ):
        if not assignments:
            raise ValueError("FleetReplayEngine needs at least one assignment")
        if engine not in REPLAY_ENGINES:
            raise ValueError(
                f"unknown replay engine {engine!r}; expected one of "
                f"{REPLAY_ENGINES}"
            )
        if score_hook is not None and coherent_flush:
            raise ValueError(
                "score_hook needs per-flush feature matrices; coherent_flush "
                "scores every candidate up front"
            )
        self.engine = engine
        self.assignments = dict(assignments)
        self.labeling = labeling if labeling is not None else LabelingParams()
        self.policy = policy
        self.cost_model = cost_model or CostModel()
        self.bus = bus if bus is not None else EventBus()
        self.min_ces_before_scoring = int(min_ces_before_scoring)
        self.rescore_interval_hours = float(rescore_interval_hours)
        self.batch_size = int(batch_size)
        self.collect_scores = bool(collect_scores)
        #: Partition-invariant micro-batching: settle a platform's queued
        #: scores before admitting a new candidate for a DIMM that already
        #: has one pending.  Admission consults ``alarms.blocked`` at walk
        #: time while incidents open at flush time, so with the default
        #: (off) the admitted set depends on cross-DIMM queue fill; with
        #: the knob on, every gating decision is a function of that DIMM's
        #: own score history only — a DIMM-sharded replay reproduces the
        #: full run bit-for-bit at any ``batch_size``.  The distributed
        #: coordinator turns this on in its workers AND in the
        #: single-process baseline it is gated against.  The batched
        #: engine then scores every candidate in one up-front pass, since
        #: coherent flushes are only a few rows each.
        self.coherent_flush = bool(coherent_flush)
        #: Fleet-global end hours overriding the stream's own (set by the
        #: distributed coordinator: a DIMM partition's local stream ends
        #: earlier than the fleet, which would skew incident expiry and
        #: censoring against the single-process run).
        self.end_hours = dict(end_hours) if end_hours else None
        #: Per-score callback ``(dimm_id, t, features, score)`` run in
        #: flush order (drift monitors, dashboards).
        self.score_hook = score_hook
        #: Cross-check every served vector against the reference: the
        #: per-event walk against ``FeaturePipeline.transform_one``, the
        #: batched engine against ``ReplayKernel.reference_for_query``.
        self.verify_parity = bool(verify_parity)
        #: ``platform -> [(dimm_id, t, score)]`` when ``collect_scores``.
        self.score_logs: dict[str, list] = {}
        #: Populated by :meth:`replay`.
        self.runtimes: dict[str, _PlatformRuntime] = {}
        self.cost_summaries: dict[str, CostSummary] = {}
        self.ledgers: dict = {}
        #: Optional :class:`repro.obs.Observability` bundle.  Spans exist
        #: at stage granularity only and instruments are filled from the
        #: finished report, so instrumented replays stay bit-identical.
        self.obs = obs
        #: Extra metric labels and root-span attributes for this run
        #: (the chaos sweep's ``fault_rate``).
        self.obs_labels = dict(obs_labels or {})
        self._tracer = obs.tracer if obs is not None else NULL_TRACER
        #: Publish a live heartbeat snapshot every N processed walk
        #: entries (0 = off).  Event-count based, never wall-clock, so
        #: the heartbeat sequence is deterministic; heartbeats are
        #: write-only (obs-parity), so scores/alarms/costs stay identical.
        self.heartbeat_every = int(heartbeat_every)

    def _heartbeat(self, processed, total, hour, runtimes) -> None:
        self.obs.heartbeat("fleet_replay", {
            "events": processed,
            "total": total,
            "fraction": processed / total if total else 1.0,
            "hour": float(hour),
            "open_incidents": sum(
                len(getattr(rt.alarms, "_open", ())) for rt in runtimes
            ),
            "scored": sum(rt.scored for rt in runtimes),
        })

    def _runtime(self, platform: str, stores) -> _PlatformRuntime:
        assignment = self.assignments[platform]
        alarms = AlarmManager(
            self.labeling.lead_hours,
            self.labeling.prediction_window_hours,
            self.bus,
        )
        runtime = _PlatformRuntime(assignment, alarms)
        columns = stores[platform].columns
        runtime.dimm_name = columns.dimms.name
        runtime.server_name = columns.servers.name
        return runtime

    def _live_objects(self, runtimes) -> dict:
        """Objects the walk state points at but a checkpoint never holds.

        The bus carries unpicklable handler closures and each extractor
        (with its fitted pipeline) is rebuilt from the assignment, so the
        state pickle stores them as these keys and a resume re-binds the
        keys to this engine's own bus and extractors.
        """
        live = {"bus": self.bus}
        for rt in runtimes:
            live["extractor:" + rt.assignment.platform] = rt.extractor
        return live

    def _save(self, runtimes: list[_PlatformRuntime]) -> dict:
        """The checkpoint state of a walk: one pickle, both engines.

        One pickle covers every runtime's decision state, the policy and
        the score logs, so shared references (window states, incidents,
        policy actions) survive the round trip.
        """
        live = self._live_objects(runtimes)
        keys = {id(obj): key for key, obj in live.items()}
        buf = io.BytesIO()
        pickler = pickle.Pickler(buf, pickle.HIGHEST_PROTOCOL)
        pickler.persistent_id = lambda obj: keys.get(id(obj))
        pickler.dump({
            "runtimes": {
                rt.assignment.platform: rt.decision_state() for rt in runtimes
            },
            "policy": self.policy,
            "score_logs": self.score_logs,
        })
        return {"state": buf.getvalue(), "bus_counts": self.bus.counts()}

    def _resume(
        self,
        runtimes: list[_PlatformRuntime],
        ckpt: ReplayCheckpointer | None,
    ) -> int:
        """Restore a checkpoint's state (if resuming); entries to skip."""
        if ckpt is None or ckpt.resume_state is None:
            return 0
        unpickler = pickle.Unpickler(io.BytesIO(ckpt.resume_state["state"]))
        unpickler.persistent_load = self._live_objects(runtimes).__getitem__
        state = unpickler.load()
        for rt in runtimes:
            rt.restore(state["runtimes"][rt.assignment.platform])
        self.policy = state["policy"]
        self.score_logs = state["score_logs"]
        self.bus.restore_counts(ckpt.resume_state["bus_counts"])
        return ckpt.position

    def replay(
        self,
        stream: MergedFleetStream,
        stores: dict[str, object],
        *,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        resume_from=None,
        halt_after: int | None = None,
    ) -> FleetReport:
        """Replay the merged stream; ``stores`` maps platform -> LogStore.

        Malformed records are quarantined per platform before the walk (the
        re-merged stream stays bit-identical when nothing is rejected).
        ``checkpoint_every`` + ``checkpoint_path`` write a snapshot every N
        processed walk entries; ``resume_from`` restores one and skips the
        already-processed prefix; ``halt_after`` stops this call after N
        entries (writing a final snapshot when a path is set) and returns a
        partial report with ``halted=True`` — the deterministic stand-in
        for a killed process.  A resumed replay reproduces the
        uninterrupted run's score logs, alarms, actions and cost digests.
        """
        missing = set(stream.platforms) - set(self.assignments)
        if missing:
            raise ValueError(
                f"merged stream contains unassigned platforms {sorted(missing)}"
            )
        if self.engine != "batched" and stream.events and not stream.decoded:
            raise UndecodedStreamError(
                "per_event fleet replay needs a decoded stream; re-merge "
                "with merge_fleet_streams(stores, decode_payloads=True)"
            )
        tracer = self._tracer
        with tracer.span(
            "fleet_replay",
            engine=self.engine,
            platforms=",".join(stream.platforms),
            **self.obs_labels,
        ) as root:
            rejects: dict[str, object] = {}
            filtered: dict[str, LogStore] = {}
            with tracer.span("fleet_replay.quarantine"):
                for platform in stream.platforms:
                    columns, platform_rejects = quarantine_columns(
                        stores[platform].columns, bus=self.bus
                    )
                    filtered[platform] = LogStore(columns)
                    rejects[platform] = platform_rejects
                if any(r.total for r in rejects.values()):
                    # Rebuild the merged order over the surviving records
                    # only; a clean fleet keeps the caller's stream object
                    # untouched.
                    stores = filtered
                    stream = merge_fleet_streams(
                        stores, decode_payloads=(self.engine != "batched")
                    )
            ckpt = None
            if (
                checkpoint_every
                or checkpoint_path is not None
                or resume_from is not None
                or halt_after is not None
            ):
                ckpt = ReplayCheckpointer(
                    every=checkpoint_every,
                    path=checkpoint_path,
                    halt_after=halt_after,
                    resume_from=resume_from,
                    engine=self.engine,
                    kind="fleet",
                )
            runtimes = [
                self._runtime(platform, stores)
                for platform in stream.platforms
            ]
            self.runtimes = dict(zip(stream.platforms, runtimes))
            if self.collect_scores:
                self.score_logs = {p: [] for p in stream.platforms}

            report = FleetReport(
                engine=self.engine,
                stage_seconds={
                    "ingest": 0.0, "features": 0.0, "predict": 0.0,
                    "alarms": 0.0,
                },
            )
            if self.engine == "batched":
                halted = self._replay_batched(
                    stream, stores, runtimes, report, ckpt
                )
            else:
                halted = self._replay_per_event(stream, runtimes, report, ckpt)
            if halted:
                report.halted = True
                report.events = stream.events
                report.bus_counts = self.bus.counts()
                root.attributes.update(halted=True)
                return report
            with tracer.span("fleet_replay.finalize"):
                self._finalize(stream, report, rejects)
            stage = report.stage_seconds
            stage["predict"] = report.predict_seconds
            stage["ingest"] = max(
                report.seconds - stage["features"] - stage["predict"]
                - stage["alarms"],
                0.0,
            )
            for name in sorted(stage):
                tracer.record(
                    "fleet_replay.stage." + name, wall_seconds=stage[name]
                )
            root.attributes.update(
                events=report.events, scored=report.scored, halted=False
            )
        if self.obs is not None:
            self.obs.record_fleet_report(report, self.obs_labels)
        return report

    def _replay_per_event(
        self,
        stream: MergedFleetStream,
        runtimes: list[_PlatformRuntime],
        report: FleetReport,
        ckpt: ReplayCheckpointer | None = None,
    ) -> bool:
        min_ces = self.min_ces_before_scoring
        rescore = self.rescore_interval_hours
        batch_size = self.batch_size
        coherent = self.coherent_flush
        verify = self.verify_parity
        feature_seconds = 0.0
        alarm_seconds = 0.0

        done = self._resume(runtimes, ckpt)
        walk_tags = stream.tags[done:]
        walk_plats = stream.plats[done:]
        walk_rows = stream.rows[done:]

        # The hot loop switches platforms on every event, so per-platform
        # state is hoisted into parallel lists indexed by the stream's
        # platform code — one C-level list index instead of a chain of
        # attribute lookups per touched field.
        states_by = [rt.states for rt in runtimes]
        state_configs_by = [rt.state_configs for rt in runtimes]
        state_for_by = [rt.extractor.state_for for rt in runtimes]
        serve_by = [rt.extractor.serve for rt in runtimes]
        blocked_by = [rt.alarms.blocked for rt in runtimes]
        last_scored_by = [rt.last_scored for rt in runtimes]
        scored_dimms_by = [rt.scored_dimms for rt in runtimes]
        pending_by = [rt.pending for rt in runtimes]
        pending_dimms_by = [rt.pending_dimms for rt in runtimes]
        live_by = [rt.live_from for rt in runtimes]
        configs_by = [rt.configs for rt in runtimes]
        dimm_name_by = [rt.dimm_name for rt in runtimes]
        server_name_by = [rt.server_name for rt in runtimes]
        flush = self._flush
        snapshot = partial(self._save, runtimes)

        hb = self.heartbeat_every if self.obs is not None else 0
        hb_total = stream.events
        hb_processed = 0

        start = time.perf_counter()
        for tag, p, row in zip(walk_tags, walk_plats, walk_rows):
            if ckpt is not None and ckpt.step(snapshot):
                report.seconds = time.perf_counter() - start
                return True
            if hb:
                hb_processed += 1
                if hb_processed % hb == 0:
                    self._heartbeat(hb_processed, hb_total, row[0], runtimes)
            if tag == CE_TAG:
                # row = (t, dimm_code, server_code, rows_data_tuple)
                t = row[0]
                code = row[1]
                states = states_by[p]
                state = states.get(code)
                if state is None:
                    state = state_for_by[p](dimm_name_by[p](code))
                    states[code] = state
                    state_configs_by[p][code] = configs_by[p].get(
                        state.dimm_id
                    )
                if not state.server_id:
                    state.server_id = server_name_by[p](row[2])
                state.add_ce_row(t, row[3])
                if t < live_by[p] or len(state.times) < min_ces:
                    continue
                config = state_configs_by[p][code]
                if config is None:
                    continue
                last = last_scored_by[p].get(code)
                if last is not None and t - last < rescore:
                    continue
                if coherent and state.dimm_id in pending_dimms_by[p]:
                    # Settle the queue so this DIMM's earlier score can
                    # open its incident before we gate the new candidate.
                    flush(runtimes[p], report)
                if blocked_by[p](state.dimm_id, t):
                    continue
                t0 = time.perf_counter()
                features = serve_by[p](state, config, t)
                feature_seconds += time.perf_counter() - t0
                if verify:
                    rt = runtimes[p]
                    rt.parity_checked += 1
                    reference = rt.assignment.pipeline.transform_one(
                        state.history_view(), config, t
                    )
                    if not np.array_equal(features, reference):
                        rt.parity_mismatches += 1
                last_scored_by[p][code] = t
                scored_dimms_by[p].add(code)
                pending = pending_by[p]
                pending_dimms_by[p].add(state.dimm_id)
                pending.append((state.dimm_id, t, features))
                if len(pending) >= batch_size:
                    flush(runtimes[p], report)
            elif tag == UE_TAG:
                # row = (t, dimm_code)
                rt = runtimes[p]
                if rt.pending:
                    # Settle this platform's queued scores so alarm-vs-
                    # failure ordering holds; other platforms' queues are
                    # untouched (their DIMMs are unaffected by this UE).
                    flush(rt, report)
                code = row[1]
                state = rt.states.pop(code, None)
                if state is not None:
                    rt.retired_fallbacks += state.fallbacks
                    rt.retired_rebuilds += state.rebuilds
                predictable = state is not None and len(state.times) >= min_ces
                dimm_id = (
                    state.dimm_id if state is not None
                    else rt.dimm_name(code)
                )
                t0 = time.perf_counter()
                rt.alarms.on_ue(dimm_id, row[0], predictable=predictable)
                alarm_seconds += time.perf_counter() - t0
                rt.last_scored.pop(code, None)
                if self.policy is not None:
                    self.policy.advance(row[0])
            else:
                # row = (t, dimm_code, kind_code)
                states = states_by[p]
                code = row[1]
                state = states.get(code)
                if state is None:
                    state = state_for_by[p](dimm_name_by[p](code))
                    states[code] = state
                    state_configs_by[p][code] = configs_by[p].get(
                        state.dimm_id
                    )
                state.add_event_code(row[2], row[0])
        for rt in runtimes:
            if rt.pending:
                flush(rt, report)
        report.seconds = time.perf_counter() - start
        report.stage_seconds["features"] += feature_seconds
        report.stage_seconds["alarms"] += alarm_seconds
        return False

    def _replay_batched(
        self,
        stream: MergedFleetStream,
        stores: dict[str, object],
        runtimes: list[_PlatformRuntime],
        report: FleetReport,
        ckpt: ReplayCheckpointer | None = None,
    ) -> bool:
        """Columnar fast path: per-platform kernels + a merged decision loop.

        One :class:`ReplayKernel` per platform precomputes every scoring
        candidate; the walk then covers only candidates and UEs, merged
        with the same (time, kind, platform) keys as the full stream so
        every sequential decision lands in the per-event order.

        With ``coherent_flush`` every candidate is scored up front and a
        flush only gathers its rows' scores.  Otherwise each flush
        extracts and scores its own rows, because the rescore throttle
        and incident blocking leave most candidates unserved.  The walk,
        flush points and alarm order are the same either way, so for a
        row-wise model (a row's score does not depend on the other rows
        in its ``predict_proba`` call) the outputs are identical.
        """
        rescore = self.rescore_interval_hours
        batch_size = self.batch_size
        coherent = self.coherent_flush
        policy = self.policy
        alarm_seconds = 0.0

        start = time.perf_counter()
        with self._tracer.span("fleet_replay.kernel_build"):
            kernels = [
                ReplayKernel(
                    rt.assignment.pipeline,
                    stores[platform].columns,
                    rt.assignment.configs,
                    min_ces_before_scoring=self.min_ces_before_scoring,
                    live_from_hour=rt.live_from,
                )
                for platform, rt in zip(stream.platforms, runtimes)
            ]
        # Like the kernels, the up-front scores are a function of the
        # stores and models: a resumed run recomputes them, and no
        # snapshot carries them.
        scores_by = [
            self._score_candidates(rt, kernel, report) if coherent else None
            for rt, kernel in zip(runtimes, kernels)
        ]

        # Global candidate/UE selection in merged-stream order.  Stability
        # of the lexsort keeps each platform's CE-table order on ties, so
        # per-platform subsequences equal the single-platform walk.
        parts: dict[str, list] = {
            "t": [], "tag": [], "plat": [], "idx": [], "code": [], "rank": [],
        }
        cand_dimms_by, row_of_by, fallback_by, ue_pred_by = [], [], [], []
        for i, kernel in enumerate(kernels):
            cand = np.flatnonzero(kernel.eligible)
            parts["t"] += [kernel.ce_times[cand], kernel.ue_times]
            parts["tag"] += [
                np.zeros(cand.size, dtype=np.int8),
                np.ones(kernel.n_ue, dtype=np.int8),
            ]
            parts["plat"] += [
                np.full(cand.size, i, dtype=np.int32),
                np.full(kernel.n_ue, i, dtype=np.int32),
            ]
            parts["idx"] += [cand, np.arange(kernel.n_ue, dtype=np.int64)]
            parts["code"] += [
                kernel.ce_codes[cand].astype(np.int64),
                kernel.ue_codes.astype(np.int64),
            ]
            parts["rank"] += [
                np.arange(cand.size, dtype=np.int64),
                np.full(kernel.n_ue, -1, dtype=np.int64),
            ]
            cand_dimms_by.append([
                kernel.seg_dimm_ids[s]
                for s in kernel.seg_of_ce[cand].tolist()
            ])
            row_of_by.append(kernel.row_of.tolist())
            fallback_by.append(kernel.fallback.tolist())
            ue_pred_by.append(kernel.ue_predictable.tolist())
        sel = {k: np.concatenate(v) for k, v in parts.items()}
        order = np.lexsort((sel["plat"], sel["tag"], sel["t"]))

        # Resuming after the up-front pass overwrites its counters with the
        # same figures: the halted run scored the same candidates.
        order = order[self._resume(runtimes, ckpt):]
        policy = self.policy
        # Pure caches of ``alarms.open_until`` and ``dimm_name``: the calls
        # they elide have no side effects, so a resumed walk starts them
        # empty.
        blocked_until_by: list[dict] = [{} for _ in runtimes]
        dimm_cache_by: list[dict] = [{} for _ in runtimes]
        alarms_by = [rt.alarms for rt in runtimes]
        last_scored_by = [rt.last_scored for rt in runtimes]
        scored_dimms_by = [rt.scored_dimms for rt in runtimes]
        pending_by = [rt.pending for rt in runtimes]
        pending_dimms_by = [rt.pending_dimms for rt in runtimes]
        dimm_name_by = [rt.dimm_name for rt in runtimes]
        snapshot = partial(self._save, runtimes)

        iters = zip(
            sel["tag"][order].tolist(),
            sel["plat"][order].tolist(),
            sel["idx"][order].tolist(),
            sel["t"][order].tolist(),
            sel["code"][order].tolist(),
            sel["rank"][order].tolist(),
        )
        hb = self.heartbeat_every if self.obs is not None else 0
        hb_total = int(sel["t"].size)
        hb_processed = 0
        for tag, p, index, t, code, rank in iters:
            if ckpt is not None and ckpt.step(snapshot):
                report.seconds = time.perf_counter() - start
                return True
            if hb:
                hb_processed += 1
                if hb_processed % hb == 0:
                    self._heartbeat(hb_processed, hb_total, t, runtimes)
            if tag == 0:
                if rescore > 0:
                    last = last_scored_by[p].get(code)
                    if last is not None and t - last < rescore:
                        continue
                blocked_until = blocked_until_by[p]
                bound = blocked_until.get(code)
                if bound is not None:
                    if t <= bound:
                        continue
                    del blocked_until[code]
                dimm_id = cand_dimms_by[p][rank]
                if coherent and dimm_id in pending_dimms_by[p]:
                    # Settle the queue so this DIMM's earlier score can
                    # open its incident before we gate the new candidate.
                    self._flush_batched(
                        runtimes[p], kernels[p], scores_by[p], report
                    )
                alarms = alarms_by[p]
                if alarms.blocked(dimm_id, t):
                    blocked_until[code] = alarms.open_until(dimm_id)
                    continue
                if fallback_by[p][index]:
                    runtimes[p].retired_fallbacks += 1
                if rescore > 0:
                    last_scored_by[p][code] = t
                scored_dimms_by[p].add(code)
                pending = pending_by[p]
                pending_dimms_by[p].add(dimm_id)
                pending.append((dimm_id, t, row_of_by[p][index]))
                if len(pending) >= batch_size:
                    self._flush_batched(
                        runtimes[p], kernels[p], scores_by[p], report
                    )
            else:
                rt = runtimes[p]
                if rt.pending:
                    # Settle this platform's queued scores so alarm-vs-
                    # failure ordering holds; other platforms' queues are
                    # untouched (their DIMMs are unaffected by this UE).
                    self._flush_batched(rt, kernels[p], scores_by[p], report)
                cache = dimm_cache_by[p]
                dimm_id = cache.get(code)
                if dimm_id is None:
                    dimm_id = cache[code] = dimm_name_by[p](code)
                t0 = time.perf_counter()
                rt.alarms.on_ue(dimm_id, t, predictable=ue_pred_by[p][index])
                alarm_seconds += time.perf_counter() - t0
                blocked_until_by[p].pop(code, None)
                rt.last_scored.pop(code, None)
                if policy is not None:
                    policy.advance(t)
        for rt, kernel, scores in zip(runtimes, kernels, scores_by):
            if rt.pending:
                self._flush_batched(rt, kernel, scores, report)
        report.seconds = time.perf_counter() - start
        report.stage_seconds["alarms"] += alarm_seconds
        return False

    def _buffer(
        self, rt: _PlatformRuntime, n: int, width: int
    ) -> np.ndarray:
        """The runtime's reused micro-batch score matrix."""
        buf = rt.matrix_buf
        if buf is None or buf.shape[0] < n or buf.shape[1] != width:
            buf = rt.matrix_buf = np.empty((max(n, self.batch_size), width))
        return buf

    def _flush(self, rt: _PlatformRuntime, report: FleetReport) -> None:
        """Score one platform's micro-batch; route alarms through policy."""
        pending = rt.pending
        n = len(pending)
        matrix = self._buffer(rt, n, pending[0][2].shape[0])[:n]
        for i, (_, _, features) in enumerate(pending):
            matrix[i] = features
        self._apply_scores(rt, self._predict(rt, matrix), report, matrix)

    def _flush_batched(
        self,
        rt: _PlatformRuntime,
        kernel: ReplayKernel,
        scores: np.ndarray | None,
        report: FleetReport,
    ) -> None:
        """Score one batched micro-batch, or gather its up-front scores."""
        pending = rt.pending
        rows = np.fromiter(
            (row for _, _, row in pending), dtype=np.int64, count=len(pending)
        )
        if scores is None:
            matrix = self._features(rt, kernel, rows, report)
            batch = self._predict(rt, matrix)
        else:
            matrix = None
            batch = scores[rows]
        self._apply_scores(rt, batch, report, matrix)

    def _score_candidates(
        self, rt: _PlatformRuntime, kernel: ReplayKernel, report: FleetReport
    ) -> np.ndarray:
        """Every candidate query row's score, in blocks of ``SCORE_BLOCK``."""
        n = kernel.n_queries
        scores = np.empty(n)
        for lo in range(0, n, SCORE_BLOCK):
            rows = np.arange(lo, min(lo + SCORE_BLOCK, n))
            scores[lo : lo + rows.size] = self._predict(
                rt, self._features(rt, kernel, rows, report)
            )
        return scores

    def _features(
        self,
        rt: _PlatformRuntime,
        kernel: ReplayKernel,
        rows: np.ndarray,
        report: FleetReport,
    ) -> np.ndarray:
        buf = self._buffer(rt, rows.size, kernel.n_features)
        t0 = time.perf_counter()
        matrix = kernel.features_for(rows, out=buf[: rows.size])
        report.stage_seconds["features"] += time.perf_counter() - t0
        if self.verify_parity:
            for features, row in zip(matrix, rows.tolist()):
                rt.parity_checked += 1
                reference = kernel.reference_for_query(row)
                if not np.array_equal(features, reference):
                    rt.parity_mismatches += 1
        return matrix

    def _predict(self, rt: _PlatformRuntime, matrix: np.ndarray):
        t0 = time.perf_counter()
        scores = rt.assignment.model.predict_proba(matrix)
        rt.predict_seconds += time.perf_counter() - t0
        rt.predicted += len(matrix)
        return scores

    def _apply_scores(
        self,
        rt: _PlatformRuntime,
        scores,
        report: FleetReport,
        matrix: np.ndarray | None = None,
    ) -> None:
        """Log the pending queue's scores, raise alarms, clear the queue.

        ``matrix`` holds the scored feature rows for ``score_hook``; a
        coherent flush gathers up-front scores and has none.
        """
        pending = rt.pending
        t0 = time.perf_counter()
        threshold = rt.threshold
        alarm_from = rt.alarm_from
        platform = rt.assignment.platform
        policy = self.policy
        hook = self.score_hook
        log = self.score_logs.get(platform) if self.collect_scores else None
        for i, ((dimm_id, t, _), score) in enumerate(zip(pending, scores)):
            value = float(score)
            if log is not None:
                log.append((dimm_id, t, value))
            if hook is not None:
                hook(dimm_id, t, matrix[i], value)
            if value >= threshold and t >= alarm_from:
                incident = rt.alarms.on_alarm(dimm_id, t, value)
                if incident is not None and policy is not None:
                    policy.on_incident(platform, incident)
        rt.scored += len(pending)
        rt.batches += 1
        report.stage_seconds["alarms"] += time.perf_counter() - t0
        pending.clear()
        rt.pending_dimms.clear()

    def _finalize(
        self,
        stream: MergedFleetStream,
        report: FleetReport,
        rejects: dict[str, object] | None = None,
    ) -> None:
        """Close incidents, settle costs, assemble the fleet report."""
        rejects = rejects if rejects is not None else {}
        end_hours = dict(stream.end_hours)
        if self.end_hours:
            for platform, end in self.end_hours.items():
                if platform in end_hours:
                    end_hours[platform] = float(end)
        # Drain the shared action queue to the fleet's global end BEFORE
        # settling any platform: the scheduler is fleet-wide, so a
        # per-platform drain would make cost summaries depend on the
        # spec's platform order (and disagree with the action summary).
        if self.policy is not None:
            self.policy.advance(max(end_hours.values()))
        summaries = []
        for platform in stream.platforms:
            rt = self.runtimes[platform]
            rt.alarms.finalize(end_hours[platform])
            counts = stream.counts[platform]
            alarm_summary = rt.alarms.summary(rt.live_from)
            platform_rejects = rejects.get(platform)
            platform_health = {
                "rejected_events": (
                    platform_rejects.total if platform_rejects else 0
                ),
                "rejects": (
                    dict(platform_rejects.by_reason) if platform_rejects
                    else {}
                ),
                "fallback_scores": rt.fallbacks(),
                "late_rebuilds": rt.rebuilds(),
                "outage_seconds": 0.0,
            }
            platform_report = {
                "model": rt.assignment.model_name,
                "train_platform": rt.assignment.train_platform,
                "threshold": rt.threshold,
                "live_from_hour": rt.live_from,
                "events": sum(counts.values()),
                "ces": counts["ces"],
                "ues": counts["ues"],
                "mem_events": counts["events"],
                "scored": rt.scored,
                "batches": rt.batches,
                "predicted": rt.predicted,
                "scored_dimms": len(rt.scored_dimms),
                "fallbacks": rt.fallbacks(),
                "alarms": alarm_summary,
                "health": platform_health,
            }
            if self.verify_parity:
                platform_report["parity"] = {
                    "checked": rt.parity_checked,
                    "mismatches": rt.parity_mismatches,
                }
            report.platforms[platform] = platform_report
            report.scored += rt.scored
            report.predict_seconds += rt.predict_seconds
            summary, ledger = self.cost_model.settle(
                platform,
                rt.alarms,
                self.policy if self.policy is not None else _NULL_POLICY,
                rt.live_from,
            )
            self.cost_summaries[platform] = summary
            self.ledgers[platform] = ledger
            summaries.append(summary)
            report.costs[platform] = summary.to_dict()
        fleet = combine_summaries(summaries)
        self.cost_summaries["fleet"] = fleet
        report.fleet_cost = fleet.to_dict()
        report.actions = (
            self.policy.summary() if self.policy is not None else {}
        )
        report.events = stream.events
        report.events_per_second = (
            report.events / report.seconds if report.seconds > 0 else 0.0
        )
        report.bus_counts = self.bus.counts()
        fleet_rejects: dict[str, int] = {}
        for platform_rejects in rejects.values():
            for reason, count in platform_rejects.by_reason.items():
                fleet_rejects[reason] = fleet_rejects.get(reason, 0) + count
        report.health = {
            "rejected_events": sum(r.total for r in rejects.values()),
            "rejects": fleet_rejects,
            "fallback_scores": sum(
                rt.fallbacks() for rt in self.runtimes.values()
            ),
            "late_rebuilds": sum(
                rt.rebuilds() for rt in self.runtimes.values()
            ),
            "outage_seconds": 0.0,
        }


class _NullPolicy:
    """Stand-in when no policy engine is wired: no actions were taken."""

    def action_for_incident(self, platform, incident):
        return None


_NULL_POLICY = _NullPolicy()
