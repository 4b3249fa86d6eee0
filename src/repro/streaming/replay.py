"""Single-platform replay: one campaign's stream -> scoring -> alarms.

The engine replays a whole campaign the way production would consume it —
every DIMM's CE/UE/memory-event stream merged in global timestamp order
(ties keep the CE < UE < event order of
:func:`repro.telemetry.log_store.iter_stream`) — with micro-batched
``predict_proba`` calls (flushed on every UE so alarm-vs-failure ordering
is preserved) and alarming scores driving an
:class:`~repro.streaming.alarms.AlarmManager` whose incident lifecycle
events go out over the :class:`~repro.streaming.bus.EventBus`.

A single platform is a fleet of one: :class:`ReplayEngine` builds one
:class:`~repro.fleetops.engine.ServingAssignment`, merges a one-platform
:class:`~repro.fleetops.stream.MergedFleetStream` and runs
:class:`~repro.fleetops.engine.FleetReplayEngine` — the one walker, with
one checkpoint path — then projects the fleet report onto this platform
(:meth:`StreamingReport.from_fleet`).  Both of its engines apply:

* ``engine="batched"`` (default) — a
  :class:`~repro.streaming.kernels.ReplayKernel` precomputes every
  candidate CE's feature vector in column-wise numpy passes, and the walk
  shrinks to the scoring candidates and UEs;
* ``engine="per_event"`` — the pure-Python reference: every record
  updates an :class:`~repro.streaming.incremental.IncrementalWindowState`
  and candidates are served by delta updates.

Both produce identical scores, alarms, and bus traffic.
``verify_parity=True`` cross-checks every served vector against the
reference — ``FeaturePipeline.transform_one`` on the per-event walk,
``ReplayKernel.reference_for_query`` on the batched one — the bit-for-bit
guarantee the CI streaming smoke job gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.features.labeling import LabelingParams
from repro.streaming.bus import EventBus

REPLAY_ENGINES = ("batched", "per_event")


@dataclass
class StreamingReport:
    """Everything one :meth:`ReplayEngine.replay` run produced."""

    platform: str
    model_name: str
    events: int = 0
    ces: int = 0
    ues: int = 0
    mem_events: int = 0
    scored: int = 0
    batches: int = 0
    seconds: float = 0.0
    predict_seconds: float = 0.0
    events_per_second: float = 0.0
    scores_per_second: float = 0.0
    scored_dimms: int = 0
    fallbacks: int = 0
    threshold: float = 0.0
    live_from_hour: float = 0.0
    engine: str = "per_event"
    #: Wall seconds by stage: ``ingest`` (stream walk + state updates),
    #: ``features`` (feature serving / kernel build), ``predict``
    #: (``predict_proba``), ``alarms`` (alarm + incident decisions).
    stage_seconds: dict = field(default_factory=dict)
    alarms: dict = field(default_factory=dict)
    bus_counts: dict = field(default_factory=dict)
    #: Degradation accounting: quarantined rejects (by typed reason),
    #: fallback-served scores, late-arrival rebuilds, collector outage
    #: seconds (filled in by the chaos scenario — the engine cannot know).
    health: dict = field(default_factory=dict)
    #: True when the walk was stopped early by ``halt_after`` (the report
    #: is partial: only ``events`` and ``seconds`` are filled in).
    halted: bool = False
    parity: dict | None = None
    #: Worker/partition stats of a distributed replay; empty in-process.
    distributed: dict = field(default_factory=dict)

    @classmethod
    def from_fleet(cls, report, platform: str) -> StreamingReport:
        """``platform``'s view of a one-platform ``FleetReport``.

        Counts, alarms, health and parity come from the platform's entry;
        timings, stages and bus counts are the run's, which for a
        one-platform replay are the platform's.
        """
        per = report.platforms.get(platform, {})
        seconds = report.seconds
        scored = per.get("scored", 0)
        return cls(
            platform=platform,
            model_name=per.get("model", ""),
            events=per.get("events", report.events),
            ces=per.get("ces", 0),
            ues=per.get("ues", 0),
            mem_events=per.get("mem_events", 0),
            scored=scored,
            batches=per.get("batches", 0),
            seconds=seconds,
            predict_seconds=report.predict_seconds,
            events_per_second=report.events_per_second,
            scores_per_second=scored / seconds if seconds > 0 else 0.0,
            scored_dimms=per.get("scored_dimms", 0),
            fallbacks=per.get("fallbacks", 0),
            threshold=per.get("threshold", 0.0),
            live_from_hour=per.get("live_from_hour", 0.0),
            engine=report.engine,
            stage_seconds=dict(report.stage_seconds),
            alarms=dict(per.get("alarms", {})),
            bus_counts=dict(report.bus_counts),
            health=dict(per.get("health", {})),
            halted=report.halted,
            parity=per.get("parity"),
            distributed=dict(report.distributed),
        )

    def to_dict(self) -> dict:
        payload = {
            "platform": self.platform,
            "model": self.model_name,
            "engine": self.engine,
            "events": self.events,
            "ces": self.ces,
            "ues": self.ues,
            "mem_events": self.mem_events,
            "scored": self.scored,
            "batches": self.batches,
            "seconds": round(self.seconds, 4),
            "predict_seconds": round(self.predict_seconds, 4),
            "events_per_second": round(self.events_per_second, 1),
            "scores_per_second": round(self.scores_per_second, 1),
            "scored_dimms": self.scored_dimms,
            "fallbacks": self.fallbacks,
            "threshold": self.threshold,
            "live_from_hour": self.live_from_hour,
            "stage_seconds": {
                stage: round(seconds, 4)
                for stage, seconds in self.stage_seconds.items()
            },
            "alarms": dict(self.alarms),
            "bus_counts": dict(self.bus_counts),
            "health": dict(self.health),
        }
        if self.halted:
            payload["halted"] = True
        if self.parity is not None:
            payload["parity"] = dict(self.parity)
        if self.distributed:
            payload["distributed"] = dict(self.distributed)
        return payload


class ReplayEngine:
    """Streaming scorer over one campaign's telemetry (a fleet of one)."""

    def __init__(
        self,
        pipeline,
        model,
        threshold: float,
        platform: str,
        configs: dict,
        labeling: LabelingParams | None = None,
        *,
        bus: EventBus | None = None,
        live_from_hour: float = 0.0,
        alarm_from_hour: float | None = None,
        min_ces_before_scoring: int = 2,
        rescore_interval_hours: float = 0.0,
        batch_size: int = 256,
        verify_parity: bool = False,
        engine: str = "batched",
        score_hook=None,
        collect_scores: bool = False,
        obs=None,
        obs_labels: dict | None = None,
        heartbeat_every: int = 0,
    ):
        if engine not in REPLAY_ENGINES:
            raise ValueError(
                f"unknown replay engine {engine!r}; expected one of "
                f"{REPLAY_ENGINES}"
            )
        self.platform = platform
        self.engine = engine
        self.bus = bus if bus is not None else EventBus()
        # Every ServingAssignment field but model_name, a replay() argument.
        self._assignment = dict(
            platform=platform,
            train_platform=platform,
            model=model,
            threshold=float(threshold),
            pipeline=pipeline,
            configs=configs,
            live_from_hour=float(live_from_hour),
            alarm_from_hour=alarm_from_hour,
        )
        self._settings = dict(
            labeling=labeling,
            bus=self.bus,
            min_ces_before_scoring=min_ces_before_scoring,
            rescore_interval_hours=rescore_interval_hours,
            batch_size=batch_size,
            engine=engine,
            collect_scores=collect_scores,
            score_hook=score_hook,
            verify_parity=verify_parity,
            obs=obs,
            obs_labels=obs_labels,
            heartbeat_every=heartbeat_every,
        )
        #: Filled in by :meth:`replay`: the platform's alarm manager, its
        #: settled :class:`~repro.fleetops.cost.CostSummary` (no policy;
        #: ``None`` when halted), its ``(dimm_id, t, score)`` log when
        #: ``collect_scores``, and the ``verify_parity`` counters.
        self.alarms = None
        self.cost = None
        self.score_log: list[tuple[str, float, float]] = []
        self.parity_checked = 0
        self.parity_mismatches = 0

    def replay(
        self,
        store,
        model_name: str = "",
        *,
        checkpoint_every: int = 0,
        checkpoint_path=None,
        resume_from=None,
        halt_after: int | None = None,
    ) -> StreamingReport:
        """Replay every record in ``store`` (a :class:`LogStore`).

        Quarantine and the checkpoint knobs are
        :meth:`FleetReplayEngine.replay`'s; checkpoints are fleet
        checkpoints (``kind="fleet"``).  A resumed replay reproduces the
        uninterrupted run's score log, alarms and bus counts exactly.
        """
        # fleetops imports this module (REPLAY_ENGINES), so import late.
        from repro.fleetops.engine import FleetReplayEngine, ServingAssignment
        from repro.fleetops.stream import merge_fleet_streams

        platform = self.platform
        assignment = ServingAssignment(
            model_name=model_name, **self._assignment
        )
        fleet = FleetReplayEngine({platform: assignment}, **self._settings)
        stores = {platform: store}
        stream = merge_fleet_streams(
            stores, decode_payloads=(self.engine == "per_event")
        )
        report = fleet.replay(
            stream,
            stores,
            checkpoint_every=checkpoint_every,
            checkpoint_path=checkpoint_path,
            resume_from=resume_from,
            halt_after=halt_after,
        )
        runtime = fleet.runtimes[platform]
        self.alarms = runtime.alarms
        self.cost = fleet.cost_summaries.get(platform)
        self.score_log = fleet.score_logs.get(platform, [])
        self.parity_checked = runtime.parity_checked
        self.parity_mismatches = runtime.parity_mismatches
        return StreamingReport.from_fleet(report, platform)
