"""The :class:`Observability` bundle + report-to-registry migration.

One ``Observability`` (a :class:`~repro.obs.metrics.MetricsRegistry`
plus a :class:`~repro.obs.tracing.Tracer`) is created per instrumented
run and threaded through the engines.  The ``record_*`` methods are the
single place where the stack's scattered per-report ledgers —
``stage_seconds``, alarm summaries, chaos health ledgers, bus counts,
SLO counters — are projected onto registry instruments, so every
exported metric is derived from the same run artifacts the parity
gates pin.

Instrument catalog (all names prefixed ``repro_``):

======================================  =========  =======================
name                                    type       labels
======================================  =========  =======================
repro_replay_events_total               counter    platform, model, engine
repro_replay_ces_total                  counter    platform, model, engine
repro_replay_ues_total                  counter    platform, model, engine
repro_replay_mem_events_total           counter    platform, model, engine
repro_replay_scored_total               counter    platform, model, engine
repro_replay_batches_total              counter    platform, model, engine
repro_replay_predicted_total            counter    platform, model, engine
repro_replay_fallback_scores_total      counter    platform, model, engine
repro_replay_late_rebuilds_total        counter    platform, model, engine
repro_replay_stage_seconds_total        counter    stage + the above
repro_replay_wall_seconds_total         counter    platform, model, engine
repro_alarms_total                      counter    disposition + the above
repro_alarm_quality                     gauge      measure + the above
repro_quarantine_rejected_events_total  counter    platform, model, engine
repro_quarantine_rejects_total          counter    reason + the above
repro_bus_messages_total                counter    topic
repro_fleet_cost                        gauge      field
repro_fleet_actions_total               counter    action
repro_serve_requests_total              counter    outcome
repro_serve_batches_total               counter    (none)
repro_serve_latency_ms                  gauge      quantile
repro_serve_throughput_rps              gauge      (none)
repro_serve_latency_seconds             histogram  (none)
repro_serve_batch_size                  histogram  (none)
repro_cache_requests_total              counter    kind, tier
repro_logstore_skipped_lines_total      counter    source
repro_heartbeat                         gauge      source, field, worker
repro_heartbeats_total                  counter    source, worker
repro_alerts_total                      counter    rule, severity
repro_dashboard_*                       (shim)     see repro.mlops.monitoring
======================================  =========  =======================

Distributed runs fold each worker's registry snapshot into the
coordinator's under a ``worker`` label (``w0``, ``w1``, ...; the
coordinator's own merged-report samples carry ``worker="merged"`` and
local heartbeats ``worker=""``), so one scrape shows the whole run.

Span naming convention: dotted lowercase paths rooted at the verb —
``fleet_replay`` / ``coordinator`` / ``serve`` / ``build_samples`` /
``cache`` — with stage children like ``fleet_replay.stage.predict``.
Every replay, single-platform or fleet, is a ``fleet_replay`` span with
``.quarantine``, ``.kernel_build`` (batched engine), ``.finalize`` and
``.stage.*`` children.  Spans exist at *stage* granularity only (never
per flush or per event), so the tree shape is a deterministic function
of the input.

Heartbeat sources: ``fleet_replay`` (every replay walk, including a
distributed worker's, folded under its ``worker`` label), ``serve``
(the async scoring service) and ``build_samples`` (offline extraction).
"""

from __future__ import annotations

import threading

from .metrics import MetricsRegistry
from .timeseries import SnapshotSeries
from .tracing import Tracer

__all__ = ["Observability"]

#: Batch-size-shaped buckets for the serving micro-batcher.
BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

_ALARM_DISPOSITIONS = ("raised", "suppressed", "tp", "late", "fp", "censored")
_ALARM_QUALITY = ("precision", "recall", "f1")


class Observability:
    """Registry + tracer bundle for one instrumented run."""

    def __init__(self, metrics=None, tracer=None, alerts=None):
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else Tracer()
        # The telemetry server scrapes from its own threads while the
        # replay heartbeats from the run thread; every mutation and
        # every snapshot goes through this lock so scrapes are never
        # torn.  Reentrant: record_* methods may nest under heartbeat.
        self.lock = threading.RLock()
        self.progress = SnapshotSeries()
        self.alerts = alerts

    def payload(self) -> dict:
        """The JSON-serializable ``extras["observability"]`` artifact."""
        with self.lock:
            return {
                "metrics": self.metrics.snapshot(),
                "spans": self.tracer.tree(),
            }

    # -- live telemetry ----------------------------------------------------

    def heartbeat(self, source: str, fields: dict, worker: str = "") -> None:
        """Publish one in-flight snapshot: gauges, series, alert rules.

        Strictly write-only (the obs-parity discipline): the replay
        path never reads heartbeat state back, so score logs, alarms,
        bus counts and cost digests are bit-identical with heartbeats
        on.  ``fields`` is a flat dict; numeric values become
        ``repro_heartbeat{source,field,worker}`` gauges, everything
        lands in the :class:`SnapshotSeries` behind ``/progress``.
        """
        with self.lock:
            self.metrics.counter(
                "repro_heartbeats_total",
                "Heartbeat snapshots published.",
                labels=("source", "worker"),
            ).labels(source=source, worker=worker).inc()
            gauge = self.metrics.gauge(
                "repro_heartbeat",
                "Most recent in-flight heartbeat fields.",
                labels=("source", "field", "worker"),
            )
            for key in sorted(fields):
                value = fields[key]
                if isinstance(value, (int, float)):
                    gauge.labels(
                        source=source, field=key, worker=worker
                    ).set(value)
            self.progress.append(source, fields)
            if self.alerts is not None:
                self.alerts.evaluate(source, fields, self.metrics)

    def fold_payload(self, payload: dict, worker: str) -> None:
        """Fold a worker's snapshot payload into this registry.

        Every folded sample lands under a ``worker`` label (appended to
        the family's schema, or overriding the existing ``worker``
        value for families — like heartbeats — that already carry one),
        so the coordinator's single scrape exposes per-worker series
        next to its own ``worker="merged"`` report.
        """
        with self.lock:
            self._fold_metrics(payload.get("metrics", {}), str(worker))

    def _fold_metrics(self, metrics: dict, worker: str) -> None:
        reg = self.metrics
        for name in sorted(metrics):
            entry = metrics[name]
            names = tuple(entry.get("label_names", ()))
            schema = names if "worker" in names else names + ("worker",)
            kind = entry["type"]
            help_text = entry.get("help", "")
            if kind == "histogram":
                family = reg.histogram(
                    name, help_text, labels=schema,
                    buckets=tuple(float(b) for b in entry["bounds"]),
                )
            elif kind == "gauge":
                family = reg.gauge(name, help_text, labels=schema)
            else:
                family = reg.counter(name, help_text, labels=schema)
            for sample in entry["samples"]:
                labels = dict(sample["labels"])
                labels["worker"] = worker
                child = family.labels(**labels)
                if kind == "histogram":
                    previous = 0.0
                    cumulative = sample["buckets"]
                    for i, le in enumerate(
                        list(entry["bounds"]) + ["+Inf"]
                    ):
                        total = float(cumulative.get(le, previous))
                        child.bucket_counts[i] += int(total - previous)
                        previous = total
                    child.sum += float(sample["sum"])
                    child.count += int(sample["count"])
                elif kind == "gauge":
                    child.set(sample["value"])
                else:
                    child.inc(sample["value"])

    # -- shared pieces -----------------------------------------------------

    def _replay_counter(self, name, help_text, label_names, extra=()):
        return self.metrics.counter(
            name, help_text, labels=tuple(label_names) + tuple(extra)
        )

    def _record_replay_ledgers(
        self, labels, *, stage_seconds, alarms, health, wall_seconds
    ):
        names = tuple(sorted(labels))
        reg = self.metrics
        for stage in sorted(stage_seconds):
            reg.counter(
                "repro_replay_stage_seconds_total",
                "Accumulated wall seconds per replay stage.",
                labels=("stage",) + names,
            ).labels(stage=stage, **labels).inc(stage_seconds[stage])
        reg.counter(
            "repro_replay_wall_seconds_total",
            "End-to-end replay wall seconds.",
            labels=names,
        ).labels(**labels).inc(wall_seconds)
        for disposition in _ALARM_DISPOSITIONS:
            if disposition in alarms:
                reg.counter(
                    "repro_alarms_total",
                    "Alarm incidents by disposition.",
                    labels=("disposition",) + names,
                ).labels(disposition=disposition, **labels).inc(
                    alarms[disposition]
                )
        for measure in _ALARM_QUALITY:
            if measure in alarms:
                reg.gauge(
                    "repro_alarm_quality",
                    "Alarm-level precision/recall/F1.",
                    labels=("measure",) + names,
                ).labels(measure=measure, **labels).set(alarms[measure])
        reg.counter(
            "repro_quarantine_rejected_events_total",
            "Telemetry records quarantined to the dead-letter topic.",
            labels=names,
        ).labels(**labels).inc(health.get("rejected_events", 0))
        for reason in sorted(health.get("rejects", {})):
            reg.counter(
                "repro_quarantine_rejects_total",
                "Quarantined records by typed RejectReason.",
                labels=("reason",) + names,
            ).labels(reason=reason, **labels).inc(health["rejects"][reason])

    def _record_counts(self, labels, counts):
        names = tuple(sorted(labels))
        helps = {
            "events": "Telemetry events replayed.",
            "ces": "Correctable errors replayed.",
            "ues": "Uncorrectable errors replayed.",
            "mem_events": "Non-CE/UE memory events replayed.",
            "scored": "Model scores produced.",
            "batches": "Micro-batch flushes.",
            "predicted": "Rows passed to the model's predict_proba.",
            "fallback_scores": "Degraded (model-free) scores served.",
            "late_rebuilds": "Late out-of-order state rebuilds.",
        }
        for key, value in counts.items():
            self.metrics.counter(
                "repro_replay_%s_total" % key, helps[key], labels=names
            ).labels(**labels).inc(value)

    def _record_bus(self, bus_counts, extra_labels=None):
        extra = dict(extra_labels or {})
        family = self.metrics.counter(
            "repro_bus_messages_total",
            "EventBus messages published, by topic.",
            labels=("topic",) + tuple(sorted(extra)),
        )
        for topic in sorted(bus_counts):
            family.labels(topic=topic, **extra).inc(bus_counts[topic])

    # -- report projections ------------------------------------------------

    def record_fleet_report(self, report, extra_labels=None) -> None:
        """Project one ``FleetReport`` (merged heterogeneous replay)."""
        extra = dict(extra_labels or {})
        with self.lock:
            for platform in sorted(report.platforms):
                per = report.platforms[platform]
                labels = {
                    "platform": platform,
                    "model": per.get("model", ""),
                    "engine": report.engine,
                }
                labels.update(extra)
                self._record_counts(labels, {
                    "events": per.get("events", 0),
                    "ces": per.get("ces", 0),
                    "ues": per.get("ues", 0),
                    "mem_events": per.get("mem_events", 0),
                    "scored": per.get("scored", 0),
                    "batches": per.get("batches", 0),
                    "predicted": per.get("predicted", 0),
                    "fallback_scores": per.get("fallbacks", 0),
                })
                self._record_replay_ledgers(
                    labels,
                    stage_seconds={},
                    alarms=per.get("alarms") or {},
                    health=per.get("health") or {},
                    wall_seconds=0.0,
                )
            fleet_labels = {
                "platform": "fleet", "model": "", "engine": report.engine,
            }
            fleet_labels.update(extra)
            self._record_counts(fleet_labels, {
                "events": report.events,
                "scored": report.scored,
            })
            self._record_replay_ledgers(
                fleet_labels,
                stage_seconds=report.stage_seconds,
                alarms={},
                health=report.health or {},
                wall_seconds=report.seconds,
            )
            cost_gauge = self.metrics.gauge(
                "repro_fleet_cost",
                "Settled fleet cost summary fields.",
                labels=("field",) + tuple(sorted(extra)),
            )
            for key in sorted(report.fleet_cost or {}):
                value = report.fleet_cost[key]
                if isinstance(value, (int, float)):
                    cost_gauge.labels(field=key, **extra).set(value)
            actions = self.metrics.counter(
                "repro_fleet_actions_total",
                "Mitigation actions taken by the policy engine.",
                labels=("action",) + tuple(sorted(extra)),
            )
            for key in sorted(report.actions or {}):
                value = report.actions[key]
                if isinstance(value, (int, float)):
                    actions.labels(action=key, **extra).inc(value)
            self._record_bus(report.bus_counts or {}, extra)

    def record_service_stats(self, stats) -> None:
        """Project one ``ServiceStats`` (async serving SLO counters)."""
        with self.lock:
            self._record_service_stats(stats)

    def _record_service_stats(self, stats) -> None:
        reg = self.metrics
        requests = reg.counter(
            "repro_serve_requests_total",
            "Serving requests by outcome.",
            labels=("outcome",),
        )
        for outcome in (
            "submitted", "answered", "scored", "skipped", "shed", "fallbacks",
        ):
            requests.labels(outcome=outcome).inc(getattr(stats, outcome))
        reg.counter(
            "repro_serve_batches_total", "Model micro-batches scored."
        ).inc(stats.batches)
        summary = stats.summary()
        latency = reg.gauge(
            "repro_serve_latency_ms",
            "Scored-request latency quantiles (milliseconds).",
            labels=("quantile",),
        )
        for quantile in ("p50", "p95", "p99"):
            latency.labels(quantile=quantile).set(summary[quantile + "_ms"])
        reg.gauge(
            "repro_serve_throughput_rps", "Answered requests per second."
        ).set(summary["throughput_rps"])
        hist = reg.histogram(
            "repro_serve_latency_seconds",
            "Scored-request latency distribution.",
        )
        hist._default().observe_many(stats.latencies)
        sizes = reg.histogram(
            "repro_serve_batch_size",
            "Micro-batch size distribution.",
            buckets=BATCH_SIZE_BUCKETS,
        )
        sizes._default().observe_many(stats.batch_sizes)
