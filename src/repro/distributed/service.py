"""Async batched scoring front end over the online serving path.

:class:`AsyncScoringService` wraps one
:class:`~repro.mlops.serving.OnlinePredictionService` with an asyncio
micro-batching loop: callers ``await submit(record)`` and get back the
same answer :meth:`OnlinePredictionService.observe` would have produced,
but model calls are coalesced — requests that arrive within
``max_wait_ms`` of each other (up to ``max_batch``) share ONE
``predict_proba`` call.  The split rides the serving path's
``ingest`` / ``complete`` halves, so state updates, gating, degraded
serving and alarm accounting stay on the single-threaded event loop and
remain bit-identical to the synchronous path.

Backpressure is explicit and lossless: the batch queue is bounded at
``max_queue``; when it is full the request is **shed** to the
model-free degradation ladder (stale score, then the risky-CE
heuristic) and still answered — no request is ever dropped.  SLO
counters record p50/p95/p99 latency, throughput, a batch-size
histogram, and shed / fallback counts.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field

import numpy as np

from repro.mlops.serving import Alarm, OnlinePredictionService, PreparedRequest
from repro.obs.metrics import percentile
from repro.telemetry.records import CERecord

_STOP = object()


@dataclass
class ServiceStats:
    """SLO counters for one :class:`AsyncScoringService` run."""

    submitted: int = 0
    answered: int = 0
    scored: int = 0  # requests answered via a model batch
    skipped: int = 0  # gated out by the serving path (no score needed)
    shed: int = 0  # queue-full -> degraded answer
    fallbacks: int = 0  # degraded answers (shed + ingest/predict failures)
    batches: int = 0
    latencies: list = field(default_factory=list)  # seconds, scored only
    batch_sizes: list = field(default_factory=list)
    wall_seconds: float = 0.0

    def summary(self) -> dict:
        # Deterministic nearest-rank percentiles, well-defined on every
        # sample count: 0 completed requests -> 0.0, 1 -> that latency
        # (np.percentile would interpolate and IndexError/NaN on empty).
        latencies_ms = [lat * 1e3 for lat in self.latencies]
        percentiles = {
            "p50_ms": percentile(latencies_ms, 50),
            "p95_ms": percentile(latencies_ms, 95),
            "p99_ms": percentile(latencies_ms, 99),
        }
        histogram: dict[int, int] = {}
        for size in self.batch_sizes:
            histogram[size] = histogram.get(size, 0) + 1
        return {
            "submitted": self.submitted,
            "answered": self.answered,
            "scored": self.scored,
            "skipped": self.skipped,
            "shed": self.shed,
            "fallbacks": self.fallbacks,
            "batches": self.batches,
            "lost": self.submitted - self.answered,
            "mean_batch": (
                float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0
            ),
            "batch_histogram": {
                str(size): count for size, count in sorted(histogram.items())
            },
            "throughput_rps": (
                self.answered / self.wall_seconds
                if self.wall_seconds > 0
                else 0.0
            ),
            **percentiles,
        }


class AsyncScoringService:
    """Micro-batching asyncio front end; start inside a running loop."""

    def __init__(
        self,
        service: OnlinePredictionService,
        *,
        max_batch: int = 64,
        max_wait_ms: float = 2.0,
        max_queue: int = 256,
        obs=None,
        heartbeat_every: int = 0,
    ):
        self.service = service
        self.max_batch = max(1, int(max_batch))
        self.max_wait_s = max(0.0, float(max_wait_ms)) / 1e3
        self.max_queue = max(1, int(max_queue))
        self.stats = ServiceStats()
        #: Publish a live ``serve`` heartbeat every N submissions
        #: (0 = off).  Request-count based, so the heartbeat *schedule*
        #: is deterministic; heartbeats are write-only and never feed
        #: back into batching or shedding decisions.
        self.heartbeat_every = int(heartbeat_every)
        #: Optional :class:`repro.obs.Observability` bundle.  The batch
        #: lifecycle gets ONE span at :meth:`stop` (batch boundaries are
        #: timing-dependent, so per-batch spans would not be
        #: deterministic); SLO counters land in the registry then too.
        self.obs = obs
        self._queue: asyncio.Queue | None = None
        self._task: asyncio.Task | None = None
        self._started = 0.0

    async def start(self) -> None:
        self._queue = asyncio.Queue(maxsize=self.max_queue)
        self._task = asyncio.get_running_loop().create_task(
            self._batch_loop()
        )
        self._started = time.perf_counter()

    async def stop(self) -> None:
        """Flush the queue, score everything pending, stop the batcher."""
        if self._queue is None:
            return
        await self._queue.put(_STOP)
        await self._task
        self.stats.wall_seconds = time.perf_counter() - self._started
        self._queue = None
        self._task = None
        if self.obs is not None:
            self.obs.tracer.record(
                "serve.batch_loop",
                wall_seconds=self.stats.wall_seconds,
                submitted=self.stats.submitted,
                answered=self.stats.answered,
                batches=self.stats.batches,
            )
            self.obs.record_service_stats(self.stats)

    async def submit(self, record) -> Alarm | None:
        """Feed one telemetry record; same answer as ``observe(record)``.

        Non-CE records (events, UEs) update state synchronously.  CEs
        that pass the serving gates join the current micro-batch; when
        the queue is full the request is shed to the degradation ladder
        and still answered immediately.
        """
        self.stats.submitted += 1
        if (
            self.obs is not None
            and self.heartbeat_every
            and self.stats.submitted % self.heartbeat_every == 0
        ):
            stats = self.stats
            self.obs.heartbeat(
                "serve",
                {
                    "submitted": stats.submitted,
                    "answered": stats.answered,
                    "scored": stats.scored,
                    "shed": stats.shed,
                    "fallbacks": stats.fallbacks,
                    "batches": stats.batches,
                    "queue_depth": (
                        self._queue.qsize() if self._queue is not None else 0
                    ),
                    "p99_ms": percentile(
                        [lat * 1e3 for lat in stats.latencies], 99
                    ),
                },
            )
        if not isinstance(record, CERecord):
            answer = self.service.observe(record)
            self.stats.answered += 1
            return answer
        t0 = time.perf_counter()
        prepared = self.service.ingest(record)
        if prepared is None:
            self.stats.skipped += 1
            self.stats.answered += 1
            return None
        if prepared.fallback_score is not None:
            # Feature extraction already degraded in ingest; the answer
            # needs no model call, so it skips the queue entirely.
            self.stats.fallbacks += 1
            self.stats.answered += 1
            return self.service.complete(prepared, prepared.fallback_score)
        try:
            future = asyncio.get_running_loop().create_future()
            self._queue.put_nowait((prepared, future, t0))
        except asyncio.QueueFull:
            # Backpressure: shed to the model-free ladder, still answer.
            self.stats.shed += 1
            self.stats.fallbacks += 1
            self.stats.answered += 1
            prepared.fallback_score = self.service._degraded_score(
                prepared.state, record.timestamp_hours
            )
            return self.service.complete(prepared, prepared.fallback_score)
        alarm = await future
        self.stats.answered += 1
        return alarm

    async def _batch_loop(self) -> None:
        """Cut micro-batches off the queue until the stop sentinel.

        Queued requests are taken without waiting; only an empty queue
        waits (until ``max_wait_s`` after the batch's first request), so
        a full queue costs no task or timer per request.
        """
        queue = self._queue
        loop = asyncio.get_running_loop()
        stopping = False
        while not stopping:
            item = await queue.get()
            if item is _STOP:
                break
            batch = [item]
            deadline = loop.time() + self.max_wait_s
            while len(batch) < self.max_batch:
                try:
                    nxt = queue.get_nowait()
                except asyncio.QueueEmpty:
                    timeout = deadline - loop.time()
                    if timeout <= 0:
                        break
                    try:
                        nxt = await asyncio.wait_for(queue.get(), timeout)
                    except asyncio.TimeoutError:
                        break
                if nxt is _STOP:
                    stopping = True
                    break
                batch.append(nxt)
            self._score_batch(batch)
        # Drain whatever raced in after the stop sentinel.
        tail = []
        while True:
            try:
                item = queue.get_nowait()
            except asyncio.QueueEmpty:
                break
            if item is not _STOP:
                tail.append(item)
        for lo in range(0, len(tail), self.max_batch):
            self._score_batch(tail[lo : lo + self.max_batch])

    def _score_batch(self, batch: list) -> None:
        """One coalesced model call; completes every request's future."""
        self.stats.batches += 1
        self.stats.batch_sizes.append(len(batch))
        # Group by production model: a registry promotion mid-stream may
        # split one micro-batch across model versions.
        groups: dict[int, list] = {}
        for entry in batch:
            groups.setdefault(id(entry[0].production), []).append(entry)
        now = time.perf_counter()
        for entries in groups.values():
            production = entries[0][0].production
            matrix = np.vstack(
                [prepared.features for prepared, _, _ in entries]
            )
            try:
                scores = np.asarray(
                    production.model.predict_proba(matrix), dtype=float
                )
            except Exception:
                self.service.extract_errors += len(entries)
                scores = None
            for position, (prepared, future, t0) in enumerate(entries):
                if scores is None:
                    self.stats.fallbacks += 1
                    score = prepared.fallback_score = (
                        self.service._degraded_score(
                            prepared.state, prepared.ce.timestamp_hours
                        )
                    )
                else:
                    self.stats.scored += 1
                    score = float(scores[position])
                alarm = self.service.complete(prepared, score)
                self.stats.latencies.append(now - t0)
                if not future.done():
                    future.set_result(alarm)


async def run_load(
    async_service: AsyncScoringService,
    records,
    *,
    concurrency: int = 32,
) -> list[Alarm]:
    """Drive a record stream through the service; returns fired alarms.

    ``concurrency`` submissions are kept in flight at once (a semaphore,
    not a thread pool — everything stays on the event loop), which is
    what lets the batcher coalesce: a serial await-each-record loop
    would produce single-row batches.
    """
    gate = asyncio.Semaphore(max(1, int(concurrency)))
    alarms: list[Alarm] = []

    async def one(record):
        async with gate:
            alarm = await async_service.submit(record)
            if alarm is not None:
                alarms.append(alarm)

    await async_service.start()
    try:
        await asyncio.gather(*(one(record) for record in records))
    finally:
        await async_service.stop()
    return alarms


def serve_stream(
    service: OnlinePredictionService,
    records,
    *,
    max_batch: int = 64,
    max_wait_ms: float = 2.0,
    max_queue: int = 256,
    concurrency: int = 32,
    obs=None,
    heartbeat_every: int = 0,
) -> tuple[list[Alarm], dict]:
    """Synchronous wrapper: batch-serve ``records``, return alarms + SLOs."""
    async_service = AsyncScoringService(
        service,
        max_batch=max_batch,
        max_wait_ms=max_wait_ms,
        max_queue=max_queue,
        obs=obs,
        heartbeat_every=heartbeat_every,
    )
    alarms = asyncio.run(
        run_load(async_service, records, concurrency=concurrency)
    )
    return alarms, async_service.stats.summary()
