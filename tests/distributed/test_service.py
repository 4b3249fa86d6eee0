"""Async batched serving: observe-equivalence, coalescing, backpressure."""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.distributed.service import AsyncScoringService, serve_stream
from repro.features.pipeline import FeaturePipeline
from repro.mlops.feature_store import FeatureStore
from repro.mlops.model_registry import ModelRegistry
from repro.mlops.serving import AlarmSystem, OnlinePredictionService
from repro.telemetry.log_store import LogStore, iter_stream
from repro.telemetry.records import CERecord, DimmConfigRecord, UERecord

N_DIMMS = 8


class SumModel:
    """Deterministic stateless scorer over the feature row sums."""

    def predict_proba(self, X):
        X = np.asarray(X, dtype=float)
        return 1.0 / (1.0 + np.exp(-X.sum(axis=1) / 50.0))


class ExplodingModel:
    def predict_proba(self, X):
        raise RuntimeError("model backend down")


def make_ce(t, dimm):
    return CERecord(
        timestamp_hours=t, server_id="s0", dimm_id=dimm, rank=0, bank=0,
        row=1, column=1, devices=(0,), dq_count=1, beat_count=1,
        dq_interval=0, beat_interval=0, error_bit_count=1,
    )


def make_config(dimm):
    return DimmConfigRecord(
        dimm_id=dimm, server_id="s0", platform="intel_purley",
        manufacturer="A", part_number="pn", capacity_gb=32, data_width=4,
        frequency_mts=2666, chip_process="1y",
    )


def make_records(n_per_dimm=12):
    records = []
    for step in range(n_per_dimm):
        for index in range(N_DIMMS):
            records.append(make_ce(1.0 + step + index / 100.0, f"d{index}"))
    records.sort(key=lambda r: r.timestamp_hours)
    return records


def make_service(model=None, threshold=0.9):
    store = LogStore()
    for index in range(N_DIMMS):
        store.add_config(make_config(f"d{index}"))
    pipeline = FeaturePipeline()
    pipeline.fit(store)
    registry = ModelRegistry()
    service = OnlinePredictionService(
        FeatureStore(pipeline), registry, AlarmSystem(), "intel_purley",
        min_ces_before_scoring=2, rescore_interval_hours=0.0,
    )
    for index in range(N_DIMMS):
        service.register_config(f"d{index}", make_config(f"d{index}"))
    version = registry.register(
        "intel_purley", "sum", model or SumModel(), threshold, {}
    )
    registry.promote_to_staging(version)
    registry.promote_to_production(version)
    return service


def alarm_keys(alarms):
    return sorted((a.dimm_id, a.timestamp_hours, a.score) for a in alarms)


class TestObserveEquivalence:
    def test_serial_submission_equals_sequential_observe(self):
        # concurrency=1 keeps per-DIMM request order identical to the
        # synchronous path, so every answer and counter must match
        # exactly (batches degenerate to single rows).
        records = make_records()
        sync_service = make_service(threshold=0.6)
        sync_alarms = [
            alarm
            for alarm in (sync_service.observe(r) for r in records)
            if alarm is not None
        ]
        async_service = make_service(threshold=0.6)
        batched_alarms, slo = serve_stream(
            async_service, records, concurrency=1
        )
        assert alarm_keys(batched_alarms) == alarm_keys(sync_alarms)
        assert async_service.scored == sync_service.scored
        assert slo["lost"] == 0
        assert slo["answered"] == len(records)

    def test_concurrent_submission_raises_the_same_alarms(self):
        # Under real concurrency same-DIMM requests can overlap in
        # flight, so scoring counters may differ from the serial path —
        # but the raised alarm set stays the same and nothing is lost.
        records = make_records()
        sync_service = make_service(threshold=0.6)
        sync_alarms = [
            alarm
            for alarm in (sync_service.observe(r) for r in records)
            if alarm is not None
        ]
        async_service = make_service(threshold=0.6)
        batched_alarms, slo = serve_stream(async_service, records)
        assert alarm_keys(batched_alarms) == alarm_keys(sync_alarms)
        assert slo["lost"] == 0
        assert slo["answered"] == len(records)

    def test_batches_actually_coalesce(self):
        records = make_records()
        service = make_service(threshold=0.99)
        _, slo = serve_stream(service, records, max_wait_ms=50.0)
        assert slo["scored"] > 0
        assert slo["mean_batch"] > 1.0
        assert slo["batches"] < slo["scored"]
        assert sum(
            int(size) * count
            for size, count in slo["batch_histogram"].items()
        ) == slo["scored"]

    def test_closed_loop_of_max_batch_submitters_fills_every_batch(self):
        """``max_batch`` clients that each await an answer before sending
        the next record: every batch but the last is full, and the alarms
        are serial ``observe()``'s."""
        records = make_records(n_per_dimm=30)
        sync_service = make_service(threshold=0.99)
        sync_alarms = [
            alarm
            for alarm in (sync_service.observe(r) for r in records)
            if alarm is not None
        ]
        max_batch = 8
        async_service = AsyncScoringService(
            make_service(threshold=0.99), max_batch=max_batch, max_wait_ms=20.0
        )
        alarms = []

        async def closed_loop():
            pending = iter(records)

            async def client():
                for record in pending:
                    alarm = await async_service.submit(record)
                    if alarm is not None:
                        alarms.append(alarm)

            await async_service.start()
            await asyncio.gather(*(client() for _ in range(max_batch)))
            await async_service.stop()

        asyncio.run(closed_loop())
        sizes = async_service.stats.batch_sizes
        assert len(sizes) > 10
        assert sizes[:-1] == [max_batch] * (len(sizes) - 1)
        assert sum(sizes) == async_service.stats.scored
        assert sync_alarms and alarm_keys(alarms) == alarm_keys(sync_alarms)
        assert async_service.stats.submitted == len(records)

    def test_slo_summary_shape(self):
        records = make_records()
        service = make_service()
        _, slo = serve_stream(service, records)
        for key in ("p50_ms", "p95_ms", "p99_ms", "throughput_rps",
                    "submitted", "answered", "lost", "shed", "fallbacks"):
            assert key in slo
        assert slo["p50_ms"] <= slo["p95_ms"] <= slo["p99_ms"]
        assert slo["submitted"] == len(records)


class TestRescoreThrottle:
    """The throttle is stamped at ingest, so a CE that arrives while its
    DIMM's previous request is in flight is throttled as in serial."""

    def _throttled_service(self, threshold=0.9):
        service = make_service(threshold=threshold)
        service.rescore_interval_hours = 1.0 / 12.0
        return service

    def _serial(self, records, threshold=0.9):
        service = self._throttled_service(threshold)
        alarms = [
            alarm
            for alarm in (service.observe(r) for r in records)
            if alarm is not None
        ]
        return service, alarms

    def test_second_ce_in_flight_is_skipped(self):
        records = [make_ce(1.0, "d0"), make_ce(2.0, "d0"),
                   make_ce(2.0 + 1.0 / 60.0, "d0")]
        serial, _ = self._serial(records)
        service = self._throttled_service()
        _, slo = serve_stream(service, records, concurrency=len(records))
        assert serial.scored == 1
        assert service.scored == 1
        assert slo["scored"] == 1 and slo["skipped"] == 2

    def test_ue_in_flight_clears_throttle_and_alarm(self):
        # d0's second CE alarms while in flight; the UE retires d0 before
        # that request completes, and the replacement DIMM (same id) must
        # score and alarm from its own first CEs, as in serial.
        ue = UERecord(timestamp_hours=2.01, server_id="s0", dimm_id="d0",
                      rank=0, bank=0, row=1, column=1, devices=(0,))
        replacement = [make_ce(2.02, "d0"), make_ce(2.03, "d0")]
        serial, serial_alarms = self._serial(
            [make_ce(1.0, "d0"), make_ce(2.0, "d0"), ue, *replacement],
            threshold=0.0,
        )
        service = self._throttled_service(threshold=0.0)
        service.observe(make_ce(1.0, "d0"))
        in_flight = service.ingest(make_ce(2.0, "d0"))
        service.observe(ue)
        alarms = [
            service.complete(in_flight, service.score_prepared(in_flight))
        ]
        alarms += [service.observe(ce) for ce in replacement]
        assert len(serial_alarms) == 2
        assert alarm_keys([a for a in alarms if a]) == alarm_keys(
            serial_alarms
        )
        assert service.scored == serial.scored == 2
        assert service.alarm_system.active_count == 1

    def test_purley_stream_at_concurrency_64_matches_serial(self, purley_sim):
        store = purley_sim.store
        pipeline = FeaturePipeline()
        pipeline.fit(store)

        def deployed():
            registry = ModelRegistry()
            service = OnlinePredictionService(
                FeatureStore(pipeline), registry, AlarmSystem(),
                "intel_purley",
            )
            for dimm_id, config in store.configs.items():
                service.register_config(dimm_id, config)
            version = registry.register(
                "intel_purley", "sum", SumModel(), 0.95, {}
            )
            registry.promote_to_staging(version)
            registry.promote_to_production(version)
            return service

        def keys(alarms):
            return sorted(
                (a.dimm_id, a.timestamp_hours, a.score, a.model_version)
                for a in alarms
            )

        def record_ingests(service):
            """Per CE: (DIMM alarmed at ingest, request prepared)."""
            seen = {}
            ingest = service.ingest

            def traced(ce):
                alarmed = ce.dimm_id in service._states and (
                    service._states[ce.dimm_id].alarmed
                )
                prepared = ingest(ce)
                seen[id(ce)] = (alarmed, prepared is not None)
                return prepared

            service.ingest = traced
            return seen

        records = list(iter_stream(store))
        serial = deployed()
        serial_seen = record_ingests(serial)
        serial_alarms = [
            alarm
            for alarm in (serial.observe(r) for r in records)
            if alarm is not None
        ]
        service = deployed()
        seen = record_ingests(service)
        alarms, slo = serve_stream(service, records, concurrency=64)
        assert serial_alarms
        assert keys(alarms) == keys(serial_alarms)
        assert slo["lost"] == 0 and slo["shed"] == 0
        # The only CEs scored beyond serial are those that arrive while
        # their DIMM's alarming request is still in flight: alarmed at
        # ingest serially, not yet alarmed in the service.
        assert seen.keys() == serial_seen.keys()
        extra = [
            key for key, (alarmed, prepared) in seen.items()
            if prepared and not serial_seen[key][1]
        ]
        assert all(
            serial_seen[key][0] and not seen[key][0] for key in extra
        )
        missing = [
            key for key, (_, prepared) in serial_seen.items()
            if prepared and not seen[key][1]
        ]
        assert missing == []
        assert service.scored - serial.scored == len(extra)


class TestBackpressure:
    def test_zero_lost_under_tiny_queue(self):
        records = make_records(n_per_dimm=20)
        service = make_service(threshold=0.6)
        alarms, slo = serve_stream(
            service, records, max_queue=1, max_batch=2, concurrency=64
        )
        assert slo["shed"] > 0  # the queue really overflowed
        assert slo["lost"] == 0  # ...and every request was still answered
        assert slo["answered"] == len(records)
        # Shed requests degrade but still account + can alarm.
        assert slo["fallbacks"] >= slo["shed"]

    def test_model_failure_degrades_whole_batch(self):
        records = make_records()
        service = make_service(model=ExplodingModel())
        _, slo = serve_stream(service, records)
        assert slo["lost"] == 0
        assert slo["scored"] == 0
        assert slo["fallbacks"] > 0
        assert service.extract_errors > 0


class TestStreamDriver:
    def test_iter_stream_feeds_the_service(self, purley_sim):
        import itertools

        store = purley_sim.store
        pipeline = FeaturePipeline()
        pipeline.fit(store)
        registry = ModelRegistry()
        service = OnlinePredictionService(
            FeatureStore(pipeline), registry, AlarmSystem(), "intel_purley",
            rescore_interval_hours=0.0,
        )
        for dimm_id, config in store.configs.items():
            service.register_config(dimm_id, config)
        version = registry.register(
            "intel_purley", "sum", SumModel(), 0.95, {}
        )
        registry.promote_to_staging(version)
        registry.promote_to_production(version)
        records = list(itertools.islice(iter_stream(store), 500))
        _, slo = serve_stream(service, records)
        assert slo["submitted"] == len(records)
        assert slo["lost"] == 0


class TestLifecycleEdges:
    def test_stop_without_start_is_a_noop(self):
        import asyncio

        service = AsyncScoringService(make_service())
        asyncio.run(service.stop())

    def test_empty_record_list(self):
        service = make_service()
        alarms, slo = serve_stream(service, [])
        assert alarms == []
        assert slo["submitted"] == 0
        assert slo["lost"] == 0
