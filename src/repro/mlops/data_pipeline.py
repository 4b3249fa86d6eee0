"""Data pipeline: raw sources -> Data Lake (paper Figure 6, left).

The pipeline is an ordered chain of named stages (validation,
deduplication, ordering) run in the order they were added, each feeding
the next — a single-process realization of the paper's DLI-based
ingestion.  Stages are plain callables so tests can inject failures at
any point.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.telemetry.columnar import TelemetryColumns
from repro.telemetry.log_store import LogStore
from repro.telemetry.records import record_from_dict


@dataclass
class StageResult:
    stage: str
    records_in: int
    records_out: int
    seconds: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class DataPipeline:
    """An ordered chain of ingestion stages feeding the data lake."""

    def __init__(self) -> None:
        self._stages: dict[str, Callable[[list], list]] = {}
        self.runs: list[list[StageResult]] = []

    def add_stage(self, name: str, func: Callable[[list], list]) -> None:
        """Append a stage; it runs on the output of the stage added before it."""
        if name in self._stages:
            raise ValueError(f"duplicate stage {name!r}")
        self._stages[name] = func

    def run(self, records: list) -> tuple[list, list[StageResult]]:
        """Push records through every stage in the order they were added."""
        results: list[StageResult] = []
        current = records
        for name, stage in self._stages.items():
            started = time.perf_counter()
            try:
                output = stage(current)
                results.append(
                    StageResult(
                        stage=name,
                        records_in=len(current),
                        records_out=len(output),
                        seconds=time.perf_counter() - started,
                    )
                )
                current = output
            except Exception as exc:  # noqa: BLE001 - surfaced to monitoring
                results.append(
                    StageResult(
                        stage=name,
                        records_in=len(current),
                        records_out=0,
                        seconds=time.perf_counter() - started,
                        error=f"{type(exc).__name__}: {exc}",
                    )
                )
                self.runs.append(results)
                return [], results
        self.runs.append(results)
        return current, results


@dataclass
class DataLake:
    """Durable record storage with per-source partitions (JSONL files)."""

    root: Path
    partitions: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        self.root.mkdir(parents=True, exist_ok=True)

    def write_partition(self, source: str, records: list) -> Path:
        path = self.root / f"{source}.jsonl"
        with path.open("a", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict()) + "\n")
        self.partitions[source] = self.partitions.get(source, 0) + len(records)
        return path

    def read_partition(self, source: str) -> list:
        """One partition's records in write order.

        A line the store cannot hold (broken JSON, JSON nested too deeply
        to parse, a non-object, a missing or mistyped field) raises
        ``ValueError`` naming the file and line.
        """
        path = self.root / f"{source}.jsonl"
        if not path.exists():
            return []
        # Typed exactly as LogStore ingestion will hold each record.
        check = TelemetryColumns().encode_payload
        records = []
        with path.open("r", encoding="utf-8") as handle:
            for number, line in enumerate(handle, 1):
                if not line.strip():
                    continue
                try:
                    payload = json.loads(line)
                    if type(payload) is not dict:
                        raise ValueError("not a JSON object")
                    records.append(record_from_dict(payload))
                    if payload["record_type"] != "config":
                        check(payload)
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise ValueError(
                        f"malformed record at {path}:{number}: {exc}"
                    ) from exc
        return records

    def as_log_store(self, sources: tuple[str, ...] | None = None) -> LogStore:
        store = LogStore()
        names = sources if sources is not None else tuple(self.partitions)
        for source in names:
            store.ingest_bulk(self.read_partition(source))
        return store


def default_ingestion_pipeline() -> DataPipeline:
    """The standard chain: validate -> deduplicate -> sort by time."""
    pipeline = DataPipeline()

    def validate(records: list) -> list:
        return [r for r in records if getattr(r, "timestamp_hours", 0.0) >= 0.0]

    def deduplicate(records: list) -> list:
        seen: set[tuple] = set()
        unique = []
        for record in records:
            key = (
                type(record).__name__,
                getattr(record, "dimm_id", ""),
                round(getattr(record, "timestamp_hours", 0.0), 9),
                getattr(record, "row", -1),
                getattr(record, "column", -1),
            )
            if key not in seen:
                seen.add(key)
                unique.append(record)
        return unique

    def sort_by_time(records: list) -> list:
        return sorted(records, key=lambda r: getattr(r, "timestamp_hours", 0.0))

    pipeline.add_stage("validate", validate)
    pipeline.add_stage("deduplicate", deduplicate)
    pipeline.add_stage("sort", sort_by_time)
    return pipeline
