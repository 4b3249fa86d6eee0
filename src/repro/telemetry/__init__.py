"""Telemetry substrate: records, MCE codec, BMC collection, log store."""

from repro.telemetry.bmc import BmcCollector, BmcStats
from repro.telemetry.columnar import (
    FleetArrays,
    RecordEncodingError,
    TelemetryColumns,
    segmented_searchsorted,
)
from repro.telemetry.log_store import LogStore, iter_stream
from repro.telemetry.mce import McaSignal, decode_mce, encode_mce
from repro.telemetry.records import (
    CERecord,
    DimmConfigRecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
    record_from_dict,
)

__all__ = [
    "BmcCollector",
    "BmcStats",
    "CERecord",
    "DimmConfigRecord",
    "FleetArrays",
    "LogStore",
    "RecordEncodingError",
    "TelemetryColumns",
    "McaSignal",
    "MemEventKind",
    "MemEventRecord",
    "UERecord",
    "decode_mce",
    "encode_mce",
    "iter_stream",
    "record_from_dict",
    "segmented_searchsorted",
]
