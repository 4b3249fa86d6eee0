"""Telemetry record types.

These are the structured records the BMC pipeline emits (paper Section II-B:
"all these logs including Corrected and Uncorrected errors, events, and
memory specifications are recorded in the BMC").  Timestamps are simulation
hours (float) from the start of the observation campaign.

``fault_id`` on error records is *ground truth* carried through for analysis
and calibration only; the feature pipeline never reads it.
"""

from __future__ import annotations

import enum
import typing
from dataclasses import MISSING, dataclass, fields
from typing import Any


def _to_dict(record) -> dict[str, Any]:
    """``dataclasses.asdict`` without its deep copy (fields are flat)."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _from_dict(cls, payload: dict[str, Any], **convert):
    """``cls`` from its ``to_dict`` form.

    Fields with a default may be missing; ``convert`` maps a field name to
    the decoder of its JSON value (``devices`` list -> tuple, ...).
    """
    kwargs = {}
    for f in fields(cls):
        value = (
            payload[f.name] if f.default is MISSING
            else payload.get(f.name, f.default)
        )
        kwargs[f.name] = convert[f.name](value) if f.name in convert else value
    return cls(**kwargs)


class MemEventKind(enum.Enum):
    """Memory events recorded alongside raw errors."""

    CE_STORM = "ce_storm"
    CE_SUPPRESSED = "ce_suppressed"
    PAGE_OFFLINE = "page_offline"
    ROW_SPARED = "row_spared"
    BANK_SPARED = "bank_spared"
    PCLS_APPLIED = "pcls_applied"


@dataclass(frozen=True, slots=True)
class CERecord:
    """One corrected-error log entry."""

    timestamp_hours: float
    server_id: str
    dimm_id: str
    rank: int
    bank: int
    row: int
    column: int
    devices: tuple[int, ...]
    dq_count: int
    beat_count: int
    dq_interval: int
    beat_interval: int
    error_bit_count: int
    fault_id: int = -1  # ground truth, never a model feature

    @property
    def is_multi_device(self) -> bool:
        return len(self.devices) > 1

    def to_dict(self) -> dict[str, Any]:
        payload = _to_dict(self)
        payload["devices"] = list(self.devices)
        payload["record_type"] = "ce"
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "CERecord":
        return _from_dict(cls, payload, devices=tuple)


@dataclass(frozen=True, slots=True)
class UERecord:
    """One uncorrectable-error log entry."""

    timestamp_hours: float
    server_id: str
    dimm_id: str
    rank: int
    bank: int
    row: int
    column: int
    devices: tuple[int, ...]
    sudden: bool = False  # ground truth: no CE history before this UE
    fault_id: int = -1

    def to_dict(self) -> dict[str, Any]:
        payload = _to_dict(self)
        payload["devices"] = list(self.devices)
        payload["record_type"] = "ue"
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "UERecord":
        return _from_dict(cls, payload, devices=tuple)


@dataclass(frozen=True, slots=True)
class MemEventRecord:
    """One memory event (CE storm, page offline, sparing action, ...)."""

    timestamp_hours: float
    server_id: str
    dimm_id: str
    kind: MemEventKind
    detail: str = ""

    def to_dict(self) -> dict[str, Any]:
        return {
            "record_type": "event",
            "timestamp_hours": self.timestamp_hours,
            "server_id": self.server_id,
            "dimm_id": self.dimm_id,
            "kind": self.kind.value,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MemEventRecord":
        return _from_dict(cls, payload, kind=MemEventKind)


@dataclass(frozen=True, slots=True)
class DimmConfigRecord:
    """Static DIMM configuration as logged by the BMC inventory pass."""

    dimm_id: str
    server_id: str
    platform: str
    manufacturer: str
    part_number: str
    capacity_gb: int
    data_width: int
    frequency_mts: int
    chip_process: str

    def to_dict(self) -> dict[str, Any]:
        payload = _to_dict(self)
        payload["record_type"] = "config"
        return payload

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DimmConfigRecord":
        """Raises ``KeyError`` for a missing field and ``ValueError`` for a
        field that is not exactly its declared type (``str`` or ``int``;
        ``"capacity_gb": "32"``, ``"dimm_id": 7``, ...)."""
        for name, kind in _CONFIG_TYPES.items():
            if type(payload[name]) is not kind:
                raise ValueError(
                    f"config field {name}={payload[name]!r} is not "
                    f"{kind.__name__}"
                )
        return _from_dict(cls, payload)


#: ``DimmConfigRecord``'s fields and their exact types.
_CONFIG_TYPES = typing.get_type_hints(DimmConfigRecord)


RECORD_TYPES = {
    "ce": CERecord,
    "ue": UERecord,
    "event": MemEventRecord,
    "config": DimmConfigRecord,
}


def record_from_dict(payload: dict[str, Any]) -> Any:
    """Deserialize any telemetry record from its dict form."""
    kind = payload.get("record_type")
    if kind not in RECORD_TYPES:
        raise ValueError(f"unknown record_type {kind!r}")
    return RECORD_TYPES[kind].from_dict(payload)
