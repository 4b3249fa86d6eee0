"""BMC log-collection path.

The Baseboard Management Controller supervises the server and is where all
memory error logs land (paper Section II-B).  :class:`BmcCollector` is the
front end of the data pipeline: it accepts *raw* machine-check register
values, decodes them via :mod:`repro.telemetry.mce`, applies CE-storm
suppression, and appends structured records to a :class:`LogStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ras.ce_storm import CeStormDetector, StormAction, StormConfig
from repro.telemetry.log_store import LogStore
from repro.telemetry.mce import McaSignal, decode_mce
from repro.telemetry.records import (
    CERecord,
    MemEventKind,
    MemEventRecord,
    UERecord,
)


@dataclass
class BmcStats:
    """Collection-path counters (surfaced on the MLOps monitoring dashboard)."""

    ces_logged: int = 0
    ces_suppressed: int = 0
    ues_logged: int = 0
    storms: int = 0


class BmcCollector:
    """Decodes raw MCE registers into the log store, with storm suppression."""

    def __init__(
        self,
        store: LogStore,
        storm_config: StormConfig | None = None,
    ) -> None:
        self.store = store
        self.storm_detector = CeStormDetector(storm_config)
        self.stats = BmcStats()
        # DIMMs with a logged CE: a UE on any other DIMM is "sudden".
        self._dimms_with_ces = set(store.dimm_ids_with_ces())

    def collect_raw(
        self,
        timestamp_hours: float,
        server_id: str,
        dimm_id: str,
        status: int,
        addr: int,
        misc: int,
        fault_id: int = -1,
    ) -> StormAction | None:
        """Ingest one raw machine-check; returns the storm action for CEs."""
        signal = decode_mce(status, addr, misc)
        if signal.uncorrected:
            self._log_ue(timestamp_hours, server_id, dimm_id, signal, fault_id)
            return None
        return self._log_ce(timestamp_hours, server_id, dimm_id, signal, fault_id)

    def _log_ce(
        self,
        timestamp_hours: float,
        server_id: str,
        dimm_id: str,
        signal: McaSignal,
        fault_id: int,
    ) -> StormAction:
        action = self.storm_detector.observe(dimm_id, timestamp_hours)
        if action is StormAction.SUPPRESS:
            self.stats.ces_suppressed += 1
            return action
        if action is StormAction.STORM_START:
            self.stats.storms += 1
            self.store.add_event(
                MemEventRecord(
                    timestamp_hours=timestamp_hours,
                    server_id=server_id,
                    dimm_id=dimm_id,
                    kind=MemEventKind.CE_STORM,
                    detail=f"storm #{self.storm_detector.storm_count(dimm_id)}",
                )
            )
        devices = signal.devices or (signal.device,)
        self.store.add_ce(
            CERecord(
                timestamp_hours=timestamp_hours,
                server_id=server_id,
                dimm_id=dimm_id,
                rank=signal.rank,
                bank=signal.bank,
                row=signal.row,
                column=signal.column,
                devices=devices,
                dq_count=signal.dq_count,
                beat_count=signal.beat_count,
                dq_interval=signal.dq_interval,
                beat_interval=signal.beat_interval,
                error_bit_count=signal.error_bit_count,
                fault_id=fault_id,
            )
        )
        self._dimms_with_ces.add(dimm_id)
        self.stats.ces_logged += 1
        return action

    def _log_ue(
        self,
        timestamp_hours: float,
        server_id: str,
        dimm_id: str,
        signal: McaSignal,
        fault_id: int,
    ) -> None:
        devices = signal.devices or (signal.device,)
        self.store.add_ue(
            UERecord(
                timestamp_hours=timestamp_hours,
                server_id=server_id,
                dimm_id=dimm_id,
                rank=signal.rank,
                bank=signal.bank,
                row=signal.row,
                column=signal.column,
                devices=devices,
                sudden=dimm_id not in self._dimms_with_ces,
                fault_id=fault_id,
            )
        )
        self.stats.ues_logged += 1
