"""Static DIMM and server configuration.

These mirror the "memory specifications" the BMC records alongside error
logs (Section II-B) and the static features used by the paper's models
(Section VI): manufacturer, data width, frequency and chip process.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.dram.geometry import DimmGeometry


class Manufacturer(enum.Enum):
    """Anonymised DRAM manufacturers (the paper anonymises vendors too)."""

    VENDOR_A = "A"
    VENDOR_B = "B"
    VENDOR_C = "C"
    VENDOR_D = "D"
    VENDOR_E = "E"


class ChipProcess(enum.Enum):
    """DRAM process node class."""

    NM_1X = "1x"
    NM_1Y = "1y"
    NM_1Z = "1z"


#: DDR4 speed grades (MT/s) seen in the fleets.
SUPPORTED_FREQUENCIES_MTS = (2400, 2666, 2933, 3200)


@dataclass(frozen=True)
class DimmSpec:
    """Static description of one DIMM."""

    dimm_id: str
    manufacturer: Manufacturer
    part_number: str
    capacity_gb: int = 32
    data_width: int = 4
    frequency_mts: int = 2666
    chip_process: ChipProcess = ChipProcess.NM_1Y
    geometry: DimmGeometry = field(default_factory=DimmGeometry)

    def __post_init__(self) -> None:
        if self.data_width not in (4, 8):
            raise ValueError(f"data_width must be x4 or x8, got x{self.data_width}")
        if self.frequency_mts not in SUPPORTED_FREQUENCIES_MTS:
            raise ValueError(
                f"frequency {self.frequency_mts} not in {SUPPORTED_FREQUENCIES_MTS}"
            )
        if self.capacity_gb <= 0:
            raise ValueError("capacity_gb must be positive")

    @property
    def vendor_code(self) -> str:
        return self.manufacturer.value


def make_part_number(
    manufacturer: Manufacturer,
    capacity_gb: int,
    data_width: int,
    frequency_mts: int,
    series: int,
) -> str:
    """Synthesise a stable, vendor-style part number string."""
    return (
        f"{manufacturer.value}{capacity_gb:03d}x{data_width}-"
        f"{frequency_mts}-{series:02d}"
    )
