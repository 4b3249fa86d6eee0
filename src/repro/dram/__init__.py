"""DRAM organization substrate: geometry, error bitmaps, faults and specs."""

from repro.dram.errorbits import BusErrorPattern, DeviceErrorBitmap
from repro.dram.faults import BitPatternProfile, Fault, FaultMode
from repro.dram.geometry import (
    BURST_LENGTH,
    BUS_WIDTH,
    DATA_BITS,
    ECC_BITS,
    X4_DEVICE_WIDTH,
    X4_DEVICES_PER_RANK,
    CellAddress,
    DimmGeometry,
)
from repro.dram.spec import (
    SUPPORTED_FREQUENCIES_MTS,
    ChipProcess,
    DimmSpec,
    Manufacturer,
    make_part_number,
)

__all__ = [
    "BURST_LENGTH",
    "BUS_WIDTH",
    "DATA_BITS",
    "ECC_BITS",
    "X4_DEVICE_WIDTH",
    "X4_DEVICES_PER_RANK",
    "BitPatternProfile",
    "BusErrorPattern",
    "CellAddress",
    "ChipProcess",
    "DeviceErrorBitmap",
    "DimmGeometry",
    "DimmSpec",
    "Fault",
    "FaultMode",
    "Manufacturer",
    "SUPPORTED_FREQUENCIES_MTS",
    "make_part_number",
]
