"""DRAM organization model.

This module describes the physical layout of a DDR4 DIMM the way the paper's
Figure 1 does: a DIMM is a set of ranks; each rank is built from x4 DRAM
devices (chips); each device contains banks organized in rows and columns of
cells.  A CPU read transfers a burst of ``BURST_LENGTH`` beats over a 72-bit
bus (64 data bits + 8 ECC bits), and each x4 device contributes 4 DQ lanes to
that bus.

The classes here are deliberately free of failure semantics — faults live in
:mod:`repro.dram.faults` and error-bit patterns in :mod:`repro.dram.errorbits`.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Number of beats in one DDR4 burst access (BL8).
BURST_LENGTH = 8

#: Data lanes on the memory bus (64 data + 8 ECC = 72).
DATA_BITS = 64
ECC_BITS = 8
BUS_WIDTH = DATA_BITS + ECC_BITS

#: DQ lanes contributed by one x4 device.
X4_DEVICE_WIDTH = 4

#: Number of x4 devices on one rank of a 72-bit-bus ECC DIMM (16 data + 2 ECC).
X4_DEVICES_PER_RANK = BUS_WIDTH // X4_DEVICE_WIDTH


@dataclass(frozen=True)
class DimmGeometry:
    """Geometry of one DIMM.

    Defaults describe a common 32 GB dual-rank x4 DDR4 RDIMM: 18 x4 devices
    per rank, 4 bank groups of 4 banks, 2^17 rows and 2^10 columns per bank.
    """

    ranks: int = 2
    device_width: int = X4_DEVICE_WIDTH
    devices_per_rank: int = X4_DEVICES_PER_RANK
    bank_groups: int = 4
    banks_per_group: int = 4
    rows: int = 1 << 17
    columns: int = 1 << 10

    def __post_init__(self) -> None:
        if self.ranks < 1:
            raise ValueError(f"ranks must be >= 1, got {self.ranks}")
        if self.device_width * self.devices_per_rank != BUS_WIDTH:
            raise ValueError(
                "device_width * devices_per_rank must equal the 72-bit bus; "
                f"got {self.device_width} * {self.devices_per_rank}"
            )
        for name in ("bank_groups", "banks_per_group", "rows", "columns"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def banks(self) -> int:
        """Total banks per device."""
        return self.bank_groups * self.banks_per_group

    @property
    def total_devices(self) -> int:
        """Total DRAM devices on the DIMM."""
        return self.ranks * self.devices_per_rank

    @property
    def cells_per_bank(self) -> int:
        return self.rows * self.columns

    def device_dq_lanes(self, device: int) -> range:
        """Bus DQ lanes driven by ``device`` (devices are numbered per rank)."""
        self._check_device(device)
        start = device * self.device_width
        return range(start, start + self.device_width)

    def lane_to_device(self, lane: int) -> int:
        """Map a bus DQ lane (0..71) to the device that drives it."""
        if not 0 <= lane < BUS_WIDTH:
            raise ValueError(f"lane must be in [0, {BUS_WIDTH}), got {lane}")
        return lane // self.device_width

    def _check_device(self, device: int) -> None:
        if not 0 <= device < self.devices_per_rank:
            raise ValueError(
                f"device must be in [0, {self.devices_per_rank}), got {device}"
            )

    def validate_address(self, address: "CellAddress") -> None:
        """Raise ``ValueError`` if ``address`` does not fit this geometry."""
        if not 0 <= address.rank < self.ranks:
            raise ValueError(f"rank {address.rank} out of range")
        self._check_device(address.device)
        if not 0 <= address.bank < self.banks:
            raise ValueError(f"bank {address.bank} out of range")
        if not 0 <= address.row < self.rows:
            raise ValueError(f"row {address.row} out of range")
        if not 0 <= address.column < self.columns:
            raise ValueError(f"column {address.column} out of range")


@dataclass(frozen=True, order=True)
class CellAddress:
    """Address of one cell (or the cell-aligned location of a burst access).

    ``device`` identifies the x4 chip within the rank; ``bank`` is the flat
    bank index (bank_group * banks_per_group + bank).
    """

    rank: int
    device: int
    bank: int
    row: int
    column: int

    def same_row(self, other: "CellAddress") -> bool:
        return (
            self.rank == other.rank
            and self.device == other.device
            and self.bank == other.bank
            and self.row == other.row
        )

    def same_column(self, other: "CellAddress") -> bool:
        return (
            self.rank == other.rank
            and self.device == other.device
            and self.bank == other.bank
            and self.column == other.column
        )

    def same_bank(self, other: "CellAddress") -> bool:
        return (
            self.rank == other.rank
            and self.device == other.device
            and self.bank == other.bank
        )
