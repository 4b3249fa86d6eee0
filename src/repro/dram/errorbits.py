"""Error-bit patterns on the memory bus.

The paper (Section V, Figure 5) analyses errors at the granularity of one
burst transfer: 8 beats x 72 DQ lanes, where each x4 device drives 4 adjacent
lanes.  Two views are provided:

* :class:`BusErrorPattern` — the full ``(8, 72)`` boolean matrix of erroneous
  bits in one transfer; this is what the ECC substrate decodes.
* :class:`DeviceErrorBitmap` — the ``(8, 4)`` slice for a single x4 device;
  this is what the paper's DQ/beat count and interval statistics are
  computed on.

Counts and intervals follow the paper's Figure 5 axes: DQ count in 1..4,
beat count in 1..8, DQ interval in 0..3 and beat interval in 0..7, where an
interval is the span ``max(index) - min(index)`` over erroneous lanes/beats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.dram.geometry import BURST_LENGTH, BUS_WIDTH, X4_DEVICE_WIDTH


@dataclass(frozen=True)
class DeviceErrorBitmap:
    """Erroneous bits of one x4 device during one burst: 8 beats x 4 DQs."""

    bits: tuple[tuple[int, int], ...]  # sorted (beat, dq) pairs

    @classmethod
    def from_positions(
        cls, positions: Iterable[tuple[int, int]]
    ) -> "DeviceErrorBitmap":
        """Build from ``(beat, dq)`` pairs; validates and deduplicates."""
        unique = sorted(set((int(b), int(d)) for b, d in positions))
        for beat, dq in unique:
            if not 0 <= beat < BURST_LENGTH:
                raise ValueError(f"beat {beat} out of range [0, {BURST_LENGTH})")
            if not 0 <= dq < X4_DEVICE_WIDTH:
                raise ValueError(f"dq {dq} out of range [0, {X4_DEVICE_WIDTH})")
        return cls(bits=tuple(unique))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DeviceErrorBitmap":
        """Build from an ``(8, 4)`` boolean matrix."""
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.shape != (BURST_LENGTH, X4_DEVICE_WIDTH):
            raise ValueError(
                f"expected shape ({BURST_LENGTH}, {X4_DEVICE_WIDTH}), "
                f"got {matrix.shape}"
            )
        beats, dqs = np.nonzero(matrix)
        return cls.from_positions(zip(beats.tolist(), dqs.tolist()))

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((BURST_LENGTH, X4_DEVICE_WIDTH), dtype=bool)
        for beat, dq in self.bits:
            matrix[beat, dq] = True
        return matrix

    @property
    def is_empty(self) -> bool:
        return not self.bits

    @property
    def error_bit_count(self) -> int:
        return len(self.bits)

    @property
    def dqs(self) -> tuple[int, ...]:
        """Distinct erroneous DQ lanes, ascending."""
        return tuple(sorted({dq for _, dq in self.bits}))

    @property
    def beats(self) -> tuple[int, ...]:
        """Distinct erroneous beats, ascending."""
        return tuple(sorted({beat for beat, _ in self.bits}))

    @property
    def dq_count(self) -> int:
        return len(self.dqs)

    @property
    def beat_count(self) -> int:
        return len(self.beats)

    @property
    def dq_interval(self) -> int:
        """Span between the lowest and highest erroneous DQ (0 if <=1 DQ)."""
        dqs = self.dqs
        if len(dqs) < 2:
            return 0
        return dqs[-1] - dqs[0]

    @property
    def beat_interval(self) -> int:
        """Span between the lowest and highest erroneous beat (0 if <=1)."""
        beats = self.beats
        if len(beats) < 2:
            return 0
        return beats[-1] - beats[0]


@dataclass(frozen=True)
class BusErrorPattern:
    """Erroneous bits of one full burst transfer: 8 beats x 72 lanes.

    ``device_bits`` maps a device index (0..17) to its per-device bitmap;
    only devices with at least one erroneous bit are present.
    """

    device_bits: tuple[tuple[int, DeviceErrorBitmap], ...]

    @classmethod
    def from_device_bitmaps(
        cls, bitmaps: dict[int, DeviceErrorBitmap]
    ) -> "BusErrorPattern":
        entries = []
        for device in sorted(bitmaps):
            bitmap = bitmaps[device]
            if not 0 <= device < BUS_WIDTH // X4_DEVICE_WIDTH:
                raise ValueError(f"device {device} out of range")
            if not bitmap.is_empty:
                entries.append((device, bitmap))
        return cls(device_bits=tuple(entries))

    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "BusErrorPattern":
        """Build from an ``(8, 72)`` boolean bus matrix."""
        matrix = np.asarray(matrix, dtype=bool)
        if matrix.shape != (BURST_LENGTH, BUS_WIDTH):
            raise ValueError(
                f"expected shape ({BURST_LENGTH}, {BUS_WIDTH}), got {matrix.shape}"
            )
        bitmaps: dict[int, DeviceErrorBitmap] = {}
        for device in range(BUS_WIDTH // X4_DEVICE_WIDTH):
            lanes = slice(device * X4_DEVICE_WIDTH, (device + 1) * X4_DEVICE_WIDTH)
            sub = matrix[:, lanes]
            if sub.any():
                bitmaps[device] = DeviceErrorBitmap.from_matrix(sub)
        return cls.from_device_bitmaps(bitmaps)

    def to_matrix(self) -> np.ndarray:
        matrix = np.zeros((BURST_LENGTH, BUS_WIDTH), dtype=bool)
        for device, bitmap in self.device_bits:
            lanes = slice(device * X4_DEVICE_WIDTH, (device + 1) * X4_DEVICE_WIDTH)
            matrix[:, lanes] |= bitmap.to_matrix()
        return matrix

    @property
    def is_empty(self) -> bool:
        return not self.device_bits

    @property
    def devices(self) -> tuple[int, ...]:
        """Devices with at least one erroneous bit, ascending."""
        return tuple(device for device, _ in self.device_bits)

    @property
    def device_count(self) -> int:
        return len(self.device_bits)

    @property
    def is_single_device(self) -> bool:
        return self.device_count == 1

    @property
    def error_bit_count(self) -> int:
        return sum(bitmap.error_bit_count for _, bitmap in self.device_bits)

    def bitmap_for(self, device: int) -> DeviceErrorBitmap:
        for dev, bitmap in self.device_bits:
            if dev == device:
                return bitmap
        return DeviceErrorBitmap(bits=())

    def symbols_per_beat(self) -> dict[int, tuple[int, ...]]:
        """For each erroneous beat, the devices (4-bit symbols) in error.

        A "symbol" here is the nibble one x4 device contributes to one beat —
        the correction unit of Chipkill-class ECC.
        """
        result: dict[int, set[int]] = {}
        for device, bitmap in self.device_bits:
            for beat in bitmap.beats:
                result.setdefault(beat, set()).add(device)
        return {beat: tuple(sorted(devs)) for beat, devs in result.items()}

    @property
    def max_symbols_in_any_beat(self) -> int:
        """Worst-case number of erroneous device symbols within one beat."""
        per_beat = self.symbols_per_beat()
        if not per_beat:
            return 0
        return max(len(devs) for devs in per_beat.values())
