"""Unit and property tests for error-bit patterns."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.dram.errorbits import BusErrorPattern, DeviceErrorBitmap

positions = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 3)),
    min_size=1,
    max_size=32,
)


class TestDeviceErrorBitmap:
    def test_from_positions_deduplicates(self):
        bitmap = DeviceErrorBitmap.from_positions([(0, 0), (0, 0), (1, 1)])
        assert bitmap.error_bit_count == 2

    def test_rejects_out_of_range_beat(self):
        with pytest.raises(ValueError, match="beat"):
            DeviceErrorBitmap.from_positions([(8, 0)])

    def test_rejects_out_of_range_dq(self):
        with pytest.raises(ValueError, match="dq"):
            DeviceErrorBitmap.from_positions([(0, 4)])

    def test_counts_and_intervals_match_paper_axes(self):
        # The Purley-risky signature: 2 DQs, 2 beats 4 apart.
        bitmap = DeviceErrorBitmap.from_positions([(0, 1), (0, 2), (4, 1), (4, 2)])
        assert bitmap.dq_count == 2
        assert bitmap.beat_count == 2
        assert bitmap.dq_interval == 1
        assert bitmap.beat_interval == 4

    def test_single_bit_has_zero_intervals(self):
        bitmap = DeviceErrorBitmap.from_positions([(3, 2)])
        assert bitmap.dq_interval == 0
        assert bitmap.beat_interval == 0

    def test_matrix_roundtrip(self):
        bitmap = DeviceErrorBitmap.from_positions([(0, 0), (7, 3), (4, 2)])
        assert DeviceErrorBitmap.from_matrix(bitmap.to_matrix()) == bitmap

    def test_from_matrix_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            DeviceErrorBitmap.from_matrix(np.zeros((4, 8), dtype=bool))

    @given(positions)
    def test_roundtrip_is_identity(self, pos):
        bitmap = DeviceErrorBitmap.from_positions(pos)
        assert DeviceErrorBitmap.from_matrix(bitmap.to_matrix()) == bitmap

    @given(positions)
    def test_intervals_bounded_by_counts(self, pos):
        bitmap = DeviceErrorBitmap.from_positions(pos)
        assert 0 <= bitmap.dq_interval <= 3
        assert 0 <= bitmap.beat_interval <= 7
        assert bitmap.dq_count >= 1
        assert bitmap.dq_interval >= bitmap.dq_count - 1


class TestBusErrorPattern:
    def test_from_device_bitmaps_drops_empty(self):
        pattern = BusErrorPattern.from_device_bitmaps(
            {0: DeviceErrorBitmap(bits=()), 3: DeviceErrorBitmap.from_positions([(0, 0)])}
        )
        assert pattern.devices == (3,)
        assert pattern.is_single_device

    def test_rejects_device_out_of_range(self):
        with pytest.raises(ValueError, match="device"):
            BusErrorPattern.from_device_bitmaps(
                {18: DeviceErrorBitmap.from_positions([(0, 0)])}
            )

    def test_matrix_roundtrip_multi_device(self):
        pattern = BusErrorPattern.from_device_bitmaps(
            {
                2: DeviceErrorBitmap.from_positions([(0, 0), (1, 1)]),
                9: DeviceErrorBitmap.from_positions([(7, 3)]),
            }
        )
        again = BusErrorPattern.from_matrix(pattern.to_matrix())
        assert again == pattern
        assert again.device_count == 2
        assert again.error_bit_count == 3

    def test_bitmap_for_missing_device_is_empty(self):
        pattern = BusErrorPattern.from_device_bitmaps(
            {1: DeviceErrorBitmap.from_positions([(0, 0)])}
        )
        assert pattern.bitmap_for(5).is_empty

    def test_symbols_per_beat_tracks_colliding_devices(self):
        pattern = BusErrorPattern.from_device_bitmaps(
            {
                0: DeviceErrorBitmap.from_positions([(2, 0)]),
                1: DeviceErrorBitmap.from_positions([(2, 3), (5, 0)]),
            }
        )
        per_beat = pattern.symbols_per_beat()
        assert per_beat[2] == (0, 1)
        assert per_beat[5] == (1,)
        assert pattern.max_symbols_in_any_beat == 2

    def test_empty_pattern_properties(self):
        pattern = BusErrorPattern(device_bits=())
        assert pattern.is_empty
        assert pattern.max_symbols_in_any_beat == 0
