"""Unit tests for DRAM geometry and addressing."""

import pytest
from hypothesis import given, strategies as st

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


class TestConstants:
    def test_bus_is_data_plus_ecc(self):
        assert BUS_WIDTH == DATA_BITS + ECC_BITS == 72

    def test_burst_length_is_ddr4_bl8(self):
        assert BURST_LENGTH == 8

    def test_x4_rank_has_18_devices(self):
        assert X4_DEVICES_PER_RANK == 18
        assert X4_DEVICES_PER_RANK * X4_DEVICE_WIDTH == BUS_WIDTH


class TestDimmGeometry:
    def test_defaults_are_consistent(self):
        geometry = DimmGeometry()
        assert geometry.total_devices == 36  # two ranks
        assert geometry.banks == 16
        assert geometry.cells_per_bank == geometry.rows * geometry.columns

    def test_rejects_zero_ranks(self):
        with pytest.raises(ValueError, match="ranks"):
            DimmGeometry(ranks=0)

    def test_rejects_wrong_bus_width(self):
        with pytest.raises(ValueError, match="72-bit bus"):
            DimmGeometry(devices_per_rank=16)

    @pytest.mark.parametrize("field", ["bank_groups", "banks_per_group", "rows", "columns"])
    def test_rejects_nonpositive_dimensions(self, field):
        with pytest.raises(ValueError, match=field):
            DimmGeometry(**{field: 0})

    def test_device_dq_lanes_partition_the_bus(self):
        geometry = DimmGeometry()
        lanes = []
        for device in range(geometry.devices_per_rank):
            lanes.extend(geometry.device_dq_lanes(device))
        assert lanes == list(range(BUS_WIDTH))

    def test_lane_to_device_inverts_device_dq_lanes(self):
        geometry = DimmGeometry()
        for device in range(geometry.devices_per_rank):
            for lane in geometry.device_dq_lanes(device):
                assert geometry.lane_to_device(lane) == device

    def test_lane_to_device_rejects_out_of_range(self):
        geometry = DimmGeometry()
        with pytest.raises(ValueError):
            geometry.lane_to_device(BUS_WIDTH)
        with pytest.raises(ValueError):
            geometry.lane_to_device(-1)

    def test_device_dq_lanes_rejects_bad_device(self):
        with pytest.raises(ValueError):
            DimmGeometry().device_dq_lanes(18)

    def test_validate_address_accepts_bounds(self):
        geometry = DimmGeometry()
        geometry.validate_address(
            CellAddress(rank=1, device=17, bank=15,
                        row=geometry.rows - 1, column=geometry.columns - 1)
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rank": 2},
            {"device": 18},
            {"bank": 16},
            {"row": 1 << 17},
            {"column": 1 << 10},
        ],
    )
    def test_validate_address_rejects_out_of_range(self, kwargs):
        base = dict(rank=0, device=0, bank=0, row=0, column=0)
        base.update(kwargs)
        with pytest.raises(ValueError):
            DimmGeometry().validate_address(CellAddress(**base))


class TestCellAddress:
    def test_same_row_requires_matching_row_coordinates(self):
        a = CellAddress(0, 1, 2, 100, 5)
        assert a.same_row(CellAddress(0, 1, 2, 100, 9))
        assert not a.same_row(CellAddress(0, 1, 2, 101, 5))
        assert not a.same_row(CellAddress(0, 2, 2, 100, 5))

    def test_same_column_requires_matching_column(self):
        a = CellAddress(0, 1, 2, 100, 5)
        assert a.same_column(CellAddress(0, 1, 2, 7, 5))
        assert not a.same_column(CellAddress(0, 1, 2, 100, 6))

    def test_same_bank_ignores_row_and_column(self):
        a = CellAddress(0, 1, 2, 100, 5)
        assert a.same_bank(CellAddress(0, 1, 2, 0, 0))
        assert not a.same_bank(CellAddress(1, 1, 2, 100, 5))

    def test_addresses_are_ordered_and_hashable(self):
        a = CellAddress(0, 0, 0, 0, 0)
        b = CellAddress(0, 0, 0, 0, 1)
        assert a < b
        assert len({a, b, a}) == 2


@given(
    rank=st.integers(0, 1),
    device=st.integers(0, 17),
    bank=st.integers(0, 15),
    row=st.integers(0, (1 << 17) - 1),
    column=st.integers(0, (1 << 10) - 1),
)
def test_any_in_bounds_address_validates(rank, device, bank, row, column):
    DimmGeometry().validate_address(CellAddress(rank, device, bank, row, column))
