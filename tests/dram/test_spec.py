"""Unit tests for DIMM/server specs."""

import pytest

from repro.dram.spec import (
    ChipProcess,
    DimmSpec,
    Manufacturer,
    make_part_number,
)


def make_spec(dimm_id="d0", **kwargs):
    defaults = dict(
        dimm_id=dimm_id,
        manufacturer=Manufacturer.VENDOR_A,
        part_number="A032x4-2666-01",
    )
    defaults.update(kwargs)
    return DimmSpec(**defaults)


class TestDimmSpec:
    def test_defaults_valid(self):
        spec = make_spec()
        assert spec.data_width == 4
        assert spec.vendor_code == "A"

    def test_rejects_odd_width(self):
        with pytest.raises(ValueError, match="x4 or x8"):
            make_spec(data_width=16)

    def test_rejects_unknown_frequency(self):
        with pytest.raises(ValueError, match="frequency"):
            make_spec(frequency_mts=1600)

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            make_spec(capacity_gb=0)


def test_part_number_is_deterministic_and_distinct():
    a = make_part_number(Manufacturer.VENDOR_A, 32, 4, 2666, 1)
    b = make_part_number(Manufacturer.VENDOR_A, 32, 4, 2666, 1)
    c = make_part_number(Manufacturer.VENDOR_B, 32, 4, 2666, 1)
    assert a == b
    assert a != c
    assert "2666" in a
