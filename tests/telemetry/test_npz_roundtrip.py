"""``TelemetryColumns`` npz round-trip and zero-copy member mapping."""

from __future__ import annotations

import zipfile

import numpy as np
import pytest

from repro.telemetry.columnar import TelemetryColumns
from repro.telemetry.npz_io import load_npz_arrays


def assert_bit_identical(left: TelemetryColumns, right: TelemetryColumns):
    assert np.array_equal(left.ces.rows(), right.ces.rows())
    assert np.array_equal(left.ues.rows(), right.ues.rows())
    assert np.array_equal(left.events.rows(), right.events.rows())
    assert left.dimms.names() == right.dimms.names()
    assert left.servers.names() == right.servers.names()


class TestNpzRoundTrip:
    @pytest.fixture(scope="class")
    def npz_path(self, purley_sim, tmp_path_factory):
        path = tmp_path_factory.mktemp("npz") / "columns.npz"
        purley_sim.store.columns.to_npz(path)
        return path

    def test_eager_reload_is_bit_identical(self, purley_sim, npz_path):
        reloaded = TelemetryColumns.from_npz(npz_path)
        assert_bit_identical(purley_sim.store.columns, reloaded)

    def test_mmap_reload_is_bit_identical(self, purley_sim, npz_path):
        reloaded = TelemetryColumns.from_npz(npz_path, mmap=True)
        assert_bit_identical(purley_sim.store.columns, reloaded)

    def test_mmap_members_are_file_backed_and_read_only(self, npz_path):
        arrays = load_npz_arrays(npz_path, mmap=True)
        table = arrays["ces"]
        assert table.size
        assert isinstance(table, np.memmap)
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 0.0

    def test_mmap_matches_eager_load(self, npz_path):
        eager = load_npz_arrays(npz_path)
        mapped = load_npz_arrays(npz_path, mmap=True)
        assert set(eager) == set(mapped)
        for name in eager:
            assert np.array_equal(eager[name], mapped[name]), name

    @pytest.mark.parametrize("mmap", [False, True])
    def test_flipped_byte_fails_the_crc_in_both_modes(
        self, npz_path, tmp_path, mmap
    ):
        with zipfile.ZipFile(npz_path) as archive:
            info = archive.getinfo("ces.npy")
        raw = bytearray(npz_path.read_bytes())
        # The last byte of the member: inside the float payload, past
        # the npy header, so only the CRC can tell.
        name_len = int.from_bytes(
            raw[info.header_offset + 26:info.header_offset + 28], "little"
        )
        extra_len = int.from_bytes(
            raw[info.header_offset + 28:info.header_offset + 30], "little"
        )
        data_start = info.header_offset + 30 + name_len + extra_len
        raw[data_start + info.file_size - 1] ^= 0x01
        corrupt = tmp_path / "corrupt.npz"
        corrupt.write_bytes(bytes(raw))
        with pytest.raises(zipfile.BadZipFile, match="CRC-32"):
            load_npz_arrays(corrupt, mmap=mmap)

    def test_reloaded_store_replays_like_the_original(self, purley_sim,
                                                      npz_path):
        # The derived fleet view (offsets, sorted times) is rebuilt from
        # the mapped tables, so downstream replay sees identical inputs.
        original = purley_sim.store.columns.fleet_view()
        reloaded = TelemetryColumns.from_npz(npz_path, mmap=True).fleet_view()
        assert list(original.dimm_ids) == list(reloaded.dimm_ids)
        assert np.array_equal(original.times, reloaded.times)
        assert np.array_equal(original.ce_offsets, reloaded.ce_offsets)
        assert np.array_equal(
            original.ue_hours, reloaded.ue_hours, equal_nan=True
        )

    def test_empty_store_round_trips(self, tmp_path):
        empty = TelemetryColumns()
        path = tmp_path / "empty.npz"
        empty.to_npz(path)
        for mmap in (False, True):
            reloaded = TelemetryColumns.from_npz(path, mmap=mmap)
            assert len(reloaded.ces) == 0
            assert len(reloaded.ues) == 0
            assert len(reloaded.events) == 0
            assert reloaded.dimms.names() == []
