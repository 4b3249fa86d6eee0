"""Zero-copy ``.npz`` member access for the distributed shard format.

``np.savez`` writes an uncompressed (ZIP_STORED) archive, so every member
is a plain ``.npy`` blob sitting at a fixed byte offset inside the file.
:func:`load_npz_arrays` exploits that: instead of decompressing members
into fresh buffers, it parses each member's zip local-file header, reads
the npy header right behind it, and hands back an ``np.memmap`` over the
payload bytes — the OS page cache backs every shard a worker opens, and
loading N shards costs no data copies at all.

Members that are compressed, object-typed, or written by a zip
implementation we don't recognise fall back to a regular ``np.load``
read, so the function is always correct and only opportunistically
zero-copy.  Memory-mapped arrays are read-only; callers that need to
mutate must copy (``ColumnarTable`` grows into a fresh writable buffer
on the first append past capacity, so appending to a mapped table is
safe by construction).

Mapping skips the zip reader, so it also skips the reader's CRC-32
check; :func:`_mmap_member` runs that check itself, over the mapped
bytes, and raises the same ``zipfile.BadZipFile`` an eager load raises.
A flipped bit in a shard is an error in both modes, never a silently
different number.
"""

from __future__ import annotations

import zipfile
import zlib
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

#: Fixed prefix of a zip local file header (PKZIP appnote 4.3.7):
#: signature(4) .. name_len at offset 26, extra_len at offset 28.
_LOCAL_HEADER_SIZE = 30
_LOCAL_HEADER_SIG = b"PK\x03\x04"


def _member_name(info: zipfile.ZipInfo) -> str:
    name = info.filename
    return name[:-4] if name.endswith(".npy") else name


def _mmap_member(path, handle, info: zipfile.ZipInfo) -> np.ndarray | None:
    """Map one ZIP_STORED npy member in place; None when not mappable.

    Raises ``zipfile.BadZipFile`` when the member's bytes do not match
    the CRC-32 in its directory entry.
    """
    handle.seek(info.header_offset)
    local = handle.read(_LOCAL_HEADER_SIZE)
    if len(local) < _LOCAL_HEADER_SIZE or local[:4] != _LOCAL_HEADER_SIG:
        return None
    name_len = int.from_bytes(local[26:28], "little")
    extra_len = int.from_bytes(local[28:30], "little")
    data_start = info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
    handle.seek(data_start)
    try:
        version = npy_format.read_magic(handle)
        if version == (1, 0):
            shape, fortran, dtype = npy_format.read_array_header_1_0(handle)
        elif version == (2, 0):
            shape, fortran, dtype = npy_format.read_array_header_2_0(handle)
        else:
            return None
    except ValueError:
        return None
    if dtype.hasobject:
        return None
    offset = handle.tell()
    nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if offset - data_start + nbytes != info.file_size:
        return None
    handle.seek(data_start)
    crc = zlib.crc32(handle.read(offset - data_start))
    order = "F" if fortran else "C"
    if nbytes == 0:
        # np.memmap rejects zero-length maps; an empty array needs no map.
        mapped = np.empty(shape, dtype=dtype, order=order)
    else:
        mapped = np.memmap(
            path, dtype=dtype, mode="r", offset=offset, shape=shape,
            order=order,
        )
        # The payload's bytes in file order, whatever the array's order.
        crc = zlib.crc32(mapped.reshape(-1, order="A").view(np.uint8), crc)
    if crc != info.CRC:
        raise zipfile.BadZipFile(f"Bad CRC-32 for file {info.filename!r}")
    return mapped


def load_npz_arrays(path, *, mmap: bool = False) -> dict[str, np.ndarray]:
    """All members of an ``.npz`` as ``{name: array}``.

    With ``mmap=True``, ZIP_STORED members come back as read-only
    ``np.memmap`` views over the archive bytes; anything else is loaded
    normally.  With ``mmap=False`` this is a plain eager ``np.load``.
    """
    path = Path(path)
    if not mmap:
        with np.load(path, allow_pickle=False) as archive:
            return {name: archive[name] for name in archive.files}
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive, open(path, "rb") as handle:
        for info in archive.infolist():
            mapped = None
            if info.compress_type == zipfile.ZIP_STORED:
                mapped = _mmap_member(path, handle, info)
            if mapped is None:
                with archive.open(info) as member:
                    mapped = npy_format.read_array(member, allow_pickle=False)
            arrays[_member_name(info)] = mapped
    return arrays
