"""DIMM-partitioned ``.npz`` shard format for the distributed tier.

A *shard set* splits one fleet's telemetry — every platform's
:class:`~repro.telemetry.columnar.TelemetryColumns` — into ``n_shards``
disjoint DIMM partitions, each serialized to one uncompressed ``.npz``
file plus a JSON manifest describing the whole set:

* partitioning is **by DIMM, not by time**: every replay decision
  (min-CE gating, rescore throttling, alarm suppression, incident
  lifecycle) is independent per DIMM, so a shard replays bit-for-bit
  the scores and incidents those DIMMs would produce in the full run;
* partitions are contiguous ranges over each platform's *sorted* DIMM
  ids, balanced by per-DIMM event count — deterministic for a given
  store, and describable in the manifest as ``[lo, hi)`` ranges;
* row order within a shard preserves the source table's append order,
  so the stable merged-stream lexsort keeps every per-DIMM tie order
  and the shard walk equals the full walk restricted to those DIMMs;
* shard files are ZIP_STORED, so workers open them zero-copy via
  :func:`~repro.telemetry.npz_io.load_npz_arrays` memory maps;
* the manifest carries ``SHARD_FORMAT_VERSION`` and a content
  fingerprint per shard — the artifact cache keys on both, so a format
  bump or changed telemetry rebuilds instead of silently loading.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.telemetry.columnar import DIMM_COLUMNS, TelemetryColumns
from repro.telemetry.npz_io import load_npz_arrays

#: Bump when the on-disk shard layout changes; stale sets rebuild.
SHARD_FORMAT_VERSION = 2

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class ShardManifest:
    """Parsed ``manifest.json`` of one shard set."""

    format: int
    n_shards: int
    platforms: tuple[str, ...]
    fingerprint: str
    shards: tuple[dict, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "format": self.format,
            "n_shards": self.n_shards,
            "platforms": list(self.platforms),
            "fingerprint": self.fingerprint,
            "shards": [dict(entry) for entry in self.shards],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardManifest":
        return cls(
            format=int(payload["format"]),
            n_shards=int(payload["n_shards"]),
            platforms=tuple(payload["platforms"]),
            fingerprint=str(payload["fingerprint"]),
            shards=tuple(payload["shards"]),
        )

    @classmethod
    def load(cls, shard_dir) -> "ShardManifest":
        path = Path(shard_dir) / MANIFEST_NAME
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        if int(payload.get("format", -1)) != SHARD_FORMAT_VERSION:
            raise StaleShardFormatError(
                f"shard set at {shard_dir} has format "
                f"{payload.get('format')!r}, expected {SHARD_FORMAT_VERSION}"
            )
        return cls.from_dict(payload)


class StaleShardFormatError(RuntimeError):
    """A shard set on disk was written by a different format version."""


def _dimm_event_counts(columns: TelemetryColumns) -> np.ndarray:
    """Total rows (CE + UE + event) touching each vocabulary DIMM code."""
    n = len(columns.dimms)
    counts = np.zeros(n, dtype=np.int64)
    if n == 0:
        return counts
    for attr, dimm_col in DIMM_COLUMNS.items():
        rows = getattr(columns, attr).rows()
        if rows.size:
            codes = rows[:, dimm_col].astype(np.int64)
            codes = codes[(codes >= 0) & (codes < n)]
            counts += np.bincount(codes, minlength=n)
    return counts


def partition_fleet(
    columns: TelemetryColumns, n_shards: int
) -> list[tuple[int, int]]:
    """Deterministic ``[lo, hi)`` ranges over the *sorted* DIMM ids.

    Ranges are contiguous in sorted-name order and balanced by per-DIMM
    event count (a DIMM's CE + UE + event rows all land in its range).
    When the platform has fewer DIMMs than shards, trailing ranges are
    empty; a range is never split mid-DIMM.
    """
    n_shards = max(1, int(n_shards))
    names = sorted(columns.dimms.names())
    n = len(names)
    if n == 0:
        return [(0, 0)] * n_shards
    counts = _dimm_event_counts(columns)
    rank = np.empty(n, dtype=np.int64)
    for position, name in enumerate(names):
        rank[position] = columns.dimms.intern(name)
    cum = np.cumsum(counts[rank])
    total = int(cum[-1])
    edges = [0]
    for k in range(1, n_shards):
        if total:
            edge = int(np.searchsorted(cum, total * k / n_shards, "left"))
        else:
            edge = (n * k) // n_shards
        # Keep edges monotone; give every leading shard at least one
        # DIMM while there are DIMMs left.
        edges.append(min(max(edge, min(edges[-1] + 1, n)), n))
    edges.append(n)
    return [(edges[k], edges[k + 1]) for k in range(n_shards)]


def shard_columns(
    columns: TelemetryColumns, keep_names: list[str]
) -> TelemetryColumns:
    """The sub-store of ``keep_names``' rows, dimm codes remapped.

    Row order within each table is the source append order, so the
    shard's stable merged-stream sort preserves every per-DIMM tie
    order.  The shard gets a fresh DIMM vocabulary (``keep_names`` in
    the given order); the server vocabulary is carried whole so server
    codes stay valid without remapping.
    """
    n = len(columns.dimms)
    keep = np.zeros(n, dtype=bool)
    remap = np.full(n, -1, dtype=np.int64)
    for position, name in enumerate(keep_names):
        code = columns.dimms.intern(name)
        keep[code] = True
        remap[code] = position
    tables = {}
    for attr, dimm_col in DIMM_COLUMNS.items():
        rows = getattr(columns, attr).rows()
        if rows.size and n:
            codes = rows[:, dimm_col].astype(np.int64)
            valid = (codes >= 0) & (codes < n)
            mask = np.zeros(codes.size, dtype=bool)
            mask[valid] = keep[codes[valid]]
            block = np.ascontiguousarray(rows[mask])
            block[:, dimm_col] = remap[codes[mask]]
        else:
            block = rows[:0].copy()
        tables[attr] = block
    return TelemetryColumns.from_arrays(
        tables["ces"],
        tables["ues"],
        tables["events"],
        list(keep_names),
        columns.servers.names(),
        columns.details.names(),
    )


def _table_digest(hasher, rows: np.ndarray) -> None:
    hasher.update(np.int64(rows.shape[0]).tobytes())
    hasher.update(np.ascontiguousarray(rows, dtype=np.float64).tobytes())


def shard_fingerprint(columns_by: dict[str, TelemetryColumns]) -> str:
    """Content hash of one shard's tables + vocabularies (hex, 16 chars)."""
    hasher = hashlib.sha256()
    for platform in sorted(columns_by):
        columns = columns_by[platform]
        hasher.update(platform.encode())
        for attr in DIMM_COLUMNS:
            _table_digest(hasher, getattr(columns, attr).rows())
        hasher.update("\x00".join(columns.dimms.names()).encode())
        hasher.update("\x00".join(columns.servers.names()).encode())
        hasher.update("\x00".join(columns.details.names()).encode())
    return hasher.hexdigest()[:16]


def write_fleet_shards(
    stores: dict[str, TelemetryColumns],
    n_shards: int,
    out_dir,
) -> ShardManifest:
    """Partition every platform's store into ``n_shards`` shard files.

    Shard ``k`` holds partition ``k`` of every platform (platforms with
    fewer DIMMs than shards contribute nothing to trailing shards).
    Writes ``shard_NNNN.npz`` files plus ``manifest.json`` into
    ``out_dir`` and returns the parsed manifest.
    """
    n_shards = max(1, int(n_shards))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    platforms = sorted(stores)
    ranges = {}
    names_by = {}
    for platform in platforms:
        columns = stores[platform]
        names_by[platform] = sorted(columns.dimms.names())
        ranges[platform] = partition_fleet(columns, n_shards)
    entries = []
    shard_digests = []
    for index in range(n_shards):
        path = out_dir / f"shard_{index:04d}.npz"
        arrays = {}
        shard_columns_by = {}
        entry_platforms = {}
        rows_total = 0
        for platform in platforms:
            lo, hi = ranges[platform][index]
            keep = names_by[platform][lo:hi]
            part = shard_columns(stores[platform], keep)
            shard_columns_by[platform] = part
            rows = len(part.ces) + len(part.ues) + len(part.events)
            rows_total += rows
            entry_platforms[platform] = {
                "dimm_lo": lo,
                "dimm_hi": hi,
                "dimms": hi - lo,
                "ces": len(part.ces),
                "ues": len(part.ues),
                "events": len(part.events),
            }
            for name, array in part.to_arrays().items():
                arrays[f"{platform}::{name}"] = array
        fingerprint = shard_fingerprint(shard_columns_by)
        shard_digests.append(fingerprint)
        with open(path, "wb") as handle:
            np.savez(handle, **arrays)
        entries.append(
            {
                "index": index,
                "path": path.name,
                "rows": rows_total,
                "platforms": entry_platforms,
                "fingerprint": fingerprint,
            }
        )
    manifest = ShardManifest(
        format=SHARD_FORMAT_VERSION,
        n_shards=n_shards,
        platforms=tuple(platforms),
        fingerprint=hashlib.sha256(
            "\x00".join(shard_digests).encode()
        ).hexdigest()[:16],
        shards=tuple(entries),
    )
    with open(out_dir / MANIFEST_NAME, "w", encoding="utf-8") as handle:
        json.dump(manifest.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return manifest


def load_shard(
    shard_dir,
    manifest: ShardManifest,
    index: int,
    *,
    mmap: bool = True,
    verify: bool = False,
) -> dict[str, TelemetryColumns]:
    """One shard's per-platform stores, memory-mapped by default."""
    entry = manifest.shards[index]
    arrays = load_npz_arrays(Path(shard_dir) / entry["path"], mmap=mmap)
    columns_by = {}
    for platform in manifest.platforms:
        columns_by[platform] = TelemetryColumns.from_arrays(
            arrays[f"{platform}::ces"],
            arrays[f"{platform}::ues"],
            arrays[f"{platform}::events"],
            arrays[f"{platform}::dimm_names"],
            arrays[f"{platform}::server_names"],
            arrays[f"{platform}::detail_names"],
        )
    if verify:
        fingerprint = shard_fingerprint(columns_by)
        if fingerprint != entry["fingerprint"]:
            raise StaleShardFormatError(
                f"shard {index} content fingerprint {fingerprint} does not "
                f"match manifest {entry['fingerprint']}"
            )
    return columns_by
