"""Heterogeneous fleet stream: every platform's telemetry in ONE merge.

A multi-architecture datacenter does not replay purley, then whitley, then
k920 — its monitoring plane consumes one interleaved event stream.  This
module builds that stream straight off each platform's columnar
:class:`~repro.telemetry.columnar.TelemetryColumns` backing store:

* one global ``np.lexsort`` over the concatenated CE/UE/memory-event
  tables of *all* platforms (keys: timestamp, then the CE < UE < event
  kind order of :func:`repro.telemetry.log_store.iter_stream`, then the
  platform index for cross-platform ties);
* every payload is **decoded once, vectorised**: CE rows become the exact
  ``rows_data`` tuples :meth:`IncrementalWindowState.add_ce_row` appends
  (integer fields bulk-cast via ``astype(int64).tolist()``), so the
  replay loop never pays per-field ``int()`` conversions;
* the sorted order is materialised once into pre-permuted parallel lists
  (kind tag, platform index, payload), so the replay hot loop is a
  single ``zip`` — no per-event index arithmetic or range dispatch.

Payload shapes: CE ``(t, dimm_code, server_code, rows_data_tuple)``,
UE ``(t, dimm_code)``, memory event ``(t, dimm_code, kind_code)`` — all
codes pre-converted to Python ints.

Because the sort is stable and its first two keys are the
:func:`~repro.telemetry.log_store.iter_stream` order, each platform's
subsequence of the merged stream is *exactly* that platform's own replay
order — a single-platform :class:`~repro.streaming.replay.ReplayEngine`
replays a one-platform merge of this module — the property the
merged-vs-single-platform score-parity suite pins down.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.telemetry.columnar import (
    CE_DIMM,
    CE_SERVER,
    CE_T,
    EV_DIMM,
    EV_KIND,
    EV_T,
    UE_DIMM,
    UE_T,
)

#: Kind tags, in iter_stream's tie order (CE < UE < event on equal times).
CE_TAG, UE_TAG, EVENT_TAG = 0, 1, 2


class UndecodedStreamError(ValueError):
    """A manifest-only :class:`MergedFleetStream` reached a consumer that
    needs decoded payloads.

    Raised by the per-event fleet replay when handed a stream built with
    ``decode_payloads=False`` (the batched engine's manifest form).  Fix:
    re-merge with ``merge_fleet_streams(stores, decode_payloads=True)``,
    or switch the engine to ``engine="batched"``.
    """


def _decode_ces(ce_rows: np.ndarray) -> list:
    """CE payloads ``(t, dimm, server, rows_data_tuple)``, bulk-decoded."""
    t_list = ce_rows[:, CE_T].tolist()
    ints = ce_rows[:, 1:CE_DIMM + 2].astype(np.int64)
    columns = [ints[:, i].tolist() for i in range(ints.shape[1])]
    data_rows = zip(t_list, *columns[:10])
    return list(
        zip(t_list, columns[CE_DIMM - 1], columns[CE_SERVER - 1], data_rows)
    )


def _decode_ues(ue_rows: np.ndarray) -> list:
    t_list = ue_rows[:, UE_T].tolist()
    dimms = ue_rows[:, UE_DIMM].astype(np.int64).tolist()
    return list(zip(t_list, dimms))


def _decode_events(ev_rows: np.ndarray) -> list:
    t_list = ev_rows[:, EV_T].tolist()
    dimms = ev_rows[:, EV_DIMM].astype(np.int64).tolist()
    kinds = ev_rows[:, EV_KIND].astype(np.int64).tolist()
    return list(zip(t_list, dimms, kinds))


@dataclass
class MergedFleetStream:
    """One whole-fleet event stream in replay order (pre-permuted lists).

    With ``decode_payloads=False`` the stream is a *manifest only*:
    ``tags`` / ``plats`` / ``rows`` stay empty and consumers (the batched
    fleet engine) derive the merged order straight from the columnar
    stores; record counts, end hours and the event total are still
    populated.
    """

    platforms: tuple[str, ...]
    #: Per-event kind tag (:data:`CE_TAG` / :data:`UE_TAG` / :data:`EVENT_TAG`).
    tags: list
    #: Per-event index into :attr:`platforms`.
    plats: list
    #: Per-event pre-decoded payload tuple (shapes in the module docstring).
    rows: list
    #: Per-platform record counts: ``{platform: {"ces": n, "ues": n, "events": n}}``.
    counts: dict
    #: Per-platform hour of the platform's last event (alarm finalisation).
    end_hours: dict
    #: Total record count (equals ``len(tags)`` when payloads are decoded).
    events_total: int = 0

    def __len__(self) -> int:
        return self.events_total

    @property
    def events(self) -> int:
        return self.events_total

    @property
    def decoded(self) -> bool:
        """True when the per-event payload lists were materialised."""
        return len(self.tags) == self.events_total


def merge_fleet_streams(
    stores: dict[str, object], *, decode_payloads: bool = True
) -> MergedFleetStream:
    """Merge ``{platform: LogStore}`` into one :class:`MergedFleetStream`.

    ``decode_payloads=False`` skips the payload decode *and* the global
    sort — the batched fleet engine rebuilds its own (identical) merged
    order from the columnar tables, so only the manifest is needed.
    """
    if not stores:
        raise ValueError("merge_fleet_streams needs at least one platform")
    platforms = tuple(stores)
    times_parts: list[np.ndarray] = []
    tags_parts: list[np.ndarray] = []
    plats_parts: list[np.ndarray] = []
    payload: list = []  # rows in concatenation order
    counts: dict[str, dict[str, int]] = {}
    end_hours: dict[str, float] = {}
    total = 0
    for index, platform in enumerate(platforms):
        columns = stores[platform].columns
        ce_rows = columns.ces.rows()
        ue_rows = columns.ues.rows()
        ev_rows = columns.events.rows()
        platform_times = (
            ce_rows[:, CE_T], ue_rows[:, UE_T], ev_rows[:, EV_T]
        )
        n = len(ce_rows) + len(ue_rows) + len(ev_rows)
        total += n
        if decode_payloads:
            for kind_tag, kind_times, decoded in zip(
                (CE_TAG, UE_TAG, EVENT_TAG),
                platform_times,
                (_decode_ces(ce_rows), _decode_ues(ue_rows),
                 _decode_events(ev_rows)),
            ):
                times_parts.append(kind_times)
                tags_parts.append(
                    np.full(len(decoded), kind_tag, dtype=np.int8)
                )
                payload.extend(decoded)
            plats_parts.append(np.full(n, index, dtype=np.int32))
        counts[platform] = {
            "ces": len(ce_rows), "ues": len(ue_rows), "events": len(ev_rows),
        }
        # Kind tables are append-ordered, not time-sorted: take the max.
        end_hours[platform] = float(
            max((t.max() for t in platform_times if t.size), default=0.0)
        )
    if not decode_payloads:
        return MergedFleetStream(
            platforms=platforms,
            tags=[],
            plats=[],
            rows=[],
            counts=counts,
            end_hours=end_hours,
            events_total=total,
        )
    times = np.concatenate(times_parts)
    tags = np.concatenate(tags_parts)
    plats = np.concatenate(plats_parts)
    # Stable three-key sort: time, then kind (CE < UE < event — the
    # iter_stream tie order every platform's own replay uses), then the
    # platform index so cross-platform ties are deterministic.  Stability
    # keeps each platform's equal-key records in their original per-kind
    # order, so per-platform subsequences equal the single-platform merge.
    order = np.lexsort((plats, tags, times))
    ordered = order.tolist()
    return MergedFleetStream(
        platforms=platforms,
        tags=tags[order].tolist(),
        plats=plats[order].tolist(),
        rows=[payload[i] for i in ordered],
        counts=counts,
        end_hours=end_hours,
        events_total=total,
    )
