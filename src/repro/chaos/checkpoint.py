"""Checkpoint/resume plumbing for the replay walker.

Every replay — a fleet, a single platform (a fleet of one) or a
distributed worker's partition — checkpoints through
:class:`~repro.fleetops.engine.FleetReplayEngine`.  A checkpoint is ONE
atomically-written pickle (tmp file + ``os.replace``) with this layout::

    {
      "version":   CHECKPOINT_VERSION,
      "kind":      "fleet",                  # the state layout that wrote it
      "engine":    "batched" | "per_event",  # which walk the position indexes
      "position":  int,   # merged-walk entries already processed
      "state":     bytes, # inner pickle of the engine's mutable state
      "bus_counts": dict, # EventBus publish counters at snapshot time
    }

``state`` is ONE inner pickle, written by the save both walks share, of
the sequential decision state only: per platform the fields named in
``fleetops.engine.DECISION_STATE`` (alarm ledger, window states, rescore
throttle, scored DIMMs, pending queue, counters), plus the policy engine
with its RNG and the score logs, so shared references (policy actions ->
alarm incidents) survive.  Everything derivable is rebuilt on resume:
the EventBus and each platform's ``IncrementalFeatureExtractor`` (with
its fitted pipeline) are stored as references and re-bound to the
resuming engine's own; window states resolve their environment lists
again; lookup caches start empty; replay kernels, walk orders and
vocabularies come from the input stores, and the walk skips its first
``position`` entries.  Version 2 is this layout.  A payload of another
version (version 1 pickled the extractors) or ``kind`` (the retired
single-platform ``"replay"`` layout) is refused with a ``ValueError``
before any state is read.

Because processing is deterministic, a replay killed anywhere at or after
a snapshot and resumed from it produces bit-identical score logs, alarms
and cost digests to the uninterrupted run (wall-clock timing fields are
the one documented exception).
"""

from __future__ import annotations

import os
import pickle
from pathlib import Path

CHECKPOINT_VERSION = 2


def save_checkpoint(path, payload: dict) -> None:
    """Atomically persist one checkpoint payload."""
    path = Path(path)
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> dict:
    """Load and version-check one checkpoint payload."""
    payload = pickle.loads(Path(path).read_bytes())
    if (
        not isinstance(payload, dict)
        or payload.get("version") != CHECKPOINT_VERSION
    ):
        found = payload.get("version") if isinstance(payload, dict) else "?"
        raise ValueError(
            f"unsupported checkpoint {str(path)!r}: version={found!r} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    return payload


class ReplayCheckpointer:
    """Periodic-snapshot + halt/resume driver for one replay call.

    The engines call :meth:`step` at the top of every merged-walk
    iteration, *before* processing the entry, so ``position`` always
    equals the number of entries already processed and a snapshot written
    at ``position`` resumes with zero reprocessing.  ``halt_after=N``
    stops the walk after N entries processed *in this call* (writing a
    final snapshot first when a path is configured) — the deterministic
    stand-in for a killed process that the bit-identity suite uses.
    """

    def __init__(
        self,
        *,
        every: int = 0,
        path=None,
        halt_after: int | None = None,
        resume_from=None,
        engine: str = "",
        kind: str = "",
    ):
        self.every = int(every or 0)
        if self.every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        self.path = Path(path) if path is not None else None
        if self.every and self.path is None:
            raise ValueError("checkpoint_every needs a checkpoint_path")
        self.halt_after = None if halt_after is None else int(halt_after)
        self.engine = engine
        self.kind = kind
        self.resume_state: dict | None = None
        if resume_from is not None:
            snap = load_checkpoint(resume_from)
            if snap.get("kind") != kind or snap.get("engine") != engine:
                raise ValueError(
                    f"checkpoint {str(resume_from)!r} was written by "
                    f"kind={snap.get('kind')!r} engine={snap.get('engine')!r}"
                    f"; this replay is kind={kind!r} engine={engine!r}"
                )
            self.resume_state = snap
        self.position = (
            int(self.resume_state["position"]) if self.resume_state else 0
        )
        self.saved = 0
        self._processed = 0
        self._since_save = 0

    def step(self, snapshot_fn) -> bool:
        """Account one walk entry about to be processed.

        ``snapshot_fn()`` must return ``{"state": bytes, "bus_counts":
        dict}`` describing the engine state *after* ``position`` entries;
        it is only called when a snapshot is actually due.  Returns True
        when the caller must halt without processing the entry.
        """
        halt = (
            self.halt_after is not None
            and self._processed >= self.halt_after
        )
        due = (
            self.path is not None
            and self.every > 0
            and self._since_save >= self.every
        )
        if (halt or due) and self.path is not None:
            payload = dict(snapshot_fn())
            payload["version"] = CHECKPOINT_VERSION
            payload["kind"] = self.kind
            payload["engine"] = self.engine
            payload["position"] = self.position
            save_checkpoint(self.path, payload)
            self.saved += 1
            self._since_save = 0
        if halt:
            return True
        self.position += 1
        self._processed += 1
        self._since_save += 1
        return False
