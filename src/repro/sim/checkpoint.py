"""Append-only JSONL checkpointing for sweep campaigns.

A killed process should cost the points in flight, not the campaign.
:class:`SweepCheckpoint` streams every completed
:class:`~repro.sim.executor.PointRecord` to an append-only JSONL file;
``SweepExecutor.run(..., checkpoint=..., resume=True)`` then skips the
already-completed points **bit-exactly** — the resumed report's metrics
pickle to the same bytes as an uninterrupted run's
(``tests/test_sim_faults.py`` enforces it).

Durability contract:

* one record = one line, written and flushed as its point lands, so a
  killed process loses no landed point and a crash can tear at most
  the final line;
* :meth:`SweepCheckpoint.start` fsyncs the header;
* an ``fsync`` runs once the lines written since the last one carry at
  least :data:`SYNC_AFTER_POINT_S` of point time (each append records
  its point's ``seconds``), and :meth:`SweepCheckpoint.sync` runs one
  when the run ends.  A power loss therefore costs at most about that
  much recompute, plus the points in flight.  Cache hits and failed
  points carry 0 s, so they never force a sync on their own;
* a lost point is recomputed on resume, bit-exactly, from its own
  ``(seed, index)`` child seed;
* the loader tolerates (and counts) torn or corrupt trailing lines —
  every metric payload carries a sha256 that must match;
* a header line pins ``(seed, task fingerprint, schema)``; resuming
  against a different sweep raises instead of silently mixing results.

Metrics are arbitrary picklable objects (``BerEstimate``, floats, …);
they are stored pickled + base64 inside the JSON line.
"""

from __future__ import annotations

import base64
import hashlib
import json
import logging
import os
import pickle
from dataclasses import dataclass
from pathlib import Path
from typing import Any, TextIO

__all__ = [
    "SYNC_AFTER_POINT_S",
    "CheckpointError",
    "CheckpointEntry",
    "SweepCheckpoint",
]

logger = logging.getLogger(__name__)

#: Bump when the line layout changes (old checkpoints refuse to load).
CHECKPOINT_SCHEMA_VERSION = 1

#: Point time the unsynced lines may carry before an append fsyncs:
#: the recompute a power loss may cost.
SYNC_AFTER_POINT_S = 1.0


class CheckpointError(RuntimeError):
    """Raised when a checkpoint cannot serve the requested resume."""


@dataclass(frozen=True)
class CheckpointEntry:
    """One completed point as recovered from disk."""

    index: int
    value: float
    status: str
    attempts: int
    seconds: float
    metric: Any


def _encode_metric(metric: Any) -> tuple[str, str]:
    blob = pickle.dumps(metric, protocol=pickle.HIGHEST_PROTOCOL)
    return (
        base64.b64encode(blob).decode("ascii"),
        hashlib.sha256(blob).hexdigest(),
    )


def _decode_metric(payload: str, sha256: str) -> Any:
    blob = base64.b64decode(payload.encode("ascii"))
    if hashlib.sha256(blob).hexdigest() != sha256:
        raise CheckpointError("metric payload failed its integrity check")
    return pickle.loads(blob)


class SweepCheckpoint:
    """Append-only JSONL record of a sweep's completed points.

    Appends go through one handle, opened at the first append and
    closed by :meth:`sync` at the end of the run.

    Parameters
    ----------
    path:
        Checkpoint file (parent directories created on demand).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.skipped_lines = 0  # torn/corrupt lines tolerated at load
        self._handle: TextIO | None = None
        self._unsynced_lines = 0
        self._unsynced_s = 0.0  # point time the unsynced lines carry

    # -- writing --------------------------------------------------------------

    def start(self, *, seed: int, fingerprint: str, n_points: int) -> None:
        """Begin a fresh campaign: truncate and write the header line."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "schema": CHECKPOINT_SCHEMA_VERSION,
            "seed": int(seed),
            "fingerprint": fingerprint,
            "n_points": int(n_points),
        }
        with self.path.open("w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(
        self,
        *,
        index: int,
        value: float,
        status: str,
        attempts: int,
        seconds: float,
        metric: Any,
    ) -> None:
        """Append one completed point: write and flush the line, and
        fsync once the unsynced lines carry :data:`SYNC_AFTER_POINT_S`."""
        payload, digest = _encode_metric(metric)
        line = json.dumps(
            {
                "kind": "point",
                "index": int(index),
                "value": float(value),
                "status": status,
                "attempts": int(attempts),
                "seconds": float(seconds),
                "metric": payload,
                "sha256": digest,
            },
            sort_keys=True,
        )
        if self._handle is None:
            self._handle = self.path.open("a", encoding="utf-8")
        self._handle.write(line + "\n")
        self._handle.flush()
        self._unsynced_lines += 1
        self._unsynced_s += seconds
        if self._unsynced_s >= SYNC_AFTER_POINT_S:
            os.fsync(self._handle.fileno())
            self._unsynced_lines = 0
            self._unsynced_s = 0.0

    def sync(self) -> None:
        """End the run's appends: fsync any unsynced lines and close the
        append handle.  A no-op when nothing was appended."""
        handle, self._handle = self._handle, None
        if handle is None:
            return
        with handle:
            if self._unsynced_lines:
                os.fsync(handle.fileno())
        self._unsynced_lines = 0
        self._unsynced_s = 0.0

    # -- reading --------------------------------------------------------------

    def exists(self) -> bool:
        """Whether anything is on disk to resume from."""
        return self.path.exists()

    def load(
        self, *, seed: int | None = None, fingerprint: str | None = None
    ) -> dict[int, CheckpointEntry]:
        """Completed ``status == "ok"`` points, keyed by sweep index.

        Verifies the header against ``seed`` / ``fingerprint`` when
        given (mismatch raises :class:`CheckpointError` — resuming a
        different sweep would silently mix incompatible results).
        Torn or corrupt lines are skipped, counted in
        :attr:`skipped_lines`, and logged; later lines for the same
        index win (a re-run after a partial resume overwrites).
        """
        if not self.path.exists():
            raise CheckpointError(f"no checkpoint at {self.path}")
        entries: dict[int, CheckpointEntry] = {}
        self.skipped_lines = 0
        saw_header = False
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError:
                    self.skipped_lines += 1
                    logger.warning(
                        "checkpoint %s line %d: unparseable (torn write?) — skipped",
                        self.path,
                        line_no,
                    )
                    continue
                kind = obj.get("kind")
                if kind == "header":
                    saw_header = True
                    if obj.get("schema") != CHECKPOINT_SCHEMA_VERSION:
                        raise CheckpointError(
                            f"checkpoint schema {obj.get('schema')!r} != "
                            f"{CHECKPOINT_SCHEMA_VERSION} in {self.path}"
                        )
                    if seed is not None and obj.get("seed") != int(seed):
                        raise CheckpointError(
                            f"checkpoint {self.path} was written for seed "
                            f"{obj.get('seed')!r}, not {seed!r}"
                        )
                    if (
                        fingerprint is not None
                        and obj.get("fingerprint") != fingerprint
                    ):
                        raise CheckpointError(
                            f"checkpoint {self.path} belongs to a different "
                            "sweep (task/values fingerprint mismatch)"
                        )
                    continue
                if kind != "point":
                    self.skipped_lines += 1
                    continue
                try:
                    if obj["status"] != "ok":
                        continue  # failed points are recomputed on resume
                    entries[int(obj["index"])] = CheckpointEntry(
                        index=int(obj["index"]),
                        value=float(obj["value"]),
                        status=str(obj["status"]),
                        attempts=int(obj["attempts"]),
                        seconds=float(obj["seconds"]),
                        metric=_decode_metric(obj["metric"], obj["sha256"]),
                    )
                except (KeyError, ValueError, TypeError, CheckpointError):
                    self.skipped_lines += 1
                    logger.warning(
                        "checkpoint %s line %d: corrupt point record — skipped",
                        self.path,
                        line_no,
                    )
        if not saw_header:
            raise CheckpointError(f"checkpoint {self.path} has no header line")
        return entries

    def __len__(self) -> int:
        """Completed points currently recoverable (0 for no file)."""
        try:
            return len(self.load())
        except CheckpointError:
            return 0
