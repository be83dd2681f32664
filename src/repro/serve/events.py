"""The event vocabulary of the live AP service.

The batch simulators speak :class:`~repro.net.engine.TraceEvent`; the
streaming daemon speaks :class:`ReadEvent` — a normalised tag-read
record with an explicit ``(source, seq)`` identity so the ingest
pipeline can deduplicate replays and floods.  Anything that *fails* to
parse into a :class:`ReadEvent` travels as a :class:`MalformedEvent`
and ends in the :class:`DeadLetterLog` instead of crashing the daemon:
a production reader quarantines garbage, it does not die on it.

The dead-letter log mirrors the durability contract of
:class:`~repro.sim.checkpoint.SweepCheckpoint`: one record per line,
written with a single ``write`` + ``flush``, each line carrying a
sha256 over its quarantined payload — an interrupted daemon leaves no
partially-written dead-letter lines.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from repro.net.engine import TraceEvent

__all__ = [
    "ReadEvent",
    "MalformedEvent",
    "DeadLetterLog",
    "read_event_from_trace",
]


@dataclass(frozen=True)
class ReadEvent:
    """One normalised tag read flowing through the ingest pipeline."""

    time_s: float
    """Source timestamp — virtual (trace) time in replay mode, seconds
    since daemon start in live mode."""
    tag_id: int
    ap_id: int
    bits: int
    source: str
    """Producing stream (``"trace"``, ``"netsim"``, ``"chaos-flood"``…);
    token buckets and dedup windows are keyed per source."""
    seq: int
    """Per-source sequence number: the dedup identity of the event."""
    slot: int = -1
    """MAC slot of the read, when the source knows it."""


@dataclass(frozen=True)
class MalformedEvent:
    """A record that failed to parse; destined for the dead-letter log."""

    raw: str
    reason: str
    source: str = ""


def read_event_from_trace(
    event: TraceEvent, *, bits: int, source: str = "trace"
) -> ReadEvent | MalformedEvent | None:
    """Normalise a simulator ``read`` trace event; ``None`` for others.

    Both the single-AP MAC (``kind="read"``, detail ``slot``/``tag``)
    and the metro MAC (adds ``ap``/``hops``) emit compatible records;
    non-read kinds (arrivals, handoffs, spot checks…) are not inventory
    traffic and are skipped by returning ``None``.  A read record with
    no ``tag``, or whose ``tag``, ``ap`` or ``slot`` does not convert
    to ``int``, comes back as a :class:`MalformedEvent` naming the
    field, so both stream sources hand it to the dead-letter log
    instead of dying on it.
    """
    if event.kind != "read":
        return None
    detail = dict(event.detail)
    try:
        return ReadEvent(
            event.time_s,
            int(detail["tag"]),  # type: ignore[arg-type]
            int(detail.get("ap", 0)),  # type: ignore[arg-type]
            bits,
            source,
            event.seq,
            int(detail.get("slot", -1)),  # type: ignore[arg-type]
        )
    except KeyError:
        reason = "read record has no 'tag'"
    except (TypeError, ValueError, OverflowError):
        for name, default in (("tag", None), ("ap", 0), ("slot", -1)):
            value = detail.get(name, default)
            try:
                int(value)  # type: ignore[call-overload]
            except (TypeError, ValueError, OverflowError):
                break
        reason = f"read record field {name!r} is not an integer: {value!r}"
    return MalformedEvent(raw=event.to_line(), reason=reason, source=source)


class DeadLetterLog:
    """Append-only JSONL quarantine for malformed/unreadable records.

    Every append is one complete line written with a single ``write``
    followed by ``flush``, so a SIGINT between events can never leave a
    torn record; ``sha256`` covers the quarantined raw payload so the
    log itself is integrity-checkable.  ``path=None`` degrades to a
    counter-only sink (the daemon always counts, logging is optional).
    """

    def __init__(self, path: str | Path | None) -> None:
        self.path = Path(path) if path is not None else None
        self.lines_written = 0
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            # Truncate: one daemon run owns one dead-letter log.
            self.path.write_text("")

    def append(self, time_s: float, event: MalformedEvent) -> None:
        """Quarantine one record (complete-line write + flush)."""
        self.lines_written += 1
        if self.path is None:
            return
        line = json.dumps(
            {
                "t": float(time_s),
                "source": event.source,
                "reason": event.reason,
                "raw": event.raw[:512],
                "sha256": hashlib.sha256(event.raw.encode()).hexdigest(),
            },
            separators=(",", ":"),
        )
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()

    def load(self) -> list[dict]:
        """Parse the log back (tests + post-mortems); torn lines raise."""
        if self.path is None or not self.path.exists():
            return []
        records = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            if line:
                records.append(json.loads(line))
        return records
