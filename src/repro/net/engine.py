"""Deterministic discrete-event simulation engine.

The MAC layer of a 100k-tag backscatter network cannot run at the
waveform level — a single 10k-slot inventory would need minutes of
sample-rate simulation per *slot*.  This module provides the substrate
the :mod:`repro.net` network layer runs on instead: a classic
discrete-event core with three determinism guarantees that make
population-scale runs **byte-reproducible**:

* **Total event order.**  The event queue is a binary heap keyed by
  ``(time, seq)`` where ``seq`` is a global monotonically increasing
  scheduling counter.  Events at equal timestamps therefore execute in
  the order they were *scheduled*, which is itself deterministic — no
  heap-reordering ambiguity, no id()-based tie-breaks.
* **Per-process RNG streams.**  Every :class:`Process` receives its own
  :class:`numpy.random.Generator` spawned from the simulator's root
  :class:`~numpy.random.SeedSequence` in registration order.  A process
  draws only from its own stream, so the *interleaving* of events
  cannot perturb any process's draw sequence — adding trace calls or
  reordering same-time events never changes a number.
* **Structured event trace.**  Every :meth:`Simulator.record` call
  (processes reach it through :meth:`Process.trace`) appends a
  :class:`TraceEvent` to a bounded ring buffer whose running sha256
  digest covers *all* events ever appended — the ring tail is for
  debugging, the digest is the byte-identity witness that two runs
  executed the same history.  Dispatching an event appends nothing;
  :meth:`Simulator.run` only counts it in ``events_processed``.

The engine is protocol-agnostic; see :mod:`repro.net.mac` for the
AP/tag/churn/blockage processes built on top of it.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "TraceEvent",
    "EventTrace",
    "EventHandle",
    "Process",
    "Simulator",
    "TraceHeader",
    "TraceReadError",
    "TraceReader",
]

#: Core payload keys of a dumped event line; everything else (except
#: the integrity field ``sha256``) is ``detail``.
_CORE_KEYS = ("t", "seq", "proc", "kind")


@dataclass(frozen=True)
class TraceEvent:
    """One structured trace record: who did what, when.

    ``detail`` is a tuple of ``(key, value)`` pairs (kept as a tuple so
    the event is hashable and its serialised form has a stable field
    order without sorting surprises).
    """

    time_s: float
    seq: int
    process: str
    kind: str
    detail: tuple[tuple[str, object], ...] = ()

    def payload(self) -> dict[str, object]:
        """The canonical payload dict (insertion order is the format)."""
        payload: dict[str, object] = {
            "t": self.time_s,
            "seq": self.seq,
            "proc": self.process,
            "kind": self.kind,
        }
        for key, value in self.detail:
            payload[key] = value
        return payload

    def to_line(self) -> str:
        """Canonical single-line JSON rendering (digest + dump format)."""
        return json.dumps(self.payload(), separators=(",", ":"), allow_nan=True)

    def to_dump_line(self) -> str:
        """:meth:`to_line` plus a per-line ``sha256`` integrity field.

        The hash covers the canonical line (the digest input), so a
        reader can verify each dumped record independently — the same
        per-line contract :class:`~repro.sim.checkpoint.SweepCheckpoint`
        gives sweep points.  The running trace digest is computed over
        :meth:`to_line` and is therefore unaffected.
        """
        line = self.to_line()
        digest = hashlib.sha256(line.encode()).hexdigest()
        payload = self.payload()
        payload["sha256"] = digest
        return json.dumps(payload, separators=(",", ":"), allow_nan=True)

    @classmethod
    def from_payload(cls, payload: dict[str, object]) -> "TraceEvent":
        """Rebuild an event from a parsed dump line's payload dict.

        ``payload`` must carry the core keys in any order; every other
        key (in its JSON order, which preserves the dumped order) is
        ``detail``.  The integrity field ``sha256`` must already be
        stripped by the caller (:class:`TraceReader` does).
        """
        try:
            time_s = float(payload["t"])  # type: ignore[arg-type]
            seq = int(payload["seq"])  # type: ignore[arg-type]
            process = str(payload["proc"])
            kind = str(payload["kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceReadError(f"event payload missing core field: {exc}")
        detail = tuple(
            (key, value)
            for key, value in payload.items()
            if key not in _CORE_KEYS
        )
        return cls(
            time_s=time_s, seq=seq, process=process, kind=kind, detail=detail
        )


class EventTrace:
    """Bounded ring buffer of :class:`TraceEvent` with a running digest.

    The ring keeps the most recent ``capacity`` events for debugging
    (dumpable as JSONL — the CI chaos job uploads it on failure); the
    sha256 digest is updated with *every* appended event's canonical
    line, so :meth:`digest` witnesses the complete event history even
    after old events have been evicted from the ring.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.total = 0
        self._ring: list[TraceEvent | None] = [None] * capacity
        self._hash = hashlib.sha256()
        #: Optional live tap: called with every appended event *after*
        #: the digest update.  The live AP service
        #: (:mod:`repro.serve.daemon`) uses this to stream reads out of
        #: an embedded simulator without waiting for a dump; the sink
        #: never participates in the digest, so tapping a run cannot
        #: change its byte identity.
        self.sink: Callable[[TraceEvent], None] | None = None

    def append(self, event: TraceEvent) -> None:
        """Record one event (digest always; ring evicts the oldest)."""
        self._ring[self.total % self.capacity] = event
        self.total += 1
        self._hash.update(event.to_line().encode())
        self._hash.update(b"\n")
        if self.sink is not None:
            self.sink(event)

    def tail(self) -> list[TraceEvent]:
        """The retained events, oldest first."""
        if self.total <= self.capacity:
            return [e for e in self._ring[: self.total] if e is not None]
        start = self.total % self.capacity
        wrapped = self._ring[start:] + self._ring[:start]
        return [e for e in wrapped if e is not None]

    def digest(self) -> str:
        """sha256 over every event ever appended (not just the tail)."""
        return self._hash.hexdigest()

    def iter_jsonl(self):
        """Yield the summary header line, then each retained event line.

        Every yielded string ends in a newline, so the stream can be
        written straight to a file handle without materialising the
        whole tail in memory — at million-tag scale a large ring would
        otherwise double its footprint inside :meth:`to_jsonl`.  Event
        lines carry a per-line ``sha256`` over their canonical (digest
        input) rendering, so :class:`TraceReader` can verify each record
        independently when streaming the dump back in.
        """
        header = json.dumps(
            {
                "trace": "repro.net",
                "total_events": self.total,
                "ring_capacity": self.capacity,
                "digest_sha256": self.digest(),
            },
            separators=(",", ":"),
        )
        yield header + "\n"
        for event in self.tail():
            yield event.to_dump_line() + "\n"

    def to_jsonl(self) -> str:
        """The ring tail as JSONL, preceded by a summary header line."""
        return "".join(self.iter_jsonl())

    def dump(self, path: str | Path) -> Path:
        """Stream :meth:`iter_jsonl` to ``path`` (parents created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as handle:
            handle.writelines(self.iter_jsonl())
        return path


class TraceReadError(RuntimeError):
    """A trace dump cannot be read (missing file / unusable header)."""


@dataclass(frozen=True)
class TraceHeader:
    """The summary header line of a dumped event trace."""

    total_events: int
    ring_capacity: int
    digest_sha256: str


class TraceReader:
    """Stream a dumped event trace back in, line by line.

    :meth:`EventTrace.dump` streams a trace *out* without materialising
    it; this is the missing inbound half — the live AP service replays
    multi-GB traces through it without ever holding more than one line
    in memory.  Mirrors :class:`~repro.sim.checkpoint.SweepCheckpoint`'s
    durability contract on the read side:

    * every event line's embedded ``sha256`` is verified against the
      canonical re-rendering of its payload (a flipped byte anywhere in
      the record fails the check);
    * torn or corrupt lines — a crash mid-``dump``, a truncated copy —
      are skipped, counted in :attr:`skipped_lines`, and optionally
      handed to ``on_bad_line`` (the serve daemon dead-letters them)
      instead of aborting the stream;
    * legacy dumps whose event lines predate the per-line hash are
      still readable (counted in :attr:`unverified_lines`).

    Iterate the reader to get :class:`TraceEvent` objects; the header
    is parsed on first use and exposed as :attr:`header`.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        on_bad_line: Callable[[int, str, str], None] | None = None,
    ) -> None:
        self.path = Path(path)
        self.on_bad_line = on_bad_line
        self.header: TraceHeader | None = None
        self.events_read = 0
        self.skipped_lines = 0
        self.unverified_lines = 0

    def _bad(self, line_no: int, raw: str, reason: str) -> None:
        self.skipped_lines += 1
        if self.on_bad_line is not None:
            self.on_bad_line(line_no, raw, reason)

    def __iter__(self) -> Iterator[TraceEvent]:
        if not self.path.exists():
            raise TraceReadError(f"no trace dump at {self.path}")
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except json.JSONDecodeError:
                    if line_no == 1:
                        raise TraceReadError(
                            f"trace {self.path}: unparseable header line"
                        )
                    self._bad(line_no, line, "unparseable (torn write?)")
                    continue
                if not isinstance(payload, dict):
                    self._bad(line_no, line, "not a JSON object")
                    continue
                if line_no == 1:
                    if payload.get("trace") != "repro.net":
                        raise TraceReadError(
                            f"trace {self.path}: not a repro.net trace dump"
                        )
                    self.header = TraceHeader(
                        total_events=int(payload.get("total_events", 0)),
                        ring_capacity=int(payload.get("ring_capacity", 0)),
                        digest_sha256=str(payload.get("digest_sha256", "")),
                    )
                    continue
                recorded = payload.pop("sha256", None)
                if recorded is None:
                    self.unverified_lines += 1
                else:
                    canonical = json.dumps(
                        payload, separators=(",", ":"), allow_nan=True
                    )
                    if (
                        hashlib.sha256(canonical.encode()).hexdigest()
                        != recorded
                    ):
                        self._bad(line_no, line, "sha256 mismatch")
                        continue
                try:
                    event = TraceEvent.from_payload(payload)
                except TraceReadError as exc:
                    self._bad(line_no, line, str(exc))
                    continue
                self.events_read += 1
                yield event
        if self.header is None:
            raise TraceReadError(f"trace {self.path} has no header line")


@dataclass
class EventHandle:
    """A scheduled event; ``cancel`` via :meth:`Simulator.cancel`."""

    time_s: float
    seq: int
    callback: Callable[[], None] = field(repr=False)
    process: str = ""
    cancelled: bool = False


class Process:
    """A named simulation actor with its own deterministic RNG stream.

    Subclasses implement behaviour by scheduling callbacks through
    :meth:`schedule` and drawing randomness *only* from ``self.rng``.
    The stream is assigned at registration
    (:meth:`Simulator.add_process`) by spawning the simulator's root
    seed sequence, so a process's draws depend only on the root seed
    and the registration order — never on how events interleave.
    """

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("process needs a non-empty name")
        self.name = name
        self.sim: Simulator | None = None
        self.rng: np.random.Generator | None = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, sim: "Simulator", rng: np.random.Generator) -> None:
        """Attach to a simulator (called by :meth:`Simulator.add_process`)."""
        self.sim = sim
        self.rng = rng

    def start(self) -> None:
        """Hook: schedule the process's first event(s).  Default: none."""

    # -- conveniences ---------------------------------------------------------

    @property
    def now(self) -> float:
        """The simulated clock."""
        assert self.sim is not None, f"process {self.name!r} is unbound"
        return self.sim.now

    def schedule(
        self, delay_s: float, callback: Callable[[], None]
    ) -> EventHandle:
        """Schedule ``callback`` at ``now + delay_s`` under this process."""
        assert self.sim is not None, f"process {self.name!r} is unbound"
        return self.sim.schedule(delay_s, callback, process=self.name)

    def trace(self, kind: str, **detail: object) -> None:
        """Append a structured trace event attributed to this process."""
        assert self.sim is not None, f"process {self.name!r} is unbound"
        self.sim.record(self.name, kind, **detail)


class Simulator:
    """Heap-based discrete-event simulator with a deterministic clock.

    Parameters
    ----------
    seed:
        Root entropy — an ``int`` or a :class:`numpy.random.SeedSequence`.
        Every per-process stream is spawned from it in registration
        order, so ``Simulator(0)`` is one reproducible universe.
    trace_capacity:
        Ring size of the structured event trace.

    Determinism contract
    --------------------
    * Events execute in ``(time, seq)`` order; ``seq`` increments per
      :meth:`schedule` call, so same-time events run in scheduling
      order.
    * Process RNG streams are spawned in :meth:`add_process` order.
      Registering the *same processes in the same order* under the same
      seed reproduces every draw bit for bit; network-layer code must
      therefore register all its processes unconditionally (an idle
      process still consumes its spawn slot).
    """

    def __init__(
        self,
        seed: int | np.random.SeedSequence = 0,
        trace_capacity: int = 4096,
    ) -> None:
        if isinstance(seed, np.random.SeedSequence):
            self.entropy = seed
        else:
            self.entropy = np.random.SeedSequence(int(seed))
        self.now = 0.0
        self.events_processed = 0
        self.trace = EventTrace(trace_capacity)
        self.processes: dict[str, Process] = {}
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0

    # -- processes ------------------------------------------------------------

    def spawn_stream(self) -> np.random.Generator:
        """Spawn the next child stream off the root seed sequence.

        Children are handed out in call order (the spawn counter lives
        on the root ``SeedSequence``), which is what makes registration
        order part of the determinism contract.
        """
        return np.random.default_rng(self.entropy.spawn(1)[0])

    def add_process(
        self, process: Process, rng: np.random.Generator | None = None
    ) -> Process:
        """Register ``process``, assigning its RNG stream; returns it.

        By default the stream is spawned from the root seed sequence in
        registration order.  Pass ``rng`` to bring an externally-owned
        generator instead — the sharded metro coordinator hands each
        shard worker mid-run per-AP generator states, and binding them
        directly keeps the worker's registration from consuming a spawn
        slot (which would tie the draw sequence to the shard layout).
        """
        if process.name in self.processes:
            raise ValueError(f"duplicate process name {process.name!r}")
        process.bind(self, rng if rng is not None else self.spawn_stream())
        self.processes[process.name] = process
        return process

    # -- scheduling -----------------------------------------------------------

    def schedule(
        self,
        delay_s: float,
        callback: Callable[[], None],
        process: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at ``now + delay_s``; returns a handle."""
        if delay_s < 0:
            raise ValueError(f"cannot schedule into the past: {delay_s}")
        return self.schedule_at(self.now + delay_s, callback, process=process)

    def schedule_at(
        self,
        time_s: float,
        callback: Callable[[], None],
        process: str = "",
    ) -> EventHandle:
        """Schedule ``callback`` at absolute ``time_s`` (>= now)."""
        if time_s < self.now:
            raise ValueError(
                f"cannot schedule into the past: {time_s} < now {self.now}"
            )
        handle = EventHandle(
            time_s=time_s, seq=self._seq, callback=callback, process=process
        )
        self._seq += 1
        heapq.heappush(self._heap, (time_s, handle.seq, handle))
        return handle

    def cancel(self, handle: EventHandle) -> None:
        """Cancel a scheduled event (lazy: skipped at pop time)."""
        handle.cancelled = True

    # -- tracing --------------------------------------------------------------

    def record(self, process: str, kind: str, **detail: object) -> None:
        """Append a structured trace event at the current clock."""
        self.trace.append(
            TraceEvent(
                time_s=self.now,
                seq=self._seq,
                process=process,
                kind=kind,
                detail=tuple(sorted(detail.items())),
            )
        )

    # -- the loop -------------------------------------------------------------

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` when drained."""
        while self._heap:
            time_s, _seq, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return time_s
        return None

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> int:
        """Dispatch events in ``(time, seq)`` order; return the count.

        ``until`` stops *before* dispatching any event strictly later
        than it (the clock is left at the last dispatched event's time);
        ``max_events`` bounds this call's dispatch count.  Both
        ``None`` runs the queue dry.
        """
        dispatched = 0
        while self._heap:
            if max_events is not None and dispatched >= max_events:
                break
            time_s, _seq, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            if until is not None and time_s > until:
                break
            heapq.heappop(self._heap)
            self.now = time_s
            handle.callback()
            dispatched += 1
            self.events_processed += 1
        return dispatched
