"""The live AP service: batch netsim turned long-running daemon.

Everything before this package consumed tag reads as a *batch*: run the
simulator, collect the report, exit.  A deployed mmTag access point is
the opposite shape — an always-on process fed by an unbounded event
stream that must hold its memory bound, shed overload explicitly, and
answer health probes while doing it.  This module is that shape:

* :class:`IngestPipeline` — the synchronous, deterministic core: a
  monotonic pipeline clock, per-source dedup windows and token buckets,
  the bounded :class:`~repro.serve.queue.BoundedIngestQueue`, the
  :class:`~repro.serve.inventory.LiveInventory`, and the dead-letter
  quarantine.  In replay mode the pipeline runs entirely on *virtual*
  (trace) time, so the final inventory state and deterministic counters
  are a pure function of ``(trace, config, seed)`` — byte-identical
  across runs.
* :class:`TraceReplaySource` / :class:`LiveNetsimSource` — the two
  producers: a verified streaming read of an
  :class:`~repro.net.engine.EventTrace` JSONL dump, or an embedded
  netsim generating fresh universes of tag reads forever.
* :class:`APDaemon` — the asyncio shell: paces the stream (wall time in
  live mode), runs the status line and
  :class:`~repro.serve.health.OpsServer`, and turns the first
  SIGINT/SIGTERM into a drain-and-checkpoint shutdown (a second one
  force-exits with status 130).

:func:`run_service` is the one-call entry the CLI and tests use.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
from collections import deque
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from repro.net.engine import TraceReader
from repro.net.sim import NetSimConfig, run_netsim
from repro.serve.events import (
    DeadLetterLog,
    MalformedEvent,
    ReadEvent,
    read_event_from_trace,
)
from repro.serve.health import OpsServer
from repro.serve.inventory import LiveInventory
from repro.serve.metrics import ServiceMetrics
from repro.serve.queue import POLICIES, BoundedIngestQueue, TokenBucket
from repro.sim.faults import StreamFaultPlan

__all__ = [
    "ServeConfig",
    "ServeReport",
    "IngestPipeline",
    "TraceReplaySource",
    "LiveNetsimSource",
    "APDaemon",
    "run_service",
]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ServeConfig:
    """Everything one daemon run depends on.

    Exactly one of ``trace_path`` (replay mode: deterministic virtual
    time) and ``live`` (embedded netsim producer paced on wall time)
    must be set.
    """

    trace_path: str | None = None
    live: bool = False

    # -- ingest ---------------------------------------------------------------
    queue_depth: int = 1024
    policy: str = "shed-oldest"
    service_rate_hz: float = 10_000.0
    """Consumer drain rate; 0 = infinitely fast."""
    rate_limit_hz: float = 0.0
    """Per-source token-bucket admission rate; 0 disables."""
    rate_limit_burst: float = 64.0
    dedup_window: int = 4096
    """Per-source (source, seq) window; 0 disables deduplication."""

    # -- inventory ------------------------------------------------------------
    max_tags: int = 100_000
    ttl_s: float | None = None
    ewma_alpha: float = 0.2
    expire_every: int = 1024
    """TTL sweep cadence, in ingested events."""
    frame_bits: int = 256

    # -- live producer --------------------------------------------------------
    offered_rate_hz: float = 2_000.0
    """Live-mode pacing: reads offered to the pipeline per wall second."""
    live_tags: int = 64
    live_slots: int = 2_000
    seed: int = 0

    # -- lifecycle ------------------------------------------------------------
    duration_s: float | None = None
    """Stop after this much stream time (replay) / wall time (live);
    ``None`` = run until the stream ends (replay) or forever (live)."""
    port: int | None = None
    """Ops endpoint port (0 = ephemeral); ``None`` disables the server."""
    status_interval_s: float = 5.0
    checkpoint_path: str | None = None
    dead_letter_path: str | None = None

    def __post_init__(self) -> None:
        if (self.trace_path is None) == (not self.live):
            raise ValueError(
                "exactly one of trace_path (replay) and live must be set"
            )
        if self.queue_depth < 1:
            raise ValueError(
                f"queue_depth must be >= 1, got {self.queue_depth}"
            )
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; choose from {POLICIES}"
            )
        if self.service_rate_hz < 0:
            raise ValueError(
                f"service_rate_hz must be >= 0, got {self.service_rate_hz}"
            )
        if self.rate_limit_hz < 0:
            raise ValueError(
                f"rate_limit_hz must be >= 0, got {self.rate_limit_hz}"
            )
        if self.rate_limit_burst < 1:
            # TokenBucket enforces this too, but buckets are created
            # lazily per source — fail at startup, not mid-stream.
            raise ValueError(
                f"rate_limit_burst must be >= 1, got {self.rate_limit_burst}"
            )
        if self.dedup_window < 0:
            raise ValueError(
                f"dedup_window must be >= 0, got {self.dedup_window}"
            )
        if self.expire_every < 1:
            raise ValueError(
                f"expire_every must be >= 1, got {self.expire_every}"
            )
        if self.offered_rate_hz <= 0:
            raise ValueError(
                f"offered_rate_hz must be > 0, got {self.offered_rate_hz}"
            )
        if self.live_tags < 1:
            raise ValueError(f"live_tags must be >= 1, got {self.live_tags}")
        if self.live_slots < 1:
            raise ValueError(
                f"live_slots must be >= 1, got {self.live_slots}"
            )
        if self.duration_s is not None and self.duration_s <= 0:
            raise ValueError(
                f"duration_s must be > 0 (or None), got {self.duration_s}"
            )
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.status_interval_s <= 0:
            raise ValueError(
                f"status_interval_s must be > 0, got {self.status_interval_s}"
            )


@dataclass(frozen=True)
class ServeReport:
    """The complete outcome of one daemon run."""

    mode: str
    clock_s: float
    drained: bool
    counters: dict[str, object]
    state_sha256: str
    inventory_stats: dict[str, object]
    dead_letter_lines: int
    checkpoint_path: str | None

    def summary(self) -> str:
        """Human-oriented multi-line summary for the CLI."""
        c = self.counters
        lines = [
            f"mode={self.mode} clock={self.clock_s:.3f}s "
            f"drained={self.drained}",
            f"events: in={c['events_in']} out={c['events_out']} "
            f"shed_oldest={c['shed_oldest']} shed_newest={c['shed_newest']} "
            f"rate_limited={c['rate_limited']} blocked={c['blocked']}",
            f"quarantine: dead_letter={c['dead_letter']} "
            f"duplicates={c['duplicates']} reordered={c['reordered']}",
            f"queue high watermark: {c['queue_high_watermark']}",
            f"inventory: tracked={self.inventory_stats['tracked']} "
            f"(watermark {self.inventory_stats['tracked_watermark']}, "
            f"cap {self.inventory_stats['max_tags']}) "
            f"evicted lru={self.inventory_stats['evicted_lru']} "
            f"ttl={self.inventory_stats['evicted_ttl']}",
            f"state sha256: {self.state_sha256}",
        ]
        if self.checkpoint_path:
            lines.append(f"checkpoint: {self.checkpoint_path}")
        return "\n".join(lines)


class IngestPipeline:
    """The synchronous deterministic core of the daemon.

    Each call to :meth:`ingest` advances the pipeline clock to the
    item's arrival time (clamping backwards timestamps and counting
    them), quarantines malformed records, deduplicates on
    ``(source, seq)``, rate-limits per source, and offers the survivor
    to the bounded queue.  Nothing in here reads a wall clock: replay
    determinism is this class being a pure function of the stream.
    """

    def __init__(
        self,
        config: ServeConfig,
        *,
        fault_plan: StreamFaultPlan | None = None,
    ) -> None:
        self.config = config
        self.metrics = ServiceMetrics()
        self.inventory = LiveInventory(
            max_tags=config.max_tags,
            ttl_s=config.ttl_s,
            ewma_alpha=config.ewma_alpha,
        )
        self.dead_letter = DeadLetterLog(config.dead_letter_path)
        self.queue = BoundedIngestQueue(
            depth=config.queue_depth,
            policy=config.policy,
            service_rate_hz=config.service_rate_hz,
            apply=self._apply,
            metrics=self.metrics,
            service_factor=(
                fault_plan.service_factor if fault_plan is not None else None
            ),
        )
        self.clock_s = 0.0
        # Latest raw source timestamp, kept apart from clock_s: block
        # backpressure advances clock_s past arrivals that are still in
        # source order, and those must not count as reordered.
        self.source_clock_s = 0.0
        self._buckets: dict[str, TokenBucket] = {}
        self._dedup: dict[str, tuple[set[int], deque[int]]] = {}
        self._since_expire = 0

    # -- internals -------------------------------------------------------------

    def _apply(self, event: ReadEvent, completion_s: float) -> None:
        self.inventory.observe(
            event.tag_id,
            event.ap_id,
            event.time_s,
            bits=event.bits,
            slot=event.slot,
        )
        self.metrics.count_read(event.ap_id)

    def _bucket(self, source: str) -> TokenBucket:
        bucket = self._buckets.get(source)
        if bucket is None:
            bucket = TokenBucket(
                self.config.rate_limit_hz, self.config.rate_limit_burst
            )
            self._buckets[source] = bucket
        return bucket

    def _is_duplicate(self, event: ReadEvent) -> bool:
        if self.config.dedup_window == 0:
            return False
        window = self._dedup.get(event.source)
        if window is None:
            window = (set(), deque())
            self._dedup[event.source] = window
        seen, order = window
        if event.seq in seen:
            return True
        seen.add(event.seq)
        order.append(event.seq)
        if len(order) > self.config.dedup_window:
            seen.discard(order.popleft())
        return False

    # -- the hot path ----------------------------------------------------------

    def ingest(self, item: ReadEvent | MalformedEvent,
               arrival_s: float) -> bool:
        """Fold one stream item in at ``arrival_s``; True = accepted."""
        if arrival_s < self.source_clock_s:
            # Source timestamp ran backwards (reordered stream / chaos).
            self.metrics.reordered += 1
        else:
            self.source_clock_s = arrival_s
        if arrival_s < self.clock_s:
            # Behind the pipeline clock — genuinely reordered (counted
            # above) or merely behind a block-policy stall: either way
            # clamp so queue arithmetic stays monotonic.
            arrival_s = self.clock_s
        else:
            self.clock_s = arrival_s
        if isinstance(item, MalformedEvent):
            self.metrics.dead_letter += 1
            self.dead_letter.append(arrival_s, item)
            self.queue.drain_until(arrival_s)
            return False
        self.metrics.events_in += 1
        if self._is_duplicate(item):
            self.metrics.duplicates += 1
            self.queue.drain_until(arrival_s)
            return False
        if not self._bucket(item.source).take(arrival_s):
            self.metrics.rate_limited += 1
            self.queue.drain_until(arrival_s)
            return False
        accepted, effective = self.queue.offer(item, arrival_s)
        self.clock_s = max(self.clock_s, effective)
        self._since_expire += 1
        if self._since_expire >= self.config.expire_every:
            self._since_expire = 0
            self.inventory.expire(self.clock_s)
        return accepted

    def drain(self) -> float:
        """Shutdown: service every queued event; returns the final clock."""
        self.clock_s = max(self.clock_s, self.queue.drain_all())
        self.inventory.expire(self.clock_s)
        return self.clock_s


class TraceReplaySource:
    """Stream ``(arrival_s, item)`` pairs out of a trace JSONL dump.

    Built on the verifying :class:`~repro.net.engine.TraceReader`.
    Nothing in the dump's event lines aborts the replay; each bad
    record becomes a :class:`MalformedEvent` that the daemon counts
    and dead-letters:

    * a corrupted or torn line, stamped at the last good timestamp;
    * a parsed read record whose ``tag``, ``ap`` or ``slot`` is not an
      integer (see :func:`~repro.serve.events.read_event_from_trace`),
      stamped at its own timestamp.

    Only a missing or unusable header raises
    :class:`~repro.net.engine.TraceReadError`.
    """

    def __init__(
        self, path: str | Path, *, frame_bits: int, source: str = "trace"
    ) -> None:
        self.path = Path(path)
        self.frame_bits = int(frame_bits)
        self.source = source

    def __iter__(self) -> Iterator[tuple[float, object]]:
        pending_bad: deque[MalformedEvent] = deque()

        def on_bad_line(line_no: int, raw: str, reason: str) -> None:
            pending_bad.append(
                MalformedEvent(
                    raw=raw,
                    reason=f"line {line_no}: {reason}",
                    source=self.source,
                )
            )

        last_t = 0.0
        reader = TraceReader(self.path, on_bad_line=on_bad_line)
        for event in reader:
            while pending_bad:
                yield last_t, pending_bad.popleft()
            item = read_event_from_trace(
                event, bits=self.frame_bits, source=self.source
            )
            last_t = max(last_t, event.time_s)
            if item is not None:
                yield event.time_s, item
        while pending_bad:
            yield last_t, pending_bad.popleft()


class LiveNetsimSource:
    """Endless tag reads from an embedded netsim producer.

    Runs saturated-ALOHA universes (persistent contention plus churn)
    back to back, tapping every ``read`` trace event through the
    simulator's :attr:`~repro.net.engine.EventTrace.sink` hook.  Each
    universe gets a seed spawned from the root ``SeedSequence`` and a
    disjoint tag-id block, so the stream models unbounded tag churn —
    the workload that proves the inventory's retention bound.  Arrival
    timestamps are spaced ``1 / offered_rate_hz`` apart; the daemon
    paces them against the wall clock.  A read record that does not
    normalise travels on as a :class:`MalformedEvent`, as in replay.
    """

    def __init__(
        self,
        *,
        tags: int,
        slots: int,
        offered_rate_hz: float,
        frame_bits: int,
        seed: int = 0,
    ) -> None:
        self.tags = int(tags)
        self.slots = int(slots)
        self.offered_rate_hz = float(offered_rate_hz)
        self.frame_bits = int(frame_bits)
        self.seed = int(seed)

    def __iter__(self) -> Iterator[tuple[float, ReadEvent | MalformedEvent]]:
        root = np.random.SeedSequence(abs(self.seed))
        step = 1.0 / self.offered_rate_hz
        clock = 0.0
        seq = 0
        universe = 0
        while True:
            reads: list[ReadEvent | MalformedEvent] = []

            def sink(event) -> None:
                item = read_event_from_trace(
                    event, bits=self.frame_bits, source="netsim"
                )
                if item is not None:
                    reads.append(item)

            config = NetSimConfig(
                num_tags=self.tags,
                num_slots=self.slots,
                protocol="aloha",
                persistent=True,
                frame_bits=self.frame_bits,
                stop_when_drained=False,
                trace_capacity=1,
            )
            run_netsim(config, seed=root.spawn(1)[0], trace_sink=sink)
            offset = universe * self.tags
            for item in reads:
                if isinstance(item, ReadEvent):
                    item = replace(
                        item, time_s=clock, tag_id=item.tag_id + offset,
                        seq=seq,
                    )
                yield clock, item
                clock += step
                seq += 1
            universe += 1


class APDaemon:
    """The asyncio shell around :class:`IngestPipeline`.

    Replay mode consumes the stream at full speed on virtual time
    (yielding to the loop periodically so the ops endpoint stays
    responsive); live mode sleeps each event to its wall-clock slot.
    The first SIGINT/SIGTERM requests a drain-and-checkpoint shutdown;
    a second force-exits immediately with status 130.
    """

    #: Replay-mode cooperative-yield cadence, in events.
    YIELD_EVERY = 2048
    #: Force-exit status on the second termination signal.
    FORCE_EXIT_CODE = 130

    def __init__(
        self,
        config: ServeConfig,
        *,
        fault_plan: StreamFaultPlan | None = None,
        out: Callable[[str], None] | None = None,
    ) -> None:
        self.config = config
        self.fault_plan = fault_plan
        self.out = out
        self.pipeline = IngestPipeline(config, fault_plan=fault_plan)
        self.state = "starting"
        self.ops: OpsServer | None = None
        if config.port is not None:
            self.ops = OpsServer(
                snapshot=self._snapshot, state=lambda: self.state,
                port=config.port,
            )
        self._stop = asyncio.Event()
        self._signals_seen = 0

    # -- wiring ----------------------------------------------------------------

    def _snapshot(self) -> dict[str, object]:
        return self.pipeline.metrics.snapshot(
            queue_depth=len(self.pipeline.queue),
            clock_s=self.pipeline.clock_s,
            inventory=self.pipeline.inventory.stats(),
            state=self.state,
        )

    def _emit(self, line: str) -> None:
        if self.out is not None:
            self.out(line)

    def _force_exit(self, signum: int, frame: object = None) -> None:
        os._exit(self.FORCE_EXIT_CODE)

    def request_stop(self) -> None:
        """First call: graceful drain; second call: force exit 130."""
        self._signals_seen += 1
        if self._signals_seen >= 2:
            logger.warning("second termination signal: forcing exit")
            os._exit(self.FORCE_EXIT_CODE)
        logger.info("termination signal: draining")
        self._stop.set()
        # Re-arm both signals at the C level so a second one force-exits
        # even while the (synchronous) drain or checkpoint fsync holds
        # the event loop — an operator's second Ctrl-C must always win.
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                signal.signal(signum, self._force_exit)
            except ValueError:  # pragma: no cover - non-main thread
                pass

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self.request_stop)
            except (NotImplementedError, RuntimeError):
                # Non-main thread / platform without signal support:
                # the daemon still stops via duration or stream end.
                logger.debug("no signal handler for %s", signum)
                return

    def _build_stream(self) -> Iterable[tuple[float, object]]:
        if self.config.trace_path is not None:
            source: Iterable[tuple[float, object]] = TraceReplaySource(
                self.config.trace_path, frame_bits=self.config.frame_bits
            )
        else:
            source = LiveNetsimSource(
                tags=self.config.live_tags,
                slots=self.config.live_slots,
                offered_rate_hz=self.config.offered_rate_hz,
                frame_bits=self.config.frame_bits,
                seed=self.config.seed,
            )
        stream = iter(source)
        if self.fault_plan is not None and not self.fault_plan.is_empty:
            stream = self.fault_plan.transform(
                stream,
                flood_factory=self._flood_event,
                malform=self._malform,
            )
        return stream

    @staticmethod
    def _flood_event(ordinal: int, time_s: float) -> ReadEvent:
        return ReadEvent(
            time_s=time_s,
            tag_id=1_000_000 + (ordinal % 4096),
            ap_id=0,
            bits=0,
            source="chaos-flood",
            seq=ordinal,
        )

    @staticmethod
    def _malform(item: object, reason: str) -> MalformedEvent:
        return MalformedEvent(
            raw=repr(item),
            reason=reason,
            source=getattr(item, "source", "chaos"),
        )

    # -- tasks -----------------------------------------------------------------

    async def _status_task(self) -> None:
        while not self._stop.is_set():
            try:
                await asyncio.wait_for(
                    self._stop.wait(), timeout=self.config.status_interval_s
                )
            except asyncio.TimeoutError:
                pass
            self._emit(
                self.pipeline.metrics.status_line(
                    queue_depth=len(self.pipeline.queue),
                    queue_cap=self.config.queue_depth,
                    tracked=self.pipeline.inventory.tracked,
                    clock_s=self.pipeline.clock_s,
                )
            )

    async def _consume(self) -> None:
        loop = asyncio.get_running_loop()
        duration = self.config.duration_s
        live = self.config.live
        started_wall = loop.time()
        count = 0
        for arrival_s, item in self._build_stream():
            if self._stop.is_set():
                return
            if duration is not None:
                elapsed = (
                    loop.time() - started_wall if live else arrival_s
                )
                if elapsed >= duration:
                    return
            if live:
                delay = started_wall + arrival_s - loop.time()
                if delay > 0:
                    try:
                        await asyncio.wait_for(
                            self._stop.wait(), timeout=delay
                        )
                        return
                    except asyncio.TimeoutError:
                        pass
                # Live arrivals are stamped with the wall-relative clock
                # so a stalled producer shows up as a quiet pipeline,
                # not as time travel.
                arrival_s = loop.time() - started_wall
            self.pipeline.ingest(item, arrival_s)
            count += 1
            if count % self.YIELD_EVERY == 0:
                await asyncio.sleep(0)

    # -- lifecycle -------------------------------------------------------------

    async def run(self) -> ServeReport:
        """Serve until the stream/duration ends or a signal lands."""
        self._install_signal_handlers()
        if self.ops is not None:
            port = await self.ops.start()
            self._emit(f"ops endpoint on http://{self.ops.host}:{port}")
        self.state = "running"
        status = asyncio.ensure_future(self._status_task())
        try:
            await self._consume()
        finally:
            self.state = "draining"
            self._stop.set()
            clock = self.pipeline.drain()
            checkpoint = None
            if self.config.checkpoint_path:
                checkpoint = str(
                    self.pipeline.inventory.save_checkpoint(
                        self.config.checkpoint_path
                    )
                )
            await status
            if self.ops is not None:
                await self.ops.stop()
            self.state = "stopped"
        report = ServeReport(
            mode="live" if self.config.live else "replay",
            clock_s=clock,
            drained=len(self.pipeline.queue) == 0,
            counters=self.pipeline.metrics.deterministic_counters(),
            state_sha256=self.pipeline.inventory.state_sha256(),
            inventory_stats=self.pipeline.inventory.stats(),
            dead_letter_lines=self.pipeline.dead_letter.lines_written,
            checkpoint_path=checkpoint,
        )
        return report


def run_service(
    config: ServeConfig,
    *,
    fault_plan: StreamFaultPlan | None = None,
    out: Callable[[str], None] | None = None,
) -> ServeReport:
    """Run one daemon to completion (the CLI / test entry point)."""
    daemon = APDaemon(config, fault_plan=fault_plan, out=out)
    return asyncio.run(daemon.run())
