"""Outside-in span recorder for the benchmark's traced run.

The traced run times each layer from the outside: :func:`install` wraps
the public callables listed in :data:`SPANS` at run time, setting the
wrapper on the attribute its callers resolve (a class attribute, or the
name an importing module bound, such as ``repro.sim.batch.sp_signal``),
and the returned ``uninstall`` puts every original back.  Wrapped
callables return exactly what the originals return; nothing is
installed unless the run asks for a trace.

Each span records its start, end and the span that caused it (the
enclosing span on a stack).  Spans are folded into per-name aggregates
as they close — call count, total time and self time (duration minus
the time its child spans cover) — because a raw span log of a ten
second event-engine run would hold tens of millions of records.  Spans
marked for percentiles also keep every duration.  Counters are updated
at the same boundaries, from the wrapped calls' arguments and results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "COUNTERS",
    "SPANS",
    "Recorder",
    "Span",
    "counter_values",
    "install",
]


@dataclass(frozen=True)
class Span:
    """One traced layer boundary.

    ``targets`` are ``"module:attr.path"`` strings naming the callables
    the span wraps; ``workloads`` are those on which it must fire.
    ``per_item`` spans time each ``next()`` on the iterator the target
    returns instead of the call itself.  ``after(recorder, args,
    result)`` updates counters after a successful call.
    """

    name: str
    layer: str
    targets: tuple[str, ...]
    workloads: tuple[str, ...]
    percentiles: bool = False
    per_item: bool = False
    after: Callable | None = None


# -- counter hooks -------------------------------------------------------------


def _count_tx_rows(rec: "Recorder", args: tuple, result: object) -> None:
    rec.add("link.frames_simulated", args[1].shape[0])


def _count_point_frames(rec: "Recorder", args: tuple, result) -> None:
    errors, detected = result
    rec.add("link.frames_kept", errors.size)
    rec.add("link.frames_detected", int(detected.sum()))


def _count_cache_lookup(rec: "Recorder", args: tuple, result: object) -> None:
    from repro.sim.cache import MISS

    rec.add("executor.cache_lookups")
    rec.add("executor.cache_hits", result is not MISS)


def _count_points(rec: "Recorder", args: tuple, result) -> None:
    rec.add("executor.points", len(result.points))


def _count_events(rec: "Recorder", args: tuple, result) -> None:
    rec.add("net.events", result)


def _count_trace_event(rec: "Recorder", args: tuple, result: object) -> None:
    rec.add("net.trace_events")


def _count_ap_slots(rec: "Recorder", args: tuple, result: object) -> None:
    # A single-AP MAC polls once per slot; the metro MAC polls every AP
    # of the slot's reuse colour.
    mac, slot = args[0], args[1]
    deployment = getattr(mac, "deployment", None)
    if deployment is None:
        rec.add("net.ap_slots")
    else:
        colour = slot % deployment.config.spatial_reuse_factor
        rec.add("net.ap_slots", len(deployment.aps_of_color[colour]))


def _count_service(rec: "Recorder", args: tuple, report) -> None:
    counters = report.counters
    inventory = report.inventory_stats
    rec.add("serve.events_in", counters["events_in"])
    rec.add("serve.shed", counters["shed_oldest"] + counters["shed_newest"])
    rec.add("serve.dead_letters", counters["dead_letter"])
    rec.add("serve.evictions", inventory["evicted_lru"] + inventory["evicted_ttl"])
    rec.maximum("serve.queue_high_watermark", counters["queue_high_watermark"])


# -- the span table -----------------------------------------------------------

_LINK = ("ber_waterfall", "sweep_cached")
_NET = ("metro", "netsim_churn")
_SERVE = ("serve_replay",)

#: Every traced boundary, grouped by layer.
SPANS: tuple[Span, ...] = (
    Span("link.advance", "link",
         ("repro.sim.monte_carlo:LinkBerAccumulator.advance",), _LINK),
    # The waterfall's warm-up builds its simulators; the cached sweep
    # builds one per point.
    Span("link.build", "link",
         ("repro.sim.batch:BatchLinkSimulator.__init__",), ("sweep_cached",)),
    Span("link.point", "link",
         ("repro.sim.batch:BatchLinkSimulator.simulate_point",), _LINK,
         after=_count_point_frames),
    Span("link.tx", "link",
         ("repro.sim.batch:BatchLinkSimulator.tx_reflections",), _LINK,
         after=_count_tx_rows),
    # Only the Rician workload draws fading channels.
    Span("link.channel", "link",
         ("repro.sim.batch:rician_channel",
          "repro.sim.batch:apply_channels_to_rows"), ("ber_waterfall",)),
    Span("link.filter", "link", ("repro.sim.batch:sp_signal.lfilter",), _LINK),
    Span("link.demod", "link",
         ("repro.core.modulation:Constellation.demodulate",
          "repro.core.framing:FrameHeader.from_bits",
          "repro.core.ap:AccessPoint.preamble_gain"), _LINK),
    Span("executor.run", "executor",
         ("repro.sim.executor:SweepExecutor.run",), _LINK, after=_count_points),
    Span("executor.task_run", "executor",
         ("repro.sim.executor:BerSweepTask.run",), _LINK),
    Span("executor.cache_key", "executor",
         ("repro.sim.cache:ResultCache.key_for",), _LINK),
    Span("executor.cache_get", "executor",
         ("repro.sim.cache:ResultCache.get",), _LINK,
         percentiles=True, after=_count_cache_lookup),
    Span("executor.cache_put", "executor",
         ("repro.sim.cache:ResultCache.put",), _LINK, percentiles=True),
    Span("executor.checkpoint_append", "executor",
         ("repro.sim.checkpoint:SweepCheckpoint.append",), _LINK,
         percentiles=True),
    Span("executor.checkpoint_sync", "executor",
         ("repro.sim.checkpoint:SweepCheckpoint.sync",), _LINK),
    Span("net.run", "net engine", ("repro.net.engine:Simulator.run",), _NET,
         after=_count_events),
    Span("net.schedule", "net engine",
         ("repro.net.engine:Simulator.schedule_at",), _NET),
    Span("net.trace_append", "net engine",
         ("repro.net.engine:EventTrace.append",), _NET,
         after=_count_trace_event),
    Span("net.mac_slot", "net MAC",
         ("repro.net.mac:SlottedAlohaMac.on_slot",
          "repro.net.deployment:MultiApAlohaMac.on_slot"), _NET,
         percentiles=True, after=_count_ap_slots),
    Span("net.population_scan", "net MAC",
         ("repro.net.population:TagPopulation.active_ids",
          "repro.net.population:TagPopulation.active_unread_ids"), _NET),
    Span("net.record_read", "net MAC",
         ("repro.net.population:TagPopulation.record_read",), _NET),
    Span("net.deploy", "net MAC",
         ("repro.net.deployment:MobilityProcess.deploy",
          "repro.net.mac:ChurnProcess.deploy"), _NET),
    Span("net.link_pricing", "net pricing",
         ("repro.net.link_model:LinkBudgetModel.frame_success_from_snr_db",
          "repro.net.link_model:LinkBudgetModel.frame_success_probability"),
         _NET),
    Span("net.geometry", "net pricing",
         ("repro.net.deployment:Deployment.distances_to_aps",
          "repro.net.deployment:Deployment.snr_from_distances",
          "repro.net.deployment:Deployment.snr_to_ap"), ("metro",)),
    Span("net.relay_routes", "net pricing",
         ("repro.net.deployment:compute_relay_routes",), ("metro",)),
    Span("serve.service", "serve", ("repro.serve.daemon:run_service",), _SERVE,
         after=_count_service),
    Span("serve.source", "serve",
         ("repro.serve.daemon:TraceReplaySource.__iter__",), _SERVE,
         per_item=True),
    Span("serve.ingest", "serve",
         ("repro.serve.daemon:IngestPipeline.ingest",), _SERVE, percentiles=True),
    Span("serve.queue_offer", "serve",
         ("repro.serve.queue:BoundedIngestQueue.offer",), _SERVE),
    Span("serve.queue_drain", "serve",
         ("repro.serve.queue:BoundedIngestQueue.drain_until",
          "repro.serve.queue:BoundedIngestQueue.drain_all"), _SERVE),
    Span("serve.inventory_observe", "serve",
         ("repro.serve.inventory:LiveInventory.observe",), _SERVE),
    Span("serve.inventory_expire", "serve",
         ("repro.serve.inventory:LiveInventory.expire",), _SERVE),
    Span("serve.checkpoint", "serve",
         ("repro.serve.inventory:LiveInventory.save_checkpoint",), _SERVE),
    Span("serve.dead_letter", "serve",
         ("repro.serve.events:DeadLetterLog.append",), _SERVE),
)

#: Reported counters and their units, in report order.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("link.frames_simulated", "count"),
    ("link.frames_kept", "count"),
    ("link.kept_ratio", "ratio"),
    ("link.detected_ratio", "ratio"),
    ("executor.cache_hit_ratio", "ratio"),
    ("executor.points", "count"),
    ("net.events", "count"),
    ("net.events_per_s", "1/s"),
    ("net.trace_events", "count"),
    ("net.ap_slots", "count"),
    ("serve.shed_ratio", "ratio"),
    ("serve.queue_high_watermark", "count"),
    ("serve.dead_letters", "count"),
    ("serve.evictions", "count"),
)


def counter_values(counts: dict[str, float], events_per_s: float) -> dict[str, float]:
    """The :data:`COUNTERS` from raw counts (missing counts read 0)."""

    def ratio(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts.get(whole) else 0.0

    values = {name: float(counts.get(name, 0)) for name, _unit in COUNTERS}
    values["link.kept_ratio"] = ratio("link.frames_kept", "link.frames_simulated")
    values["link.detected_ratio"] = ratio("link.frames_detected", "link.frames_kept")
    values["executor.cache_hit_ratio"] = ratio(
        "executor.cache_hits", "executor.cache_lookups"
    )
    values["serve.shed_ratio"] = ratio("serve.shed", "serve.events_in")
    values["net.events_per_s"] = events_per_s
    return values


# -- the recorder -------------------------------------------------------------


class _SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "durations")

    def __init__(self, percentiles: bool) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.durations = array("q") if percentiles else None


class Recorder:
    """Span aggregates, counters and the open-span stack of one run.

    ``clock`` returns integer nanoseconds; tests pass a scripted clock.
    """

    ROOT = "root"

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        # One entry per open span: the nanoseconds its children covered.
        self._stack: list[list[int]] = []
        self._stats: dict[str, _SpanStats] = {self.ROOT: _SpanStats(False)}
        self.counts: dict[str, float] = {}

    def _stats_for(self, name: str, percentiles: bool = False) -> _SpanStats:
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = _SpanStats(percentiles)
        return stats

    def add(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts.get(name, value), value)

    def _open(self) -> tuple[list[int], int]:
        frame = [0]
        self._stack.append(frame)
        return frame, self._clock()

    def _close(self, stats: _SpanStats, frame: list[int], start: int) -> None:
        duration = self._clock() - start
        self._stack.pop()
        if self._stack:
            self._stack[-1][0] += duration
        stats.calls += 1
        stats.total_ns += duration
        stats.self_ns += duration - frame[0]
        if stats.durations is not None:
            stats.durations.append(duration)

    @contextmanager
    def root(self):
        """Time a block as the root span, the parent of all others."""
        stats = self._stats[self.ROOT]
        frame, start = self._open()
        try:
            yield
        finally:
            self._close(stats, frame, start)

    def wrap(self, fn: Callable, span: Span) -> Callable:
        """``fn`` timed as ``span``; returns what ``fn`` returns."""
        stats = self._stats_for(span.name, span.percentiles)
        after = span.after

        if span.per_item:

            @functools.wraps(fn)
            def traced_items(*args, **kwargs):
                iterator = iter(fn(*args, **kwargs))
                try:
                    while True:
                        frame, start = self._open()
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        finally:
                            self._close(stats, frame, start)
                        yield item
                finally:
                    close = getattr(iterator, "close", None)
                    if close is not None:
                        close()

            return traced_items

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame, start = self._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(stats, frame, start)
            if after is not None:
                after(self, args, result)
            return result

        return traced

    def report(self) -> dict:
        """Per-span ``calls``/``total_s``/``self_s`` (+ p50/p99 in us)."""
        import numpy as np

        spans = {}
        for name, stats in self._stats.items():
            row = {
                "calls": stats.calls,
                "total_s": stats.total_ns / 1e9,
                "self_s": stats.self_ns / 1e9,
            }
            if stats.durations is not None:
                durations = np.frombuffer(stats.durations, dtype=np.int64)
                p50, p99 = (
                    np.percentile(durations, (50, 99)) / 1e3
                    if durations.size
                    else (0.0, 0.0)
                )
                row["p50_us"] = float(p50)
                row["p99_us"] = float(p99)
            spans[name] = row
        return spans


# -- installing wrappers ------------------------------------------------------


class _ModuleProxy:
    """Stands in for a module another module imported under a name,
    overriding some attributes, so the library module stays untouched."""

    def __init__(self, module, **overrides) -> None:
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str):
        return getattr(self._module, name)


def _patch(target: str, make: Callable[[Callable], Callable]) -> Callable[[], None]:
    """Replace ``target`` with ``make(original)``; returns the undo."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    *owner_path, attr = path.split(".")
    owner = module
    for part in owner_path:
        owner = getattr(owner, part)

    if inspect.ismodule(owner) and owner is not module:
        # A module imported under a name, e.g. ``sp_signal`` in
        # ``repro.sim.batch:sp_signal.lfilter``.
        (alias,) = owner_path
        proxy = _ModuleProxy(owner, **{attr: make(getattr(owner, attr))})
        setattr(module, alias, proxy)
        return lambda: setattr(module, alias, owner)

    original = inspect.getattr_static(owner, attr)
    if isinstance(original, staticmethod):
        replacement = staticmethod(make(original.__func__))
    elif isinstance(original, classmethod):
        replacement = classmethod(make(original.__func__))
    else:
        replacement = make(original)
    owned = attr in vars(owner)
    setattr(owner, attr, replacement)

    def undo() -> None:
        if owned:
            setattr(owner, attr, original)
        else:
            delattr(owner, attr)

    return undo


def install(recorder: Recorder, spans: tuple[Span, ...] = SPANS) -> Callable[[], None]:
    """Wrap every span's targets; returns ``uninstall``."""
    undos: list[Callable[[], None]] = []

    def uninstall() -> None:
        while undos:
            undos.pop()()

    try:
        for span in spans:
            for target in span.targets:
                undos.append(
                    _patch(target, lambda fn, span=span: recorder.wrap(fn, span))
                )
    except BaseException:
        uninstall()
        raise
    return uninstall
