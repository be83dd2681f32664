"""Parallel, cached, *fault-tolerant* sweep execution engine.

Every reconstructed mmTag figure is a sweep: BER versus distance,
goodput versus range, SNR versus angle.  The seed code evaluated each
point serially and recomputed identical points on every run.  This
module is the execution layer that fixes both without changing a
single number:

* :class:`SweepExecutor` evaluates sweep points through a ``serial``
  or ``process`` (pool) backend.  Each point gets its own
  :class:`numpy.random.SeedSequence` spawned from the root seed, so the
  result is **bit-identical across backends and worker counts** — the
  serial loop stays in the tree as the reference implementation, and
  ``tests/test_sim_executor.py`` enforces the equivalence.
* A :class:`~repro.sim.cache.ResultCache` (optional) memoises points on
  disk.  :func:`sweep_keys` hashes the task's point-independent key
  material once per run and keys each point by that digest plus
  ``(seed, index, value)`` and the code version; cache-hit replay
  therefore returns the same objects the serial path computes.
* Progress/timing hooks (:class:`PointRecord`, ``on_progress``) and a
  :class:`SweepReport` make runs observable — the CLI and CI artifact
  print :meth:`SweepReport.summary`.

Fault tolerance (the production posture — exercised end to end by the
seeded chaos harness in :mod:`repro.sim.faults`):

* **Per-point error isolation** — a raising point becomes a
  :class:`PointRecord` with ``status="failed"`` and a captured
  traceback instead of aborting the campaign.
* **Per-point timeouts** — ``timeout_s`` arms a ``SIGALRM`` deadline
  around each attempt (main thread of whichever process runs the
  point); a stalled point raises :class:`PointTimeoutError` and is
  retried like any other failure.  Best-effort where ``SIGALRM`` is
  unavailable (non-main threads, non-POSIX).
* **Bounded, seeded retries** — a :class:`~repro.sim.retry.RetryPolicy`
  re-runs failing attempts with exponential backoff whose jitter is
  deterministic given ``(seed, index, attempt)``; retried points reuse
  the *same* child seed, so a transient failure changes nothing about
  the final numbers.
* **Graceful pool degradation** — a dead process pool
  (``BrokenProcessPool``: a worker was OOM-killed, segfaulted, or a
  chaos ``kill`` fault fired) degrades the run to the in-process serial
  path for the unfinished points instead of crashing.
* **Checkpoint/resume** — completed points stream to an append-only
  JSONL :class:`~repro.sim.checkpoint.SweepCheckpoint`;
  ``run(..., resume=True)`` skips them bit-exactly, so a killed
  campaign resumes where it died (``repro sweep --checkpoint/--resume``).

Tasks are small frozen dataclasses so the process backend can pickle
them and the cache can canonicalise them.  :class:`BerSweepTask` is the
workhorse (full waveform-chain BER across any ``LinkConfig`` field);
:class:`FunctionTask` adapts arbitrary ``metric_fn(value)`` callables.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields, replace
from collections.abc import Callable, Iterable
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.link import LinkConfig
from repro.sim.cache import (
    MISS,
    CacheKeyError,
    ResultCache,
    canonicalize,
    stable_hash,
)
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.monte_carlo import BerEstimate, _check_budget, estimate_link_ber
from repro.sim.retry import RetryPolicy, backoff_rng
from repro.sim.sweep import SweepPoint

__all__ = [
    "SweepTask",
    "BerSweepTask",
    "FunctionTask",
    "PointRecord",
    "PointTimeoutError",
    "SweepReport",
    "SweepExecutor",
    "sweep_keys",
]

logger = logging.getLogger(__name__)


# -- tasks --------------------------------------------------------------------


class SweepTask:
    """One sweep's work item: ``metric = run(value, seed_sequence)``.

    Subclasses must be picklable (the process backend ships them to
    workers) and should be frozen dataclasses (the cache canonicalises
    their fields into the key).
    """

    def run(self, value: float, seed: np.random.SeedSequence) -> object:
        """Evaluate the metric at ``value`` with the point's own stream."""
        raise NotImplementedError

    def cache_parts(self) -> dict[str, Any] | None:
        """Key material shared by every point, or ``None`` if uncacheable.

        It must cover every input that changes ``run``'s result except
        the sweep value and the point's seed, which :func:`sweep_keys`
        adds per point, and nothing that changes no result.  The same
        material identifies the sweep in checkpoint headers.
        """
        return None

    def validate_metric(self, metric: object) -> None:
        """Sanity-check a metric re-loaded from a cache or checkpoint.

        Called on every checkpoint-restored and cache-hit metric before
        it enters the report.  The default accepts anything; tasks
        whose metrics carry a schema version (e.g.
        :class:`repro.net.task.NetSimTask`) override this to raise on
        mismatch, so stale artifacts fail loudly at load time instead
        of silently mispickling into the current shape.
        """


@dataclass(frozen=True)
class BerSweepTask(SweepTask):
    """Full waveform-chain BER at ``config`` with one field swept.

    ``param`` names any :class:`~repro.core.link.LinkConfig` field
    (``distance_m`` by default, ``incidence_angle_deg`` for angle
    coverage, ...); each point replaces that field with the sweep value
    and runs :func:`~repro.sim.monte_carlo.estimate_link_ber`.

    ``link_backend`` selects the frame-chain implementation.  The
    bit-exact tiers (``"serial"`` and ``"fused"``) return identical
    estimates, so the cache key deliberately ignores the choice between
    them — a cache warmed by one is hit by the other.
    The statistical ``"fast"`` tier is *not* bit-identical and keeps
    its own cache keyspace: fast results never serve hits to the exact
    tiers or vice versa.
    """

    config: LinkConfig
    param: str = "distance_m"
    target_errors: int = 100
    max_bits: int = 200_000
    bits_per_frame: int = 2048
    link_backend: str = "serial"

    def __post_init__(self) -> None:
        names = {f.name for f in dataclass_fields(LinkConfig)}
        if self.param not in names:
            raise ValueError(
                f"param {self.param!r} is not a LinkConfig field; "
                f"choose from {sorted(names)}"
            )
        from repro.sim.monte_carlo import LINK_BER_BACKENDS

        if self.link_backend not in LINK_BER_BACKENDS:
            raise ValueError(
                f"unknown link backend {self.link_backend!r}; "
                f"choose from {LINK_BER_BACKENDS}"
            )
        # The estimator's own budget rules, checked once here rather
        # than failing (and retrying) every point of the sweep.
        _check_budget(self.target_errors, self.max_bits, self.bits_per_frame)

    def config_for(self, value: float) -> LinkConfig:
        """The operating point at one sweep value."""
        return replace(self.config, **{self.param: value})

    def run(self, value: float, seed: np.random.SeedSequence) -> BerEstimate:
        return estimate_link_ber(
            self.config_for(value),
            target_errors=self.target_errors,
            max_bits=self.max_bits,
            bits_per_frame=self.bits_per_frame,
            seed=seed,
            backend=self.link_backend,
        )

    def cache_parts(self) -> dict[str, Any]:
        # Within the bit-exact tiers the backend is numerically
        # irrelevant (estimates are bit-identical), so normalise it out
        # of the key: a cache warmed by either exact backend serves
        # hits to the other.  The statistical "fast" tier keeps
        # its backend name in the key so its results never masquerade
        # as (or are shadowed by) bit-exact ones.
        backend = "fast" if self.link_backend == "fast" else "serial"
        return {"task": replace(self, link_backend=backend)}


@dataclass(frozen=True)
class FunctionTask(SweepTask):
    """Adapt a plain ``metric_fn(value)`` callable to the executor.

    The seed sequence is ignored — legacy metric functions carry their
    own seeding, which keeps every rewired call site producing the
    same numbers it always did.  Caching is **opt-in**: pass a
    ``cache_token`` that (together with the function's qualified name)
    uniquely describes the computation; lambdas and closures stay
    uncacheable but still run fine on the serial backend.
    """

    fn: Callable[[float], object]
    cache_token: str | None = None

    def run(self, value: float, seed: np.random.SeedSequence) -> object:
        return self.fn(value)

    def cache_parts(self) -> dict[str, Any] | None:
        if self.cache_token is None:
            return None
        try:
            fn_ref = canonicalize(self.fn)
        except CacheKeyError:
            return None
        return {"fn": fn_ref, "token": self.cache_token}


def sweep_keys(
    cache: ResultCache, task: SweepTask, values: Iterable[float], seed: int
) -> list[str] | None:
    """The cache key of every point of one sweep, in sweep order.

    The task's key material is hashed once; each point's key adds only
    ``(seed, index, value)`` to that digest, so a key costs the same
    whatever the task's size.  Returns ``None`` when the task is
    uncacheable, and raises :class:`~repro.sim.cache.CacheKeyError`
    when its key material cannot be hashed.
    """
    parts = task.cache_parts()
    if parts is None:
        return None
    digest = stable_hash(parts)
    return [
        cache.key_for(sweep=digest, seed=seed, index=i, value=float(value))
        for i, value in enumerate(values)
    ]


# -- reports ------------------------------------------------------------------


@dataclass(frozen=True)
class PointRecord:
    """Timing/provenance for one evaluated sweep point.

    ``status`` is ``"ok"`` or ``"failed"``; a failed record carries the
    final attempt's formatted traceback in ``error``.  ``attempts`` is
    the total attempts made (1 = first try succeeded); ``resumed``
    marks points restored from a checkpoint rather than computed.
    """

    index: int
    value: float
    seconds: float
    cached: bool
    status: str = "ok"
    attempts: int = 1
    error: str | None = None
    resumed: bool = False

    @property
    def ok(self) -> bool:
        """Whether the point ultimately produced a metric."""
        return self.status == "ok"

    def describe(self) -> str:
        """One-line rendering for progress streams."""
        if self.status != "ok":
            reason = (self.error or "").strip().splitlines()
            last = reason[-1] if reason else "unknown error"
            return (
                f"point {self.index}: value={self.value:g} FAILED after "
                f"{self.attempts} attempt{'s' if self.attempts != 1 else ''} "
                f"({last})"
            )
        if self.resumed:
            source = "resumed"
        elif self.cached:
            source = "cache"
        else:
            source = "computed"
        text = f"point {self.index}: value={self.value:g} {source} in {self.seconds:.3f} s"
        if self.attempts > 1:
            text += f" (attempt {self.attempts})"
        return text


@dataclass
class SweepReport:
    """Everything one executor run yields."""

    backend: str
    workers: int
    points: list[SweepPoint]
    records: list[PointRecord]
    elapsed_s: float
    cache_hits: int
    cache_misses: int
    failed: int = 0  # points that exhausted their retry budget
    retried: int = 0  # retry attempts performed across all points
    recovered: int = 0  # points that succeeded after a failure / pool death
    resumed: int = 0  # points restored from a checkpoint
    degraded: bool = False  # process pool died; finished serially

    @property
    def metrics(self) -> list[object]:
        """The metric column, in sweep order (``None`` for failed points)."""
        return [p.metric for p in self.points]

    @property
    def compute_seconds(self) -> float:
        """Summed per-point compute time (excludes cache hits)."""
        return sum(r.seconds for r in self.records if not r.cached)

    @property
    def failures(self) -> list[PointRecord]:
        """Records of the points that ultimately failed, in index order."""
        return [r for r in self.records if not r.ok]

    @property
    def converged(self) -> int:
        """Points whose metric reports ``is_converged`` (hit target_errors).

        Only metrics exposing an ``is_converged`` flag (notably
        :class:`~repro.sim.monte_carlo.BerEstimate`) are counted;
        scalar metrics contribute to neither convergence counter.
        """
        return sum(
            1
            for p in self.points
            if getattr(p.metric, "is_converged", None) is True
        )

    @property
    def unconverged(self) -> int:
        """Points that ran out of bit budget before ``target_errors``."""
        return sum(
            1
            for p in self.points
            if getattr(p.metric, "is_converged", None) is False
        )

    def failure_summary(self) -> str:
        """Summary of every failed *or unconverged* point (empty when clean).

        Failed points exhausted their retry budget; unconverged points
        completed but hit the bit budget before accumulating
        ``target_errors`` errors, so their BER carries less statistical
        weight than the converged neighbours (prefer
        :meth:`~repro.sim.monte_carlo.BerEstimate.wilson_upper_bound`
        for those).
        """
        lines = []
        for record in self.failures:
            reason = (record.error or "").strip().splitlines()
            last = reason[-1] if reason else "unknown error"
            lines.append(
                f"point {record.index} (value={record.value:g}) failed after "
                f"{record.attempts} attempt"
                f"{'s' if record.attempts != 1 else ''}: {last}"
            )
        for index, point in enumerate(self.points):
            metric = point.metric
            if getattr(metric, "is_converged", None) is False:
                target = getattr(metric, "target_errors", None)
                lines.append(
                    f"point {index} (value={point.value:g}) unconverged: "
                    f"{metric.bit_errors}/{target} errors after "
                    f"{metric.bits_tested} bits (bit budget hit)"
                )
        return "\n".join(lines)

    def summary(self) -> str:
        """Multi-line human-readable run summary (CLI / CI artifact)."""
        n = len(self.points)
        computed = sum(
            1 for r in self.records if not r.cached and not r.resumed and r.ok
        )
        lines = [
            f"sweep: {n} points via {self.backend} backend "
            f"({self.workers} worker{'s' if self.workers != 1 else ''}) "
            f"in {self.elapsed_s:.3f} s wall"
            + (" [degraded to serial]" if self.degraded else ""),
            f"points: {computed} computed ({self.compute_seconds:.3f} s point time), "
            f"{self.cache_hits} cache hits / {self.cache_misses} misses",
        ]
        if self.failed or self.retried or self.recovered or self.resumed:
            lines.append(
                f"faults: {self.failed} failed, {self.retried} retries, "
                f"{self.recovered} recovered, {self.resumed} resumed"
            )
        conv, unconv = self.converged, self.unconverged
        if conv or unconv:
            lines.append(
                f"convergence: {conv} point{'s' if conv != 1 else ''} hit "
                f"target_errors, {unconv} hit the bit budget"
            )
        failure_text = self.failure_summary()
        if failure_text:
            lines.append(failure_text)
        timed = [r for r in self.records if not r.cached and not r.resumed]
        if timed:
            slowest = max(timed, key=lambda r: r.seconds)
            lines.append(
                f"slowest point: value={slowest.value:g} ({slowest.seconds:.3f} s)"
            )
        return "\n".join(lines)


# -- per-point execution ------------------------------------------------------


class PointTimeoutError(RuntimeError):
    """A sweep point exceeded the executor's per-point ``timeout_s``."""


@contextmanager
def _deadline(timeout_s: float | None):
    """Arm a wall-clock deadline around one attempt (SIGALRM-based).

    Effective in the main thread of a POSIX process — which is where
    both the serial backend and every process-pool worker run points.
    Elsewhere the deadline is a documented no-op (best effort): the
    attempt simply runs to completion.
    """
    if (
        timeout_s is None
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _on_alarm(signum, frame):  # pragma: no cover - trivial
        raise PointTimeoutError(f"point exceeded the {timeout_s:g} s timeout")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout_s)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _compute_point(
    task: SweepTask,
    value: float,
    seed: np.random.SeedSequence,
    index: int = 0,
    attempt: int = 0,
    timeout_s: float | None = None,
    faults: Any = None,
) -> tuple[object, float]:
    """Evaluate one attempt of one point, returning ``(metric, seconds)``.

    Module-level so the process backend can pickle it.  Fault injection
    (``faults.before_attempt``) and the timeout deadline both live
    *inside* the worker, so chaos behaves identically across backends.
    """
    start = time.perf_counter()
    with _deadline(timeout_s):
        if faults is not None:
            faults.before_attempt(index, attempt)
        metric = task.run(value, seed)
    return metric, time.perf_counter() - start


def _format_exception(exc: BaseException) -> str:
    return "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))


def _task_fingerprint(task: SweepTask, values: list[float]) -> str:
    """Stable identity of (task, values) for checkpoint headers.

    A cacheable task is identified by its :meth:`SweepTask.cache_parts`,
    so execution choices that give byte-identical results (``serial``
    or ``fused`` link tiers) resume each other's checkpoints, just as
    they share cache entries.  Other tasks are hashed whole; those that
    cannot be canonicalised (closures, lambdas) fall back to their type
    name — weaker, but still catches the common resumed-the-wrong-sweep
    mistakes.
    """
    parts = task.cache_parts()
    identity = {"task": task} if parts is None else parts
    try:
        return stable_hash({**identity, "values": values})
    except CacheKeyError:
        return stable_hash(
            {"task_type": type(task).__qualname__, "values": values}
        )


# -- execution ----------------------------------------------------------------


@dataclass
class _PointState:
    """Mutable per-point bookkeeping while a run is in flight."""

    failures: int = 0  # failed attempts so far
    last_error: str | None = None


class SweepExecutor:
    """Evaluate sweep points serially or on a process pool, with caching.

    Parameters
    ----------
    backend:
        ``"serial"`` (reference implementation — evaluates in order,
        in-process) or ``"process"`` (``ProcessPoolExecutor`` fan-out).
    max_workers:
        Pool width for the process backend (default: CPU count).
    cache:
        Optional :class:`~repro.sim.cache.ResultCache`; cacheable tasks
        are looked up before computing and stored after.
    on_progress:
        Optional hook fed a :class:`PointRecord` as each point lands.
        With the process backend records arrive in completion order;
        the returned report is ordered by sweep index regardless.
    timeout_s:
        Optional per-point wall-clock budget; a stalled attempt raises
        :class:`PointTimeoutError` and is retried under ``retry``.
    retry:
        :class:`~repro.sim.retry.RetryPolicy` for failing attempts
        (default: no retries — fail fast into the point record).
    """

    BACKENDS = ("serial", "process")

    @classmethod
    def from_env(
        cls,
        *,
        on_progress: Callable[[PointRecord], None] | None = None,
        environ: dict[str, str] | None = None,
    ) -> "SweepExecutor":
        """Build an executor from ``REPRO_SWEEP_*`` environment variables.

        * ``REPRO_SWEEP_BACKEND``      — ``serial`` (default) or ``process``
        * ``REPRO_SWEEP_WORKERS``      — pool width (default: CPU count)
        * ``REPRO_SWEEP_CACHE``        — directory for a result cache
        * ``REPRO_SWEEP_TIMEOUT``      — per-point timeout, seconds (> 0)
        * ``REPRO_SWEEP_MAX_RETRIES``  — retry budget per point (>= 0)
        * ``REPRO_SWEEP_BACKOFF_BASE`` — first-retry backoff, seconds (> 0)

        The benchmark suite and CI go through this hook, so
        ``REPRO_SWEEP_BACKEND=process pytest benchmarks/`` parallelises
        every rewired experiment without touching its code — and
        ``REPRO_SWEEP_MAX_RETRIES=2`` hardens it the same way.
        """
        env = os.environ if environ is None else environ
        backend = env.get("REPRO_SWEEP_BACKEND", "serial")
        max_workers = _env_int(
            "REPRO_SWEEP_WORKERS", env.get("REPRO_SWEEP_WORKERS", "")
        )
        cache_dir = env.get("REPRO_SWEEP_CACHE", "")
        cache = ResultCache(cache_dir) if cache_dir else None
        timeout_s = _env_float(
            "REPRO_SWEEP_TIMEOUT", env.get("REPRO_SWEEP_TIMEOUT", "")
        )
        max_retries = _env_int(
            "REPRO_SWEEP_MAX_RETRIES", env.get("REPRO_SWEEP_MAX_RETRIES", "")
        )
        backoff_base = _env_float(
            "REPRO_SWEEP_BACKOFF_BASE", env.get("REPRO_SWEEP_BACKOFF_BASE", "")
        )
        # Range checks mirror the constructor/RetryPolicy validation but
        # name the offending environment variable in the message.
        if backend not in cls.BACKENDS:
            raise ValueError(
                f"REPRO_SWEEP_BACKEND must be one of {cls.BACKENDS}, "
                f"got {backend!r}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(
                f"REPRO_SWEEP_WORKERS must be >= 1, got {max_workers!r}"
            )
        if timeout_s is not None and timeout_s <= 0:
            raise ValueError(
                f"REPRO_SWEEP_TIMEOUT must be > 0, got {timeout_s!r}"
            )
        if max_retries is not None and max_retries < 0:
            raise ValueError(
                f"REPRO_SWEEP_MAX_RETRIES must be >= 0, got {max_retries!r}"
            )
        if backoff_base is not None and backoff_base <= 0:
            raise ValueError(
                f"REPRO_SWEEP_BACKOFF_BASE must be > 0, got {backoff_base!r}"
            )
        retry = None
        if max_retries is not None or backoff_base is not None:
            kwargs: dict[str, Any] = {}
            if max_retries is not None:
                kwargs["max_retries"] = max_retries
            if backoff_base is not None:
                kwargs["backoff_base_s"] = backoff_base
            retry = RetryPolicy(**kwargs)
        return cls(
            backend,
            max_workers=max_workers,
            cache=cache,
            on_progress=on_progress,
            timeout_s=timeout_s,
            retry=retry,
        )

    def __init__(
        self,
        backend: str = "serial",
        *,
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        on_progress: Callable[[PointRecord], None] | None = None,
        timeout_s: float | None = None,
        retry: RetryPolicy | None = None,
    ):
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {self.BACKENDS}"
            )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if timeout_s is not None and not timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        self.backend = backend
        self.max_workers = max_workers
        self.cache = cache
        self.on_progress = on_progress
        self.timeout_s = timeout_s
        self.retry = RetryPolicy() if retry is None else retry

    # -- helpers --------------------------------------------------------------

    def _workers_for(self, pending: int) -> int:
        if self.backend == "serial":
            return 1
        width = self.max_workers or os.cpu_count() or 1
        return max(1, min(width, max(pending, 1)))

    def _emit(self, record: PointRecord) -> None:
        if self.on_progress is not None:
            self.on_progress(record)

    # -- the engine -----------------------------------------------------------

    def run(
        self,
        values: Iterable[float],
        task: SweepTask,
        *,
        seed: int = 0,
        faults: Any = None,
        checkpoint: SweepCheckpoint | str | os.PathLike | None = None,
        resume: bool = False,
    ) -> SweepReport:
        """Evaluate ``task`` at every value; return an ordered report.

        Per-point seeding: child ``i`` of ``SeedSequence(seed)`` drives
        point ``i``.  Children depend only on ``(seed, i)``, so a
        sweep's prefix is seed-stable — adding points never perturbs
        earlier ones, and serial/process/cached paths agree bit for
        bit.  Retried attempts reuse the same child, so recovery never
        changes a number either.

        ``faults`` (a :class:`~repro.sim.faults.FaultPlan`) injects
        seeded chaos; ``checkpoint`` streams completed points to an
        append-only JSONL file, and ``resume=True`` restores them
        bit-exactly instead of recomputing.  A raising point is
        isolated into a ``status="failed"`` record (with its traceback)
        after exhausting the retry budget; ``KeyboardInterrupt`` always
        propagates, leaving the checkpoint loadable.  Every exit path,
        that one included, ends with :meth:`SweepCheckpoint.sync`.
        """
        if resume and checkpoint is None:
            raise ValueError("resume=True requires a checkpoint")
        if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
            checkpoint = SweepCheckpoint(Path(checkpoint))
        try:
            return self._run(values, task, seed, faults, checkpoint, resume)
        finally:
            if checkpoint is not None:
                checkpoint.sync()

    def _run(
        self,
        values: Iterable[float],
        task: SweepTask,
        seed: int,
        faults: Any,
        checkpoint: SweepCheckpoint | None,
        resume: bool,
    ) -> SweepReport:
        start = time.perf_counter()
        vals = [float(v) for v in values]
        n = len(vals)
        children = np.random.SeedSequence(seed).spawn(n) if n else []

        metrics: list[object] = [None] * n
        records: list[PointRecord | None] = [None] * n
        hits = 0
        misses = 0
        resumed_count = 0

        # checkpoint setup / resume pass
        fingerprint = (
            _task_fingerprint(task, vals) if checkpoint is not None else ""
        )
        if checkpoint is not None:
            if resume and checkpoint.exists():
                entries = checkpoint.load(seed=seed, fingerprint=fingerprint)
                for i, entry in entries.items():
                    if i >= n or entry.value != vals[i]:
                        continue  # stale line from a different shape
                    task.validate_metric(entry.metric)
                    metrics[i] = entry.metric
                    records[i] = PointRecord(
                        index=i,
                        value=vals[i],
                        seconds=entry.seconds,
                        cached=False,
                        status="ok",
                        attempts=entry.attempts,
                        resumed=True,
                    )
                    resumed_count += 1
                    self._emit(records[i])
            else:
                checkpoint.start(seed=seed, fingerprint=fingerprint, n_points=n)

        def _checkpoint_record(record: PointRecord, metric: object) -> None:
            if checkpoint is not None:
                checkpoint.append(
                    index=record.index,
                    value=record.value,
                    status=record.status,
                    attempts=record.attempts,
                    seconds=record.seconds,
                    metric=metric,
                )

        # cache lookup pass
        keys: list[str | None] = [None] * n
        if self.cache is not None:
            keys = sweep_keys(self.cache, task, vals, seed) or keys
        pending: list[int] = []
        for i, value in enumerate(vals):
            if records[i] is not None:
                continue  # restored from checkpoint
            if keys[i] is not None:
                found = self.cache.get(keys[i])  # type: ignore[union-attr]
                if found is not MISS:
                    task.validate_metric(found)
                    hits += 1
                    metrics[i] = found
                    records[i] = PointRecord(
                        index=i, value=value, seconds=0.0, cached=True
                    )
                    _checkpoint_record(records[i], found)
                    self._emit(records[i])
                    continue
                misses += 1
            pending.append(i)

        # compute pass (retries, timeouts, isolation, degradation)
        states = {i: _PointState() for i in pending}
        degraded = False

        def _finish_ok(i: int, metric: object, seconds: float) -> None:
            state = states[i]
            metrics[i] = metric
            records[i] = PointRecord(
                index=i,
                value=vals[i],
                seconds=seconds,
                cached=False,
                status="ok",
                attempts=state.failures + 1,
            )
            if keys[i] is not None:
                self.cache.put(keys[i], metric)  # type: ignore[union-attr]
            _checkpoint_record(records[i], metric)
            self._emit(records[i])

        def _finish_failed(i: int) -> None:
            state = states[i]
            records[i] = PointRecord(
                index=i,
                value=vals[i],
                seconds=0.0,
                cached=False,
                status="failed",
                attempts=state.failures,
                error=state.last_error,
            )
            _checkpoint_record(records[i], None)
            self._emit(records[i])

        retried = 0

        def _run_serially(indices: list[int]) -> None:
            nonlocal retried
            for i in indices:
                state = states[i]
                while True:
                    attempt = state.failures
                    try:
                        metric, seconds = _compute_point(
                            task,
                            vals[i],
                            children[i],
                            i,
                            attempt,
                            self.timeout_s,
                            faults,
                        )
                    except Exception as exc:
                        state.failures += 1
                        state.last_error = _format_exception(exc)
                        logger.warning(
                            "point %d (value=%g) attempt %d failed: %r",
                            i,
                            vals[i],
                            attempt,
                            exc,
                        )
                        if state.failures > self.retry.max_retries:
                            _finish_failed(i)
                            break
                        retried += 1
                        time.sleep(
                            self.retry.delay_s(
                                attempt, backoff_rng(seed, i, attempt)
                            )
                        )
                    else:
                        _finish_ok(i, metric, seconds)
                        break

        if self.backend == "serial" or len(pending) <= 1:
            _run_serially(pending)
        else:
            workers = self._workers_for(len(pending))
            try:
                with ProcessPoolExecutor(max_workers=workers) as pool:
                    future_index: dict[Any, int] = {}

                    def _submit(i: int) -> Any:
                        future = pool.submit(
                            _compute_point,
                            task,
                            vals[i],
                            children[i],
                            i,
                            states[i].failures,
                            self.timeout_s,
                            faults,
                        )
                        future_index[future] = i
                        return future

                    remaining = {_submit(i) for i in pending}
                    while remaining:
                        done, remaining = wait(
                            remaining, return_when=FIRST_COMPLETED
                        )
                        for future in done:
                            i = future_index.pop(future)
                            try:
                                metric, seconds = future.result()
                            except BrokenProcessPool:
                                raise
                            except Exception as exc:
                                state = states[i]
                                state.failures += 1
                                state.last_error = _format_exception(exc)
                                logger.warning(
                                    "point %d (value=%g) attempt %d failed "
                                    "in worker: %r",
                                    i,
                                    vals[i],
                                    state.failures - 1,
                                    exc,
                                )
                                if state.failures > self.retry.max_retries:
                                    _finish_failed(i)
                                    continue
                                retried += 1
                                time.sleep(
                                    self.retry.delay_s(
                                        state.failures - 1,
                                        backoff_rng(seed, i, state.failures - 1),
                                    )
                                )
                                remaining.add(_submit(i))
                            else:
                                _finish_ok(i, metric, seconds)
            except BrokenProcessPool as exc:
                degraded = True
                unfinished = [i for i in pending if records[i] is None]
                logger.warning(
                    "process pool died (%s); degrading to the serial backend "
                    "for %d unfinished point%s",
                    exc,
                    len(unfinished),
                    "s" if len(unfinished) != 1 else "",
                )
                _run_serially(unfinished)

        failed = sum(1 for r in records if r is not None and not r.ok)
        # recovered counts attempt-level failures that healed — a
        # deterministic quantity; pool-death survival is reported via
        # ``degraded`` (which points were in flight at the break is a
        # scheduling race, so it must not leak into the counters).
        recovered = sum(
            1
            for i, state in states.items()
            if records[i] is not None and records[i].ok and state.failures > 0
        )

        return SweepReport(
            backend=self.backend,
            workers=self._workers_for(len(pending)),
            points=[SweepPoint(value=v, metric=m) for v, m in zip(vals, metrics)],
            records=[r for r in records if r is not None],
            elapsed_s=time.perf_counter() - start,
            cache_hits=hits,
            cache_misses=misses,
            failed=failed,
            retried=retried,
            recovered=recovered,
            resumed=resumed_count,
            degraded=degraded,
        )


def _env_int(name: str, raw: str) -> int | None:
    """Parse an integer env knob with a clear error message."""
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from exc


def _env_float(name: str, raw: str) -> float | None:
    """Parse a float env knob with a clear error message."""
    if not raw:
        return None
    try:
        return float(raw)
    except ValueError as exc:
        raise ValueError(f"{name} must be a number, got {raw!r}") from exc
