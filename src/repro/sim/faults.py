"""Deterministic fault injection: the chaos half of fault tolerance.

A fault-tolerance layer you cannot exercise is a fault-tolerance layer
you cannot trust.  :class:`FaultPlan` injects the four failure modes a
sweep campaign meets in the wild — raised exceptions, stalls that trip
the per-point timeout, worker-process kills, and corrupted cache
entries — at *chosen, seeded* points, so every recovery path in
:class:`~repro.sim.executor.SweepExecutor` is walked by tests and CI
rather than discovered in production.

Everything is deterministic: a plan is a frozen tuple of
:class:`FaultSpec`, :meth:`FaultPlan.random` derives its specs from a
``SeedSequence``, and a fault fires as a pure function of
``(point index, attempt number)``.  Plans pickle cleanly, so the
process backend ships them to workers unchanged.

The same machinery drives *channel*-level chaos: seeded blockage
bursts (:func:`blockage_burst_plan`, windows of
:class:`~repro.channel.blockage.BlockageEvent`) feed an ARQ session
through :class:`BlockageFrameOracle` for the end-to-end
graceful-degradation benchmark (E19) — the link-layer mirror of the
compute-layer story.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.channel.blockage import BlockageEvent

__all__ = [
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "corrupt_file",
    "blockage_burst_plan",
    "BlockageFrameOracle",
    "StreamFaultSpec",
    "StreamFaultPlan",
]

#: Fault kinds a :class:`FaultSpec` can carry.
FAULT_KINDS = ("raise", "hang", "kill", "corrupt")


class InjectedFault(RuntimeError):
    """The exception a ``raise`` fault throws (retryable by design)."""


@dataclass(frozen=True)
class FaultSpec:
    """One planned fault.

    Parameters
    ----------
    kind:
        ``"raise"`` — throw :class:`InjectedFault`;
        ``"hang"`` — sleep ``delay_s`` (pair with a per-point timeout);
        ``"kill"`` — hard-exit the *worker* process (no-op in the main
        process, so post-degradation recomputes succeed);
        ``"corrupt"`` — flag a cache entry for byte-flipping via
        :meth:`FaultPlan.corrupt_cache_entries`.
    index:
        Sweep point the fault targets.
    attempts:
        How many attempts of that point it poisons (attempt numbers
        ``0 .. attempts-1``).  A ``raise`` spec with ``attempts=1``
        fails once and then recovers — the canonical retry test.
    delay_s:
        Sleep length for ``hang`` faults.
    """

    kind: str
    index: int
    attempts: int = 1
    delay_s: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if self.index < 0:
            raise ValueError(f"index must be >= 0, got {self.index}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")
        if self.delay_s < 0:
            raise ValueError(f"delay_s must be >= 0, got {self.delay_s}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, picklable set of faults keyed by (point, attempt).

    ``main_pid`` pins the process the plan was built in: ``kill``
    faults only fire in *other* processes (pool workers), so the
    serial-degradation path can recompute the same point safely.
    """

    specs: tuple[FaultSpec, ...] = ()
    main_pid: int = field(default_factory=os.getpid)

    @classmethod
    def random(
        cls,
        n_points: int,
        *,
        seed: int | np.random.SeedSequence = 0,
        raise_rate: float = 0.0,
        hang_rate: float = 0.0,
        kill_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        max_faulty_attempts: int = 1,
        hang_delay_s: float = 3600.0,
    ) -> "FaultPlan":
        """Seeded random plan: each point independently draws faults.

        Rates are per-point Bernoulli probabilities; identical
        ``(n_points, seed, rates)`` always yield the identical plan —
        the CI chaos job relies on this.
        """
        for name, rate in (
            ("raise_rate", raise_rate),
            ("hang_rate", hang_rate),
            ("kill_rate", kill_rate),
            ("corrupt_rate", corrupt_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if max_faulty_attempts < 1:
            raise ValueError(
                f"max_faulty_attempts must be >= 1, got {max_faulty_attempts}"
            )
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(abs(int(seed)))
        rng = np.random.default_rng(seed)
        specs: list[FaultSpec] = []
        for index in range(n_points):
            for kind, rate in (
                ("raise", raise_rate),
                ("hang", hang_rate),
                ("kill", kill_rate),
                ("corrupt", corrupt_rate),
            ):
                if float(rng.random()) < rate:
                    attempts = int(rng.integers(1, max_faulty_attempts + 1))
                    specs.append(
                        FaultSpec(
                            kind=kind,
                            index=index,
                            attempts=attempts,
                            delay_s=hang_delay_s,
                        )
                    )
        return cls(specs=tuple(specs))

    # -- queries --------------------------------------------------------------

    def faults_for(self, index: int, attempt: int) -> list[FaultSpec]:
        """Specs firing at ``(index, attempt)`` (corrupt specs excluded)."""
        return [
            spec
            for spec in self.specs
            if spec.index == index
            and attempt < spec.attempts
            and spec.kind != "corrupt"
        ]

    def corrupt_indices(self) -> list[int]:
        """Point indices carrying a ``corrupt`` spec."""
        return sorted(
            {spec.index for spec in self.specs if spec.kind == "corrupt"}
        )

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.specs

    # -- injection ------------------------------------------------------------

    def before_attempt(self, index: int, attempt: int) -> None:
        """Fire compute-side faults for one attempt of one point.

        Called by the executor (in whichever process runs the point)
        just before the task body.  ``raise`` throws, ``hang`` sleeps,
        ``kill`` hard-exits pool workers; the main process survives a
        ``kill`` spec untouched.
        """
        for spec in self.faults_for(index, attempt):
            if spec.kind == "kill":
                if os.getpid() != self.main_pid:
                    os._exit(113)  # hard worker death: no atexit, no cleanup
                continue  # in the main process a kill is a no-op
            if spec.kind == "hang":
                time.sleep(spec.delay_s)
                continue
            raise InjectedFault(
                f"injected fault at point {index}, attempt {attempt}"
            )

    def corrupt_cache_entries(self, cache, keys: list[str | None]) -> int:
        """Byte-flip the cache payload of every ``corrupt``-flagged point.

        ``keys`` maps point index -> cache key (``None`` = uncached).
        Returns the number of entries corrupted.  The next ``get`` of a
        corrupted entry must fail its integrity check and count as a
        :attr:`~repro.sim.cache.CacheStats.corrupt` miss.
        """
        corrupted = 0
        for index in self.corrupt_indices():
            if index < len(keys) and keys[index] is not None:
                path = cache.entry_path(keys[index])
                if path is not None and corrupt_file(path):
                    corrupted += 1
        return corrupted


def corrupt_file(path: str | os.PathLike, offset: int | None = None) -> bool:
    """Flip one payload byte of ``path`` in place (size-preserving).

    Returns False when the file is missing or empty.  The flipped byte
    defaults to the middle of the file — past any header, so integrity
    checking (not header parsing) is what has to catch it.
    """
    path = Path(path)
    try:
        blob = bytearray(path.read_bytes())
    except OSError:
        return False
    if not blob:
        return False
    at = len(blob) // 2 if offset is None else offset
    at = min(max(at, 0), len(blob) - 1)
    blob[at] ^= 0xFF
    path.write_bytes(bytes(blob))
    return True


# -- stream-level chaos -------------------------------------------------------

#: Fault kinds a :class:`StreamFaultSpec` can carry.
STREAM_FAULT_KINDS = (
    "flood",
    "stall",
    "slow",
    "malformed",
    "duplicate",
    "reorder",
)


@dataclass(frozen=True)
class StreamFaultSpec:
    """One planned streaming fault.

    ``kind``:

    * ``"flood"`` — inject ``events`` synthetic burst events starting
      at ``at_s``, spaced ``1 / rate_hz`` apart (``rate_hz=0`` lands
      them all at ``at_s``): the offered-load spike that must turn
      into bounded queue depth + counted sheds, never a crash;
    * ``"stall"`` — the source goes silent for ``duration_s`` at
      ``at_s``: every later arrival is delayed by that much;
    * ``"slow"`` — the consumer's service time is multiplied by
      ``factor`` over ``[at_s, at_s + duration_s)``;
    * ``"malformed"`` / ``"duplicate"`` / ``"reorder"`` — within the
      window, each passing event is independently corrupted /
      re-emitted / swapped with its successor with ``probability``
      (drawn by a seeded per-ordinal hash, so the same plan mangles
      the same events no matter how the stream is consumed).
    """

    kind: str
    at_s: float
    duration_s: float = 0.0
    events: int = 0
    rate_hz: float = 0.0
    factor: float = 1.0
    probability: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in STREAM_FAULT_KINDS:
            raise ValueError(
                f"unknown stream fault kind {self.kind!r}; "
                f"choose from {STREAM_FAULT_KINDS}"
            )
        if self.at_s < 0:
            raise ValueError(f"at_s must be >= 0, got {self.at_s}")
        if self.duration_s < 0:
            raise ValueError(f"duration_s must be >= 0, got {self.duration_s}")
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        if self.rate_hz < 0:
            raise ValueError(f"rate_hz must be >= 0, got {self.rate_hz}")
        if self.factor <= 0:
            raise ValueError(f"factor must be > 0, got {self.factor}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"probability must be in [0, 1], got {self.probability}"
            )

    def window_contains(self, t: float) -> bool:
        """Whether ``t`` falls inside this spec's active window."""
        return self.at_s <= t < self.at_s + self.duration_s


@dataclass(frozen=True)
class StreamFaultPlan:
    """A seeded, frozen set of streaming faults for the AP daemon.

    The compute-layer :class:`FaultPlan` poisons sweep *points*; this
    plan poisons an *event stream* — floods, source stalls, a slowed
    consumer, malformed/duplicate/out-of-order records — so the serve
    pipeline's every degradation path is walked deterministically.
    Per-event decisions hash ``(seed, kind, ordinal)``, so a plan is a
    pure function of the stream content, independent of timing or
    chunking on the consuming side.
    """

    specs: tuple[StreamFaultSpec, ...] = ()
    seed: int = 0

    @classmethod
    def random(
        cls,
        *,
        horizon_s: float,
        seed: int | np.random.SeedSequence = 0,
        floods: int = 0,
        flood_events: int = 256,
        flood_rate_hz: float = 0.0,
        stalls: int = 0,
        stall_s: float = 0.5,
        slow_windows: int = 0,
        slow_factor: float = 4.0,
        slow_s: float = 0.5,
        malformed_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        reorder_rate: float = 0.0,
    ) -> "StreamFaultPlan":
        """Seeded random plan over ``[0, horizon_s)``.

        Window starts are uniform draws; the rate-style faults get one
        whole-horizon window each when their rate is positive.
        Identical arguments always yield the identical plan.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be > 0, got {horizon_s}")
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(abs(int(seed)))
        seed_int = int(seed.generate_state(1)[0])
        rng = np.random.default_rng(seed)
        specs: list[StreamFaultSpec] = []
        for _ in range(floods):
            specs.append(
                StreamFaultSpec(
                    kind="flood",
                    at_s=float(rng.uniform(0, horizon_s)),
                    events=flood_events,
                    rate_hz=flood_rate_hz,
                )
            )
        for _ in range(stalls):
            specs.append(
                StreamFaultSpec(
                    kind="stall",
                    at_s=float(rng.uniform(0, horizon_s)),
                    duration_s=stall_s,
                )
            )
        for _ in range(slow_windows):
            specs.append(
                StreamFaultSpec(
                    kind="slow",
                    at_s=float(rng.uniform(0, horizon_s)),
                    duration_s=slow_s,
                    factor=slow_factor,
                )
            )
        for kind, rate in (
            ("malformed", malformed_rate),
            ("duplicate", duplicate_rate),
            ("reorder", reorder_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{kind} rate must be in [0, 1], got {rate}")
            if rate > 0.0:
                specs.append(
                    StreamFaultSpec(
                        kind=kind,
                        at_s=0.0,
                        duration_s=horizon_s,
                        probability=rate,
                    )
                )
        return cls(specs=tuple(sorted(specs, key=lambda s: (s.at_s, s.kind))),
                   seed=seed_int)

    # -- queries --------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the plan injects nothing."""
        return not self.specs

    def _of_kind(self, kind: str) -> list[StreamFaultSpec]:
        return [spec for spec in self.specs if spec.kind == kind]

    def service_factor(self, t: float) -> float:
        """Consumer service-time multiplier at stream time ``t``.

        Overlapping slow-consumer windows compound multiplicatively.
        """
        factor = 1.0
        for spec in self._of_kind("slow"):
            if spec.window_contains(t):
                factor *= spec.factor
        return factor

    def _event_hit(self, kind: str, ordinal: int, probability: float) -> bool:
        """Seeded per-ordinal Bernoulli, stable across consumers."""
        digest = hashlib.sha256(
            f"{self.seed}:{kind}:{ordinal}".encode()
        ).digest()
        draw = int.from_bytes(digest[:8], "big") / 2.0**64
        return draw < probability

    # -- stream transformation -------------------------------------------------

    def transform(self, stream, *, flood_factory=None, malform=None):
        """Apply the plan to a stream of ``(arrival_s, item)`` pairs.

        ``flood_factory(burst_index, time_s)`` builds the synthetic
        flood items (the serve daemon passes a ``ReadEvent`` factory);
        ``malform(item, reason)`` wraps a corrupted item (the daemon
        wraps into its dead-letterable ``MalformedEvent``).  Faults
        whose hooks are missing are skipped, keeping the plan usable on
        bare streams in tests.

        Yields ``(arrival_s, item)`` pairs with stalls shifting later
        arrivals, floods spliced in at their window starts, duplicates
        re-emitted, reordered pairs swapped (each keeping its own
        timestamp — the consumer sees time run backwards), and
        malformed items wrapped.
        """
        stalls = sorted(self._of_kind("stall"), key=lambda s: s.at_s)
        floods = sorted(self._of_kind("flood"), key=lambda s: s.at_s)
        malformed = self._of_kind("malformed")
        duplicates = self._of_kind("duplicate")
        reorders = self._of_kind("reorder")
        shift = 0.0
        stall_i = 0
        flood_i = 0
        flood_count = 0
        ordinal = 0
        held: tuple[float, object] | None = None

        def emit_floods_until(t: float):
            nonlocal flood_i, flood_count
            while flood_i < len(floods) and floods[flood_i].at_s <= t:
                spec = floods[flood_i]
                if flood_factory is not None:
                    step = 1.0 / spec.rate_hz if spec.rate_hz else 0.0
                    for k in range(spec.events):
                        at = spec.at_s + k * step
                        yield at, flood_factory(flood_count, at)
                        flood_count += 1
                flood_i += 1

        for arrival_s, item in stream:
            while (
                stall_i < len(stalls) and stalls[stall_i].at_s <= arrival_s
            ):
                shift += stalls[stall_i].duration_s
                stall_i += 1
            arrival = arrival_s + shift
            yield from emit_floods_until(arrival)
            out_item = item
            for spec in malformed:
                if spec.window_contains(arrival) and self._event_hit(
                    "malformed", ordinal, spec.probability
                ):
                    if malform is not None:
                        out_item = malform(item, "chaos: injected corruption")
                    break
            pair = (arrival, out_item)
            if held is not None:
                # Emit the newer event first, then the held (earlier)
                # one: the consumer observes an out-of-order timestamp.
                yield pair
                yield held
                held = None
            else:
                swap = any(
                    spec.window_contains(arrival)
                    and self._event_hit("reorder", ordinal, spec.probability)
                    for spec in reorders
                )
                if swap:
                    held = pair
                else:
                    yield pair
            for spec in duplicates:
                if spec.window_contains(arrival) and self._event_hit(
                    "duplicate", ordinal, spec.probability
                ):
                    yield (arrival, item)
                    break
            ordinal += 1
        if held is not None:
            yield held
        yield from emit_floods_until(float("inf"))


# -- channel-level chaos ------------------------------------------------------


def blockage_burst_plan(
    duration_s: float,
    *,
    rate_hz: float,
    mean_duration_s: float = 0.05,
    attenuation_db: float = 20.0,
    seed: int | np.random.SeedSequence | np.random.Generator = 0,
) -> list[BlockageEvent]:
    """Seeded Poisson bursts of blockage over ``[0, duration_s)``.

    Arrivals are Poisson at ``rate_hz``; dwell times are exponential
    with mean ``mean_duration_s``; every burst attenuates the one-way
    link by ``attenuation_db`` (mmWave bodies: 15-30 dB).  The same
    seed always yields the same windows, so a goodput-vs-fault-rate
    curve is reproducible point for point.

    A ``Generator`` may be passed instead of a seed to draw from an
    existing stream.  That is how the event engine consumes this plan:
    :class:`repro.net.mac.BlockageProcess` draws it dry from its own
    per-process stream at ``start()``.  In the multi-AP metro stack the
    blockage process is slot 4 of the five fixed process streams
    (mobility, assoc, relay, **blockage**, mac) spawned *before* the
    per-AP MAC streams.
    """
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    if rate_hz < 0:
        raise ValueError(f"rate_hz must be >= 0, got {rate_hz}")
    if mean_duration_s <= 0:
        raise ValueError(f"mean_duration_s must be > 0, got {mean_duration_s}")
    if isinstance(seed, np.random.Generator):
        rng = seed
    else:
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(abs(int(seed)))
        rng = np.random.default_rng(seed)
    events: list[BlockageEvent] = []
    if rate_hz == 0.0:
        return events
    t = 0.0
    while True:
        t += float(rng.exponential(1.0 / rate_hz))
        if t >= duration_s:
            break
        dwell = max(float(rng.exponential(mean_duration_s)), 1e-9)
        events.append(
            BlockageEvent(
                start_s=t,
                stop_s=min(t + dwell, duration_s),
                attenuation_db=attenuation_db,
            )
        )
    return events


class BlockageFrameOracle:
    """Frame oracle for ARQ sessions under a blockage plan.

    Wires :func:`blockage_burst_plan` into
    :class:`~repro.core.arq.StopAndWaitSession`: each transmission
    occupies one ``frame_duration_s`` slot of session time; a frame
    whose slot midpoint falls inside a blockage window succeeds with
    ``blocked_success_prob`` (the 2x-attenuated link is usually dead),
    otherwise with ``clear_success_prob``.
    """

    def __init__(
        self,
        events: list[BlockageEvent],
        *,
        frame_duration_s: float,
        clear_success_prob: float = 0.98,
        blocked_success_prob: float = 0.02,
    ) -> None:
        if frame_duration_s <= 0:
            raise ValueError(
                f"frame_duration_s must be > 0, got {frame_duration_s}"
            )
        for name, p in (
            ("clear_success_prob", clear_success_prob),
            ("blocked_success_prob", blocked_success_prob),
        ):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {p}")
        self.events = list(events)
        self.frame_duration_s = frame_duration_s
        self.clear_success_prob = clear_success_prob
        self.blocked_success_prob = blocked_success_prob
        self.transmissions = 0
        self.blocked_transmissions = 0

    def is_blocked_at(self, time_s: float) -> bool:
        """Whether any blockage window covers ``time_s``."""
        return any(e.start_s <= time_s < e.stop_s for e in self.events)

    def __call__(self, attempt: int, rng: np.random.Generator) -> bool:
        """One transmission: advance session time, draw success."""
        midpoint = (self.transmissions + 0.5) * self.frame_duration_s
        self.transmissions += 1
        if self.is_blocked_at(midpoint):
            self.blocked_transmissions += 1
            p = self.blocked_success_prob
        else:
            p = self.clear_success_prob
        return bool(rng.random() < p)
