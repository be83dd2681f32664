"""Bounded ingest queue with explicit backpressure policies.

The queue is the robustness heart of the AP daemon: offered load above
capacity must turn into *bounded* memory and *counted* sheds, never
into an unbounded backlog.  It is modelled as a deterministic
single-server queue over an injectable clock:

* events **arrive** at source timestamps (virtual trace time in replay
  mode, wall-relative seconds in live mode);
* the **server** drains one event per ``1 / service_rate_hz`` seconds
  (a :class:`~repro.sim.faults.StreamFaultPlan` can dilate this during
  slow-consumer windows);
* when an arrival finds the queue at ``depth``, the configured
  :data:`POLICIES` member decides who pays: ``block`` stalls the
  source until a slot frees (backpressure), ``shed-oldest`` drops the
  head (favours fresh data), ``shed-newest`` drops the arrival
  (favours in-flight data).

Because both arrivals and service are functions of the injected clock,
the whole contraption is a pure function of the event stream — the
byte-identical replay guarantee of the daemon reduces to this class
being deterministic.

:class:`TokenBucket` is the per-source admission throttle in front of
the queue: a misbehaving source is clipped to its contracted rate
before it can crowd out the others.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable

from repro.serve.events import ReadEvent
from repro.serve.metrics import ServiceMetrics

__all__ = ["POLICIES", "TokenBucket", "BoundedIngestQueue"]

#: Backpressure policies a :class:`BoundedIngestQueue` understands.
POLICIES = ("block", "shed-oldest", "shed-newest")


class TokenBucket:
    """Classic token bucket over an external clock.

    ``rate_hz`` tokens accrue per second up to ``burst``; each admitted
    event spends one.  ``rate_hz = 0`` disables the limiter (always
    admits).  The bucket never reads a clock itself — the caller passes
    ``now_s`` — so replay mode refills on virtual time and two replays
    admit the identical prefix.
    """

    def __init__(self, rate_hz: float, burst: float = 64.0) -> None:
        if rate_hz < 0:
            raise ValueError(f"rate_hz must be >= 0, got {rate_hz}")
        if burst < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self.rate_hz = float(rate_hz)
        self.burst = float(burst)
        self.tokens = float(burst)
        self._last_s: float | None = None

    def take(self, now_s: float) -> bool:
        """Try to spend one token at ``now_s``; False = rate-limited."""
        if self.rate_hz == 0.0:
            return True
        if self._last_s is not None and now_s > self._last_s:
            self.tokens = min(
                self.burst, self.tokens + (now_s - self._last_s) * self.rate_hz
            )
        if self._last_s is None or now_s > self._last_s:
            self._last_s = now_s
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


class BoundedIngestQueue:
    """Deterministic bounded single-server queue with shed policies.

    Parameters
    ----------
    depth:
        Hard cap on queued (accepted but unprocessed) events.  The
        daemon's memory bound: the queue can never hold more.
    policy:
        One of :data:`POLICIES`.
    service_rate_hz:
        Server drain rate in events/second; ``0`` means infinitely
        fast (every accepted event processes at its arrival instant).
    apply:
        Callback ``apply(event, completion_s)`` invoked for every
        serviced event — the daemon wires this to the live inventory.
    metrics:
        Shared :class:`~repro.serve.metrics.ServiceMetrics`; the queue
        owns the shed/blocked/latency/watermark counters.
    service_factor:
        Optional ``f(time_s) -> float`` service-time multiplier (the
        slow-consumer chaos hook); 1.0 = nominal.
    """

    def __init__(
        self,
        *,
        depth: int,
        policy: str,
        service_rate_hz: float,
        apply: Callable[[ReadEvent, float], None],
        metrics: ServiceMetrics,
        service_factor: Callable[[float], float] | None = None,
    ) -> None:
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        if policy not in POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; choose from {POLICIES}"
            )
        if service_rate_hz < 0:
            raise ValueError(
                f"service_rate_hz must be >= 0, got {service_rate_hz}"
            )
        self.depth = int(depth)
        self.policy = policy
        self.service_s = 1.0 / service_rate_hz if service_rate_hz else 0.0
        self.apply = apply
        self.metrics = metrics
        self.service_factor = service_factor
        self._queue: deque[tuple[float, ReadEvent]] = deque()
        self._server_free_at = 0.0

    def __len__(self) -> int:
        return len(self._queue)

    # -- service --------------------------------------------------------------

    def _service_time(self, start_s: float) -> float:
        if self.service_s == 0.0:
            return 0.0
        factor = self.service_factor(start_s) if self.service_factor else 1.0
        return self.service_s * max(factor, 0.0)

    def _next_completion(self) -> float | None:
        """When the head-of-line event would finish, if serviced now."""
        if not self._queue:
            return None
        enqueue_s, _event = self._queue[0]
        start = max(self._server_free_at, enqueue_s)
        return start + self._service_time(start)

    def drain_until(self, now_s: float) -> int:
        """Service every event whose completion lands at or before now."""
        queue = self._queue
        metrics = self.metrics
        serviced = 0
        while queue:
            # The head's completion, as :meth:`_next_completion` has it.
            enqueue_s, event = queue[0]
            start = max(self._server_free_at, enqueue_s)
            completion = start + self._service_time(start)
            if completion > now_s:
                break
            queue.popleft()
            self._server_free_at = completion
            metrics.latency.observe(completion - enqueue_s)
            metrics.events_out += 1
            self.apply(event, completion)
            serviced += 1
        return serviced

    def drain_all(self) -> float:
        """Shutdown drain: service everything; returns the final clock."""
        clock = self._server_free_at
        while self._queue:
            completion = self._next_completion()
            assert completion is not None
            clock = max(clock, completion)
            self.drain_until(completion)
        return clock

    # -- admission ------------------------------------------------------------

    def offer(self, event: ReadEvent, arrival_s: float) -> tuple[bool, float]:
        """Admit one event at ``arrival_s``.

        Returns ``(accepted, effective_time_s)`` where the effective
        time is later than the arrival only under the ``block`` policy
        (the stall the source experienced — the caller folds it into
        its clock so backpressure propagates to subsequent arrivals).
        """
        self.drain_until(arrival_s)
        effective = arrival_s
        if len(self._queue) >= self.depth:
            if self.policy == "shed-newest":
                self.metrics.shed_newest += 1
                return False, effective
            if self.policy == "shed-oldest":
                self._queue.popleft()
                self.metrics.shed_oldest += 1
            else:  # block: stall the source until the head completes
                completion = self._next_completion()
                assert completion is not None
                self.metrics.blocked += 1
                self.metrics.blocked_wait_s += completion - arrival_s
                self.drain_until(completion)
                effective = completion
        self._queue.append((effective, event))
        if len(self._queue) > self.metrics.queue_high_watermark:
            self.metrics.queue_high_watermark = len(self._queue)
        return True, effective
