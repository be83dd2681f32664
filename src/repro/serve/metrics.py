"""Operational metrics for the live AP service.

Two kinds of state live here, deliberately separated:

* **Deterministic counters** — events in/out, shed/dead-letter/dup
  counts, queue and memory watermarks, per-AP reads, and the ingest
  latency histogram.  In replay mode every one of these is a pure
  function of ``(trace, config, seed)``; the determinism suite pins
  :meth:`ServiceMetrics.deterministic_counters` byte for byte.
* **Wall-clock derivatives** — events/sec rates and uptime, computed
  only inside :meth:`ServiceMetrics.snapshot` for the ops endpoint and
  the status line, never fed back into pipeline state.

The latency histogram uses fixed geometric buckets rather than a
reservoir: O(1) memory, O(buckets) percentile reads, and — because the
bucket bounds are config-independent constants — two identical runs
produce identical bucket counts, which a sampling estimator cannot
promise.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left
from dataclasses import dataclass, field

__all__ = ["LatencyHistogram", "ServiceMetrics"]


def _geometric_bounds(
    start_s: float = 1e-6, factor: float = 2.0, count: int = 34
) -> tuple[float, ...]:
    bounds = []
    edge = start_s
    for _ in range(count):
        bounds.append(edge)
        edge *= factor
    return tuple(bounds)


class LatencyHistogram:
    """Fixed-bucket latency histogram with conservative percentiles.

    Buckets are geometric from 1 µs doubling up to ~2.3 hours, plus an
    underflow and an overflow bucket.  :meth:`percentile` returns the
    *upper bound* of the bucket containing the requested rank — a
    conservative (never optimistic) estimate that is exactly
    reproducible across runs.
    """

    BOUNDS = _geometric_bounds()

    def __init__(self) -> None:
        # counts[i] = observations <= BOUNDS[i]; the final slot is the
        # overflow bucket (> BOUNDS[-1]).
        self.counts = [0] * (len(self.BOUNDS) + 1)
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def observe(self, seconds: float) -> None:
        """Record one latency sample (negative clamps to zero)."""
        seconds = max(0.0, float(seconds))
        self.total += 1
        self.sum_s += seconds
        if seconds > self.max_s:
            self.max_s = seconds
        self.counts[bisect_left(self.BOUNDS, seconds)] += 1

    def percentile(self, p: float) -> float:
        """Upper bucket bound at rank ``p`` (0-100); 0.0 when empty."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if self.total == 0:
            return 0.0
        rank = p / 100.0 * self.total
        seen = 0
        for i, count in enumerate(self.counts):
            seen += count
            if seen >= rank and count:
                if i < len(self.BOUNDS):
                    return self.BOUNDS[i]
                return self.max_s  # overflow bucket: report the max
        return self.max_s

    @property
    def mean_s(self) -> float:
        """Arithmetic mean of every observation (0.0 when empty)."""
        return self.sum_s / self.total if self.total else 0.0

    def bucket_counts(self) -> tuple[int, ...]:
        """The raw bucket counts (deterministic-state component)."""
        return tuple(self.counts)


@dataclass
class ServiceMetrics:
    """All counters the daemon maintains, plus snapshot assembly."""

    # -- ingestion -------------------------------------------------------------
    events_in: int = 0
    """Events offered to the pipeline (before any shedding)."""
    events_out: int = 0
    """Events fully processed into the inventory."""
    shed_oldest: int = 0
    shed_newest: int = 0
    rate_limited: int = 0
    blocked: int = 0
    """Arrivals that had to wait for queue space (block policy)."""
    blocked_wait_s: float = 0.0
    dead_letter: int = 0
    duplicates: int = 0
    reordered: int = 0
    """Arrivals whose timestamp ran backwards (clamped to the clock)."""

    # -- watermarks ------------------------------------------------------------
    queue_high_watermark: int = 0

    # -- per-AP ----------------------------------------------------------------
    per_ap_reads: dict[int, int] = field(default_factory=dict)

    # -- latency ---------------------------------------------------------------
    latency: LatencyHistogram = field(default_factory=LatencyHistogram)

    # -- wall clock (never part of deterministic state) ------------------------
    started_wall: float = field(default_factory=time.monotonic)
    _last_rate_wall: float | None = None
    _last_rate_in: int = 0
    _last_rate_out: int = 0

    @property
    def shed_total(self) -> int:
        """Everything dropped for capacity: queue sheds + rate limiting."""
        return self.shed_oldest + self.shed_newest + self.rate_limited

    def count_read(self, ap_id: int) -> None:
        """Bump the per-AP read counter."""
        self.per_ap_reads[ap_id] = self.per_ap_reads.get(ap_id, 0) + 1

    # -- views -----------------------------------------------------------------

    def deterministic_counters(self) -> dict[str, object]:
        """The replay-reproducible counter state, canonically ordered.

        Two replay runs of the same (trace, config, seed) must produce
        byte-identical ``json.dumps`` of this dict — the determinism
        suite asserts exactly that.  Wall-clock rates and uptime are
        deliberately excluded.
        """
        return {
            "events_in": self.events_in,
            "events_out": self.events_out,
            "shed_oldest": self.shed_oldest,
            "shed_newest": self.shed_newest,
            "rate_limited": self.rate_limited,
            "blocked": self.blocked,
            "dead_letter": self.dead_letter,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "queue_high_watermark": self.queue_high_watermark,
            "per_ap_reads": {
                str(ap): self.per_ap_reads[ap]
                for ap in sorted(self.per_ap_reads)
            },
            "latency_buckets": list(self.latency.bucket_counts()),
        }

    def snapshot(
        self,
        *,
        queue_depth: int,
        clock_s: float,
        inventory: dict[str, object] | None = None,
        state: str = "running",
    ) -> dict[str, object]:
        """Full ops-endpoint snapshot: counters + rates + percentiles.

        Rates are computed over the window since the previous snapshot
        (cumulative on the first call); the counters subset is exactly
        :meth:`deterministic_counters`.
        """
        now = time.monotonic()
        window_start = (
            self._last_rate_wall
            if self._last_rate_wall is not None
            else self.started_wall
        )
        window = max(now - window_start, 1e-9)
        in_rate = (self.events_in - self._last_rate_in) / window
        out_rate = (self.events_out - self._last_rate_out) / window
        self._last_rate_wall = now
        self._last_rate_in = self.events_in
        self._last_rate_out = self.events_out
        snap: dict[str, object] = {
            "state": state,
            "uptime_s": now - self.started_wall,
            "clock_s": clock_s,
            "queue_depth": queue_depth,
            "events_in_per_s": in_rate,
            "events_out_per_s": out_rate,
            "shed_total": self.shed_total,
            "blocked_wait_s": self.blocked_wait_s,
            "latency_p50_s": self.latency.percentile(50),
            "latency_p95_s": self.latency.percentile(95),
            "latency_p99_s": self.latency.percentile(99),
            "latency_mean_s": self.latency.mean_s,
            "latency_max_s": self.latency.max_s,
            "counters": self.deterministic_counters(),
        }
        if inventory is not None:
            snap["inventory"] = inventory
        return snap

    def status_line(self, *, queue_depth: int, queue_cap: int,
                    tracked: int, clock_s: float) -> str:
        """One compact periodic status line for the CLI."""
        p99 = self.latency.percentile(99)
        return (
            f"[serve +{clock_s:.1f}s] "
            f"in={self.events_in} out={self.events_out} "
            f"q={queue_depth}/{queue_cap} (hw {self.queue_high_watermark}) "
            f"shed={self.shed_total} dlq={self.dead_letter} "
            f"dup={self.duplicates} tags={tracked} "
            f"p99={p99 * 1e3:.2f}ms"
        )

    def to_json(self, **snapshot_kwargs: object) -> str:
        """JSON rendering of :meth:`snapshot` (metrics endpoint body)."""
        return json.dumps(self.snapshot(**snapshot_kwargs), sort_keys=False)
