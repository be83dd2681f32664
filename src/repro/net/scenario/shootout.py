"""Strategy shootout: race backoff strategies across regimes.

The scenario zoo's point is that no arbitration rule wins everywhere:
a genie-fed adaptive-p MAC is near-optimal when the backlog estimate is
honest, BEB's aggressive resets shine on small calm populations, and
window ladders (EIED, Fibonacci) or pseudo-Bayesian scaling (ASB)
degrade more gracefully when churn and blockage keep the contender set
large and noisy.  :class:`ShootoutTask` races the registered strategies
over the full :class:`~repro.sim.executor.SweepExecutor` stack — cache,
process backend, checkpoint/resume, fault injection all apply — and
:func:`run_shootout` assembles the cross-regime ranking table whose
*flips* are the experiment's deliverable (see E24).

Fairness contract: every entrant runs under the **same root seed**, and
because the strategy slot is draw-count-stable (see
:mod:`repro.net.scenario.backoff`) the churn arrivals, dwell times and
blockage windows are bit-identical across entrants — the strategies
race in the same universe, so metric deltas are pure arbitration
effects.  The race seed therefore lives *on the task* (it is part of
the cache key); the executor's per-point seed is deliberately unused.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.net.sim import NETSIM_REPORT_SCHEMA, NetSimConfig, run_netsim
from repro.net.task import _check_schema
from repro.sim.executor import SweepExecutor, SweepTask

__all__ = [
    "ShootoutTask",
    "StrategyResult",
    "ShootoutReport",
    "run_shootout",
]


@dataclass(frozen=True)
class ShootoutTask(SweepTask):
    """One regime's race: the sweep value indexes ``strategies``.

    ``run(value, _seed)`` evaluates strategy ``strategies[int(value)]``
    on ``config`` under the task's own ``seed`` (see the module
    docstring for why the executor's per-point seed is ignored).
    Picklable and frozen, so the process backend and the
    content-addressed cache both apply; the cache key covers the full
    config, the strategy tuple and the race seed.
    """

    config: NetSimConfig
    strategies: tuple[str, ...] = (
        "adaptive-p",
        "uniform",
        "beb",
        "eied",
        "fibonacci",
        "asb",
    )
    seed: int = 0

    def __post_init__(self) -> None:
        from repro.net.scenario.backoff import strategy_names

        if not self.strategies:
            raise ValueError("need at least one strategy to race")
        known = set(strategy_names())
        unknown = [s for s in self.strategies if s not in known]
        if unknown:
            raise ValueError(
                f"unknown strategies {unknown}; registered: {sorted(known)}"
            )

    def strategy_for(self, value: float) -> str:
        index = int(value)
        if not 0 <= index < len(self.strategies):
            raise ValueError(
                f"sweep value {value} outside the strategy tuple "
                f"(0..{len(self.strategies) - 1})"
            )
        return self.strategies[index]

    def run(self, value: float, seed: np.random.SeedSequence) -> object:
        # The executor's per-point `seed` is unused by design: all
        # entrants share self.seed so they race identical churn and
        # blockage realisations (draw-count-stable strategy slot).
        return run_netsim(
            self.config, seed=self.seed, strategy=self.strategy_for(value)
        )

    def cache_parts(self) -> dict[str, Any]:
        return {"task": self}

    def validate_metric(self, metric: object) -> None:
        _check_schema(metric, NETSIM_REPORT_SCHEMA, "NetSimReport")


@dataclass(frozen=True)
class StrategyResult:
    """One (regime, strategy) cell of the shootout table."""

    regime: str
    strategy: str
    throughput_per_slot: float
    frames_delivered: int
    tags_read: int
    tags_total: int
    latency_p50_s: float
    arrivals: int
    trace_digest: str


@dataclass(frozen=True)
class ShootoutReport:
    """All (regime, strategy) results plus the ranking machinery."""

    results: tuple[StrategyResult, ...]
    seed: int = 0

    @property
    def regimes(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.results:
            if r.regime not in seen:
                seen.append(r.regime)
        return tuple(seen)

    @property
    def strategies(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.results:
            if r.strategy not in seen:
                seen.append(r.strategy)
        return tuple(seen)

    def result(self, regime: str, strategy: str) -> StrategyResult:
        """The single (regime, strategy) cell, or ValueError."""
        for r in self.results:
            if r.regime == regime and r.strategy == strategy:
                return r
        raise ValueError(
            f"no result for regime {regime!r} strategy {strategy!r}"
        )

    def ranking(self, regime: str) -> tuple[str, ...]:
        """Strategies of ``regime``, best throughput first.

        Ties break by strategy name so the ranking is deterministic
        even when two strategies land identical throughput.
        """
        rows = [r for r in self.results if r.regime == regime]
        if not rows:
            raise ValueError(
                f"unknown regime {regime!r}; have {self.regimes}"
            )
        rows.sort(key=lambda r: (-r.throughput_per_slot, r.strategy))
        return tuple(r.strategy for r in rows)

    def winner(self, regime: str) -> str:
        return self.ranking(regime)[0]

    def ranking_flips(self) -> tuple[tuple[str, str, str, str], ...]:
        """Regime pairs whose winners differ — the experiment's point.

        Each entry is ``(regime_a, regime_b, winner_a, winner_b)`` with
        ``winner_a != winner_b``.  An empty tuple means one strategy
        dominated every regime (no flip found).
        """
        flips = []
        regimes = self.regimes
        for i, a in enumerate(regimes):
            for b in regimes[i + 1 :]:
                wa, wb = self.winner(a), self.winner(b)
                if wa != wb:
                    flips.append((a, b, wa, wb))
        return tuple(flips)

    def summary(self) -> str:
        """Cross-regime ranking table (CLI output)."""
        lines = []
        width = max((len(s) for s in self.strategies), default=8)
        for regime in self.regimes:
            rows = {
                r.strategy: r for r in self.results if r.regime == regime
            }
            lines.append(f"regime {regime!r} (seed {self.seed}):")
            for rank, name in enumerate(self.ranking(regime), start=1):
                r = rows[name]
                lines.append(
                    f"  {rank}. {name:<{width}}  "
                    f"throughput/slot {r.throughput_per_slot:.4f}  "
                    f"read {r.tags_read}/{r.tags_total}  "
                    f"p50 latency {r.latency_p50_s * 1e3:.2f} ms"
                )
        flips = self.ranking_flips()
        if flips:
            for a, b, wa, wb in flips:
                lines.append(
                    f"ranking flip: {wa!r} wins {a!r} but {wb!r} wins {b!r}"
                )
        else:
            lines.append("no ranking flip: one strategy dominates")
        return "\n".join(lines)


def run_shootout(
    regimes: dict[str, NetSimConfig],
    strategies: tuple[str, ...] | None = None,
    seed: int = 0,
    executor: SweepExecutor | None = None,
) -> ShootoutReport:
    """Race ``strategies`` over every regime; return the ranking table.

    ``regimes`` maps a regime name (e.g. ``"calm"``, ``"surge"``) to
    the :class:`~repro.net.sim.NetSimConfig` realising it.  Each regime
    becomes one :class:`ShootoutTask` executed over ``executor`` (a
    serial one by default), so a process-backed or cache-backed
    executor accelerates the whole shootout transparently.
    """
    if not regimes:
        raise ValueError("need at least one regime")
    if strategies is None:
        from repro.net.scenario.backoff import strategy_names

        strategies = strategy_names()
    if executor is None:
        executor = SweepExecutor("serial")
    results: list[StrategyResult] = []
    for regime_name, config in regimes.items():
        task = ShootoutTask(
            config=config, strategies=tuple(strategies), seed=seed
        )
        sweep = executor.run(range(len(task.strategies)), task, seed=seed)
        for index, metric in enumerate(sweep.metrics):
            if metric is None:  # point exhausted its retry budget
                continue
            task.validate_metric(metric)
            results.append(
                StrategyResult(
                    regime=regime_name,
                    strategy=task.strategies[index],
                    throughput_per_slot=metric.throughput_per_slot,
                    frames_delivered=metric.frames_delivered,
                    tags_read=metric.tags_read,
                    tags_total=metric.tags_total,
                    latency_p50_s=metric.latency_p50_s,
                    arrivals=metric.arrivals,
                    trace_digest=metric.trace_digest,
                )
            )
    return ShootoutReport(results=tuple(results), seed=seed)
