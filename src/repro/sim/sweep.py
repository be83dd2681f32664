"""Parameter sweeps.

A sweep applies a metric function across a list of parameter values and
collects ``(value, metric)`` points — the backbone of every "X versus
distance/angle/rate" figure in the experiment suite.

:func:`sweep_1d` is the in-order, in-process loop.  Sweeps that need a
process pool, a result cache, retries or checkpoints run through
:class:`repro.sim.executor.SweepExecutor` instead (wrap a plain
``metric_fn`` in a :class:`~repro.sim.executor.FunctionTask`).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence

__all__ = ["SweepPoint", "sweep_1d"]


@dataclass(frozen=True)
class SweepPoint:
    """One point of a 1-D sweep."""

    value: float
    metric: object


def sweep_1d(
    values: Iterable[float],
    metric_fn: Callable[[float], object],
    on_point: Callable[[SweepPoint], None] | None = None,
) -> list[SweepPoint]:
    """Evaluate ``metric_fn`` at each value, in order.

    ``on_point`` (if given) is called after each evaluation — benches
    use it to stream progress lines.
    """
    points: list[SweepPoint] = []
    for value in values:
        point = SweepPoint(value=float(value), metric=metric_fn(float(value)))
        points.append(point)
        if on_point is not None:
            on_point(point)
    return points


def metrics(points: Sequence[SweepPoint]) -> list[object]:
    """The metric column of a sweep."""
    return [p.metric for p in points]


def values(points: Sequence[SweepPoint]) -> list[float]:
    """The value column of a sweep."""
    return [p.value for p in points]
