"""Sweep-executor adapter: network simulations as cacheable points.

:class:`NetSimTask` plugs :func:`~repro.net.sim.run_netsim` into
:class:`~repro.sim.executor.SweepExecutor`, so population-scale MAC
studies inherit the whole fault-tolerant sweep stack for free: the
content-addressed cache (keyed on the *full* ``NetSimConfig``), the
process backend, checkpoint/resume, per-point retries, and fault
injection.  Each sweep point replaces one config field with the sweep
value and runs the simulation under the point's own
:class:`~numpy.random.SeedSequence` — the same value/seed pair is
byte-identical on every backend, which is what makes the cache sound.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Any

import numpy as np

from repro.net.deployment import (
    MULTI_AP_REPORT_SCHEMA,
    MultiAPConfig,
    MultiAPReport,
    run_multi_ap,
)
from repro.net.sim import (
    NETSIM_REPORT_SCHEMA,
    NetSimConfig,
    NetSimReport,
    run_netsim,
)
from repro.sim.executor import SweepTask

__all__ = ["NetSimTask", "MultiAPTask"]

#: Config fields that must stay integers when swept (sweep values
#: arrive as floats from grid helpers / CLI ranges).
_INT_FIELDS = frozenset(
    {
        "num_tags",
        "num_slots",
        "frame_bits",
        "fdma_group_size",
        "spot_check_every",
        "trace_capacity",
    }
)

#: Integer-typed :class:`~repro.net.deployment.MultiAPConfig` fields.
_MULTI_AP_INT_FIELDS = frozenset(
    {
        "grid_rows",
        "grid_cols",
        "num_tags",
        "num_slots",
        "frame_bits",
        "epoch_slots",
        "handoff_delay_slots",
        "relay_max_hops",
        "spatial_reuse_factor",
        "trace_capacity",
    }
)


def _check_schema(metric: object, expected: int, kind: str) -> None:
    """Fail loudly when a cached/checkpointed report predates the
    current schema (or is not a report at all)."""
    found = getattr(metric, "schema_version", None)
    if found != expected:
        raise ValueError(
            f"stale {kind} loaded from cache/checkpoint: schema_version "
            f"{found!r} != expected {expected}; delete the artifact and "
            "recompute"
        )


@dataclass(frozen=True)
class NetSimTask(SweepTask):
    """Network simulation at ``config`` with one field swept.

    ``param`` names any :class:`~repro.net.sim.NetSimConfig` field
    (``num_tags`` by default for scale curves; ``arrival_rate_hz``,
    ``blockage_rate_hz``, ``transmit_probability``, ... all work).
    Integer-typed fields are cast from the float sweep value before the
    config is built, so ``values=[100, 1000, 10000]`` round-trips
    exactly.
    """

    config: NetSimConfig
    param: str = "num_tags"

    def __post_init__(self) -> None:
        names = {f.name for f in dataclass_fields(NetSimConfig)}
        if self.param not in names:
            raise ValueError(
                f"param {self.param!r} is not a NetSimConfig field; "
                f"choose from {sorted(names)}"
            )

    def config_for(self, value: float) -> NetSimConfig:
        """The operating point at one sweep value."""
        cast: object = int(value) if self.param in _INT_FIELDS else value
        return replace(self.config, **{self.param: cast})

    def run(self, value: float, seed: np.random.SeedSequence) -> NetSimReport:
        return run_netsim(self.config_for(value), seed=seed)

    def cache_parts(self) -> dict[str, Any]:
        # The report is fully determined by (config-with-param, seed);
        # the executor mixes the value and the seed into the key itself.
        return {"task": self}

    def validate_metric(self, metric: object) -> None:
        _check_schema(metric, NETSIM_REPORT_SCHEMA, "NetSimReport")


@dataclass(frozen=True)
class MultiAPTask(SweepTask):
    """Metro-scale multi-AP simulation with one config field swept.

    The multi-AP twin of :class:`NetSimTask`: ``param`` names any
    :class:`~repro.net.deployment.MultiAPConfig` field (``num_tags`` by
    default; ``ap_spacing_m``, ``mobile_fraction``,
    ``handoff_hysteresis_db``, ... all work), integer fields are cast
    from float sweep values, and the cache key covers the full config.
    """

    config: MultiAPConfig
    param: str = "num_tags"

    def __post_init__(self) -> None:
        names = MultiAPConfig.field_names()
        if self.param not in names:
            raise ValueError(
                f"param {self.param!r} is not a MultiAPConfig field; "
                f"choose from {sorted(names)}"
            )

    def config_for(self, value: float) -> MultiAPConfig:
        """The operating point at one sweep value."""
        cast: object = (
            int(value) if self.param in _MULTI_AP_INT_FIELDS else value
        )
        return replace(self.config, **{self.param: cast})

    def run(self, value: float, seed: np.random.SeedSequence) -> MultiAPReport:
        return run_multi_ap(self.config_for(value), seed=seed)

    def cache_parts(self) -> dict[str, Any]:
        return {"task": self}

    def validate_metric(self, metric: object) -> None:
        _check_schema(metric, MULTI_AP_REPORT_SCHEMA, "MultiAPReport")
