"""Deterministic discrete-event network simulation for the mmTag MAC.

The waveform substrate (:mod:`repro.core`, :mod:`repro.dsp`) answers
"does one frame survive this link?"; this package answers "what does a
*population* of 10k-100k tags achieve under a MAC?" — goodput, latency,
fairness, time-to-full-inventory — while staying anchored to the same
calibrated link budget (and spot-checking itself against real
:func:`~repro.core.link.simulate_link` bursts).

Layers, bottom up:

* :mod:`repro.net.engine` — the protocol-agnostic discrete-event core
  (total event order, per-process RNG streams, digest-bearing trace);
* :mod:`repro.net.population` — structure-of-arrays per-tag state;
* :mod:`repro.net.link_model` — vectorised per-slot frame-success
  probabilities from the link budget;
* :mod:`repro.net.mac` — the AP MAC modes (slotted ALOHA, Q-algorithm
  inventory, FDMA groups) plus churn and blockage processes;
* :mod:`repro.net.sim` — :func:`~repro.net.sim.run_netsim`: config in,
  byte-reproducible :class:`~repro.net.sim.NetSimReport` out;
* :mod:`repro.net.deployment` — metro-scale multi-AP grids with
  roaming, hysteresis handoff and tag-to-tag relaying
  (:func:`~repro.net.deployment.run_multi_ap`);
* :mod:`repro.net.task` — the :class:`~repro.net.task.NetSimTask` /
  :class:`~repro.net.task.MultiAPTask` adapters that run populations
  of simulations under :class:`~repro.sim.executor.SweepExecutor`;
* :mod:`repro.net.scenario` — the scenario zoo: pluggable backoff
  strategies, mobile-reader trajectories and Van Atta AoA/range
  sensing (:func:`~repro.net.scenario.mobile.run_mobile_reader`,
  :func:`~repro.net.scenario.shootout.run_shootout`).
"""

from repro.net.deployment import (
    MULTI_AP_REPORT_SCHEMA,
    Deployment,
    MetroTagPopulation,
    MultiAPConfig,
    MultiAPReport,
    run_multi_ap,
)
from repro.net.engine import (
    EventHandle,
    EventTrace,
    Process,
    Simulator,
    TraceEvent,
    TraceHeader,
    TraceReadError,
    TraceReader,
)
from repro.net.link_model import LinkBudgetModel, SpotCheck
from repro.net.mac import (
    BlockageProcess,
    ChurnProcess,
    FdmaMac,
    MacProcess,
    QInventoryMac,
    SlottedAlohaMac,
    SpotCheckProcess,
)
from repro.net.population import TagPopulation, jain_fairness
from repro.net.sim import (
    NETSIM_REPORT_SCHEMA,
    PROTOCOLS,
    NetSimConfig,
    NetSimReport,
    run_netsim,
)
from repro.net.task import MultiAPTask, NetSimTask

# Scenario zoo last: it builds on sim/deployment/task above.
from repro.net.scenario import (
    BackoffStrategy,
    MobileReaderConfig,
    MobileReaderReport,
    SCENARIO_REPORT_SCHEMA,
    SensingSummary,
    ShootoutReport,
    ShootoutTask,
    from_name,
    run_mobile_reader,
    run_shootout,
    strategy_names,
)

__all__ = [
    "MULTI_AP_REPORT_SCHEMA",
    "Deployment",
    "MetroTagPopulation",
    "MultiAPConfig",
    "MultiAPReport",
    "run_multi_ap",
    "EventHandle",
    "EventTrace",
    "Process",
    "Simulator",
    "TraceEvent",
    "TraceHeader",
    "TraceReadError",
    "TraceReader",
    "LinkBudgetModel",
    "SpotCheck",
    "BlockageProcess",
    "ChurnProcess",
    "FdmaMac",
    "MacProcess",
    "QInventoryMac",
    "SlottedAlohaMac",
    "SpotCheckProcess",
    "TagPopulation",
    "jain_fairness",
    "NETSIM_REPORT_SCHEMA",
    "PROTOCOLS",
    "NetSimConfig",
    "NetSimReport",
    "run_netsim",
    "MultiAPTask",
    "NetSimTask",
    "BackoffStrategy",
    "MobileReaderConfig",
    "MobileReaderReport",
    "SCENARIO_REPORT_SCHEMA",
    "SensingSummary",
    "ShootoutReport",
    "ShootoutTask",
    "from_name",
    "run_mobile_reader",
    "run_shootout",
    "strategy_names",
]
