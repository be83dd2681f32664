"""Simulation harness: Monte-Carlo BER engine, sweeps, tables, plots.

Everything the benchmarks and examples use to turn the core library
into the paper's tables and figures — plus the parallel, cached sweep
execution engine (:mod:`repro.sim.executor` / :mod:`repro.sim.cache`)
that drives production-scale campaigns without perturbing a single
number, its fault-tolerance layer (:mod:`repro.sim.retry` seeded
backoff, :mod:`repro.sim.checkpoint` JSONL resume, and the
:mod:`repro.sim.faults` chaos harness that proves every recovery
path), and the batched frame-chain kernel (:mod:`repro.sim.batch`) that
makes each point cheap.
"""

from repro.sim.monte_carlo import BerEstimate, estimate_link_ber, awgn_symbol_ber
from repro.sim.batch import BatchLinkSimulator
from repro.sim.sweep import sweep_1d, SweepPoint
from repro.sim.results import ResultTable
from repro.sim.plotting import ascii_plot, format_db
from repro.sim.cache import (
    CacheStats,
    CacheVerifyReport,
    ResultCache,
    code_version,
    stable_hash,
)
from repro.sim.checkpoint import CheckpointError, SweepCheckpoint
from repro.sim.retry import (
    RetryExhaustedError,
    RetryPolicy,
    backoff_rng,
    call_with_retry,
)
from repro.sim.faults import (
    BlockageFrameOracle,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    blockage_burst_plan,
    corrupt_file,
)
from repro.sim.executor import (
    BerSweepTask,
    FunctionTask,
    PointRecord,
    PointTimeoutError,
    SweepExecutor,
    SweepReport,
    SweepTask,
)

__all__ = [
    "BerEstimate",
    "estimate_link_ber",
    "awgn_symbol_ber",
    "BatchLinkSimulator",
    "sweep_1d",
    "SweepPoint",
    "ResultTable",
    "ascii_plot",
    "format_db",
    "CacheStats",
    "CacheVerifyReport",
    "ResultCache",
    "code_version",
    "stable_hash",
    "CheckpointError",
    "SweepCheckpoint",
    "RetryExhaustedError",
    "RetryPolicy",
    "backoff_rng",
    "call_with_retry",
    "BlockageFrameOracle",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "blockage_burst_plan",
    "corrupt_file",
    "BerSweepTask",
    "FunctionTask",
    "PointRecord",
    "PointTimeoutError",
    "SweepExecutor",
    "SweepReport",
    "SweepTask",
]
