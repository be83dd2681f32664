"""The benchmark's five workloads.

Each workload sets up in its constructor (input generation and a
warm-up) and exposes ``op(index)``: one closed-loop unit of timed work
whose inputs derive from ``(seed, index)``.  An op returns the number
of items it processed — frames, sweep points, tag-slots or stream
records, counts the inputs fix, so no implementation change can move
them — the digest of its outputs and the output checks it failed.
``final_checks()`` runs the untimed checks after the timed loop.

Every workload runs on the serial executor: one process, one thread.
Callables the traced run wraps are resolved through their modules at
call time (``daemon.run_service``), so the wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math
import pickle
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

import repro.net.deployment as deployment
import repro.net.sim as netsim
import repro.serve.daemon as daemon
from repro.core.link import LinkConfig
from repro.net.engine import TraceReader
from repro.sim.cache import ResultCache
from repro.sim.executor import BerSweepTask, SweepExecutor
from repro.sim.faults import StreamFaultPlan, StreamFaultSpec

__all__ = ["WORKLOADS", "Op"]

#: Slotted ALOHA delivers at most 1/e frames per AP slot; finite runs
#: may fluctuate above it by a little.
ALOHA_CEILING = 1.1 / math.e


@dataclass
class Op:
    """The outcome of one timed op."""

    items: int
    digest: str
    failures: list[str] = field(default_factory=list)


def op_seed(seed: int, index: int) -> int:
    """The 32-bit seed of op ``index``'s inputs."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _digest(obj: object) -> str:
    return hashlib.sha256(pickle.dumps(obj, protocol=4)).hexdigest()


def _sweep(task: BerSweepTask, values, seed: int, directory: Path):
    """One serial sweep into a fresh cache and checkpoint under ``directory``."""
    executor = SweepExecutor("serial", cache=ResultCache(directory / "cache"))
    return executor.run(
        values, task, seed=seed, checkpoint=directory / f"{directory.name}.jsonl"
    )


def _fields(config, names: tuple[str, ...]) -> dict:
    return {name: getattr(config, name) for name in names}


def _aloha_check(delivered: int, ap_slots: int) -> list[str]:
    if ap_slots and delivered / ap_slots <= ALOHA_CEILING:
        return []
    return [f"{delivered} frames in {ap_slots} AP slots exceeds 1.1/e"]


class _Workload:
    """Set up in the constructor; ``op(index)`` is one timed op."""

    def final_checks(self) -> list[str]:
        """Untimed output checks after the timed loop."""
        return []


class BerWaterfall(_Workload):
    """12-point Rician QPSK BER-vs-distance sweep on the fused link chain.

    Every op sweeps the same 2-13 m grid with its own seed; the warm-up
    builds the grid's simulators, so ops time the frame chain and the
    executor.  The grid holds both budget-bound points (no errors, full
    bit budget) and error-bound points (early exit at
    ``target_errors``).
    """

    name = "ber_waterfall"
    item = "frames"
    GRID_M = np.linspace(2.0, 13.0, 12)
    TASK = BerSweepTask(
        LinkConfig(rician_k_db=6.0),
        target_errors=100,
        max_bits=50_000,
        link_backend="fused",
    )
    params = {
        "points": GRID_M.size,
        "distance_m": [float(GRID_M[0]), float(GRID_M[-1])],
        "rician_k_db": TASK.config.rician_k_db,
        "modulation": TASK.config.tag.modulation,
        "target_errors": TASK.target_errors,
        "max_bits": TASK.max_bits,
        "link_backend": TASK.link_backend,
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self._first = None
        # Warm-up: one frame per grid point, through the same executor,
        # cache and checkpoint path, which builds every simulator.
        one_frame = replace(self.TASK, max_bits=self.TASK.bits_per_frame)
        _sweep(one_frame, self.GRID_M, seed, workdir / "warmup")

    def op(self, index: int) -> Op:
        seed = op_seed(self.seed, index)
        report = _sweep(self.TASK, self.GRID_M, seed, self.workdir / f"op{index}")
        estimates = report.metrics
        failures = [record.describe() for record in report.failures]
        converged = {estimate.is_converged for estimate in estimates}
        if converged != {True, False}:
            failures.append("grid lacks a budget-bound or an error-bound point")
        if index == 0:
            self._first = (seed, estimates)
        return Op(sum(e.frames for e in estimates), _digest(estimates), failures)

    def final_checks(self) -> list[str]:
        """Re-run op 0's two cheapest error-bound points on the serial
        backend, the exactness oracle, and require equal estimates."""
        if self._first is None:
            return ["op 0 produced no output to check"]
        seed, estimates = self._first
        children = np.random.SeedSequence(seed).spawn(self.GRID_M.size)
        serial = replace(self.TASK, link_backend="serial")
        error_bound = sorted(
            (estimate.frames, i)
            for i, estimate in enumerate(estimates)
            if estimate.is_converged
        )[:2]
        return [
            f"point {self.GRID_M[i]:.3f} m: fused estimate differs from serial"
            for _frames, i in error_bound
            if serial.run(float(self.GRID_M[i]), children[i]) != estimates[i]
        ]


class SweepCached(_Workload):
    """150-point one-frame sweep, cold into an empty cache, then warm.

    Per-point fixed costs dominate: simulator build, key hashing,
    pickling, sha256 and the checkpoint fsync.  The cold pass writes
    the cache and the warm pass reads it back.
    """

    name = "sweep_cached"
    item = "points"
    POINTS = 150
    TASK = BerSweepTask(
        LinkConfig(), bits_per_frame=256, max_bits=256, link_backend="fused"
    )
    params = {
        "points_per_pass": POINTS,
        "distance_m": [1.0, 12.0],
        "modulation": TASK.config.tag.modulation,
        "bits_per_frame": TASK.bits_per_frame,
        "link_backend": TASK.link_backend,
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        warm_values = [1.5, 4.5, 8.5, 11.5]
        _sweep(self.TASK, warm_values, seed, workdir / "warmup")
        _sweep(self.TASK, warm_values, seed, workdir / "warmup")

    def op(self, index: int) -> Op:
        seed = op_seed(self.seed, index)
        values = np.random.default_rng(seed).uniform(1.0, 12.0, self.POINTS)
        cold = _sweep(self.TASK, values, seed, self.workdir / f"op{index}")
        warm = _sweep(self.TASK, values, seed, self.workdir / f"op{index}")
        failures = [record.describe() for record in cold.failures]
        if cold.cache_hits:
            failures.append(f"cold pass hit an empty cache {cold.cache_hits} times")
        if warm.cache_hits != self.POINTS:
            failures.append(f"warm pass hit {warm.cache_hits}/{self.POINTS}")
        if warm.metrics != cold.metrics:
            failures.append("warm results differ from cold results")
        return Op(2 * self.POINTS, _digest(cold.metrics), failures)


class Metro(_Workload):
    """The E21 metro determinism run: 100k tags under a 3x3 AP grid."""

    name = "metro"
    item = "tag-slots"
    CONFIG = deployment.MultiAPConfig(
        grid_rows=3,
        grid_cols=3,
        ap_spacing_m=8.0,
        num_tags=100_000,
        num_slots=1200,
        mobile_fraction=0.02,
        epoch_slots=200,
        time_warp=500.0,
    )
    params = _fields(
        CONFIG,
        ("grid_rows", "grid_cols", "ap_spacing_m", "num_tags", "num_slots",
         "mobile_fraction", "epoch_slots", "time_warp"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        deployment.run_multi_ap(
            replace(self.CONFIG, num_tags=2000, num_slots=400), seed=seed
        )

    def op(self, index: int) -> Op:
        report = deployment.run_multi_ap(
            self.CONFIG, seed=op_seed(self.seed, index)
        )
        return Op(
            self.CONFIG.num_tags * report.slots_run,
            _digest(report),
            _aloha_check(report.frames_delivered, report.ap_slots),
        )


class NetsimChurn(_Workload):
    """The E23 producer: 2000 tags, persistent ALOHA, Poisson churn."""

    name = "netsim_churn"
    item = "tag-slots"
    CONFIG = netsim.NetSimConfig(
        num_tags=2000,
        num_slots=30_000,
        protocol="aloha",
        persistent=True,
        arrival_rate_hz=2000.0,
        mean_dwell_s=0.05,
        stop_when_drained=False,
    )
    params = _fields(
        CONFIG,
        ("num_tags", "num_slots", "protocol", "persistent", "arrival_rate_hz",
         "mean_dwell_s"),
    )

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        netsim.run_netsim(replace(self.CONFIG, num_slots=2000), seed=seed)

    def op(self, index: int) -> Op:
        report = netsim.run_netsim(self.CONFIG, seed=op_seed(self.seed, index))
        return Op(
            self.CONFIG.num_tags * report.slots_run,
            _digest(report),
            _aloha_check(report.frames_delivered, report.slots_run),
        )


class ServeReplay(_Workload):
    """The four E23 scenarios replaying one netsim_churn trace.

    Shed-oldest at 5x overload, block at 5x, block with an LRU cap of
    tags/4 and a 0.5 s TTL, and shed-oldest under the E23 stream-fault
    plan, each ending in a checkpoint.  Every op replays the same
    trace, so every op must produce the same outputs.
    """

    name = "serve_replay"
    item = "records"
    TRACE = replace(NetsimChurn.CONFIG, num_slots=20_000, trace_capacity=20_000)
    OVERLOAD = 5.0
    DEPTH = 64
    params = {
        "trace_slots": TRACE.num_slots,
        "overload": OVERLOAD,
        "queue_depth": DEPTH,
        "scenarios": ["shed-oldest", "block", "block-capped", "chaos"],
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        trace = workdir / "trace.jsonl"
        netsim.run_netsim(self.TRACE, seed=seed, trace_path=trace)
        reads = [event.time_s for event in TraceReader(trace) if event.kind == "read"]
        offered_hz = len(reads) / (max(reads) - min(reads))
        base = daemon.ServeConfig(
            trace_path=str(trace),
            status_interval_s=1e9,
            queue_depth=self.DEPTH,
            service_rate_hz=offered_hz / self.OVERLOAD,
        )
        # Warm-up: the overload scenario, whose final clock places the
        # chaos burst at mid-stream as E23 does.
        mid_s = daemon.run_service(base).clock_s / 2
        plan = StreamFaultPlan(
            specs=(
                StreamFaultSpec(
                    kind="flood", at_s=mid_s, events=int(self.DEPTH * self.OVERLOAD * 4)
                ),
                StreamFaultSpec(
                    kind="malformed", at_s=0.0, duration_s=mid_s, probability=0.02
                ),
                StreamFaultSpec(
                    kind="slow", at_s=mid_s, duration_s=mid_s / 4, factor=2.0
                ),
            ),
            seed=seed,
        )
        cap = max(16, self.TRACE.num_tags // 4)
        scenarios = (
            ("shed-oldest", base, None),
            ("block", replace(base, policy="block"), None),
            ("block-capped", replace(base, policy="block", max_tags=cap, ttl_s=0.5), None),
            ("chaos", base, plan),
        )
        self.scenarios = tuple(
            (name, replace(config, checkpoint_path=str(workdir / f"{name}.ckpt")), faults)
            for name, config, faults in scenarios
        )
        self._first_digest = None

    @staticmethod
    def _invariants(config, report) -> list[str]:
        c = report.counters
        failures = []
        shed = c["shed_oldest"] + c["shed_newest"]
        if c["events_out"] + shed + c["duplicates"] + c["rate_limited"] != c["events_in"]:
            failures.append("out + shed != in")
        if c["queue_high_watermark"] > config.queue_depth:
            failures.append("queue above its depth")
        if config.policy == "block" and c["events_out"] != c["events_in"]:
            failures.append("block policy lost events")
        if report.inventory_stats["tracked_watermark"] > config.max_tags:
            failures.append("inventory tracked more tags than its cap")
        if not report.drained:
            failures.append("queue not drained")
        return failures

    def op(self, index: int) -> Op:
        items = 0
        outputs = []
        failures = []
        for name, config, faults in self.scenarios:
            report = daemon.run_service(config, fault_plan=faults)
            items += report.counters["events_in"] + report.counters["dead_letter"]
            failures += [f"{name}: {f}" for f in self._invariants(config, report)]
            outputs.append(
                (report.clock_s, report.drained, report.counters,
                 report.state_sha256, report.inventory_stats)
            )
        digest = _digest(outputs)
        if self._first_digest is None:
            self._first_digest = digest
        elif digest != self._first_digest:
            failures.append("outputs differ from op 0's on the same input")
        return Op(items, digest, failures)


WORKLOADS = {
    cls.name: cls
    for cls in (BerWaterfall, SweepCached, Metro, NetsimChurn, ServeReplay)
}
