"""Hot-path microbenchmarks: reference loops vs vectorized kernels.

PR 2 vectorized three interpreter-bound hot paths — the Viterbi
decoder, the frame chain (TX synthesis + the batched link kernel) and
the Van Atta pattern sweep — while keeping the original loops as
bit-exact references.  This module times each pair on identical inputs
and reports the speedup, serving three callers:

* ``repro bench`` (the CLI table for humans),
* ``tools/profile_hotpaths.py`` (writes the ``BENCH_hotpaths.json``
  perf-trajectory file that CI uploads, so future perf PRs have a
  baseline to compare against),
* ``tests/test_hotpath_bench.py`` (loosely asserts the headline
  speedups so a regression to the Python loops cannot land silently).

Timing method: one untimed warm-up call (builds the cached trellis /
modulation tables and warms the allocator), then best-of-``repeats``
wall-clock via :func:`time.perf_counter`.  Workloads are sized so the
reference side runs long enough to dominate timer noise; ``--quick``
shrinks them to CI scale (ratios get noisier but stay meaningful).

The end-to-end link benchmark times :meth:`BatchLinkSimulator.simulate`
with the simulator prebuilt — matching how ``estimate_link_ber``'s
vectorized backend amortises construction across chunks.  Its speedup
is intentionally smaller than the per-kernel numbers: the batch shares
the reference's bit-exact per-frame costs (RNG draw order, preamble
correlation, decode tail), which Amdahl-bounds the whole chain.

PR 4 adds the stochastic-channel and scheduling entries:

* ``multipath_apply`` — :meth:`MultipathChannel.apply` with the cached
  tap grid and shared-FFT delay operator versus the original
  per-``Signal`` reference (kept as ``_apply_reference``);
* ``link_rician_end_to_end`` — the fading frame chain, which used to
  fall back to the serial loop and now batches.  Read its ratio with
  the bit-exactness constraint in mind: the FFT delay operator and the
  fractional-delay phase ramps are *shared* irreducible per-frame cost
  on both sides (no linearity shortcuts allowed — they change the
  floating-point sums), and the same PR's ``multipath_apply`` fix sped
  the reference side up too, so the honest ratio here is far below the
  interpreter-bound kernels above;
* ``sweep_adaptive_vs_uniform`` — a 12-point E3-style Rician waterfall
  through the sweep engine: the pre-PR posture (uniform schedule,
  serial link backend) versus this PR's (adaptive chunk rounds +
  vectorized fading kernels), bit-identical results either way.  On a
  single-CPU runner the adaptive schedule cannot shrink wall-clock on
  its own (it reallocates *worker slots*, and there is only one); the
  measured win is the vectorized backend plus simulator memoisation,
  and grows with worker count.

PR 9 adds the whole-budget and compiled-tier entries:

* ``link_end_to_end_fused`` / ``link_rician_end_to_end_fused`` — the
  serial per-frame loop versus one fused ``simulate_point`` call that
  takes the whole frame budget.  Still bit-exact, so still
  Amdahl-bounded: the per-frame RNG draw order, the 1-D sync
  correlation and the IIR/FIR filter passes are part of the bit-exact
  contract and cannot be reassociated — the fused ratio measures the
  per-chunk Python re-entry this PR removes, not a new asymptotic
  regime;
* ``link_fast_tier`` — the serial loop versus the statistical fast
  tier (:class:`repro.sim.fastlink.FastLinkSimulator`): single
  precision, bulk RNG, batched FFT sync, quantised Rician taps, with
  numba kernels when available and logged pure-numpy fallbacks when
  not.  This is where the order-of-magnitude ratio lives; acceptance
  is the Wilson-CI statistical-equivalence suite, not byte equality.
  The ``environment`` block of the trajectory JSON records whether
  numba was active (version or ``"absent"``) so ratios from different
  machines are comparable.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.channel.multipath import rician_channel
from repro.core.convolutional import K7_CODE
from repro.core.link import LinkConfig, simulate_link
from repro.core.tag import Tag
from repro.dsp.signal import Signal
from repro.em.vanatta import VanAttaArray
from repro.sim.batch import BatchLinkSimulator
from repro.sim.jit import numba_status

__all__ = [
    "KernelBench",
    "BenchReport",
    "run_hotpath_benchmarks",
    "write_trajectory",
    "load_trajectory_speedups",
    "check_regression",
    "compare_trajectories",
    "TRAJECTORY_SCHEMA_VERSION",
    "REGRESSION_FLOOR",
]

#: Bump when the JSON layout of ``BENCH_hotpaths.json`` changes.
TRAJECTORY_SCHEMA_VERSION = 1


def _best_of(fn: Callable[[], Any], repeats: int) -> float:
    """Best wall-clock of ``repeats`` timed calls (after one warm-up)."""
    fn()  # warm-up: populate lru_caches, fault pages, settle the allocator
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@dataclass(frozen=True)
class KernelBench:
    """One reference-vs-vectorized timing pair."""

    name: str
    description: str
    reference_s: float
    vectorized_s: float
    repeats: int
    params: dict = field(default_factory=dict)

    @property
    def speedup(self) -> float:
        """Reference time over vectorized time (>1 means faster)."""
        if self.vectorized_s <= 0.0:
            return float("inf")
        return self.reference_s / self.vectorized_s

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "reference_s": self.reference_s,
            "vectorized_s": self.vectorized_s,
            "speedup": round(self.speedup, 2),
            "repeats": self.repeats,
            "params": self.params,
        }


@dataclass(frozen=True)
class BenchReport:
    """A full microbenchmark run plus the environment it ran in."""

    benchmarks: tuple[KernelBench, ...]
    quick: bool
    generated: str

    def by_name(self) -> dict[str, KernelBench]:
        return {bench.name: bench for bench in self.benchmarks}

    def to_dict(self) -> dict:
        return {
            "schema": TRAJECTORY_SCHEMA_VERSION,
            "generated": self.generated,
            "quick": self.quick,
            "environment": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "numba": numba_status(),
                "machine": platform.machine(),
                "cpu_count": os.cpu_count(),
            },
            "benchmarks": [bench.to_dict() for bench in self.benchmarks],
        }


# -- individual kernels -------------------------------------------------------


def _bench_viterbi(quick: bool) -> KernelBench:
    """K=7 rate-1/2 Viterbi: nested state loop vs array-wide update."""
    num_bits = 300 if quick else 1500
    repeats = 2 if quick else 3
    rng = np.random.default_rng(7)
    message = rng.integers(0, 2, size=num_bits).astype(np.int8)
    coded = K7_CODE.encode(message)
    # flip a few bits so the decoder does real error-correction work
    flips = rng.choice(coded.size, size=max(1, coded.size // 200), replace=False)
    coded[flips] ^= 1

    reference_s = _best_of(
        lambda: K7_CODE.decode_hard(coded, backend="reference"), repeats
    )
    vectorized_s = _best_of(
        lambda: K7_CODE.decode_hard(coded, backend="vectorized"), repeats
    )
    return KernelBench(
        name="viterbi_decode",
        description="K=7 rate-1/2 hard-decision Viterbi decode",
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"message_bits": num_bits, "constraint_length": 7},
    )


def _bench_frame_tx(quick: bool) -> KernelBench:
    """Frame-chain TX synthesis: Tag loops vs CRC-table + LUT batch."""
    num_frames = 4 if quick else 12
    num_bits = 2048
    repeats = 2 if quick else 3
    config = LinkConfig()
    simulator = BatchLinkSimulator(config, num_payload_bits=num_bits)
    tag = Tag(config.tag)
    theta = config.incidence_angle_rad
    rng = np.random.default_rng(11)
    payload = rng.integers(0, 2, size=(num_frames, num_bits)).astype(np.int8)

    def reference() -> None:
        for f in range(num_frames):
            frame = tag.make_frame(payload[f])
            tag.reflection_sequence(frame, theta)

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(lambda: simulator.tx_reflections(payload), repeats)
    return KernelBench(
        name="frame_chain_tx",
        description="frame TX synthesis: bits -> CRC -> symbols -> reflections",
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"frames": num_frames, "payload_bits": num_bits, "modulation": "QPSK"},
    )


def _bench_link_end_to_end(quick: bool) -> KernelBench:
    """Whole link chain: per-frame simulate_link vs the batched kernel.

    The simulator is prebuilt (as the vectorized BER backend does);
    the speedup is Amdahl-bounded by the bit-exact per-frame stages the
    batch shares with the reference (RNG order, sync correlation,
    decode tail) — report it honestly rather than cherry-picking.
    """
    num_frames = 4 if quick else 10
    num_bits = 2048
    repeats = 1 if quick else 2
    config = LinkConfig()
    simulator = BatchLinkSimulator(config, num_payload_bits=num_bits)

    def reference() -> None:
        rng = np.random.default_rng(3)
        for _ in range(num_frames):
            simulate_link(config, num_payload_bits=num_bits, rng=rng)

    def vectorized() -> None:
        rng = np.random.default_rng(3)
        simulator.simulate(num_frames, rng)

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(vectorized, repeats)
    return KernelBench(
        name="link_end_to_end",
        description="full frame chain (modulate->channel->noise->demod), batched",
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"frames": num_frames, "payload_bits": num_bits},
    )


def _bench_multipath_apply(quick: bool) -> KernelBench:
    """MultipathChannel.apply: per-call tap rebuild + per-path FFTs vs
    the cached tap grid, shared forward FFTs, and the per-shape delay
    plan (whole/frac decomposition + exp phase ramps hoisted out of the
    per-call path — PR 9 raised this kernel from ~1.2x to ~1.4x by
    caching the plan on the instance).

    The "before" side is the original implementation, kept verbatim as
    ``_apply_reference``.
    """
    # the win is moderate (~1.4x), so quick mode needs more repeats than
    # the big-ratio kernels to keep measurement noise from straddling 1x
    num_calls = 10 if quick else 20
    num_samples = 8880  # one frame at 80 MHz, the hot-path length
    repeats = 4 if quick else 3
    rng = np.random.default_rng(17)
    channel = rician_channel(6.0, 4, 30e-9, rng)
    sig = Signal(
        rng.standard_normal(num_samples) + 1j * rng.standard_normal(num_samples),
        80e6,
    )

    def reference() -> None:
        for _ in range(num_calls):
            channel._apply_reference(sig)

    def vectorized() -> None:
        for _ in range(num_calls):
            channel.apply(sig)

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(vectorized, repeats)
    return KernelBench(
        name="multipath_apply",
        description=(
            "tapped-delay-line apply: per-call tap rebuild vs cached grid "
            "+ shared-FFT delay operator"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"calls": num_calls, "samples": num_samples, "paths": 5},
    )


def _bench_link_rician_end_to_end(quick: bool) -> KernelBench:
    """Fading frame chain: serial simulate_link loop vs the batched
    stochastic-channel kernels (the configs that used to hit the
    silent serial fallback).

    Honest-ratio caveat: both sides pay the same bit-exact FFT delay
    operator and fractional-delay phase ramps per frame (linearity
    shortcuts would change the floating-point sums), and the
    ``multipath_apply`` fix above sped the reference side up as well,
    so this ratio is structurally far below the interpreter-bound
    kernels — it measures the remaining per-frame Python overhead that
    batching can actually remove.
    """
    num_frames = 4 if quick else 10
    num_bits = 2048
    repeats = 1 if quick else 2
    config = LinkConfig(rician_k_db=6.0)
    simulator = BatchLinkSimulator(config, num_payload_bits=num_bits)

    def reference() -> None:
        rng = np.random.default_rng(3)
        for _ in range(num_frames):
            simulate_link(config, num_payload_bits=num_bits, rng=rng)

    def vectorized() -> None:
        rng = np.random.default_rng(3)
        simulator.simulate(num_frames, rng)

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(vectorized, repeats)
    return KernelBench(
        name="link_rician_end_to_end",
        description=(
            "full fading frame chain (Rician K=6 dB), batched channel "
            "kernels vs per-frame loop; ratio is bit-exactness-bounded "
            "(shared FFT delay operator on both sides)"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"frames": num_frames, "payload_bits": num_bits, "rician_k_db": 6.0},
    )


def _bench_link_end_to_end_fused(quick: bool) -> KernelBench:
    """Whole-budget fused program vs the per-frame serial loop.

    One ``simulate_point`` call takes the entire frame budget (the
    ``backend="fused"`` estimator path) instead of re-entering Python
    per chunk.  Bit-exact, therefore Amdahl-bounded: the serial-order
    RNG pass, the per-row sync correlation and the IIR/FIR filter
    passes are contractually shared with the reference, so the honest
    ratio sits near the vectorized chain's — what the fused program
    buys is the frame-exact whole-budget stopping rule with *no*
    per-chunk re-entry, which is what the sweep executor runs.
    """
    num_frames = 4 if quick else 12
    num_bits = 2048
    repeats = 1 if quick else 2
    config = LinkConfig()
    simulator = BatchLinkSimulator(config, num_payload_bits=num_bits)

    def reference() -> None:
        rng = np.random.default_rng(3)
        for _ in range(num_frames):
            simulate_link(config, num_payload_bits=num_bits, rng=rng)

    def fused() -> None:
        rng = np.random.default_rng(3)
        simulator.simulate_point(
            rng, errors_needed=1 << 30, max_frames=num_frames
        )

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(fused, repeats)
    return KernelBench(
        name="link_end_to_end_fused",
        description=(
            "whole-budget fused sweep point (bit-exact, frame-exact early "
            "exit) vs per-frame serial loop; ratio is bit-exactness-bounded"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"frames": num_frames, "payload_bits": num_bits},
    )


def _bench_link_rician_end_to_end_fused(quick: bool) -> KernelBench:
    """Fused whole-budget program on the fading chain, same caveats."""
    num_frames = 4 if quick else 12
    num_bits = 2048
    repeats = 1 if quick else 2
    config = LinkConfig(rician_k_db=6.0)
    simulator = BatchLinkSimulator(config, num_payload_bits=num_bits)

    def reference() -> None:
        rng = np.random.default_rng(3)
        for _ in range(num_frames):
            simulate_link(config, num_payload_bits=num_bits, rng=rng)

    def fused() -> None:
        rng = np.random.default_rng(3)
        simulator.simulate_point(
            rng, errors_needed=1 << 30, max_frames=num_frames
        )

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(fused, repeats)
    return KernelBench(
        name="link_rician_end_to_end_fused",
        description=(
            "whole-budget fused fading sweep point (Rician K=6 dB) vs "
            "per-frame serial loop; bit-exactness-bounded ratio"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"frames": num_frames, "payload_bits": num_bits, "rician_k_db": 6.0},
    )


def _bench_link_fast_tier(quick: bool) -> KernelBench:
    """Statistical fast tier vs the per-frame serial loop.

    Not bit-exact (single precision, bulk RNG, FFT sync, quantised
    Rician taps) — equivalence is pinned statistically by
    ``tests/test_fast_tier.py``.  The trajectory JSON's environment
    block records whether numba compiled the inner kernels or the
    logged pure-numpy fallbacks ran.
    """
    from repro.sim.fastlink import FastLinkSimulator

    num_frames = 6 if quick else 16
    num_bits = 2048
    repeats = 1 if quick else 2
    config = LinkConfig(rician_k_db=6.0)
    simulator = FastLinkSimulator(config, num_payload_bits=num_bits)

    def reference() -> None:
        rng = np.random.default_rng(3)
        for _ in range(num_frames):
            simulate_link(config, num_payload_bits=num_bits, rng=rng)

    def fast() -> None:
        rng = np.random.default_rng(3)
        simulator.simulate_point(
            rng, errors_needed=1 << 30, max_frames=num_frames
        )

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(fast, repeats)
    return KernelBench(
        name="link_fast_tier",
        description=(
            "compiled/statistical fast tier (complex64, bulk RNG, FFT sync, "
            f"numba {numba_status()}) vs per-frame serial loop on the "
            "Rician chain; statistical-equivalence contract, not bit-exact"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={
            "frames": num_frames,
            "payload_bits": num_bits,
            "rician_k_db": 6.0,
            "numba": numba_status(),
        },
    )


def _bench_sweep_adaptive_vs_uniform(quick: bool) -> KernelBench:
    """12-point E3-style Rician waterfall through the sweep engine.

    Reference: the pre-PR posture — uniform schedule, serial link
    backend, chunk_frames=1.  Vectorized: this PR's posture — adaptive
    chunk rounds + vectorized fading kernels.  Results are
    bit-identical point for point (pinned by tests/test_sim_scheduler);
    only the wall-clock differs.  On a 1-CPU runner the adaptive
    schedule contributes load-balancing only when there are worker
    slots to rebalance, so the measured single-worker ratio is the
    vectorized-backend + simulator-memoisation share.
    """
    from repro.sim.executor import BerSweepTask, run_sweep

    num_points = 6 if quick else 12
    # _best_of already runs one untimed warm-up sweep; >= 2 timed
    # repeats keep the CI regression gate (floor 0.6x) from failing on
    # a single noisy run of this comparatively long benchmark.
    repeats = 2
    config = LinkConfig(rician_k_db=6.0)
    values = list(np.linspace(2.0, 13.0, num_points))
    common = dict(
        config=config,
        param="distance_m",
        target_errors=10,
        max_bits=8_192 if quick else 12_288,
        bits_per_frame=1024,
    )
    before = BerSweepTask(chunk_frames=1, link_backend="serial", **common)
    after = BerSweepTask(chunk_frames=8, link_backend="vectorized", **common)

    reference_s = _best_of(
        lambda: run_sweep(values, before, schedule="uniform", seed=0), repeats
    )
    vectorized_s = _best_of(
        lambda: run_sweep(values, after, schedule="adaptive", seed=0), repeats
    )
    return KernelBench(
        name="sweep_adaptive_vs_uniform",
        description=(
            f"{num_points}-point Rician waterfall sweep: uniform schedule + "
            "serial link backend vs adaptive rounds + vectorized kernels "
            "(bit-identical results; 1-CPU ratio excludes the multi-worker "
            "load-balancing win)"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={
            "points": num_points,
            "target_errors": 10,
            "chunk_frames_after": 8,
            "rician_k_db": 6.0,
        },
    )


def _bench_netsim_event_engine(quick: bool) -> KernelBench:
    """Metro MAC at scale: serial engine vs sharded plan/execute/replay.

    Both engines produce byte-identical reports (pinned by
    tests/test_net_shard.py); only the wall clock differs.  The sharded
    path runs here on a serial-backend coordinator — one process — so
    the measured ratio is (hot-path savings from the draw-free planner
    + O(records) replay) net of the coordination overhead, which lands
    near 0.7x.  The multi-core speedup from fanning the shard-epochs over
    a process pool is E22's claim, not this kernel's: a pool ratio on a
    1-CPU runner would measure fork overhead, not the engine.
    """
    from repro.net.deployment import MultiAPConfig, run_multi_ap
    from repro.net.shard import run_multi_ap_sharded
    from repro.sim.executor import SweepExecutor

    num_tags = 50_000 if quick else 200_000
    num_slots = 300 if quick else 800
    repeats = 2
    config = MultiAPConfig(
        num_tags=num_tags,
        num_slots=num_slots,
        epoch_slots=num_slots,
        grid_rows=3,
        grid_cols=3,
        ap_spacing_m=8.0,
    )

    reference_s = _best_of(lambda: run_multi_ap(config, seed=0), repeats)
    vectorized_s = _best_of(
        lambda: run_multi_ap_sharded(
            config, seed=0, shards=3, executor=SweepExecutor("serial")
        ),
        repeats,
    )
    events = run_multi_ap(config, seed=0).events_processed
    return KernelBench(
        name="netsim_event_engine",
        description=(
            f"{num_tags}-tag 3x3-AP metro MAC: serial engine vs sharded "
            "plan/execute/replay on a single-process coordinator "
            "(byte-identical output; multi-core pool speedup is E22)"
        ),
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={
            "num_tags": num_tags,
            "num_slots": num_slots,
            "shards": 3,
            "events_processed": events,
            "serial_events_per_s": round(events / reference_s, 1),
            "sharded_events_per_s": round(events / vectorized_s, 1),
        },
    )


def _bench_vanatta(quick: bool) -> KernelBench:
    """Van Atta monostatic pattern: per-angle loop vs broadcast grid."""
    num_angles = 361 if quick else 1441
    repeats = 2 if quick else 3
    array = VanAttaArray(num_pairs=8)
    grid = np.linspace(-np.pi / 2, np.pi / 2, num_angles)

    def reference() -> None:
        for theta in grid:
            array.monostatic_gain(float(theta))

    reference_s = _best_of(reference, repeats)
    vectorized_s = _best_of(lambda: array.monostatic_gain_pattern(grid), repeats)
    return KernelBench(
        name="vanatta_pattern",
        description="Van Atta monostatic gain across an incidence-angle grid",
        reference_s=reference_s,
        vectorized_s=vectorized_s,
        repeats=repeats,
        params={"angles": num_angles, "num_pairs": 8},
    )


_BENCHES = (
    _bench_viterbi,
    _bench_frame_tx,
    _bench_link_end_to_end,
    _bench_multipath_apply,
    _bench_link_rician_end_to_end,
    _bench_link_end_to_end_fused,
    _bench_link_rician_end_to_end_fused,
    _bench_link_fast_tier,
    _bench_sweep_adaptive_vs_uniform,
    _bench_netsim_event_engine,
    _bench_vanatta,
)


def run_hotpath_benchmarks(quick: bool = False) -> BenchReport:
    """Time every hot-path kernel pair; returns the full report."""
    generated = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    benches = tuple(bench(quick) for bench in _BENCHES)
    return BenchReport(benchmarks=benches, quick=quick, generated=generated)


def write_trajectory(report: BenchReport, path: str | os.PathLike) -> Path:
    """Write ``report`` as the ``BENCH_hotpaths.json`` trajectory file."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    return target


# -- regression gate ----------------------------------------------------------

#: A measured speedup below ``floor * recorded`` fails the CI gate.  The
#: 0.6 slack absorbs quick-mode noise and runner-to-runner variance
#: while still catching the failure mode that matters: a kernel quietly
#: rerouted back through its Python reference loop collapses to ~1x,
#: which is far below 0.6x of any recorded ratio.
REGRESSION_FLOOR = 0.6


def compare_trajectories(
    old_path: str | os.PathLike, new_path: str | os.PathLike
) -> list[tuple[str, str, str, str]]:
    """Per-kernel speedup deltas between two trajectory JSONs.

    Returns ``(kernel, old, new, delta)`` display rows for
    ``repro bench --compare OLD.json NEW.json`` — kernels present in
    only one file are flagged instead of silently dropped.
    """
    old = load_trajectory_speedups(old_path)
    new = load_trajectory_speedups(new_path)
    rows: list[tuple[str, str, str, str]] = []
    for name in sorted(set(old) | set(new)):
        recorded = old.get(name)
        measured = new.get(name)
        if recorded is None:
            rows.append((name, "-", f"{measured:.2f}x", "new kernel"))
        elif measured is None:
            rows.append((name, f"{recorded:.2f}x", "-", "removed"))
        else:
            sign = "+" if measured >= recorded else ""
            rows.append(
                (
                    name,
                    f"{recorded:.2f}x",
                    f"{measured:.2f}x",
                    f"{sign}{measured - recorded:.2f} ({measured / recorded:.2f}x)",
                )
            )
    return rows


def load_trajectory_speedups(path: str | os.PathLike) -> dict[str, float]:
    """The recorded ``{kernel: speedup}`` map of a trajectory file."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {
        bench["name"]: float(bench["speedup"])
        for bench in payload.get("benchmarks", [])
    }


def check_regression(
    report: BenchReport,
    baseline: str | os.PathLike | dict[str, float],
    floor: float = REGRESSION_FLOOR,
) -> list[str]:
    """Compare ``report`` against a committed trajectory baseline.

    Returns one human-readable failure line per kernel whose measured
    speedup fell below ``floor`` times its recorded value — and per
    baseline kernel missing from the run entirely (a silently dropped
    benchmark must not pass the gate).  An empty list means the gate
    passes.  Kernels present in the run but absent from the baseline
    are ignored (new benches land before their baseline is committed).
    """
    if not 0.0 < floor <= 1.0:
        raise ValueError(f"floor must be in (0, 1], got {floor}")
    recorded = (
        dict(baseline)
        if isinstance(baseline, dict)
        else load_trajectory_speedups(baseline)
    )
    measured = {name: bench.speedup for name, bench in report.by_name().items()}
    failures = []
    for name in sorted(recorded):
        if name not in measured:
            failures.append(
                f"{name}: recorded in the baseline but missing from this run"
            )
            continue
        threshold = floor * recorded[name]
        if measured[name] < threshold:
            failures.append(
                f"{name}: measured {measured[name]:.2f}x < {floor:.2f} * "
                f"recorded {recorded[name]:.2f}x (= {threshold:.2f}x)"
            )
    return failures
