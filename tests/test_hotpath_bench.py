"""Loose speed assertions on the vectorized hot-path kernels.

The point is regression *detection*, not precise benchmarking: if a
future change quietly reroutes the vectorized Viterbi or the batched
frame-chain TX kernel back through the Python reference loops, the
measured speedup collapses from >20x to ~1x and these asserts catch it.
Thresholds sit far below the typically measured ratios (see
``BENCH_hotpaths.json``) so scheduler noise cannot flake the suite, and
the whole module can be skipped on constrained runners via
``REPRO_SKIP_BENCH=1``.
"""

from __future__ import annotations

import os

import pytest

from repro.sim.profiling import run_hotpath_benchmarks

pytestmark = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_BENCH") == "1",
    reason="REPRO_SKIP_BENCH=1: constrained runner, skipping timing asserts",
)


@pytest.fixture(scope="module")
def report():
    return run_hotpath_benchmarks(quick=True)


def test_all_kernels_present(report):
    names = set(report.by_name())
    assert {
        "viterbi_decode",
        "frame_chain_tx",
        "link_end_to_end",
        "multipath_apply",
        "link_rician_end_to_end",
        "link_end_to_end_fused",
        "link_rician_end_to_end_fused",
        "link_fast_tier",
        "sweep_adaptive_vs_uniform",
        "netsim_event_engine",
        "vanatta_pattern",
    } <= names


def test_viterbi_vectorized_at_least_5x(report):
    bench = report.by_name()["viterbi_decode"]
    # typically >20x; 5x is the acceptance floor
    assert bench.speedup >= 5.0, f"viterbi speedup collapsed: {bench.speedup:.1f}x"


def test_frame_chain_tx_at_least_5x(report):
    bench = report.by_name()["frame_chain_tx"]
    # typically >40x; 5x is the acceptance floor
    assert bench.speedup >= 5.0, f"frame TX speedup collapsed: {bench.speedup:.1f}x"


def test_netsim_sharded_coordination_overhead_bounded(report):
    bench = report.by_name()["netsim_event_engine"]
    # single-process sharding trades plan+replay overhead against the
    # hot-path savings and lands near 0.7x; 0.3x is the floor that
    # catches a coordination-overhead blowup without flaking on noise
    assert bench.speedup >= 0.3, (
        f"sharded engine overhead blew up: {bench.speedup:.2f}x"
    )


def test_vanatta_broadcast_faster(report):
    bench = report.by_name()["vanatta_pattern"]
    # typically >60x; assert well under that
    assert bench.speedup >= 5.0, f"vanatta speedup collapsed: {bench.speedup:.1f}x"


def test_link_end_to_end_not_slower(report):
    bench = report.by_name()["link_end_to_end"]
    # Amdahl-bounded by shared bit-exact per-frame stages; just require
    # the batch never LOSES to the reference.
    assert bench.speedup >= 1.0, f"batched chain slower: {bench.speedup:.1f}x"


def test_multipath_apply_faster(report):
    bench = report.by_name()["multipath_apply"]
    # The per-shape delay plan (exp phase ramps hoisted out of the
    # per-call path) raised this kernel from ~1.2x to ~1.4x; the floor
    # moves up with it.  1.1x sits below quick-mode noise but catches a
    # regression back to per-call ramp rebuilds.
    assert bench.speedup >= 1.1, f"multipath apply barely faster: {bench.speedup:.1f}x"


def test_link_end_to_end_fused_not_slower(report):
    bench = report.by_name()["link_end_to_end_fused"]
    # Whole-budget fused execution is bit-exactness-bounded like the
    # chunked batch (same per-frame kernels, same RNG order); its win
    # over the *serial* loop is typically ~2.5x.  The floor only
    # guards against the fused path regressing below the serial chain.
    assert bench.speedup >= 1.2, f"fused chain slower: {bench.speedup:.1f}x"


def test_link_rician_end_to_end_fused_not_slower(report):
    bench = report.by_name()["link_rician_end_to_end_fused"]
    # Fading variant of the fused whole-budget path; typically ~1.6-1.9x
    # over serial (bit-exactness-bounded: identical FFT delay operator
    # per frame on both sides).
    assert bench.speedup >= 1.1, f"fused fading chain slower: {bench.speedup:.1f}x"


def test_link_fast_tier_at_least_2x(report):
    bench = report.by_name()["link_fast_tier"]
    # The statistical tier drops bit-exactness (complex64 chain, FFT
    # sync, quantized Rician taps) and typically lands 5.5-6.7x over the
    # serial reference even without numba; 2.5x is the acceptance floor
    # that catches the tier silently rerouting through the exact chain.
    assert bench.speedup >= 2.5, f"fast tier collapsed: {bench.speedup:.1f}x"


def test_link_rician_end_to_end_batches_faster(report):
    bench = report.by_name()["link_rician_end_to_end"]
    # The fading chain used to *fall back to the serial loop* (1.0x by
    # construction); the batched kernels typically land 1.5-2x on a
    # single CPU.  The ratio is bit-exactness-bounded — both sides pay
    # the identical FFT delay operator and phase ramps per frame — so
    # the floor sits at a loose 1.2x, well below typical, far above the
    # old fallback.
    assert bench.speedup >= 1.2, (
        f"fading chain no longer batches faster: {bench.speedup:.1f}x"
    )


def test_sweep_adaptive_vs_uniform_faster(report):
    bench = report.by_name()["sweep_adaptive_vs_uniform"]
    # Typically ~1.5-2x on a 1-CPU runner (vectorized backend +
    # simulator memoisation; the adaptive schedule's load-balancing win
    # needs multiple worker slots).  Floor at a loose 1.1x.
    assert bench.speedup >= 1.1, (
        f"adaptive+vectorized sweep not faster: {bench.speedup:.1f}x"
    )
