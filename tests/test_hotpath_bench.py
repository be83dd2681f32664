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

from tools.profile_hotpaths import run_hotpath_benchmarks

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
        "multipath_apply",
        "link_end_to_end_fused",
        "link_rician_end_to_end_fused",
        "link_fast_tier",
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


def test_vanatta_broadcast_faster(report):
    bench = report.by_name()["vanatta_pattern"]
    # typically >60x; assert well under that
    assert bench.speedup >= 5.0, f"vanatta speedup collapsed: {bench.speedup:.1f}x"


def test_multipath_apply_faster(report):
    bench = report.by_name()["multipath_apply"]
    # The per-shape delay plan (exp phase ramps hoisted out of the
    # per-call path) raised this kernel from ~1.2x to ~1.4x; the floor
    # moves up with it.  1.1x sits below quick-mode noise but catches a
    # regression back to per-call ramp rebuilds.
    assert bench.speedup >= 1.1, f"multipath apply barely faster: {bench.speedup:.1f}x"


def test_link_end_to_end_fused_not_slower(report):
    bench = report.by_name()["link_end_to_end_fused"]
    # Whole-budget fused execution is bit-exactness-bounded (same
    # per-frame RNG order as the serial loop); its win over the serial
    # loop is typically ~2.5x.  The floor only
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
