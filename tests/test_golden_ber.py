"""Golden regression tests: pin the BER numerics against drift.

Two layers of protection:

* **Theory agreement** — :func:`awgn_symbol_ber` must agree with
  :meth:`ModulationScheme.theoretical_ber` at three SNR points per
  scheme, judged by a Wilson score interval (z = 3.9, ~1e-4 two-sided)
  around the measured count.  16QAM's closed form is a union *bound*,
  so there the bound must sit above the Wilson lower edge (and within
  a decade) rather than inside the interval.
* **Frozen fingerprints** — exact, bit-for-bit values of
  ``estimate_link_ber(seed=0)`` on the office link and of one AWGN
  waterfall point.  Any change to the waveform chain, the RNG
  consumption order, or the estimator loop fails these immediately —
  silent numerics drift cannot pass CI.

If a fingerprint fails after an *intentional* physics change, re-run
the printed expression and update the constant in the same commit.
"""

from __future__ import annotations

import pytest

from repro.channel.blockage import BlockageEvent
from repro.channel.environment import Environment
from repro.core.link import LinkConfig
from repro.core.modulation import available_schemes, get_scheme
from repro.sim.monte_carlo import BerEstimate, awgn_symbol_ber, estimate_link_ber

#: Bits per AWGN measurement (keeps each point < 100 ms).
_NUM_BITS = 60_000
_SEED = 123
#: Wilson z: ~4-sigma two-sided — roomy but still catches real drift.
_Z = 3.9

#: (scheme, [snr_db x3], mode) — "exact" closed forms must land inside
#: the Wilson interval; "bound" (union-bound) forms must upper-bound it.
_GOLDEN_POINTS = [
    ("OOK", (4.0, 6.0, 8.0), "exact"),
    ("BPSK", (4.0, 6.0, 8.0), "exact"),
    ("QPSK", (4.0, 6.0, 8.0), "exact"),
    ("8PSK", (8.0, 10.0, 12.0), "exact"),
    ("16QAM", (10.0, 12.0, 14.0), "bound"),
]


def _wilson_interval(measured_ber: float, num_bits: int) -> tuple[float, float]:
    estimate = BerEstimate(
        bit_errors=round(measured_ber * num_bits),
        bits_tested=num_bits,
        frames=1,
        frames_detected=1,
    )
    return estimate.confidence_interval(z=_Z)


class TestTheoryAgreement:
    def test_every_scheme_has_golden_points(self):
        assert sorted(name for name, _, _ in _GOLDEN_POINTS) == sorted(
            available_schemes()
        )

    @pytest.mark.parametrize(
        "name,snr_points,mode",
        _GOLDEN_POINTS,
        ids=[name for name, _, _ in _GOLDEN_POINTS],
    )
    def test_measured_matches_theory_within_wilson_ci(self, name, snr_points, mode):
        scheme = get_scheme(name)
        for snr_db in snr_points:
            theory = scheme.theoretical_ber(snr_db)
            measured = awgn_symbol_ber(scheme, snr_db, num_bits=_NUM_BITS, seed=_SEED)
            low, high = _wilson_interval(measured, _NUM_BITS)
            if mode == "exact":
                assert low <= theory <= high, (
                    f"{name}@{snr_db}dB: theory {theory:.3e} outside "
                    f"Wilson[{low:.3e}, {high:.3e}] around measured {measured:.3e}"
                )
            else:  # union bound: theory upper-bounds truth, within a decade
                assert theory >= low, (
                    f"{name}@{snr_db}dB: bound {theory:.3e} below Wilson "
                    f"lower edge {low:.3e} of measured {measured:.3e}"
                )
                assert measured >= theory / 10.0, (
                    f"{name}@{snr_db}dB: bound {theory:.3e} more than a decade "
                    f"above measured {measured:.3e}"
                )


class TestFrozenFingerprints:
    """Exact values pinned at seed 0 — any numerics drift fails here."""

    @pytest.mark.parametrize("backend", ["serial", "fused"])
    def test_office_link_noisy_point_fingerprint(self, backend):
        """Full waveform chain at 13 m (non-zero errors: drift-sensitive).

        Runs under the serial reference AND the whole-budget fused
        program — both are contracted bit-identical, so they share one
        frozen fingerprint.
        """
        config = LinkConfig(distance_m=13.0, environment=Environment.typical_office())
        estimate = estimate_link_ber(
            config,
            target_errors=50,
            max_bits=24_576,
            bits_per_frame=2048,
            seed=0,
            backend=backend,
        )
        assert estimate == BerEstimate(
            bit_errors=18,
            bits_tested=24_576,
            frames=12,
            frames_detected=12,
            target_errors=50,
        ), f"office-link fingerprint drifted: {estimate}"

    def test_office_link_clean_point_fingerprint(self):
        """The paper's headline operating point (4 m) decodes error-free."""
        config = LinkConfig(distance_m=4.0, environment=Environment.typical_office())
        estimate = estimate_link_ber(
            config, target_errors=50, max_bits=8_192, bits_per_frame=2048, seed=0
        )
        assert estimate == BerEstimate(
            bit_errors=0,
            bits_tested=8_192,
            frames=4,
            frames_detected=4,
            target_errors=50,
        ), f"clean-link fingerprint drifted: {estimate}"

    @pytest.mark.parametrize("backend", ["serial", "fused"])
    def test_rician_link_fingerprint(self, backend):
        """Rician fading at 8 m: pins the per-frame channel-draw RNG order.

        Runs under **both bit-exact backends** — the fused
        stochastic-channel kernels must reproduce the serial chain bit
        for bit (there is no serial fallback for fading configs).
        """
        config = LinkConfig(
            distance_m=8.0,
            rician_k_db=6.0,
            environment=Environment.typical_office(),
        )
        estimate = estimate_link_ber(
            config,
            target_errors=50,
            max_bits=24_576,
            bits_per_frame=2048,
            seed=0,
            backend=backend,
        )
        assert estimate == BerEstimate(
            bit_errors=30,
            bits_tested=24_576,
            frames=12,
            frames_detected=12,
            target_errors=50,
        ), f"rician fingerprint drifted ({backend}): {estimate}"

    @pytest.mark.parametrize("backend", ["serial", "fused"])
    def test_blockage_link_fingerprint(self, backend):
        """Blockage window at the 4 m point: pins the gain-vector stage."""
        config = LinkConfig(
            distance_m=4.0,
            environment=Environment.typical_office(),
            blockage_events=(BlockageEvent(0.2e-4, 0.6e-4, 10.0),),
        )
        estimate = estimate_link_ber(
            config,
            target_errors=50,
            max_bits=24_576,
            bits_per_frame=2048,
            seed=0,
            backend=backend,
        )
        assert estimate == BerEstimate(
            bit_errors=1,
            bits_tested=24_576,
            frames=12,
            frames_detected=12,
            target_errors=50,
        ), f"blockage fingerprint drifted ({backend}): {estimate}"

    def test_awgn_waterfall_point_fingerprint(self):
        measured = awgn_symbol_ber(get_scheme("QPSK"), 8.0, num_bits=20_000, seed=0)
        assert measured == pytest.approx(0.00575, abs=0.0), (
            f"AWGN fingerprint drifted: {measured!r}"
        )


class TestBerEstimateContract:
    """The satellite fixes: z validation and the is_converged flag."""

    @pytest.mark.parametrize("z", [0.0, -1.96, float("nan"), float("inf")])
    def test_confidence_interval_rejects_bad_z(self, z):
        estimate = BerEstimate(bit_errors=5, bits_tested=1_000, frames=1, frames_detected=1)
        with pytest.raises(ValueError):
            estimate.confidence_interval(z=z)

    def test_nothing_tested_is_not_converged(self):
        estimate = BerEstimate(0, 0, 0, 0)
        assert estimate.ber == 0.0
        assert not estimate.is_converged

    def test_zero_errors_over_real_bits_differs_from_nothing_tested(self):
        tested = BerEstimate(0, 10_000, 5, 5, target_errors=None)
        untested = BerEstimate(0, 0, 0, 0, target_errors=None)
        assert tested.ber == untested.ber == 0.0
        assert tested.is_converged and not untested.is_converged

    def test_budget_exhausted_before_target_is_not_converged(self):
        estimate = BerEstimate(3, 10_000, 5, 5, target_errors=50)
        assert not estimate.is_converged

    def test_target_reached_is_converged(self):
        estimate = BerEstimate(50, 10_000, 5, 5, target_errors=50)
        assert estimate.is_converged

    def test_estimator_propagates_target(self):
        config = LinkConfig(distance_m=2.0)
        estimate = estimate_link_ber(
            config, target_errors=10, max_bits=4_096, bits_per_frame=2048
        )
        assert estimate.target_errors == 10
        # clean link, budget exhausted before 10 errors accumulate
        assert not estimate.is_converged
