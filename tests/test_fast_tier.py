"""Statistical acceptance suite for the compiled fast tier.

The ``"fast"`` backend (:class:`repro.sim.fastlink.FastLinkSimulator`)
is a documented *statistical* tier: complex64 chain, bulk RNG draws,
FFT sync, quantized Rician taps.  It is never byte-compared to the
bit-exact tiers — its contract is that the BER and detection
*statistics* agree, judged by the reusable helpers in
:mod:`tests.stat_equiv` (Wilson-CI overlap as the acceptance criterion,
the two-proportion z-test as a sharper cross-check).

The grid spans ≥3 SNR operating points × ≥3 modulation schemes, plus
the Rician fading path, so every fast-tier kernel (sync, demod, tap
synthesis) is exercised against the serial reference.  All seeds are
fixed, so these are deterministic regression tests, not flaky
statistics: the counts were verified to agree at generation time and
any code drift that shifts them outside the intervals is a real
behaviour change.
"""

from __future__ import annotations

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.environment import Environment
from repro.core.ap import APConfig
from repro.core.link import LinkConfig
from repro.core.tag import TagConfig
from repro.sim.batch import BatchLinkSimulator
from repro.sim.fastlink import FastLinkSimulator
from repro.sim.monte_carlo import estimate_link_ber
from tests.stat_equiv import proportions_differ, wilson_ci_overlap

_OFFICE = Environment.typical_office()
#: 32 frames per point: the per-frame interference/phase-noise states
#: are i.i.d. but *different draws* across tiers (bulk vs serial RNG
#: order), so tiny budgets can legitimately land non-overlapping CIs on
#: a steep waterfall; 32 frames keeps that sampling noise inside the
#: intervals while the whole grid stays a few seconds.
_MAX_BITS = 65_536
_FRAME_BITS = 2048

#: scheme -> three operating distances (m) bracketing its BER waterfall
#: on the office link: clean-ish, transitional, deep.
_GRID = {
    "QPSK": (12.0, 13.0, 14.0),
    "16QAM": (8.0, 9.0, 10.0),
    "OOK": (10.0, 11.0, 12.0),
}


def _counts(config, backend):
    estimate = estimate_link_ber(
        config,
        target_errors=10_000,  # never converges early: fixed bit budget
        max_bits=_MAX_BITS,
        bits_per_frame=_FRAME_BITS,
        seed=0,
        backend=backend,
    )
    return estimate


def _config(scheme, distance, **overrides):
    return LinkConfig(
        distance_m=distance,
        tag=TagConfig(modulation=scheme),
        environment=_OFFICE,
        **overrides,
    )


class TestStatisticalAgreement:
    @pytest.mark.parametrize(
        "scheme,distance",
        [(s, d) for s, ds in _GRID.items() for d in ds],
        ids=[f"{s}-{d}m" for s, ds in _GRID.items() for d in ds],
    )
    def test_ber_wilson_ci_overlap(self, scheme, distance):
        config = _config(scheme, distance)
        serial = _counts(config, "serial")
        fast = _counts(config, "fast")
        assert fast.bits_tested > 0, "fast tier detected nothing"
        assert wilson_ci_overlap(
            serial.bit_errors, serial.bits_tested,
            fast.bit_errors, fast.bits_tested,
        ), (
            f"{scheme}@{distance}m: serial "
            f"{serial.bit_errors}/{serial.bits_tested} vs fast "
            f"{fast.bit_errors}/{fast.bits_tested} CIs do not overlap"
        )
        assert not proportions_differ(
            serial.bit_errors, serial.bits_tested,
            fast.bit_errors, fast.bits_tested,
        )
        assert not proportions_differ(
            serial.frames_detected, serial.frames,
            fast.frames_detected, fast.frames,
        )

    def test_rician_fading_agrees_at_frame_granularity(self):
        """Quantized-tap synthesis must not shift the fading error rate.

        Under Rician fading, bit errors arrive in frame bursts whose
        severity is heavy-tailed (a deep fade yields a ~50%-BER frame of
        ~1000 errors; most frames are clean), so bit-level Wilson CIs
        wildly understate the sampling variance — the honest Bernoulli
        unit is the *frame*.  Compare frame-error proportions over a
        few hundred independent channel draws instead.
        """
        config = _config("QPSK", 8.5, rician_k_db=6.0)
        num_frames = 256
        exact = BatchLinkSimulator(config, num_payload_bits=_FRAME_BITS)
        fast = FastLinkSimulator(config, num_payload_bits=_FRAME_BITS)
        errors_exact, detected_exact = exact._score_frames(
            num_frames, np.random.default_rng(3)
        )
        errors_fast, detected_fast = fast._score_frames(
            num_frames, np.random.default_rng(3)
        )
        fer_exact = int(np.count_nonzero(errors_exact))
        fer_fast = int(np.count_nonzero(errors_fast))
        assert wilson_ci_overlap(fer_exact, num_frames, fer_fast, num_frames)
        assert not proportions_differ(
            fer_exact, num_frames, fer_fast, num_frames
        )
        assert not proportions_differ(
            int(detected_exact.sum()), num_frames,
            int(detected_fast.sum()), num_frames,
        )

    def test_deep_point_detection_collapses_on_both(self):
        """Far past the cliff both tiers must report mostly-missed frames."""
        config = _config("QPSK", 25.0)
        serial = _counts(config, "serial")
        fast = _counts(config, "fast")
        assert not proportions_differ(
            serial.frames_detected, serial.frames,
            fast.frames_detected, fast.frames,
        )


class TestTierMechanics:
    def test_equalizer_config_delegates_to_exact_tail(self):
        """Equalized links fall back to the bit-exact fused pass.

        The LMS equalizer is inherently sequential, so the fast tier
        delegates those configs wholesale — byte identity with the
        parent batch simulator is the contract there, not statistics.
        """
        config = _config("QPSK", 13.0, ap=APConfig(equalizer_taps=5))
        fast = FastLinkSimulator(config, num_payload_bits=_FRAME_BITS)
        exact = BatchLinkSimulator(config, num_payload_bits=_FRAME_BITS)
        assert fast._f_exact_tail
        errors_a, detected_a = fast._score_frames(
            4, np.random.default_rng(9)
        )
        errors_b, detected_b = exact._score_frames(
            4, np.random.default_rng(9)
        )
        assert np.array_equal(errors_a, errors_b)
        assert np.array_equal(detected_a, detected_b)

    def test_numba_absent_fallback_is_logged_not_silent(self, caplog):
        """The documented contract: degraded tiers announce themselves."""
        from repro.sim import jit

        if jit.HAVE_NUMBA:
            pytest.skip("numba present: no fallback to log")
        # The notice fires once per feature per process; clear the guard
        # so this test observes it regardless of suite ordering.
        jit._FALLBACKS_NOTIFIED.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.jit"):
            _counts(_config("QPSK", 13.0), "fast")
        messages = [r.getMessage() for r in caplog.records]
        assert any("pure-numpy fallback" in m for m in messages), messages
        # ...and only once per feature even across repeated runs.
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro.sim.jit"):
            _counts(_config("QPSK", 13.0), "fast")
        assert not [
            r for r in caplog.records if "pure-numpy fallback" in r.getMessage()
        ]

    def test_fast_never_shares_cache_entries_with_exact_tiers(self):
        """Belt-and-braces on top of the executor-level keyspace test."""
        from repro.sim.executor import BerSweepTask

        task = BerSweepTask(config=_config("QPSK", 13.0))
        exact_parts = task.cache_parts()
        fast_parts = replace(task, link_backend="fast").cache_parts()
        assert exact_parts["task"].link_backend == "serial"
        assert fast_parts["task"].link_backend == "fast"
        assert exact_parts != fast_parts
