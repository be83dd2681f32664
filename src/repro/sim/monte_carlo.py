"""Monte-Carlo bit-error-rate estimation.

Two paths:

* :func:`estimate_link_ber` drives the **full waveform chain**
  (:func:`repro.core.link.simulate_link`) frame by frame until enough
  errors accumulate — the honest but slower estimator used for the
  distance sweeps.
* :func:`awgn_symbol_ber` is the **fast symbol-level** estimator: it
  applies calibrated AWGN straight to constellation symbols, for the
  theory-validation waterfalls where the channel is ideal by design.

Both are deterministic given a seed.  ``estimate_link_ber`` also
accepts a :class:`numpy.random.SeedSequence`, which is how the sweep
executor (:mod:`repro.sim.executor`) hands each sweep point its own
independent, reproducible stream — and its result is **byte-identical
on both exact backends** (``serial`` and ``fused``), the property the
golden-fingerprint suite pins down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.link import LinkConfig, simulate_link
from repro.core.modulation import ModulationScheme

__all__ = [
    "BerEstimate",
    "LinkBerAccumulator",
    "estimate_link_ber",
    "awgn_symbol_ber",
    "LINK_BER_BACKENDS",
    "BIT_EXACT_BACKENDS",
]

#: Valid frame-chain backends for :func:`estimate_link_ber`.
#:
#: ``serial`` and ``fused`` are the **bit-exact tiers**: they return
#: byte-identical estimates for any seed (and therefore share
#: sweep-cache entries).  ``fast`` is
#: the **statistical tier**: a float32 fused program with bulk RNG
#: draws and optional numba kernels — same physics, different
#: floating-point sums — gated by the statistical-equivalence suite
#: rather than golden fingerprints, with its own cache keyspace.
LINK_BER_BACKENDS = ("serial", "fused", "fast")

#: The backends whose estimates are bit-identical to ``serial``.
BIT_EXACT_BACKENDS = ("serial", "fused")


def _check_budget(target_errors: int, max_bits: int, bits_per_frame: int) -> None:
    """Reject an estimator budget that cannot converge or make progress."""
    if target_errors < 1:
        raise ValueError(f"target_errors must be >= 1, got {target_errors}")
    if bits_per_frame < 1:
        raise ValueError(f"bits_per_frame must be >= 1, got {bits_per_frame}")
    if max_bits < bits_per_frame:
        raise ValueError(
            f"max_bits ({max_bits}) must cover one frame ({bits_per_frame} bits)"
        )


def _shared_simulator(config: LinkConfig, bits_per_frame: int, fast: bool = False):
    """A new batch simulator for one operating point.

    Construction is cheap after the first point of a range sweep: the
    simulator takes its distance-free state from the process-wide build
    memo in :mod:`repro.sim.batch` and computes only its range-dependent
    values itself.
    """
    if fast:
        from repro.sim.fastlink import FastLinkSimulator as simulator_cls
    else:
        from repro.sim.batch import BatchLinkSimulator as simulator_cls
    return simulator_cls(config, num_payload_bits=bits_per_frame)


@dataclass(frozen=True)
class BerEstimate:
    """A BER estimate with its statistical weight.

    ``target_errors`` (when known) records the convergence target the
    estimator was run with, so :attr:`is_converged` can distinguish an
    estimate that genuinely accumulated enough errors from one that ran
    out of bit budget — or tested nothing at all.
    """

    bit_errors: int
    bits_tested: int
    frames: int
    frames_detected: int
    target_errors: int | None = None

    @property
    def ber(self) -> float:
        """Point estimate (0.0 when nothing was tested).

        A ``0.0`` from ``bits_tested == 0`` carries no statistical
        weight — check :attr:`is_converged` (or ``bits_tested``) before
        trusting it.
        """
        if self.bits_tested == 0:
            return 0.0
        return self.bit_errors / self.bits_tested

    @property
    def is_converged(self) -> bool:
        """True when the estimate carries real statistical weight.

        ``False`` when nothing was tested, or when a known
        ``target_errors`` was not reached (the estimator hit its bit
        budget first — the point estimate is then only an upper-bound
        flavoured hint).  Distinguishes "measured zero errors over N
        bits" from "never simulated anything".
        """
        if self.bits_tested == 0:
            return False
        if self.target_errors is None:
            return True
        return self.bit_errors >= self.target_errors

    def wilson_upper_bound(self, z: float = 1.96) -> float:
        """Statistically honest BER for possibly-unconverged estimates.

        The raw :attr:`ber` of an estimate that stopped on the bit
        budget (or saw zero errors) understates the plausible error
        rate; the upper edge of the Wilson score interval is the number
        a range-cliff plot or link-budget margin should use instead.
        Returns 1.0 when nothing was tested.
        """
        return self.confidence_interval(z)[1]

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Wilson score interval for the BER.

        ``z`` is the standard-normal quantile (1.96 for 95%) and must
        be a positive finite number.
        """
        if not math.isfinite(z) or z <= 0.0:
            raise ValueError(f"z must be a positive finite quantile, got {z}")
        n = self.bits_tested
        if n == 0:
            return (0.0, 1.0)
        p = self.ber
        denominator = 1.0 + z * z / n
        centre = (p + z * z / (2 * n)) / denominator
        half_width = (
            z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denominator
        )
        return (max(0.0, centre - half_width), min(1.0, centre + half_width))


class LinkBerAccumulator:
    """BER-estimator state for one operating point.

    The accumulator owns the loop body of :func:`estimate_link_ber`:
    the RNG, the error/bit/frame counters and the frame-exact stopping
    rule.  One :meth:`advance` runs the whole budget, so
    ``estimate_link_ber`` is a thin driver around this class.
    """

    def __init__(
        self,
        config: LinkConfig,
        *,
        target_errors: int = 100,
        max_bits: int = 200_000,
        bits_per_frame: int = 2048,
        backend: str = "serial",
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        _check_budget(target_errors, max_bits, bits_per_frame)
        if backend not in LINK_BER_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {LINK_BER_BACKENDS}"
            )
        self.config = config
        self.target_errors = int(target_errors)
        self.max_bits = int(max_bits)
        self.bits_per_frame = int(bits_per_frame)
        self.backend = backend
        self.errors = 0
        self.bits = 0
        self.frames = 0
        self.detected = 0
        self._rng = np.random.default_rng(seed)

    @property
    def done(self) -> bool:
        """The estimator's stopping rule."""
        return self.errors >= self.target_errors or self.bits >= self.max_bits

    def advance(self) -> "LinkBerAccumulator":
        """Simulate the whole remaining budget (no-op once :attr:`done`);
        returns ``self``.

        ``serial`` runs :func:`~repro.core.link.simulate_link` frame by
        frame, checking the stopping rule before each frame.  ``fused``
        and ``fast`` hand the budget to one
        :meth:`~repro.sim.batch.BatchLinkSimulator.simulate_point` call,
        which applies the same rule frame-exactly inside the array
        program.  Either way the accumulator is :attr:`done` afterwards.
        """
        if self.done:
            return self
        if self.backend == "serial":
            while not self.done:
                result = simulate_link(
                    self.config, num_payload_bits=self.bits_per_frame, rng=self._rng
                )
                self.errors += result.bit_errors
                self.bits += result.num_payload_bits
                self.frames += 1
                if result.detected:
                    self.detected += 1
            return self
        simulator = _shared_simulator(
            self.config, self.bits_per_frame, fast=self.backend == "fast"
        )
        bits_per_scored_frame = simulator._padded_bits
        # Frames the serial loop would still admit under the bit
        # budget: the rule is checked *before* each frame, so the
        # frame that crosses max_bits is still simulated.
        max_frames = -((self.bits - self.max_bits) // bits_per_scored_frame)
        errors, detected = simulator.simulate_point(
            self._rng,
            errors_needed=self.target_errors - self.errors,
            max_frames=max_frames,
        )
        self.errors += int(errors.sum())
        self.bits += errors.size * bits_per_scored_frame
        self.frames += int(errors.size)
        self.detected += int(np.count_nonzero(detected))
        return self

    def estimate(self) -> BerEstimate:
        """The estimate accumulated so far."""
        return BerEstimate(
            bit_errors=self.errors,
            bits_tested=self.bits,
            frames=self.frames,
            frames_detected=self.detected,
            target_errors=self.target_errors,
        )


def estimate_link_ber(
    config: LinkConfig,
    target_errors: int = 100,
    max_bits: int = 200_000,
    bits_per_frame: int = 2048,
    seed: int | np.random.SeedSequence = 0,
    backend: str = "serial",
) -> BerEstimate:
    """Estimate the link BER by simulating frames until convergence.

    Stops when ``target_errors`` bit errors have been seen or
    ``max_bits`` bits have been tested, whichever comes first.

    Parameters
    ----------
    seed:
        Integer seed or a :class:`numpy.random.SeedSequence` (the sweep
        executor spawns one per point for independent streams).
    backend:
        ``"serial"`` simulates frames one at a time through
        :func:`repro.core.link.simulate_link` — the exactness oracle.
        ``"fused"`` hands the whole frame budget to one
        :meth:`~repro.sim.batch.BatchLinkSimulator.simulate_point`
        array program (geometrically-growing blocks, frame-exact early
        exit on ``target_errors``).  It draws RNG variates per frame in
        the documented serial order and therefore returns a
        **bit-identical** estimate for any seed; frames simulated past
        the stop inside the final block consume generator state the
        serial path never draws, but are discarded before scoring.
        ``"fast"`` is the compiled/float32 **statistical tier**
        (:mod:`repro.sim.fastlink`): same physics, different
        floating-point sums and RNG batching — validated by the
        statistical-equivalence suite, never byte-compared, and cached
        under its own keyspace.
    """
    return LinkBerAccumulator(
        config,
        target_errors=target_errors,
        max_bits=max_bits,
        bits_per_frame=bits_per_frame,
        backend=backend,
        seed=seed,
    ).advance().estimate()


def awgn_symbol_ber(
    scheme: ModulationScheme,
    snr_db: float,
    num_bits: int = 100_000,
    seed: int | np.random.SeedSequence = 0,
) -> float:
    """Symbol-level BER of a scheme in pure AWGN at symbol SNR ``snr_db``.

    Noise is calibrated against the scheme's *average* symbol power, so
    the result is directly comparable to
    :meth:`ModulationScheme.theoretical_ber`.
    """
    rng = np.random.default_rng(seed)
    k = scheme.bits_per_symbol
    num_bits -= num_bits % k
    if num_bits <= 0:
        raise ValueError(f"need at least {k} bits, got {num_bits}")
    bits = rng.integers(0, 2, size=num_bits).astype(np.int8)
    symbols = scheme.constellation.modulate(bits)
    es = scheme.constellation.average_power()
    n0 = es / (10.0 ** (snr_db / 10.0))
    sigma = math.sqrt(n0 / 2.0)
    noise = sigma * (
        rng.standard_normal(symbols.size) + 1j * rng.standard_normal(symbols.size)
    )
    decided = scheme.constellation.demodulate(symbols + noise)
    return float(np.count_nonzero(decided != bits)) / num_bits
