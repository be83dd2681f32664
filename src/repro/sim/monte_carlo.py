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
independent, reproducible stream — and its result is **invariant to
the chunk size** used for frame batching, the property the
determinism test suite pins down.
"""

from __future__ import annotations

import math
from collections.abc import Callable
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
#: ``serial``, ``vectorized`` and ``fused`` are **bit-exact tiers**:
#: they return byte-identical estimates for any seed, chunking and
#: scheduling (and therefore share sweep-cache entries).  ``fast`` is
#: the **statistical tier**: a float32 fused program with bulk RNG
#: draws and optional numba kernels — same physics, different
#: floating-point sums — gated by the statistical-equivalence suite
#: rather than golden fingerprints, with its own cache keyspace.
LINK_BER_BACKENDS = ("serial", "vectorized", "fused", "fast")

#: The backends whose estimates are bit-identical to ``serial``.
BIT_EXACT_BACKENDS = ("serial", "vectorized", "fused")

def _check_budget(
    target_errors: int, max_bits: int, bits_per_frame: int, chunk_frames: int
) -> None:
    """Reject an estimator budget that cannot converge or make progress."""
    if target_errors < 1:
        raise ValueError(f"target_errors must be >= 1, got {target_errors}")
    if bits_per_frame < 1:
        raise ValueError(f"bits_per_frame must be >= 1, got {bits_per_frame}")
    if max_bits < bits_per_frame:
        raise ValueError(
            f"max_bits ({max_bits}) must cover one frame ({bits_per_frame} bits)"
        )
    if chunk_frames < 1:
        raise ValueError(f"chunk_frames must be >= 1, got {chunk_frames}")


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
    """Resumable, picklable BER-estimator state: one chunk per step.

    The accumulator owns exactly the loop body of
    :func:`estimate_link_ber` — same RNG, same per-chunk frame loop,
    same frame-exact stopping rule — factored out so the adaptive sweep
    scheduler (:mod:`repro.sim.scheduler`) can interleave chunks of many
    points while each point's final :class:`BerEstimate` stays
    **byte-identical** to a standalone ``estimate_link_ber`` call with
    the same seed, chunking and backend (``estimate_link_ber`` itself
    is now a thin driver around this class, so the equivalence holds by
    construction).

    Pickling ships the counters and the generator state (NumPy
    ``Generator`` pickling is bit-exact) between scheduler rounds and
    process-pool workers; the batch simulator is dropped on pickle and
    rebuilt on first use on the other side, from the process-wide
    distance-free build state (see
    :class:`~repro.sim.batch.BatchLinkSimulator`).
    """

    def __init__(
        self,
        config: LinkConfig,
        *,
        target_errors: int = 100,
        max_bits: int = 200_000,
        bits_per_frame: int = 2048,
        chunk_frames: int = 1,
        backend: str = "serial",
        seed: int | np.random.SeedSequence = 0,
    ) -> None:
        _check_budget(target_errors, max_bits, bits_per_frame, chunk_frames)
        if backend not in LINK_BER_BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; choose from {LINK_BER_BACKENDS}"
            )
        self.config = config
        self.target_errors = int(target_errors)
        self.max_bits = int(max_bits)
        self.bits_per_frame = int(bits_per_frame)
        self.chunk_frames = int(chunk_frames)
        self.backend = backend
        self.errors = 0
        self.bits = 0
        self.frames = 0
        self.detected = 0
        self._rng = np.random.default_rng(seed)
        self._simulator = None

    @property
    def done(self) -> bool:
        """The estimator's stopping rule (chunk-granular, like the loop)."""
        return self.errors >= self.target_errors or self.bits >= self.max_bits

    def _ensure_simulator(self):
        if self._simulator is None:
            self._simulator = _shared_simulator(
                self.config, self.bits_per_frame, fast=self.backend == "fast"
            )
        return self._simulator

    def advance(self) -> "LinkBerAccumulator":
        """Simulate one chunk (no-op once :attr:`done`); returns ``self``.

        This is byte for byte the chunk body of the estimator loop: the
        stopping rule is checked frame-exactly inside the chunk, so
        overshoot frames of a vectorized chunk are dropped and the
        accumulated state is invariant to when/where chunks run.

        The ``fused`` and ``fast`` backends hand the **whole remaining
        budget** to one fused :meth:`simulate_point` call instead of a
        chunk — a single ``advance()`` drives the point to :attr:`done`
        (``chunk_frames`` is irrelevant to them), with the stopping rule
        applied frame-exactly inside the array program.
        """
        if self.done:
            return self
        if self.backend in ("fused", "fast"):
            simulator = self._ensure_simulator()
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
        elif self.backend == "vectorized":
            # One batched pass per chunk; accumulate frame by frame so
            # the stopping rule stays frame-exact (overshoot frames are
            # dropped, leaving the estimate chunk-size invariant).
            simulator = self._ensure_simulator()
            for result in simulator.simulate(self.chunk_frames, self._rng):
                if self.errors >= self.target_errors or self.bits >= self.max_bits:
                    break
                self._absorb(result)
        else:
            for _ in range(self.chunk_frames):
                if self.errors >= self.target_errors or self.bits >= self.max_bits:
                    break
                result = simulate_link(
                    self.config, num_payload_bits=self.bits_per_frame, rng=self._rng
                )
                self._absorb(result)
        return self

    def _absorb(self, result) -> None:
        self.errors += result.bit_errors
        self.bits += result.num_payload_bits
        self.frames += 1
        if result.detected:
            self.detected += 1

    def estimate(self) -> BerEstimate:
        """The estimate accumulated so far."""
        return BerEstimate(
            bit_errors=self.errors,
            bits_tested=self.bits,
            frames=self.frames,
            frames_detected=self.detected,
            target_errors=self.target_errors,
        )

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_simulator"] = None  # rebuilt on first use after unpickle
        return state


def estimate_link_ber(
    config: LinkConfig,
    target_errors: int = 100,
    max_bits: int = 200_000,
    bits_per_frame: int = 2048,
    seed: int | np.random.SeedSequence = 0,
    chunk_frames: int = 1,
    progress: Callable[[int, int, int], None] | None = None,
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
    chunk_frames:
        Frames simulated per batch between bookkeeping/progress
        callbacks.  The stopping rule is checked frame-exactly inside
        each chunk, so the returned estimate is **byte-identical for
        every chunk size** — chunking only coarsens the progress
        granularity and amortises loop overhead.
    progress:
        Optional hook called after each chunk with
        ``(frames, bits, errors)`` accumulated so far.
    backend:
        ``"serial"`` simulates frames one at a time through
        :func:`repro.core.link.simulate_link`; ``"vectorized"`` runs
        each chunk through :class:`repro.sim.batch.BatchLinkSimulator`,
        which draws RNG variates per frame in the documented serial
        order and therefore returns **bit-identical** estimates for any
        seed and chunk size (frames simulated past a stop condition
        consume RNG state that the serial path would never draw, but
        those frames are discarded before scoring, so the accumulated
        estimate is unaffected).  Every configuration batches exactly —
        Rician fading and blockage included; the old serial fallback
        for those configs is gone.

        ``"fused"`` hands the whole remaining frame budget to one
        fused :meth:`~repro.sim.batch.BatchLinkSimulator.simulate_point`
        array program (geometrically-growing blocks, frame-exact early
        exit on ``target_errors``) with no per-chunk re-entry into
        Python; it is bit-identical to the other two and ignores
        ``chunk_frames``.  ``"fast"`` is the compiled/float32
        **statistical tier** (:mod:`repro.sim.fastlink`): same physics,
        different floating-point sums and RNG batching — validated by
        the statistical-equivalence suite, never byte-compared, and
        cached under its own keyspace.
    """
    accumulator = LinkBerAccumulator(
        config,
        target_errors=target_errors,
        max_bits=max_bits,
        bits_per_frame=bits_per_frame,
        chunk_frames=chunk_frames,
        backend=backend,
        seed=seed,
    )
    while not accumulator.done:
        accumulator.advance()
        if progress is not None:
            progress(accumulator.frames, accumulator.bits, accumulator.errors)
    return accumulator.estimate()


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
