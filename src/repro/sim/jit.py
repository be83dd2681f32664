"""Optional numba compilation layer for the fast statistical tier.

The fast tier (:mod:`repro.sim.fastlink`) runs two inner loops, the
Rician tap synthesis and the hard-decision demapper, through ``@njit``
kernels when numba is importable and through pure-numpy fallbacks when
it is not.  The contract is:

* **Never silent.**  When numba is absent, the first use of each
  kernel logs a warning through :func:`notify_fallback` — the results
  belong to the same statistical tier either way, only the compiled
  speedup is lost.
* **No new dependency.**  numba is never required; the fallbacks are
  plain numpy and are what CI's numba-free leg exercises.
* **Tier discipline.**  Kernels here serve the *statistical* tier
  (fastmath, reassociated reductions) and nothing bit-exact calls them.

The :func:`numba_status` string ("absent" or the version) is recorded
in the hot-path benchmark environment block so perf trajectories across
machines stay interpretable.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

__all__ = [
    "HAVE_NUMBA",
    "NUMBA_VERSION",
    "numba_status",
    "notify_fallback",
    "rician_gains",
    "nearest_symbol_indices",
]

try:  # pragma: no cover - exercised on the CI numba leg
    import numba as _numba
    from numba import njit as _njit

    HAVE_NUMBA = True
    NUMBA_VERSION: str | None = str(_numba.__version__)
except ImportError:
    _numba = None
    HAVE_NUMBA = False
    NUMBA_VERSION = None

    def _njit(*args, **kwargs):  # type: ignore[misc]
        """No-numba stand-in: return the function unchanged."""
        if args and callable(args[0]):
            return args[0]

        def wrap(fn):
            return fn

        return wrap


def numba_status() -> str:
    """``"absent"`` or the numba version string — for bench metadata."""
    return NUMBA_VERSION if HAVE_NUMBA else "absent"


_FALLBACKS_NOTIFIED: set[str] = set()


def notify_fallback(feature: str) -> None:
    """Log (once per feature per process) that a compiled kernel is
    running on its pure-numpy fallback.

    Called by every dispatcher below on the no-numba path so the
    degradation is visible in logs rather than silent, per the fast
    tier's documented contract.
    """
    if HAVE_NUMBA or feature in _FALLBACKS_NOTIFIED:
        return
    _FALLBACKS_NOTIFIED.add(feature)
    logger.warning(
        "numba is not installed: %s is using the pure-numpy fallback "
        "(same statistical tier, compiled speedup unavailable)",
        feature,
    )


# -- Rician tap synthesis ----------------------------------------------------


@_njit(cache=True, fastmath=True)
def _rician_gains_kernel(delays, phases, inv_tau, nlos_total):
    n_frames, n_paths = delays.shape
    gains = np.empty((n_frames, n_paths), dtype=np.complex128)
    for f in range(n_frames):
        total = 0.0
        for p in range(n_paths):
            total += np.exp(-delays[f, p] * inv_tau)
        for p in range(n_paths):
            weight = np.exp(-delays[f, p] * inv_tau) / total * nlos_total
            gains[f, p] = np.sqrt(weight) * (
                np.cos(phases[f, p]) + 1j * np.sin(phases[f, p])
            )
    return gains


def _rician_gains_numpy(delays, phases, inv_tau, nlos_total):
    weights = np.exp(-delays * inv_tau)
    weights = weights / weights.sum(axis=1, keepdims=True) * nlos_total
    return np.sqrt(weights) * np.exp(1j * phases)


def rician_gains(
    delays: np.ndarray, phases: np.ndarray, tau: float, nlos_total: float
) -> np.ndarray:
    """NLOS tap gains for a whole frame batch.

    ``delays``/``phases`` are ``(frames, paths)``; the exponential
    delay-power profile with scale ``tau`` is normalised per frame so
    the NLOS taps carry ``nlos_total`` power — the same arithmetic as
    :func:`repro.channel.multipath.rician_channel`, batched.
    """
    inv_tau = 1.0 / tau
    if HAVE_NUMBA:
        return _rician_gains_kernel(delays, phases, inv_tau, nlos_total)
    notify_fallback("Rician tap synthesis")
    return _rician_gains_numpy(delays, phases, inv_tau, nlos_total)


# -- hard-decision demodulation ---------------------------------------------


@_njit(cache=True, fastmath=True)
def _nearest_indices_kernel(symbols, points):
    n = symbols.shape[0]
    size = points.shape[0]
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        best = 0
        diff = symbols[i] - points[0]
        best_dist = diff.real * diff.real + diff.imag * diff.imag
        for s in range(1, size):
            diff = symbols[i] - points[s]
            dist = diff.real * diff.real + diff.imag * diff.imag
            if dist < best_dist:
                best_dist = dist
                best = s
        out[i] = best
    return out


def _nearest_indices_numpy(symbols, points):
    out = np.empty(symbols.shape[0], dtype=np.int64)
    # Chunked so the (chunk, size) distance matrix stays cache-sized.
    chunk = max(1, (1 << 20) // max(1, points.size))
    for start in range(0, symbols.shape[0], chunk):
        block = symbols[start : start + chunk]
        diff = block[:, None] - points[None, :]
        out[start : start + chunk] = np.argmin(
            diff.real * diff.real + diff.imag * diff.imag, axis=1
        )
    return out


def nearest_symbol_indices(symbols: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Nearest-constellation-point index per symbol (flat arrays).

    Minimum squared Euclidean distance with first-wins ties — the same
    decision rule as :meth:`Constellation.demodulate` (which uses
    ``argmin`` over ``np.abs``; squaring preserves the ordering).
    """
    symbols = np.ascontiguousarray(symbols)
    points = np.ascontiguousarray(points)
    if HAVE_NUMBA:
        return _nearest_indices_kernel(symbols, points)
    notify_fallback("hard-decision demodulation")
    return _nearest_indices_numpy(symbols, points)
