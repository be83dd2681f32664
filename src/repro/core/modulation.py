"""Backscatter modulation: constellations realised by switched loads.

A backscatter tag cannot synthesise arbitrary IQ values; every symbol
must be a physically realisable reflection coefficient.  mmTag's
modulator selects, per Van Atta pair, one of a small bank of
transmission lines (adding phase to the retro-reflected wave) or a
matched termination (absorbing it).  That yields:

* **OOK** — reflect / absorb (1 bit/symbol);
* **BPSK** — two lines differing by half a guided wavelength
  (180 degrees) (1 bit/symbol, 3 dB better than OOK);
* **QPSK** — four lines at 90-degree steps (2 bits/symbol);
* **8-PSK** — eight lines at 45-degree steps (3 bits/symbol);
* **16-QAM** — star QAM: eight phases times two amplitude rings, the
  outer ring fully reflective, the inner realised with a partially
  mismatched load (4 bits/symbol).

Each scheme records both the abstract constellation (used by the AP
demodulator and the theory formulas) and the physical tag state per
symbol (used by the tag model and the energy accounting).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.dsp.measure import q_function

__all__ = [
    "TagState",
    "Constellation",
    "ModulationScheme",
    "get_scheme",
    "available_schemes",
    "OOK",
    "BPSK",
    "QPSK",
    "PSK8",
    "QAM16",
]


@dataclass(frozen=True)
class TagState:
    """A physical modulator state.

    ``line_phase_rad`` is the phase added by the selected transmission
    line, or ``None`` when the port is terminated (absorptive).
    ``amplitude`` is the reflection magnitude of the state: 1.0 for a
    fully reflective line, between 0 and 1 for a partially mismatched
    load, 0 for a matched termination.
    """

    line_phase_rad: float | None
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {self.amplitude}")
        if self.line_phase_rad is None and self.amplitude != 0.0:
            object.__setattr__(self, "amplitude", 0.0)

    @property
    def reflection(self) -> complex:
        """The complex reflection coefficient of this state."""
        if self.line_phase_rad is None:
            return 0.0 + 0.0j
        return self.amplitude * complex(
            math.cos(self.line_phase_rad), math.sin(self.line_phase_rad)
        )

    @property
    def is_absorptive(self) -> bool:
        """True when the port is terminated."""
        return self.line_phase_rad is None


class Constellation:
    """A labelled set of complex symbols with Gray-coded demodulation."""

    def __init__(self, points: np.ndarray, bit_labels: np.ndarray) -> None:
        points = np.asarray(points, dtype=np.complex128)
        bit_labels = np.asarray(bit_labels, dtype=np.int8)
        if points.ndim != 1:
            raise ValueError(f"points must be 1-D, got shape {points.shape}")
        if bit_labels.ndim != 2 or bit_labels.shape[0] != points.size:
            raise ValueError(
                "bit_labels must be (num_points, bits_per_symbol), got "
                f"{bit_labels.shape} for {points.size} points"
            )
        size = points.size
        if size < 2 or size & (size - 1):
            raise ValueError(f"constellation size must be a power of two >= 2, got {size}")
        expected_bits = int(math.log2(size))
        if bit_labels.shape[1] != expected_bits:
            raise ValueError(
                f"expected {expected_bits} bits per symbol, got {bit_labels.shape[1]}"
            )
        # Labels must be a permutation of all bit patterns.
        as_ints = {int("".join(map(str, row)), 2) for row in bit_labels}
        if as_ints != set(range(size)):
            raise ValueError("bit labels must enumerate every pattern exactly once")
        self.points = points
        self.bit_labels = bit_labels
        self._label_to_index = {
            tuple(int(b) for b in row): i for i, row in enumerate(bit_labels)
        }

    @property
    def size(self) -> int:
        """Number of constellation points."""
        return self.points.size

    @property
    def bits_per_symbol(self) -> int:
        """Bits carried by one symbol."""
        return self.bit_labels.shape[1]

    def average_power(self) -> float:
        """Mean of ``|point|^2`` assuming equiprobable symbols."""
        return float(np.mean(np.abs(self.points) ** 2))

    def mean_point(self) -> complex:
        """The constellation centroid (non-zero for OOK-like sets)."""
        return complex(np.mean(self.points))

    def minimum_distance(self) -> float:
        """Smallest pairwise Euclidean distance."""
        diffs = self.points[:, None] - self.points[None, :]
        distances = np.abs(diffs)
        np.fill_diagonal(distances, np.inf)
        return float(distances.min())

    def modulate(self, bits: np.ndarray) -> np.ndarray:
        """Map a bit array (length divisible by bits/symbol) to symbols."""
        bits = np.asarray(bits, dtype=np.int8)
        k = self.bits_per_symbol
        if bits.size % k:
            raise ValueError(
                f"bit count {bits.size} not divisible by {k} bits/symbol"
            )
        groups = bits.reshape(-1, k)
        indices = np.array(
            [self._label_to_index[tuple(int(b) for b in row)] for row in groups]
        )
        return self.points[indices]

    def demodulate(self, symbols: np.ndarray) -> np.ndarray:
        """Nearest-neighbour hard decisions back to bits."""
        symbols = np.asarray(symbols, dtype=np.complex128)
        distances = np.abs(symbols[:, None] - self.points[None, :])
        indices = np.argmin(distances, axis=1)
        return self.bit_labels[indices].reshape(-1).astype(np.int8)

    def soft_bits(self, symbols: np.ndarray, noise_variance: float) -> np.ndarray:
        """Max-log-MAP bit LLRs: positive favours bit 0.

        ``LLR_b = (min_{s: b=1} |y-s|^2 - min_{s: b=0} |y-s|^2) / N0``
        — the standard soft demapper feeding a soft-decision decoder
        (:meth:`repro.core.convolutional.ConvolutionalCode.decode_soft`
        uses the same positive-means-zero convention).
        """
        if noise_variance <= 0:
            raise ValueError(f"noise variance must be positive, got {noise_variance}")
        symbols = np.asarray(symbols, dtype=np.complex128)
        sq_dist = np.abs(symbols[:, None] - self.points[None, :]) ** 2
        k = self.bits_per_symbol
        llrs = np.empty((symbols.size, k), dtype=np.float64)
        for b in range(k):
            zero_mask = self.bit_labels[:, b] == 0
            d_zero = sq_dist[:, zero_mask].min(axis=1)
            d_one = sq_dist[:, ~zero_mask].min(axis=1)
            llrs[:, b] = (d_one - d_zero) / noise_variance
        return llrs.reshape(-1)

    def symbol_indices(self, bits: np.ndarray) -> np.ndarray:
        """Return the point index per symbol for a bit array."""
        bits = np.asarray(bits, dtype=np.int8)
        k = self.bits_per_symbol
        groups = bits.reshape(-1, k)
        return np.array(
            [self._label_to_index[tuple(int(b) for b in row)] for row in groups]
        )

    def union_bound_ber(self, snr_db: float) -> float:
        """Union-bound BER estimate at a given symbol SNR.

        Sums pairwise error probabilities weighted by Hamming distance
        — tight at high SNR for any constellation/labelling, which is
        what the experiment harness needs for schemes without a clean
        closed form (star QAM).
        """
        snr = 10.0 ** (snr_db / 10.0)
        es = self.average_power()
        n0 = es / snr if snr > 0 else math.inf
        sigma = math.sqrt(n0 / 2.0)
        total = 0.0
        m = self.size
        k = self.bits_per_symbol
        for i in range(m):
            for j in range(m):
                if i == j:
                    continue
                distance = abs(self.points[i] - self.points[j])
                hamming = int(np.sum(self.bit_labels[i] != self.bit_labels[j]))
                total += hamming * float(q_function(distance / (2.0 * sigma)))
        return min(0.5, total / (m * k))


def _gray_code(n: int) -> list[int]:
    return [i ^ (i >> 1) for i in range(n)]


def _bits_of(value: int, width: int) -> list[int]:
    return [(value >> (width - 1 - b)) & 1 for b in range(width)]


def _psk_constellation(order: int) -> Constellation:
    gray = _gray_code(order)
    width = int(math.log2(order))
    points = np.exp(2j * math.pi * np.arange(order) / order)
    labels = np.array([_bits_of(gray[i], width) for i in range(order)], dtype=np.int8)
    return Constellation(points, labels)


@dataclass(frozen=True)
class ModulationScheme:
    """A named backscatter modulation with its physical realisation.

    ``states`` holds the :class:`TagState` for each constellation point
    (same order as ``constellation.points``); ``num_lines`` is the
    switch throw count the scheme needs, which drives tag cost/energy.
    """

    name: str
    constellation: Constellation
    states: tuple[TagState, ...]
    theory: str  # which closed-form BER applies: ook | psk | union

    def __post_init__(self) -> None:
        if len(self.states) != self.constellation.size:
            raise ValueError(
                f"{self.name}: {len(self.states)} states for "
                f"{self.constellation.size} constellation points"
            )
        for state, point in zip(self.states, self.constellation.points):
            if not np.isclose(state.reflection, point, atol=1e-9):
                raise ValueError(
                    f"{self.name}: state {state} does not realise point {point}"
                )

    @property
    def bits_per_symbol(self) -> int:
        """Bits per symbol."""
        return self.constellation.bits_per_symbol

    @property
    def num_lines(self) -> int:
        """Distinct reflective line settings the switch must provide."""
        settings = {
            (round((s.line_phase_rad or 0.0) % (2 * math.pi), 9), round(s.amplitude, 9))
            for s in self.states
            if not s.is_absorptive
        }
        return len(settings)

    def modulation_loss_db(self) -> float:
        """Average reflected power vs a perfect static reflector, in dB.

        OOK radiates nothing half the time (3 dB); PSK is always fully
        reflective (0 dB); star-16QAM loses the inner-ring deficit.
        """
        avg = self.constellation.average_power()
        if avg <= 0:
            return math.inf
        return -10.0 * math.log10(avg)

    def theoretical_ber(self, snr_db: float) -> float:
        """Closed-form (or union-bound) BER at symbol SNR ``snr_db``.

        SNR is defined on the *received average symbol energy*:
        ``Es_avg / N0``, matching what :func:`repro.dsp.measure.measure_snr`
        reports on the equalised symbol stream.
        """
        snr = 10.0 ** (snr_db / 10.0)
        if self.theory == "ook":
            # Points 0 and A: distance A, Es_avg = A^2/2 -> Q(sqrt(snr)).
            return float(q_function(math.sqrt(snr)))
        if self.theory == "psk":
            m = self.constellation.size
            k = self.bits_per_symbol
            if m == 2:
                return float(q_function(math.sqrt(2.0 * snr)))
            if m == 4:
                return float(q_function(math.sqrt(snr)))
            return float(
                (2.0 / k) * q_function(math.sqrt(2.0 * snr) * math.sin(math.pi / m))
            )
        return self.constellation.union_bound_ber(snr_db)

    def average_transitions_per_symbol(self) -> float:
        """Expected switch transitions per symbol for random data.

        A transition happens whenever consecutive symbols select a
        different switch position; for equiprobable symbols that is
        ``1 - 1/M``.  Used by the energy model.
        """
        m = self.constellation.size
        return 1.0 - 1.0 / m


def _make_ook() -> ModulationScheme:
    points = np.array([0.0 + 0.0j, 1.0 + 0.0j])
    labels = np.array([[0], [1]], dtype=np.int8)
    states = (TagState(None, 0.0), TagState(0.0, 1.0))
    return ModulationScheme("OOK", Constellation(points, labels), states, "ook")


def _make_psk(order: int, name: str) -> ModulationScheme:
    constellation = _psk_constellation(order)
    states = tuple(
        TagState(float(np.angle(p)) % (2 * math.pi), 1.0) for p in constellation.points
    )
    return ModulationScheme(name, constellation, states, "psk")


def _make_star_qam16(ring_ratio: float = 0.5) -> ModulationScheme:
    """Star 16-QAM: 8 Gray-coded phases x 2 Gray-coded amplitude rings.

    The first bit selects the ring (0 = outer, full reflection;
    1 = inner, partially mismatched load at ``ring_ratio``), the last
    three bits Gray-select the phase.
    """
    if not 0.0 < ring_ratio < 1.0:
        raise ValueError(f"ring ratio must be in (0, 1), got {ring_ratio}")
    gray8 = _gray_code(8)
    points = []
    labels = []
    states = []
    for ring_bit, radius in ((0, 1.0), (1, ring_ratio)):
        for i in range(8):
            phase = 2.0 * math.pi * i / 8.0
            point = radius * complex(math.cos(phase), math.sin(phase))
            points.append(point)
            labels.append([ring_bit] + _bits_of(gray8[i], 3))
            states.append(TagState(phase, radius))
    constellation = Constellation(np.array(points), np.array(labels, dtype=np.int8))
    return ModulationScheme("16QAM", constellation, tuple(states), "union")


OOK = _make_ook()
BPSK = _make_psk(2, "BPSK")
QPSK = _make_psk(4, "QPSK")
PSK8 = _make_psk(8, "8PSK")
QAM16 = _make_star_qam16()

_SCHEMES = {s.name: s for s in (OOK, BPSK, QPSK, PSK8, QAM16)}


def available_schemes() -> list[str]:
    """Names of all registered modulation schemes."""
    return list(_SCHEMES)


@lru_cache(maxsize=None)
def get_scheme(name: str) -> ModulationScheme:
    """Look up a modulation scheme by (case-insensitive) name."""
    key = name.upper()
    if key not in _SCHEMES:
        raise KeyError(f"unknown modulation {name!r}; available: {available_schemes()}")
    return _SCHEMES[key]
