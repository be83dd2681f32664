"""Rate-1/2 convolutional coding with Viterbi decoding.

The workhorse FEC of burst radios (the K=7, polynomials 133/171 code of
802.11 and countless others).  mmTag-class links use it to buy ~5 dB at
the range cliff for a 2x rate cost; the E14 extension bench measures
exactly that trade against Hamming(7,4) and uncoded.

Both hard-decision (Hamming metric) and soft-decision (squared
Euclidean metric on LLR-like inputs) Viterbi are provided.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["ConvolutionalCode", "K7_CODE"]


def _bit_count(value: int) -> int:
    return bin(value).count("1")


@dataclass(frozen=True)
class ConvolutionalCode:
    """A rate-1/(len(polynomials)) feed-forward convolutional code.

    Parameters
    ----------
    constraint_length:
        K: the encoder sees the current bit plus K-1 memory bits.
    polynomials:
        Generator polynomials in octal-style integers (taps over the
        K-bit register, MSB = newest bit), e.g. ``(0o133, 0o171)``.
    """

    constraint_length: int
    polynomials: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.constraint_length < 2:
            raise ValueError(
                f"constraint length must be >= 2, got {self.constraint_length}"
            )
        if len(self.polynomials) < 2:
            raise ValueError("need at least two generator polynomials")
        limit = 1 << self.constraint_length
        for poly in self.polynomials:
            if not 0 < poly < limit:
                raise ValueError(
                    f"polynomial {poly:o} does not fit constraint length "
                    f"{self.constraint_length}"
                )

    @property
    def rate_inverse(self) -> int:
        """Output bits per input bit."""
        return len(self.polynomials)

    @property
    def num_states(self) -> int:
        """Trellis state count: 2^(K-1)."""
        return 1 << (self.constraint_length - 1)

    # -- encoding ----------------------------------------------------------

    def encode(self, bits: np.ndarray) -> np.ndarray:
        """Encode ``bits``, appending K-1 zero tail bits (terminated).

        Output length: ``(len(bits) + K - 1) * rate_inverse``.
        """
        bits = np.asarray(bits, dtype=np.int8)
        if np.any((bits != 0) & (bits != 1)):
            raise ValueError("bits must be 0/1")
        tailed = np.concatenate(
            [bits, np.zeros(self.constraint_length - 1, dtype=np.int8)]
        )
        register = 0
        out = np.empty(tailed.size * self.rate_inverse, dtype=np.int8)
        index = 0
        for bit in tailed:
            register = ((register << 1) | int(bit)) & ((1 << self.constraint_length) - 1)
            for poly in self.polynomials:
                out[index] = _bit_count(register & poly) & 1
                index += 1
        return out

    # -- decoding -----------------------------------------------------------

    def decode_hard(self, coded: np.ndarray) -> np.ndarray:
        """Viterbi decode hard bits (0/1); returns the message bits."""
        coded = np.asarray(coded, dtype=np.int8)
        if coded.size % self.rate_inverse:
            raise ValueError(
                f"coded length {coded.size} not a multiple of {self.rate_inverse}"
            )
        # map to soft antipodal: 0 -> +1, 1 -> -1, then reuse soft path
        soft = 1.0 - 2.0 * coded.astype(np.float64)
        return self.decode_soft(soft)

    def decode_soft(self, soft: np.ndarray) -> np.ndarray:
        """Viterbi decode soft values (+ for bit 0, - for bit 1).

        Uses a correlation branch metric (maximised), equivalent to
        minimum squared Euclidean distance for fixed-energy inputs.
        Expects a terminated stream produced by :meth:`encode`; the
        K-1 tail bits are stripped from the result.
        """
        soft = np.asarray(soft, dtype=np.float64)
        if soft.size % self.rate_inverse:
            raise ValueError(
                f"input length {soft.size} not a multiple of {self.rate_inverse}"
            )
        num_steps = soft.size // self.rate_inverse
        if num_steps <= self.constraint_length - 1:
            raise ValueError("stream shorter than the termination tail")
        return self._viterbi_vectorized(soft)

    # -- internals ---------------------------------------------------------------

    def _branch_table(self) -> np.ndarray:
        """Antipodal encoder outputs per (state, input bit)."""
        num_states = self.num_states
        table = np.empty((num_states, 2, self.rate_inverse), dtype=np.float64)
        mask = (1 << self.constraint_length) - 1
        for state in range(num_states):
            for bit in (0, 1):
                register = ((state << 1) | bit) & mask
                for branch, poly in enumerate(self.polynomials):
                    out_bit = _bit_count(register & poly) & 1
                    table[state, bit, branch] = 1.0 - 2.0 * out_bit
        return table

    def _viterbi_vectorized(self, soft: np.ndarray) -> np.ndarray:
        """Array-wide Viterbi: update all state metrics per step at once.

        Exploits the shift-register trellis structure: the input bit of
        a transition *into* state ``s`` is always ``s & 1``, and the
        only two predecessors of ``s`` are ``s >> 1`` and
        ``(s >> 1) + num_states/2``.  Each step is therefore two metric
        gathers, one comparison and two ``where`` selects — no Python
        loop over states or bits.

        Byte-identical to the original nested-loop decoder
        (``tests/reference_kernels.py``): branch metrics accumulate
        products in the same order as its ``np.dot`` (sequential over
        the handful of polynomials), and ties select the lower
        predecessor exactly as its ascending-state scan with a strict
        ``>`` update does.
        """
        num_steps = soft.size // self.rate_inverse
        num_states = self.num_states
        branch_outputs, prev_low, prev_high, state_bits = _viterbi_tables(
            self.constraint_length, self.polynomials
        )

        path_metric = np.full(num_states, -np.inf)
        path_metric[0] = 0.0
        predecessor = np.empty((num_steps, num_states), dtype=np.int32)

        soft_steps = soft.reshape(num_steps, self.rate_inverse)
        # Branch metrics for a block of steps at once:
        # bm[t, s, b] = sum_j soft[t, j] * branch_outputs[s, b, j],
        # accumulated j-sequentially to match the reference's np.dot.
        block = max(1, 262_144 // max(1, num_states))
        for start in range(0, num_steps, block):
            stop = min(num_steps, start + block)
            chunk = soft_steps[start:stop]  # (b, r)
            bm = chunk[:, 0, None, None] * branch_outputs[None, :, :, 0]
            for j in range(1, self.rate_inverse):
                bm += chunk[:, j, None, None] * branch_outputs[None, :, :, j]
            for step in range(start, stop):
                bmt = bm[step - start]  # (num_states, 2)
                # gather branch metrics of the two candidate transitions
                m_low = path_metric[prev_low] + bmt[prev_low, state_bits]
                m_high = path_metric[prev_high] + bmt[prev_high, state_bits]
                choose_high = m_high > m_low
                path_metric = np.where(choose_high, m_high, m_low)
                predecessor[step] = np.where(choose_high, prev_high, prev_low)

        state = 0  # terminated stream ends in the zero state
        decoded = np.empty(num_steps, dtype=np.int8)
        for step in range(num_steps - 1, -1, -1):
            decoded[step] = state & 1
            state = int(predecessor[step, state])
        return decoded[: num_steps - (self.constraint_length - 1)]


@lru_cache(maxsize=64)
def _viterbi_tables(
    constraint_length: int, polynomials: tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-code trellis tables, computed once and cached.

    Returns ``(branch_outputs, prev_low, prev_high, state_bits)``:

    * ``branch_outputs[s, b, j]`` — antipodal encoder output ``j`` when
      input bit ``b`` is shifted into state ``s`` (:meth:`_branch_table`);
    * ``prev_low[s] = s >> 1`` and ``prev_high[s] = (s >> 1) + S/2`` —
      the two possible predecessors of next-state ``s``;
    * ``state_bits[s] = s & 1`` — the input bit every transition into
      ``s`` carries (the LSB of the new register contents).
    """
    code = ConvolutionalCode(constraint_length, tuple(polynomials))
    branch_outputs = code._branch_table()
    num_states = code.num_states
    states = np.arange(num_states)
    prev_low = states >> 1
    prev_high = prev_low + num_states // 2
    state_bits = states & 1
    return branch_outputs, prev_low, prev_high, state_bits


#: The industry-standard K=7 rate-1/2 code (generators 133, 171 octal).
K7_CODE = ConvolutionalCode(constraint_length=7, polynomials=(0o133, 0o171))
