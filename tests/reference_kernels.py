"""Original loop implementations of the vectorized kernels.

Each function here is the straightforward implementation a vectorized
kernel in ``src/`` replaced.  They are the bit-exactness references of
``tests/test_hotpath_kernels.py`` and the "before" sides of the
micro-benchmarks in ``tools/profile_hotpaths.py``; no production code
calls them.
"""

from __future__ import annotations

import numpy as np

from repro.channel.multipath import MultipathChannel
from repro.core.convolutional import ConvolutionalCode
from repro.dsp.signal import Signal

__all__ = [
    "viterbi_reference",
    "viterbi_reference_hard",
    "multipath_apply_reference",
]


def viterbi_reference(code: ConvolutionalCode, soft: np.ndarray) -> np.ndarray:
    """Nested-loop soft-decision Viterbi over a terminated stream.

    Forward pass over every (state, input bit) with predecessor
    bookkeeping, then traceback from the zero state.  Ties keep the
    first (lower) predecessor found by the ascending-state scan.
    """
    soft = np.asarray(soft, dtype=np.float64)
    rate = code.rate_inverse
    num_steps = soft.size // rate
    num_states = code.num_states
    branch_outputs = code._branch_table()

    path_metric = np.full(num_states, -np.inf)
    path_metric[0] = 0.0
    predecessor = np.zeros((num_steps, num_states), dtype=np.int32)
    input_bit = np.zeros((num_steps, num_states), dtype=np.int8)

    for step in range(num_steps):
        received = soft[step * rate : (step + 1) * rate]
        new_metric = np.full(num_states, -np.inf)
        for state in range(num_states):
            if path_metric[state] == -np.inf:
                continue
            for bit in (0, 1):
                next_state = ((state << 1) | bit) & (num_states - 1)
                metric = path_metric[state] + float(
                    np.dot(received, branch_outputs[state, bit])
                )
                if metric > new_metric[next_state]:
                    new_metric[next_state] = metric
                    predecessor[step, next_state] = state
                    input_bit[step, next_state] = bit
        path_metric = new_metric

    state = 0  # terminated stream ends in the zero state
    decoded = np.empty(num_steps, dtype=np.int8)
    for step in range(num_steps - 1, -1, -1):
        decoded[step] = input_bit[step, state]
        state = predecessor[step, state]
    return decoded[: num_steps - (code.constraint_length - 1)]


def viterbi_reference_hard(code: ConvolutionalCode, coded: np.ndarray) -> np.ndarray:
    """Hard-decision wrapper: 0 -> +1, 1 -> -1, then the soft loop."""
    coded = np.asarray(coded, dtype=np.int8)
    return viterbi_reference(code, 1.0 - 2.0 * coded.astype(np.float64))


def multipath_apply_reference(channel: MultipathChannel, sig: Signal) -> Signal:
    """Per-path ``Signal`` ops: delay, scale, accumulate, truncate."""
    total = Signal.zeros(sig.num_samples, sig.sample_rate)
    for path in channel.paths:
        delayed = sig.delay(path.delay_s).scale(path.gain)
        total = total + delayed
    # Keep the output the same length as the input so frame timing
    # downstream is unaffected; energy in the trailing delay spread
    # of the last symbols is clipped, as a real capture window does.
    return Signal(total.samples[: sig.num_samples], sig.sample_rate, dict(sig.metadata))
