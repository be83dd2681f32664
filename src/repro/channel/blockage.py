"""Blockage: time-windowed attenuation events.

mmWave links are famously fragile to bodies and hands crossing the
beam; a blocker attenuates the one-way link by 15-30 dB, hence the
round-trip backscatter link by twice that.  A blockage event is simply
an extra attenuation applied over a time window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dsp.signal import Signal

__all__ = ["BlockageEvent", "apply_blockage", "blockage_gain"]


@dataclass(frozen=True)
class BlockageEvent:
    """A blockage window on the round-trip link.

    ``attenuation_db`` is the *one-way* blockage loss; the round-trip
    waveform is attenuated by twice that (in through the blocker, back
    out through the blocker).
    """

    start_s: float
    stop_s: float
    attenuation_db: float

    def __post_init__(self) -> None:
        if self.stop_s <= self.start_s:
            raise ValueError(
                f"stop ({self.stop_s}) must exceed start ({self.start_s})"
            )
        if self.attenuation_db < 0:
            raise ValueError(
                f"attenuation must be non-negative, got {self.attenuation_db}"
            )

    @property
    def roundtrip_amplitude_factor(self) -> float:
        """Amplitude multiplier while blocked (round-trip loss)."""
        return 10.0 ** (-2.0 * self.attenuation_db / 20.0)


def blockage_gain(
    num_samples: int, sample_rate: float, events: list[BlockageEvent]
) -> np.ndarray:
    """Per-sample amplitude gain vector the blockage plan applies.

    Overlapping events multiply (two bodies are worse than one).  The
    plan is deterministic given ``(num_samples, sample_rate, events)``,
    which is what lets the fused link kernel precompute the vector
    once and broadcast it over a whole frame batch — the multiply it
    performs is then elementwise identical to :func:`apply_blockage`.
    """
    gain = np.ones(num_samples)
    t = np.arange(num_samples) / sample_rate
    for event in events:
        window = (t >= event.start_s) & (t < event.stop_s)
        gain[window] *= event.roundtrip_amplitude_factor
    return gain


def apply_blockage(sig: Signal, events: list[BlockageEvent]) -> Signal:
    """Attenuate ``sig`` inside each blockage window.

    Overlapping events multiply (two bodies are worse than one).
    """
    gain = blockage_gain(sig.num_samples, sig.sample_rate, events)
    return Signal(sig.samples * gain, sig.sample_rate, dict(sig.metadata))
