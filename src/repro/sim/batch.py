"""Batched frame-chain kernel: many bursts through the link in one pass.

:func:`repro.core.link.simulate_link` is the bit-exact reference, but it
pays Python-interpreter overhead *per frame*: the tag's per-symbol state
mapping, the bit-loop CRCs, the dict-lookup constellation mapper and a
dozen small `Signal` allocations.  Under the PR-1 process pool those
costs dominate every sweep point.

:class:`BatchLinkSimulator` runs ``num_frames`` bursts as 2-D
``(frames, samples)`` arrays through modulate -> channel -> noise ->
demod in a handful of NumPy/SciPy passes, while drawing random numbers
in **exactly the per-frame order of the serial reference** so that the
results are bit-identical frame by frame.

RNG draw order (per frame ``f``, from the single shared generator)::

    1. payload bits        rng.integers(0, 2, size=num_payload_bits)
    2. carrier phase       rng.uniform(0, 2*pi)
    3. Rician channel      rng.uniform(delays) then rng.uniform(phases)
                           via channel.rician_channel          [if enabled]
    4. phase-noise steps   rng.standard_normal(n_sig + lag)    [if enabled]
    5. interference        environment.interference_waveform(..., rng)
    6. AWGN                rng.standard_normal(n) twice (I then Q) [if enabled]

Those draws interleave per frame in the reference, so the batch keeps a
per-frame Python loop that does *only* the RNG draws (steps 1-6) into
preallocated matrices; every deterministic stage then runs as one
broadcast array pass.  The stochastic channel stages batch exactly too:
Rician fading draws its per-frame path sets in the loop (step 3, the
very :func:`~repro.channel.multipath.rician_channel` calls the serial
reference makes) and then applies all frames' channels through the
grouped-FFT kernel :func:`~repro.channel.multipath.apply_channels_to_rows`
(row-batched FFTs are bit-identical per row to the serial 1-D
transforms); blockage windows are a deterministic per-sample gain
vector (:func:`~repro.channel.blockage.blockage_gain`), precomputed at
build time and broadcast over the batch.  Stages that would change
summation order if batched differently (preamble correlation via
``np.correlate``, the lead-in mean, the decode tail) stay per-frame —
they are cheap relative to the waveform passes.

Fast exact primitives
---------------------
``crc_bits_fast`` (byte-table CRC), ``fast_symbol_indices`` /
``fast_modulate`` (integer-LUT constellation mapping) replace the
reference's Python loops with integer-exact equivalents; the originals
in :mod:`repro.core.coding` / :mod:`repro.core.modulation` are kept
untouched as the reference the equivalence tests (and the hot-path
benchmarks) compare against.
"""

from __future__ import annotations

import math
import zlib
from collections import OrderedDict
from dataclasses import replace
from functools import lru_cache

import numpy as np
from scipy import signal as sp_signal

from repro.channel.blockage import blockage_gain
from repro.channel.mobility import doppler_shift_hz
from repro.channel.multipath import apply_channels_to_rows, rician_channel
from repro.constants import SPEED_OF_LIGHT
from repro.core.ap import AccessPoint, ReceiverResult
from repro.core.coding import append_crc32
from repro.core.framing import HEADER_TOTAL_BITS, PREAMBLE_SYMBOLS, FrameHeader
from repro.core.link import (
    _GUARD_SYMBOLS,
    LinkConfig,
    LinkResult,
    _received_amplitude,
    link_snr_db,
)
from repro.core.modulation import BPSK, get_scheme
from repro.core.tag import Tag, square_subcarrier_wave
from repro.dsp.filters import design_fir_lowpass
from repro.dsp.measure import bit_error_rate, evm_rms, measure_snr
from repro.dsp.signal import Signal
from repro.dsp.sync import detect_frame_start
from repro.rf.noise import thermal_noise_power
from repro.sim.cache import CacheKeyError, stable_hash

__all__ = [
    "BatchLinkSimulator",
    "simulate_link_batch",
    "crc_bits_fast",
    "crc32_tail_bits_fast",
    "check_crc32_fast",
    "fast_symbol_indices",
    "fast_modulate",
]

_CRC32_POLY = 0x04C11DB7
_CRC32_WIDTH = 32
_CRC32_INIT = 0xFFFFFFFF


# -- fast exact CRC ----------------------------------------------------------


@lru_cache(maxsize=None)
def _crc_byte_table(polynomial: int, width: int) -> tuple[int, ...]:
    """256-entry table: CRC register update for one whole input byte."""
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    table = []
    for byte in range(256):
        register = (byte << (width - 8)) & mask
        for _ in range(8):
            if register & top:
                register = ((register << 1) & mask) ^ polynomial
            else:
                register = (register << 1) & mask
        table.append(register)
    return tuple(table)


def crc_bits_fast(
    bits: np.ndarray,
    polynomial: int = _CRC32_POLY,
    width: int = _CRC32_WIDTH,
    init: int = _CRC32_INIT,
) -> int:
    """Byte-table CRC over an MSB-first bit array, integer-exact.

    Returns the same register value as the reference bit loop
    (:func:`repro.core.coding._crc_bits`): whole bytes go through the
    256-entry table eight bits at a time, the trailing ``size % 8`` bits
    through the reference recurrence.  CRCs are integer arithmetic, so
    "equal" here means exactly equal, not within round-off.
    """
    bits = np.asarray(bits, dtype=np.int8)
    table = _crc_byte_table(polynomial, width)
    mask = (1 << width) - 1
    shift = width - 8
    register = init
    num_bytes = bits.size // 8
    if num_bytes:
        data = np.packbits(bits[: num_bytes * 8].astype(np.uint8))
        for byte in data.tolist():
            register = ((register << 8) & mask) ^ table[((register >> shift) ^ byte) & 0xFF]
    for bit in bits[num_bytes * 8 :]:
        feedback = ((register >> (width - 1)) & 1) ^ int(bit)
        register = (register << 1) & mask
        if feedback:
            register ^= polynomial
    return register


def crc32_tail_bits_fast(bits: np.ndarray) -> np.ndarray:
    """The 32 CRC bits :func:`repro.core.coding.append_crc32` appends."""
    value = crc_bits_fast(bits)
    return ((value >> np.arange(31, -1, -1)) & 1).astype(np.int8)


# -- zlib-backed CRC32 (integer-exact; whole-byte inputs only) ---------------
#
# The frame CRC uses the standard CRC-32 polynomial with an all-ones
# init and *no* final complement / reflection.  zlib's crc32 computes
# the reflected variant with a final complement, so bit-reversing each
# input byte, complementing the result and bit-reversing the 32-bit
# register maps one onto the other exactly — CRCs are integer
# arithmetic, so the match is verified once per process against
# ``crc_bits_fast`` and the C path is only used when it holds.

_REV8 = np.array(
    [int(f"{i:08b}"[::-1], 2) for i in range(256)], dtype=np.uint8
)

_ZLIB_CRC_MATCHES: bool | None = None


def _crc32_zlib_value(bits: np.ndarray) -> int:
    """CRC register over a whole-byte MSB-first bit array, via zlib."""
    data = np.packbits(np.asarray(bits, dtype=np.uint8))
    crc = (~zlib.crc32(_REV8[data].tobytes())) & 0xFFFFFFFF
    return int(f"{crc:032b}"[::-1], 2)


def _zlib_crc_usable() -> bool:
    """One-time self-check of the zlib mapping against the reference."""
    global _ZLIB_CRC_MATCHES
    if _ZLIB_CRC_MATCHES is None:
        probe_rng = np.random.default_rng(0xC5C32)
        probes = [
            np.zeros(64, dtype=np.int8),
            np.ones(64, dtype=np.int8),
            probe_rng.integers(0, 2, size=2048).astype(np.int8),
        ]
        _ZLIB_CRC_MATCHES = all(
            _crc32_zlib_value(p) == crc_bits_fast(p) for p in probes
        )
    return _ZLIB_CRC_MATCHES


def check_crc32_fast(bits_with_crc: np.ndarray) -> bool:
    """Exact drop-in for :func:`repro.core.coding.check_crc32`."""
    bits_with_crc = np.asarray(bits_with_crc, dtype=np.int8)
    if bits_with_crc.size < 32:
        return False
    payload, tail = bits_with_crc[:-32], bits_with_crc[-32:]
    tail_value = 0
    for bit in tail.tolist():
        tail_value = (tail_value << 1) | int(bit)
    return crc_bits_fast(payload) == tail_value


# -- fast exact constellation mapping ---------------------------------------


@lru_cache(maxsize=None)
def _modulation_tables(scheme_name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(powers, pattern->index LUT, points)`` for one scheme.

    The reference mapper looks each k-bit group up in a Python dict; the
    LUT turns that into one integer matmul plus a gather, with identical
    results (the LUT is *built from* the reference's bit labels).
    """
    constellation = get_scheme(scheme_name).constellation
    k = constellation.bits_per_symbol
    powers = (1 << np.arange(k - 1, -1, -1)).astype(np.int64)
    lut = np.empty(constellation.size, dtype=np.int64)
    patterns = constellation.bit_labels.astype(np.int64) @ powers
    lut[patterns] = np.arange(constellation.size)
    return powers, lut, constellation.points


def fast_symbol_indices(scheme_name: str, bits: np.ndarray) -> np.ndarray:
    """Constellation point index per symbol; accepts (..., n) bit arrays.

    Matches :meth:`repro.core.modulation.Constellation.symbol_indices`
    exactly (integer arithmetic), but broadcasts over leading axes so a
    whole frame batch maps in one pass.
    """
    powers, lut, _ = _modulation_tables(scheme_name)
    k = powers.size
    bits = np.asarray(bits)
    if bits.shape[-1] % k:
        raise ValueError(
            f"bit count {bits.shape[-1]} not divisible by {k} bits/symbol"
        )
    groups = bits.astype(np.int64).reshape(bits.shape[:-1] + (bits.shape[-1] // k, k))
    return lut[groups @ powers]


def fast_modulate(scheme_name: str, bits: np.ndarray) -> np.ndarray:
    """Bit array -> constellation symbols, exact and batch-capable.

    Returns the same complex values as
    :meth:`repro.core.modulation.Constellation.modulate` (both gather
    from the same ``points`` array).
    """
    _, _, points = _modulation_tables(scheme_name)
    return points[fast_symbol_indices(scheme_name, bits)]


# -- the batched link chain ---------------------------------------------------

#: Process-wide LRU of the state :meth:`BatchLinkSimulator._build_shared`
#: computes, keyed by (simulator class, stable hash of the config with
#: ``distance_m`` pinned to :data:`_KEY_DISTANCE_M`, payload bits).
#: Pinning the distance rather than listing fields keeps every other
#: config field in the key, fields added later included.  The points of
#: a range sweep share one entry; its arrays are read-only, so no
#: simulator can write into another's state.
_BUILD_STATE: OrderedDict[tuple[type, str, int], dict[str, object]] = OrderedDict()
_BUILD_STATE_MAX = 32
_KEY_DISTANCE_M = 1.0


def _shared_build_state(
    cls: type, config: LinkConfig, num_payload_bits: int
) -> dict[str, object]:
    """The distance-free build state of ``cls`` for ``config``.

    Built on a bare instance holding the pinned config, so the state is
    a function of its key alone; a config that cannot be hashed gets a
    fresh, unmemoised build.
    """
    pinned = replace(config, distance_m=_KEY_DISTANCE_M)
    try:
        key = (cls, stable_hash(pinned), num_payload_bits)
    except CacheKeyError:
        return _build_state(cls, pinned, num_payload_bits)
    state = _BUILD_STATE.get(key)
    if state is None:
        state = _build_state(cls, pinned, num_payload_bits)
        _BUILD_STATE[key] = state
        while len(_BUILD_STATE) > _BUILD_STATE_MAX:
            _BUILD_STATE.popitem(last=False)
    else:
        _BUILD_STATE.move_to_end(key)
    return state


def _build_state(
    cls: type, config: LinkConfig, num_payload_bits: int
) -> dict[str, object]:
    bare = cls.__new__(cls)
    bare.config = config
    bare.num_payload_bits = num_payload_bits
    bare._build_shared()
    state = vars(bare)
    del state["config"], state["num_payload_bits"]
    for value in state.values():
        _freeze(value)
    return state


def _freeze(value: object) -> None:
    """Mark ``value``'s arrays read-only, inside tuples and lists too."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (tuple, list)):
        for item in value:
            _freeze(item)


class BatchLinkSimulator:
    """Precomputed batched frame chain for one :class:`LinkConfig`.

    The constructor precomputes the reflection LUT, filters, mixers,
    blockage gain vector and budget scalars; :meth:`simulate` and
    :meth:`simulate_point` then run frame batches through them.  Only
    three of those values read ``config.distance_m`` — the received
    amplitude, the analytic SNR and the phase-noise lag — and each
    construction computes them from its own config
    (:meth:`_build_point`).  The rest (:meth:`_build_shared`) is built
    once per process for all configs that differ only in distance, and
    shared read-only between their simulators, so a range sweep pays
    the full build at its first point only.

    Every :class:`LinkConfig` batches exactly: Rician fading draws its
    per-frame channels in the documented serial RNG order and applies
    them through the grouped-FFT row kernel, and blockage windows are a
    precomputed deterministic gain broadcast.  (Earlier revisions fell
    back to looping the serial reference for those configurations;
    that fallback — and the ``supports_fast_path`` flag that gated it —
    is gone.)
    """

    def __init__(self, config: LinkConfig, num_payload_bits: int = 2048) -> None:
        if num_payload_bits < 1:
            raise ValueError(
                f"num_payload_bits must be >= 1, got {num_payload_bits}"
            )
        self.config = config
        self.num_payload_bits = int(num_payload_bits)
        self.__dict__.update(
            _shared_build_state(type(self), config, self.num_payload_bits)
        )
        self._build_point()

    # -- precomputation ----------------------------------------------------

    def _build_point(self) -> None:
        """The values that read ``config.distance_m``, per construction."""
        config = self.config
        self._amplitude = _received_amplitude(config)
        self._snr_analytic_db = link_snr_db(config)
        # Residual phase noise (PhaseNoiseModel.residual_after_delay)
        # decorrelates over the round-trip delay.
        self._pn_lag = 0
        if self._use_phase_noise:
            delay = 2.0 * config.distance_m / SPEED_OF_LIGHT
            self._pn_lag = max(1, int(round(delay * self._fs)))

    def _build_shared(self) -> None:
        """Everything else the chain precomputes; reads no distance."""
        config = self.config
        tag_cfg = config.tag
        ap_cfg = config.ap
        scheme = tag_cfg.scheme
        k = scheme.bits_per_symbol
        sps = tag_cfg.samples_per_symbol
        fs = tag_cfg.sample_rate_hz
        theta = config.incidence_angle_rad

        self._scheme_name = scheme.name
        self._sps = sps
        self._fs = fs
        self._pad_bits = (-(self.num_payload_bits + 32)) % k
        self._padded_bits = self.num_payload_bits + self._pad_bits

        # Reference prefix (preamble + header reflections) straight from
        # the Tag model: it is payload-independent because the header
        # only carries the (fixed) padded length.
        tag = Tag(tag_cfg)
        frame0 = tag.make_frame(np.zeros(self.num_payload_bits, dtype=np.int8))
        refl0 = tag.reflection_sequence(frame0, theta)
        prefix_len = PREAMBLE_SYMBOLS.size + HEADER_TOTAL_BITS
        self._prefix_len = prefix_len
        self._prefix_reflections = refl0[:prefix_len]

        # Payload reflection per constellation index, mirroring
        # Tag.reflection_sequence's per-state arithmetic.
        switch = tag_cfg.switch
        array = tag_cfg.array
        lut = np.empty(scheme.constellation.size, dtype=np.complex128)
        for i, state in enumerate(scheme.states):
            if state.is_absorptive:
                lut[i] = switch.leakage_amplitude() + 0.0j
            else:
                gamma = array.reflection_coefficient(theta, state.line_phase_rad)
                lut[i] = gamma * state.amplitude * switch.through_amplitude()
        self._payload_lut = lut

        # Build-time self-check: the LUT applied to the zero-payload
        # frame must reproduce the reference reflection sequence exactly.
        protected0 = append_crc32(frame0.payload_bits)
        indices0 = fast_symbol_indices(scheme.name, protected0)
        if not np.array_equal(lut[indices0], refl0[prefix_len:]):
            raise AssertionError(
                "payload reflection LUT diverged from Tag.reflection_sequence"
            )

        self._n_sym = prefix_len + (self._padded_bits + 32) // k
        self._n_sig = self._n_sym * sps
        self._guard = _GUARD_SYMBOLS * sps
        self._padded_len = self._n_sig + 2 * self._guard

        self._energy = config.energy_model.report(
            tag_cfg.modulation, tag_cfg.symbol_rate_hz, tag_cfg.subcarrier_hz
        )

        # Rician fading: the random draws happen per frame in the RNG
        # loop (matching the serial reference's call into
        # rician_channel); only the *presence* of the stage is decided
        # here.
        self._use_rician = config.rician_k_db is not None

        # Doppler mixer (deterministic; matches Signal.frequency_shift).
        self._mixer = None
        if config.radial_velocity_m_s != 0.0:
            shift = doppler_shift_hz(-config.radial_velocity_m_s, ap_cfg.carrier_hz)
            t = np.arange(self._n_sig) / fs
            self._mixer = np.exp(1j * (2.0 * np.pi * shift * t + 0.0))

        # Blockage windows: a deterministic per-sample amplitude gain
        # over the (pre-guard) burst — the same vector apply_blockage
        # builds per call in the reference, computed once here and
        # broadcast over the whole batch.
        self._blockage_gain = None
        if config.blockage_events:
            self._blockage_gain = blockage_gain(
                self._n_sig, fs, list(config.blockage_events)
            )

        # Residual phase noise: the random-walk step (its lag is per point).
        self._use_phase_noise = config.phase_noise is not None
        self._pn_sqrt_step = 0.0
        if self._use_phase_noise:
            self._pn_sqrt_step = math.sqrt(config.phase_noise.diffusion_rate() / fs)

        # AWGN sigma (add_awgn splits the power evenly between rails).
        self._noise_sigma = None
        if config.include_noise:
            noise_factor = 10.0 ** (ap_cfg.noise_figure_db / 10.0)
            noise_power = thermal_noise_power(fs) * noise_factor
            if noise_power > 0.0:
                self._noise_sigma = math.sqrt(noise_power / 2.0)

        # Subcarrier squares + channel-select FIR (AP side).
        self._square_tx = None
        self._square_rx = None
        self._channel_taps = None
        if tag_cfg.subcarrier_hz > 0.0:
            self._square_tx = square_subcarrier_wave(
                self._n_sig, fs, tag_cfg.subcarrier_hz
            )
            self._square_rx = square_subcarrier_wave(
                self._padded_len, fs, tag_cfg.subcarrier_hz
            )
            symbol_rate = fs / sps
            cutoff = ap_cfg.channel_filter_cutoff_factor * symbol_rate
            if cutoff < fs / 2.0:
                self._channel_taps = design_fir_lowpass(
                    cutoff, fs, num_taps=ap_cfg.channel_filter_taps
                )

        # RF-switch rise time (single_pole_lowpass coefficients).
        self._switch_ba = None
        if switch.bandwidth_hz < fs / 2.0:
            alpha = 1.0 - np.exp(-2.0 * np.pi * switch.bandwidth_hz / fs)
            self._switch_ba = (
                np.array([alpha]),
                np.array([1.0, alpha - 1.0]),
            )

        # Clutter-free environments (no reflectors) reduce the
        # interference waveform to a constant leakage phasor per frame:
        # ``zeros + leak`` is elementwise identical to filling with the
        # scalar, so the whole (frames, samples) interference matrix can
        # be skipped.  The leakage amplitude expression matches
        # ``Environment.interference_waveform`` literally.
        self._env_no_reflectors = not config.environment.reflectors
        self._leak_amp = config.ap.tx_amplitude() * 10.0 ** (
            -config.environment.tx_rx_isolation_db / 20.0
        )

        # Frame-sync template, hoisted out of the per-frame loop: the
        # zero-order-hold expansion + unit-energy normalisation are the
        # exact ops ``correlate_preamble`` performs per call, so the
        # cached array is bit-identical to the one the reference builds.
        template = np.repeat(PREAMBLE_SYMBOLS.astype(np.complex128), sps)
        self._sync_template = template / np.linalg.norm(template)

        # Receiver front end: DC blocker + integrate-and-dump taps.
        self._ma_taps = np.full(sps, 1.0 / sps)
        self._dc_ba = None
        self._dc_zi_base = None
        if ap_cfg.use_dc_block:
            b = np.array([1.0, -1.0])
            a = np.array([1.0, -ap_cfg.dc_block_pole])
            self._dc_ba = (b, a)
            self._dc_zi_base = sp_signal.lfilter_zi(b, a)

    # -- TX kernel ---------------------------------------------------------

    def tx_reflections(self, padded_payload: np.ndarray) -> np.ndarray:
        """Per-symbol reflection coefficients for a payload batch.

        Input: ``(frames, padded_bits)`` 0/1 payload matrix (already
        padded to a whole number of symbols).  Output: the
        ``(frames, symbols)`` complex reflection sequence — byte-table
        CRC append, LUT constellation mapping, and a gather through the
        per-state reflection LUT, replacing the reference's
        ``Tag.make_frame`` + ``Tag.reflection_sequence`` Python loops
        with identical results.  This is the "frame-chain TX" kernel the
        hot-path microbenchmarks time against the reference.
        """
        n_frames = padded_payload.shape[0]
        protected = np.empty((n_frames, self._padded_bits + 32), dtype=np.int8)
        protected[:, : self._padded_bits] = padded_payload
        if self._padded_bits % 8 == 0 and _zlib_crc_usable():
            # Whole-byte payloads go through zlib's C CRC32 (mapped onto
            # the frame polynomial's register convention — integer-exact,
            # self-checked once per process).
            values = np.fromiter(
                (_crc32_zlib_value(padded_payload[f]) for f in range(n_frames)),
                dtype=np.uint32,
                count=n_frames,
            )
            protected[:, self._padded_bits :] = (
                (values[:, None] >> np.arange(31, -1, -1, dtype=np.uint32)) & 1
            ).astype(np.int8)
        else:
            for f in range(n_frames):
                protected[f, self._padded_bits :] = crc32_tail_bits_fast(
                    padded_payload[f]
                )

        indices = fast_symbol_indices(self._scheme_name, protected)
        reflections = np.empty((n_frames, self._n_sym), dtype=np.complex128)
        reflections[:, : self._prefix_len] = self._prefix_reflections[None, :]
        reflections[:, self._prefix_len :] = self._payload_lut[indices]
        return reflections

    # -- simulation --------------------------------------------------------

    def simulate(
        self, num_frames: int, rng: np.random.Generator | int | None = None
    ) -> list[LinkResult]:
        """Simulate ``num_frames`` bursts; bit-identical to the reference.

        Frame ``f`` of the returned list equals the ``f``-th consecutive
        ``simulate_link(config, num_payload_bits, rng)`` call on the same
        generator, field for field.
        """
        if num_frames < 1:
            raise ValueError(f"num_frames must be >= 1, got {num_frames}")
        rng = np.random.default_rng(rng)
        return self._simulate_fast(num_frames, rng)

    def _front_end(
        self, num_frames: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Shared batched waveform front end: RNG pass through matched
        filter.  Returns ``(padded_payload, work, filtered)`` — the
        conditioned receive matrix and its integrate-and-dump output —
        bit-identical per frame to the serial reference chain.
        """
        config = self.config
        n_frames = num_frames
        n_sig = self._n_sig
        padded_len = self._padded_len
        fs = self._fs

        # -- RNG pass: per-frame draws in the documented serial order --
        payload = np.empty((n_frames, self.num_payload_bits), dtype=np.int8)
        factors = np.empty(n_frames, dtype=np.complex128)
        steps = (
            np.empty((n_frames, n_sig + self._pn_lag))
            if self._use_phase_noise
            else None
        )
        if self._env_no_reflectors:
            interference = None
            leak = np.empty(n_frames, dtype=np.complex128)
        else:
            interference = np.empty((n_frames, padded_len), dtype=np.complex128)
            leak = None
        noise = (
            np.empty((n_frames, padded_len), dtype=np.complex128)
            if self._noise_sigma is not None
            else None
        )
        tx_amplitude = config.ap.tx_amplitude()
        environment = config.environment
        channels = [] if self._use_rician else None
        for f in range(n_frames):
            payload[f] = rng.integers(0, 2, size=self.num_payload_bits).astype(np.int8)
            carrier_phase = rng.uniform(0.0, 2.0 * math.pi)
            factors[f] = self._amplitude * np.exp(1j * carrier_phase)
            if channels is not None:
                # Exactly the draw sequence the serial reference makes:
                # NLOS delays (uniform) then NLOS phases (uniform).
                channels.append(
                    rician_channel(
                        config.rician_k_db,
                        config.num_nlos_paths,
                        config.max_excess_delay_s,
                        rng,
                    )
                )
            if steps is not None:
                steps[f] = rng.standard_normal(n_sig + self._pn_lag)
            if leak is not None:
                # Clutter-free: the whole interference waveform is one
                # constant phasor (same draw, same arithmetic as the
                # Environment model).
                leak_phase = rng.uniform(0.0, 2.0 * math.pi)
                leak[f] = self._leak_amp * np.exp(1j * leak_phase)
            else:
                interference[f] = environment.interference_waveform(
                    padded_len, fs, tx_amplitude, rng
                ).samples
            if noise is not None:
                real = rng.standard_normal(padded_len)
                imag = rng.standard_normal(padded_len)
                noise[f] = self._noise_sigma * (real + 1j * imag)

        # -- TX: bits -> reflection waveform, one 2-D pass per stage --
        if self._pad_bits:
            padded_payload = np.concatenate(
                [payload, np.zeros((n_frames, self._pad_bits), dtype=np.int8)],
                axis=1,
            )
        else:
            padded_payload = payload
        reflections = self.tx_reflections(padded_payload)

        wave = np.repeat(reflections, self._sps, axis=1)
        if self._square_tx is not None:
            wave = wave * self._square_tx[None, :]
        if self._switch_ba is not None:
            wave = sp_signal.lfilter(self._switch_ba[0], self._switch_ba[1], wave, axis=-1)

        signal = wave * factors[:, None]
        if channels is not None:
            # One (possibly different) sparse channel per frame, applied
            # through the grouped-FFT kernel — bit-identical per row to
            # the serial reference's channel.apply.
            signal = apply_channels_to_rows(signal, fs, channels)
        if self._mixer is not None:
            signal = signal * self._mixer[None, :]
        if self._blockage_gain is not None:
            signal = signal * self._blockage_gain[None, :]
        if steps is not None:
            path = np.cumsum(steps * self._pn_sqrt_step, axis=1)
            residual = path[:, self._pn_lag :] - path[:, : -self._pn_lag]
            # Bind the rotation before multiplying: ``signal * np.exp(...)``
            # would let numpy elide the large same-shape temporary into an
            # in-place multiply whose SIMD loop rounds the last bit
            # differently from the reference's out-of-place multiply.
            rotation = np.exp(1j * residual)
            signal = signal * rotation

        # Composite assembly, matching ``(signal + interference) + noise``
        # elementwise.  IEEE addition is commutative, so seeding the
        # buffer with the interference term and adding the signal window
        # in place reproduces the reference sums bit for bit while
        # skipping a zeros pass (and, clutter-free, the whole
        # interference matrix).
        if interference is None:
            composite = np.empty((n_frames, padded_len), dtype=np.complex128)
            composite[:] = leak[:, None]
        else:
            composite = interference  # buffer reuse; not needed again
        composite[:, self._guard : self._guard + n_sig] += signal
        if noise is not None:
            composite += noise

        # -- RX front end: condition / de-hop / matched filter, batched --
        work = composite
        if self._dc_ba is not None:
            b, a = self._dc_ba
            level = np.mean(work[:, : min(64, padded_len)], axis=1)
            zi = self._dc_zi_base[None, :] * level[:, None]
            work, _ = sp_signal.lfilter(b, a, work, axis=-1, zi=zi)
        if config.ap.adc is not None:
            work = self._adc_quantize(work)
        if self._square_rx is not None:
            work = work * self._square_rx[None, :]
            if self._channel_taps is not None:
                filtered_rows = sp_signal.lfilter(
                    self._channel_taps, [1.0], work, axis=-1
                )
                delay = (self._channel_taps.size - 1) // 2
                if delay:
                    work = np.concatenate(
                        [
                            filtered_rows[:, delay:],
                            np.zeros((n_frames, delay), dtype=filtered_rows.dtype),
                        ],
                        axis=1,
                    )
                else:
                    work = filtered_rows
        filtered = sp_signal.lfilter(self._ma_taps, [1.0], work, axis=-1)
        return padded_payload, work, filtered

    def _simulate_fast(
        self, num_frames: int, rng: np.random.Generator
    ) -> list[LinkResult]:
        config = self.config
        fs = self._fs
        padded_payload, work, filtered = self._front_end(num_frames, rng)

        # -- per-frame tail: sync, decode, score --
        sps = self._sps
        min_symbols = PREAMBLE_SYMBOLS.size + HEADER_TOTAL_BITS
        results = []
        for f in range(num_frames):
            work_row = work[f]
            start = detect_frame_start(
                Signal(work_row, fs),
                PREAMBLE_SYMBOLS,
                sps,
                threshold_ratio=config.ap.sync_threshold_ratio,
            )
            if start is None:
                receiver = ReceiverResult(detected=False)
            else:
                row = filtered[f]
                lead_in = work_row[: max(0, start - sps)]
                if lead_in.size >= 4 * sps:
                    row = row - complex(np.mean(lead_in))
                first = start + sps - 1
                if first >= row.size:
                    symbols = np.zeros(0, dtype=np.complex128)
                else:
                    symbols = row[first::sps]
                if symbols.size < min_symbols:
                    receiver = ReceiverResult(detected=False)
                else:
                    receiver = self._decode_symbol_stream(symbols, start)
            results.append(self._score(receiver, padded_payload[f]))
        return results

    # -- fused whole-budget point program ---------------------------------

    def _detect_starts(self, work: np.ndarray) -> np.ndarray:
        """Batched frame-start detection over a conditioned matrix.

        Row ``f`` of the result is the start sample
        :func:`~repro.dsp.sync.detect_frame_start` returns for that row
        (``-1`` encodes ``None``).  The per-row ``np.correlate`` stays
        1-D (its summation order is part of the bit-exact contract),
        but the magnitude, argmax and median CFAR statistics run as one
        batched pass each — elementwise/per-row identical to the serial
        calls.
        """
        template = self._sync_template
        n_frames, padded_len = work.shape
        lags = padded_len - template.size + 1
        starts = np.full(n_frames, -1, dtype=np.int64)
        if lags <= 0:
            return starts
        corr = np.empty((n_frames, lags), dtype=np.complex128)
        for f in range(n_frames):
            corr[f] = np.correlate(work[f], template, mode="valid")
        mag = np.abs(corr)
        peaks = np.argmax(mag, axis=1)
        floors = np.median(mag, axis=1)
        peak_vals = mag[np.arange(n_frames), peaks]
        positive_floor = floors > 0.0
        hit = np.empty(n_frames, dtype=bool)
        hit[~positive_floor] = peak_vals[~positive_floor] > 0.0
        idx = np.nonzero(positive_floor)[0]
        # same scalar division + comparison as the reference, elementwise
        hit[idx] = (peak_vals[idx] / floors[idx]) >= self._threshold_ratio()
        starts[hit] = peaks[hit]
        return starts

    def _threshold_ratio(self) -> float:
        return self.config.ap.sync_threshold_ratio

    def _frame_errors(
        self, symbols: np.ndarray, start: int, sent_payload: np.ndarray
    ) -> tuple[int, bool]:
        """Scores-only mirror of the decode tail: ``(bit_errors, detected)``.

        Follows :meth:`_decode_symbol_stream` + :meth:`_score` branch
        for branch but skips everything the BER accumulator never reads
        (SNR/EVM measurement, CRC verdict, hard-decision re-modulation)
        — :meth:`LinkBerAccumulator._absorb` consumes only the error
        count, the payload size and the detected flag, so the skipped
        stages cannot change the estimate.
        """
        miss = int(sent_payload.size // 2)
        num_preamble = PREAMBLE_SYMBOLS.size
        if symbols.size < num_preamble + HEADER_TOTAL_BITS:
            return miss, False

        gain = AccessPoint.preamble_gain(symbols)
        if gain == 0:
            return miss, True
        equalised = symbols / gain

        header_symbols = equalised[num_preamble : num_preamble + HEADER_TOTAL_BITS]
        header_bits = BPSK.constellation.demodulate(header_symbols)
        header = FrameHeader.from_bits(header_bits)
        if header is None:
            return miss, True

        scheme = get_scheme(header.modulation)
        num_payload_symbols = (
            header.payload_length_bits + 32
        ) // scheme.bits_per_symbol
        payload_start = num_preamble + HEADER_TOTAL_BITS
        payload_symbols = equalised[
            payload_start : payload_start + num_payload_symbols
        ]
        if payload_symbols.size < num_payload_symbols:
            return miss, True

        mean_point = scheme.constellation.mean_point()
        if abs(mean_point) > 1e-3:
            offset = np.mean(payload_symbols) - mean_point
            payload_symbols = payload_symbols - offset

        protected_bits = scheme.constellation.demodulate(payload_symbols)
        payload_bits = protected_bits[:-32]
        if payload_bits.size != sent_payload.size:
            return miss, True
        return int(np.count_nonzero(payload_bits != sent_payload)), True

    def _score_frames(
        self, num_frames: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """One fused pass: per-frame ``(bit_errors, detected)`` arrays.

        Frame ``f`` carries exactly the ``(result.bit_errors,
        result.detected)`` pair :meth:`simulate` would report for the
        same generator — the front end, sync and decode arithmetic are
        shared — without materialising per-frame ``LinkResult`` objects
        or the receiver measurements the accumulator ignores.
        """
        padded_payload, work, filtered = self._front_end(num_frames, rng)
        starts = self._detect_starts(work)
        sps = self._sps
        min_symbols = PREAMBLE_SYMBOLS.size + HEADER_TOTAL_BITS
        errors = np.empty(num_frames, dtype=np.int64)
        detected = np.zeros(num_frames, dtype=bool)
        miss = self._padded_bits // 2
        use_equalizer = self.config.ap.equalizer_taps > 0
        for f in range(num_frames):
            start = int(starts[f])
            if start < 0:
                errors[f] = miss
                continue
            work_row = work[f]
            row = filtered[f]
            lead_in = work_row[: max(0, start - sps)]
            if lead_in.size >= 4 * sps:
                row = row - complex(np.mean(lead_in))
            first = start + sps - 1
            if first >= row.size:
                symbols = np.zeros(0, dtype=np.complex128)
            else:
                symbols = row[first::sps]
            if symbols.size < min_symbols:
                errors[f] = miss
                continue
            if use_equalizer:
                # LMS state makes a scores-only shortcut fragile; take
                # the full receiver mirror for these (rare) configs.
                receiver = self._decode_symbol_stream(symbols, start)
                result = self._score(receiver, padded_payload[f])
                errors[f] = result.bit_errors
                detected[f] = result.detected
            else:
                errors[f], detected[f] = self._frame_errors(
                    symbols, start, padded_payload[f]
                )
        return errors, detected

    def simulate_point(
        self,
        rng: np.random.Generator,
        *,
        errors_needed: int,
        max_frames: int,
        start_block: int = 16,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run a whole sweep-point budget as fused blocks, early-exiting
        on the exact frame where ``errors_needed`` is reached.

        Returns per-frame ``(bit_errors, detected)`` arrays truncated at
        the stopping frame: frame ``f`` equals the ``f``-th serial
        ``simulate_link`` call on the same generator, and the truncation
        reproduces the estimator's frame-exact stopping rule (simulate
        while ``errors < errors_needed`` and frames remain).  Blocks
        grow geometrically so a point that converges in a handful of
        frames never pays for the full budget; frames simulated past
        the stop inside the final block consume generator state the
        serial loop would never draw, but they are discarded before
        scoring — the same overshoot semantics the chunked vectorized
        backend has always had.
        """
        if max_frames < 1:
            raise ValueError(f"max_frames must be >= 1, got {max_frames}")
        if errors_needed < 1:
            raise ValueError(f"errors_needed must be >= 1, got {errors_needed}")
        errors_parts: list[np.ndarray] = []
        detected_parts: list[np.ndarray] = []
        total = 0
        remaining = max_frames
        block = min(start_block, remaining)
        while remaining > 0:
            block = min(block, remaining)
            errors, detected = self._score_frames(block, rng)
            cumulative = np.cumsum(errors)
            hits = np.nonzero(cumulative + total >= errors_needed)[0]
            if hits.size:
                stop = int(hits[0]) + 1
                errors_parts.append(errors[:stop])
                detected_parts.append(detected[:stop])
                break
            total += int(cumulative[-1])
            errors_parts.append(errors)
            detected_parts.append(detected)
            remaining -= block
            block *= 2
        return np.concatenate(errors_parts), np.concatenate(detected_parts)

    # -- receiver tail (mirrors AccessPoint.decode_symbol_stream) ---------

    def _adc_quantize(self, work: np.ndarray) -> np.ndarray:
        """Per-row auto-ranged quantization (mirrors ``ADC.auto_ranged``
        + ``ADC.quantize`` applied frame by frame)."""
        adc = self.config.ap.adc
        peak = np.maximum(
            np.max(np.abs(work.real), axis=1), np.max(np.abs(work.imag), axis=1)
        )
        full_scale = np.where(
            peak == 0.0, adc.full_scale, peak * 10.0 ** (6.0 / 20.0)
        )[:, None]
        step = 2.0 * full_scale / (2**adc.bits)
        max_level = 2 ** (adc.bits - 1) - 1

        def rail(values: np.ndarray) -> np.ndarray:
            clipped = np.clip(values, -full_scale, full_scale)
            levels = np.round(clipped / step)
            levels = np.clip(levels, -(max_level + 1), max_level)
            return levels * step

        return rail(work.real) + 1j * rail(work.imag)

    def _decode_symbol_stream(
        self, symbols: np.ndarray, start: int
    ) -> ReceiverResult:
        """Mirror of :meth:`AccessPoint.decode_symbol_stream`.

        Byte-identical control flow and arithmetic; the only
        substitutions are the integer-exact fast CRC check and the
        LUT-based re-modulation of the hard decisions.
        """
        ap_cfg = self.config.ap
        num_preamble = PREAMBLE_SYMBOLS.size
        if symbols.size < num_preamble + HEADER_TOTAL_BITS:
            return ReceiverResult(detected=False)

        gain = AccessPoint.preamble_gain(symbols)
        if gain == 0:
            return ReceiverResult(detected=True, start_sample=start)

        equalised = symbols / gain

        header_symbols = equalised[num_preamble : num_preamble + HEADER_TOTAL_BITS]
        header_bits = BPSK.constellation.demodulate(header_symbols)
        header = FrameHeader.from_bits(header_bits)
        if header is None:
            return ReceiverResult(detected=True, start_sample=start)

        scheme = get_scheme(header.modulation)
        num_payload_symbols = (
            header.payload_length_bits + 32
        ) // scheme.bits_per_symbol
        payload_start = num_preamble + HEADER_TOTAL_BITS
        payload_symbols = equalised[
            payload_start : payload_start + num_payload_symbols
        ]

        if ap_cfg.equalizer_taps > 0 and payload_symbols.size:
            from repro.dsp.equalizer import LmsEqualizer

            training_reference = np.concatenate(
                [
                    PREAMBLE_SYMBOLS.astype(np.complex128),
                    BPSK.constellation.modulate(header.to_bits()),
                ]
            )
            equalizer = LmsEqualizer(num_taps=ap_cfg.equalizer_taps)
            equalizer.train(equalised[:payload_start], training_reference)
            payload_symbols = equalizer.apply(payload_symbols)
        if payload_symbols.size < num_payload_symbols:
            return ReceiverResult(
                detected=True, header=header, header_ok=True, start_sample=start
            )

        mean_point = scheme.constellation.mean_point()
        if abs(mean_point) > 1e-3:
            offset = np.mean(payload_symbols) - mean_point
            payload_symbols = payload_symbols - offset

        protected_bits = scheme.constellation.demodulate(payload_symbols)
        payload_bits = protected_bits[:-32]
        crc_ok = check_crc32_fast(protected_bits)

        reference_symbols = fast_modulate(scheme.name, protected_bits)
        snr_est = measure_snr(payload_symbols, reference_symbols)
        evm = evm_rms(payload_symbols, reference_symbols)

        return ReceiverResult(
            detected=True,
            header=header,
            header_ok=True,
            payload_bits=payload_bits,
            payload_crc_ok=crc_ok,
            start_sample=start,
            payload_symbols=payload_symbols,
            snr_estimate_db=snr_est,
            evm=evm,
        )

    def _score(
        self, receiver: ReceiverResult, sent_payload: np.ndarray
    ) -> LinkResult:
        """Score one burst exactly like :func:`simulate_link` does."""
        if (
            receiver.payload_bits is not None
            and receiver.payload_bits.size == sent_payload.size
        ):
            errors = int(np.count_nonzero(receiver.payload_bits != sent_payload))
            ber = bit_error_rate(sent_payload, receiver.payload_bits)
        else:
            errors = sent_payload.size // 2
            ber = 0.5
        return LinkResult(
            config=self.config,
            receiver=receiver,
            num_payload_bits=sent_payload.size,
            bit_errors=errors,
            ber=ber,
            frame_success=receiver.success,
            snr_analytic_db=self._snr_analytic_db,
            snr_measured_db=receiver.snr_estimate_db,
            evm=receiver.evm,
            energy=self._energy,
        )


def simulate_link_batch(
    config: LinkConfig,
    num_frames: int,
    num_payload_bits: int = 2048,
    rng: np.random.Generator | int | None = None,
) -> list[LinkResult]:
    """Simulate ``num_frames`` bursts through the batched kernel.

    Convenience wrapper around :class:`BatchLinkSimulator` for one-shot
    use; repeated callers (the vectorized BER estimator) should build
    the simulator once and call :meth:`BatchLinkSimulator.simulate`.
    """
    return BatchLinkSimulator(config, num_payload_bits).simulate(num_frames, rng)
