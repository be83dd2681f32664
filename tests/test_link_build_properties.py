"""Differential oracle (hypothesis) for the batch link simulator's build.

:func:`_reference_build` is :meth:`BatchLinkSimulator._build` as it
stood when every simulator computed all of its precomputed state from
its own config.  Run on a bare instance (and, for
:class:`FastLinkSimulator`, followed by the class's
``_build_fast_tier``), it is the reference every constructed simulator
must equal: every attribute it sets, arrays by dtype, shape and bytes,
floats bit for bit, everything else by equality; and one small
``simulate_point`` on a fixed seed must return identical arrays.

Only three of those values read the range (``_amplitude``,
``_snr_analytic_db``, ``_pn_lag``); the rest is shared between every
simulator whose config differs only in distance, so the oracle also
requires every shared array to be read-only.

The drawn base configs cover each optional stage of the chain (Rician
fading, phase noise, a subcarrier with its channel FIR, Doppler, a
blockage window, the ADC, AWGN, the office clutter, the LMS equalizer,
an incidence angle) at 256 or 2048 payload bits.  Each example builds
2-4 points that differ in distance and sometimes in one other field,
in draw order, so later points are built after earlier ones of the
same or a neighbouring config.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sp_signal

from repro.channel.blockage import BlockageEvent, blockage_gain
from repro.channel.environment import Environment
from repro.channel.mobility import doppler_shift_hz
from repro.constants import SPEED_OF_LIGHT
from repro.core.ap import APConfig
from repro.core.coding import append_crc32
from repro.core.energy import TagEnergyModel
from repro.core.framing import HEADER_TOTAL_BITS, PREAMBLE_SYMBOLS
from repro.core.link import (
    _GUARD_SYMBOLS,
    LinkConfig,
    _received_amplitude,
    link_snr_db,
)
from repro.core.tag import Tag, TagConfig, square_subcarrier_wave
from repro.dsp.filters import design_fir_lowpass
from repro.rf.noise import PhaseNoiseModel, thermal_noise_power
from repro.rf.quantize import ADC
from repro.sim.batch import BatchLinkSimulator, fast_symbol_indices
from repro.sim.fastlink import FastLinkSimulator

_CLASSES = (BatchLinkSimulator, FastLinkSimulator)


def _reference_build(self) -> None:
    """``BatchLinkSimulator._build`` before the build state was shared."""
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

    tag = Tag(tag_cfg)
    frame0 = tag.make_frame(np.zeros(self.num_payload_bits, dtype=np.int8))
    refl0 = tag.reflection_sequence(frame0, theta)
    prefix_len = PREAMBLE_SYMBOLS.size + HEADER_TOTAL_BITS
    self._prefix_len = prefix_len
    self._prefix_reflections = refl0[:prefix_len]

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

    self._amplitude = _received_amplitude(config)
    self._snr_analytic_db = link_snr_db(config)
    self._energy = config.energy_model.report(
        tag_cfg.modulation, tag_cfg.symbol_rate_hz, tag_cfg.subcarrier_hz
    )

    self._use_rician = config.rician_k_db is not None

    self._mixer = None
    if config.radial_velocity_m_s != 0.0:
        shift = doppler_shift_hz(-config.radial_velocity_m_s, ap_cfg.carrier_hz)
        t = np.arange(self._n_sig) / fs
        self._mixer = np.exp(1j * (2.0 * np.pi * shift * t + 0.0))

    self._blockage_gain = None
    if config.blockage_events:
        self._blockage_gain = blockage_gain(
            self._n_sig, fs, list(config.blockage_events)
        )

    self._pn_lag = 0
    self._pn_sqrt_step = 0.0
    if config.phase_noise is not None:
        delay = 2.0 * config.distance_m / SPEED_OF_LIGHT
        self._pn_lag = max(1, int(round(delay * fs)))
        self._pn_sqrt_step = math.sqrt(config.phase_noise.diffusion_rate() / fs)
    self._use_phase_noise = config.phase_noise is not None

    self._noise_sigma = None
    if config.include_noise:
        noise_factor = 10.0 ** (ap_cfg.noise_figure_db / 10.0)
        noise_power = thermal_noise_power(fs) * noise_factor
        if noise_power > 0.0:
            self._noise_sigma = math.sqrt(noise_power / 2.0)

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

    self._switch_ba = None
    if switch.bandwidth_hz < fs / 2.0:
        alpha = 1.0 - np.exp(-2.0 * np.pi * switch.bandwidth_hz / fs)
        self._switch_ba = (
            np.array([alpha]),
            np.array([1.0, alpha - 1.0]),
        )

    self._env_no_reflectors = not config.environment.reflectors
    self._leak_amp = config.ap.tx_amplitude() * 10.0 ** (
        -config.environment.tx_rx_isolation_db / 20.0
    )

    template = np.repeat(PREAMBLE_SYMBOLS.astype(np.complex128), sps)
    self._sync_template = template / np.linalg.norm(template)

    self._ma_taps = np.full(sps, 1.0 / sps)
    self._dc_ba = None
    self._dc_zi_base = None
    if ap_cfg.use_dc_block:
        b = np.array([1.0, -1.0])
        a = np.array([1.0, -ap_cfg.dc_block_pole])
        self._dc_ba = (b, a)
        self._dc_zi_base = sp_signal.lfilter_zi(b, a)


def _reference(cls: type, config: LinkConfig, num_payload_bits: int):
    """A simulator of ``cls`` built by the reference, on a bare instance."""
    simulator = cls.__new__(cls)
    simulator.config = config
    simulator.num_payload_bits = num_payload_bits
    _reference_build(simulator)
    if cls is FastLinkSimulator:
        simulator._build_fast_tier()
    return simulator


def _assert_same(name: str, got: object, want: object) -> None:
    if isinstance(want, np.ndarray):
        assert isinstance(got, np.ndarray), name
        assert (got.dtype, got.shape) == (want.dtype, want.shape), name
        assert got.tobytes() == want.tobytes(), name
    elif isinstance(want, (tuple, list)):
        assert type(got) is type(want) and len(got) == len(want), name
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_same(f"{name}[{i}]", g, w)
    elif isinstance(want, (float, complex, np.floating, np.complexfloating)):
        assert type(got) is type(want), name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
    else:
        assert got == want, name


def _arrays(value: object):
    if isinstance(value, np.ndarray):
        yield value
    elif isinstance(value, (tuple, list)):
        for item in value:
            yield from _arrays(item)


def _point(simulator) -> tuple[np.ndarray, np.ndarray]:
    return simulator.simulate_point(
        np.random.default_rng(20211), errors_needed=10**9, max_frames=2
    )


def _check(cls: type, config: LinkConfig, num_payload_bits: int):
    """Build one simulator and hold it to the reference; returns it."""
    built = cls(config, num_payload_bits)
    reference = _reference(cls, config, num_payload_bits)
    for name, want in vars(reference).items():
        assert hasattr(built, name), name
        _assert_same(name, getattr(built, name), want)
    for name, value in vars(built).items():
        for array in _arrays(value):
            assert not array.flags.writeable, name
    for got, want in zip(_point(built), _point(reference)):
        _assert_same("simulate_point", got, want)
    return built


# -- strategies -----------------------------------------------------------

_distances = st.floats(0.5, 25.0, allow_nan=False, allow_infinity=False)
_angles = st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False)


@st.composite
def _base_configs(draw) -> LinkConfig:
    subcarrier = draw(st.booleans())
    tag = TagConfig(
        modulation=draw(st.sampled_from(["BPSK", "QPSK", "8PSK", "OOK"])),
        subcarrier_hz=20e6 if subcarrier else 0.0,
    )
    ap = APConfig(
        adc=draw(st.sampled_from([None, ADC(bits=8), ADC(bits=12)])),
        equalizer_taps=draw(st.sampled_from([0, 0, 0, 3])),
    )
    rician = draw(st.sampled_from([None, 3.0, 9.0]))
    velocity = draw(st.sampled_from([0.0, 0.0, 1.5, -4.0]))
    blockage = draw(
        st.sampled_from([(), (BlockageEvent(0.2e-5, 1.0e-5, 10.0),)])
    )
    return LinkConfig(
        incidence_angle_deg=draw(_angles),
        tag=tag,
        ap=ap,
        environment=draw(
            st.sampled_from([Environment.anechoic(), Environment.typical_office()])
        ),
        rician_k_db=rician,
        num_nlos_paths=draw(st.sampled_from([1, 3])),
        radial_velocity_m_s=velocity,
        blockage_events=blockage,
        phase_noise=draw(st.sampled_from([None, PhaseNoiseModel()])),
        include_noise=draw(st.booleans()),
    )


#: One field a point may change besides its distance.
_other_field = st.one_of(
    st.tuples(st.just("incidence_angle_deg"), _angles),
    st.tuples(
        st.just("implementation_loss_db"),
        st.floats(0.0, 12.0, allow_nan=False, allow_infinity=False),
    ),
    st.tuples(st.just("radial_velocity_m_s"), st.sampled_from([0.0, 2.5])),
    st.tuples(st.just("include_noise"), st.booleans()),
    st.tuples(st.just("rician_k_db"), st.sampled_from([None, 6.0])),
    st.tuples(
        st.just("phase_noise"),
        st.sampled_from([None, PhaseNoiseModel(level_dbc_hz=-80.0)]),
    ),
)


@st.composite
def _points(draw) -> tuple[list[LinkConfig], int]:
    base = draw(_base_configs())
    distances = draw(st.lists(_distances, min_size=2, max_size=4, unique=True))
    configs = []
    for distance in distances:
        changes = {"distance_m": distance}
        other = draw(st.one_of(st.none(), _other_field))
        if other is not None:
            changes[other[0]] = other[1]
        configs.append(replace(base, **changes))
    return configs, draw(st.sampled_from([256, 2048]))


# -- the oracle -----------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(_points())
def test_built_state_matches_reference(points):
    configs, num_payload_bits = points
    for cls in _CLASSES:
        for config in configs:
            _check(cls, config, num_payload_bits)


def test_pn_lag_follows_each_point_distance():
    """The phase-noise lag is the one stage of the chain that reads the
    range: points 1 m and 12 m apart must not share it."""
    base = LinkConfig(phase_noise=PhaseNoiseModel(), include_noise=False)
    for cls in _CLASSES:
        lags = [
            _check(cls, replace(base, distance_m=d), 256)._pn_lag
            for d in (1.0, 12.0, 1.0)
        ]
        assert lags[0] == lags[2] != lags[1]


def test_incidence_angle_changes_the_built_state():
    base = LinkConfig(include_noise=False)
    for cls in _CLASSES:
        first = _check(cls, replace(base, distance_m=2.0), 256)
        second = _check(
            cls, replace(base, distance_m=5.0, incidence_angle_deg=30.0), 256
        )
        assert first._payload_lut.tobytes() != second._payload_lut.tobytes()


def test_points_apart_in_distance_share_one_build():
    base = LinkConfig(include_noise=False)
    for cls in _CLASSES:
        near = cls(replace(base, distance_m=2.0), 256)
        far = cls(replace(base, distance_m=9.0), 256)
        tilted = cls(replace(base, distance_m=9.0, incidence_angle_deg=10.0), 256)
        assert near._payload_lut is far._payload_lut
        assert near._sync_template is far._sync_template
        assert tilted._payload_lut is not far._payload_lut
        assert near._amplitude != far._amplitude


class _OpaqueEnergyModel:
    """An energy model the cache hasher cannot canonicalise."""

    def report(self, *args):
        return TagEnergyModel().report(*args)


def test_unhashable_config_builds_its_own_state():
    config = LinkConfig(energy_model=_OpaqueEnergyModel(), include_noise=False)
    for cls in _CLASSES:
        first = _check(cls, config, 256)
        second = _check(cls, replace(config, distance_m=7.0), 256)
        assert first._payload_lut is not second._payload_lut
