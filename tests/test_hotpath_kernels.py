"""Equivalence tests for the vectorized hot-path kernels.

Every vectorized kernel keeps a reference implementation alive (the
original loops live in ``tests/reference_kernels.py``); these tests pin
the contract that vectorization changed *speed only*:

* the array-wide Viterbi decodes **byte-identically** to the nested
  reference loop over randomized polynomials, constraint lengths and
  message lengths (including metric ties, which hard decisions hit
  constantly);
* the byte-table CRC and LUT constellation mappers are integer-exact
  drop-ins for the bit-loop / dict-lookup references;
* :meth:`BatchLinkSimulator.simulate_point` reproduces the per-frame
  ``(bit_errors, detected)`` of consecutive :func:`simulate_link` calls
  across modulations, subcarrier/doppler/ADC variants, LMS equalizers,
  Rician fading and blockage windows;
* :meth:`MultipathChannel.apply` (cached tap grid + shared-FFT kernel)
  and the row-batched :func:`apply_channels_to_rows` reproduce the
  per-``Signal`` reference implementation sample for sample;
* the ``backend="fused"`` BER estimator returns byte-identical
  :class:`BerEstimate`\\ s to the serial path, randomized Rician
  K-factors and blockage plans included;
* :meth:`ResultCache.prune` evicts strictly least-recently-used.
"""

from __future__ import annotations

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.channel.blockage import BlockageEvent
from repro.channel.environment import Environment
from repro.channel.multipath import (
    MultipathChannel,
    PathComponent,
    apply_channels_to_rows,
    rician_channel,
)
from repro.dsp.signal import Signal
from repro.core.coding import append_crc32, crc32
from repro.core.convolutional import ConvolutionalCode, K7_CODE
from repro.core.link import LinkConfig, simulate_link
from repro.core.modulation import available_schemes, get_scheme
from repro.sim.batch import (
    BatchLinkSimulator,
    crc32_tail_bits_fast,
    crc_bits_fast,
    fast_symbol_indices,
)
from repro.sim.cache import MISS, ResultCache
from repro.sim.monte_carlo import estimate_link_ber
from tests.reference_kernels import (
    multipath_apply_reference,
    viterbi_reference,
    viterbi_reference_hard,
)


# -- Viterbi: vectorized == reference ----------------------------------------


def _random_code(rng: np.random.Generator) -> ConvolutionalCode:
    constraint = int(rng.integers(2, 7))
    num_polys = int(rng.integers(2, 4))
    limit = 1 << constraint
    polys = tuple(int(rng.integers(1, limit)) for _ in range(num_polys))
    return ConvolutionalCode(constraint_length=constraint, polynomials=polys)


class TestViterbiBackendEquivalence:
    def test_randomized_codes_hard_decisions(self, rng):
        """Byte-identical decodes over random codes, lengths and errors.

        Hard decisions produce integer-valued path metrics, so metric
        ties are common — this exercises the tie-break rule match."""
        for _ in range(25):
            code = _random_code(rng)
            num_bits = int(rng.integers(1, 80))
            message = rng.integers(0, 2, size=num_bits).astype(np.int8)
            coded = code.encode(message)
            num_flips = int(rng.integers(0, 1 + coded.size // 8))
            if num_flips:
                flips = rng.choice(coded.size, size=num_flips, replace=False)
                coded[flips] ^= 1
            reference = viterbi_reference_hard(code, coded)
            vectorized = code.decode_hard(coded)
            assert np.array_equal(reference, vectorized), (
                f"K={code.constraint_length} polys={code.polynomials} "
                f"bits={num_bits} flips={num_flips}"
            )

    def test_randomized_soft_decisions(self, rng):
        for _ in range(10):
            code = _random_code(rng)
            num_bits = int(rng.integers(1, 60))
            message = rng.integers(0, 2, size=num_bits).astype(np.int8)
            soft = 1.0 - 2.0 * code.encode(message).astype(np.float64)
            soft += 0.8 * rng.standard_normal(soft.size)
            reference = viterbi_reference(code, soft)
            vectorized = code.decode_soft(soft)
            assert np.array_equal(reference, vectorized)

    def test_k7_long_message(self, rng):
        message = rng.integers(0, 2, size=400).astype(np.int8)
        coded = K7_CODE.encode(message)
        coded[::37] ^= 1
        assert np.array_equal(
            viterbi_reference_hard(K7_CODE, coded),
            K7_CODE.decode_hard(coded),
        )


# -- fast CRC / constellation LUTs: integer-exact ----------------------------


class TestFastPrimitives:
    def test_crc_matches_reference_all_lengths(self, rng):
        """Byte-table CRC == bit-loop CRC, incl. non-multiple-of-8 tails."""
        for size in [0, 1, 7, 8, 9, 31, 32, 33, 64, 100, 2048]:
            bits = rng.integers(0, 2, size=size).astype(np.int8)
            assert crc_bits_fast(bits) == crc32(bits)

    def test_crc_tail_matches_append_crc32(self, rng):
        bits = rng.integers(0, 2, size=96).astype(np.int8)
        assert np.array_equal(crc32_tail_bits_fast(bits), append_crc32(bits)[-32:])

    @pytest.mark.parametrize("name", available_schemes())
    def test_symbol_mapping_matches_reference(self, name, rng):
        constellation = get_scheme(name).constellation
        k = constellation.bits_per_symbol
        bits = rng.integers(0, 2, size=60 * k).astype(np.int8)
        assert np.array_equal(
            fast_symbol_indices(name, bits), constellation.symbol_indices(bits)
        )

    def test_symbol_mapping_broadcasts_over_frames(self, rng):
        bits = rng.integers(0, 2, size=(3, 40)).astype(np.int8)
        batched = fast_symbol_indices("QPSK", bits)
        constellation = get_scheme("QPSK").constellation
        for f in range(3):
            assert np.array_equal(batched[f], constellation.symbol_indices(bits[f]))

    def test_symbol_mapping_rejects_ragged_bits(self):
        with pytest.raises(ValueError, match="divisible"):
            fast_symbol_indices("QPSK", np.zeros(7, dtype=np.int8))


# -- fused frame chain: per-frame parity with simulate_link ------------------


def _batch_configs() -> dict[str, LinkConfig]:
    base = LinkConfig()
    return {
        "default_qpsk": base,
        "office_13m": LinkConfig(
            distance_m=13.0, environment=Environment.typical_office()
        ),
        "ook": LinkConfig(tag=dataclasses.replace(base.tag, modulation="OOK")),
        "qam16": LinkConfig(tag=dataclasses.replace(base.tag, modulation="16QAM")),
        "subcarrier": LinkConfig(tag=dataclasses.replace(base.tag, subcarrier_hz=20e6)),
        "doppler": LinkConfig(radial_velocity_m_s=2.0),
        "no_adc": LinkConfig(ap=dataclasses.replace(base.ap, adc=None)),
        "rician": LinkConfig(rician_k_db=10.0),
        "rician_far": LinkConfig(
            distance_m=11.0, rician_k_db=6.0, num_nlos_paths=5
        ),
        "blockage": LinkConfig(
            blockage_events=(
                BlockageEvent(0.1e-4, 0.5e-4, 18.0),
                BlockageEvent(0.4e-4, 0.8e-4, 6.0),  # overlapping window
            )
        ),
        "rician_blockage_doppler": LinkConfig(
            rician_k_db=9.0,
            radial_velocity_m_s=1.5,
            blockage_events=(BlockageEvent(0.2e-4, 0.6e-4, 12.0),),
        ),
    }


# -- stochastic-channel kernels: randomized property tests --------------------


def _random_stochastic_config(rng: np.random.Generator) -> LinkConfig:
    """A random fading/blockage operating point (always at least one of
    the two stochastic stages enabled — plain configs are covered by
    ``_batch_configs``)."""
    use_rician = bool(rng.random() < 0.7)
    events = []
    for _ in range(int(rng.integers(0, 3))):
        start = float(rng.uniform(0.0, 0.8e-4))
        events.append(
            BlockageEvent(
                start_s=start,
                stop_s=start + float(rng.uniform(0.05e-4, 0.5e-4)),
                attenuation_db=float(rng.uniform(3.0, 25.0)),
            )
        )
    if not use_rician and not events:
        use_rician = True
    kwargs: dict = {}
    if use_rician:
        kwargs.update(
            rician_k_db=float(rng.uniform(-3.0, 15.0)),
            num_nlos_paths=int(rng.integers(1, 6)),
            max_excess_delay_s=float(rng.uniform(5e-9, 60e-9)),
        )
    return LinkConfig(
        distance_m=float(rng.uniform(1.0, 14.0)),
        blockage_events=tuple(events),
        **kwargs,
    )


def _equalizer_configs() -> dict[str, LinkConfig]:
    """Noisy LMS-equalizer operating points: the payload sees enough
    noise that dropping the equalizer changes the decided bits."""
    base = LinkConfig()
    return {
        "equalizer3_office_13m": LinkConfig(
            distance_m=13.0,
            environment=Environment.typical_office(),
            ap=dataclasses.replace(base.ap, equalizer_taps=3),
        ),
        "equalizer5_rician_9m": LinkConfig(
            distance_m=9.0,
            rician_k_db=6.0,
            ap=dataclasses.replace(base.ap, equalizer_taps=5),
        ),
    }


def _parity_cases() -> list:
    """``(config, seed)`` cases for the per-frame parity oracle."""
    cases = [
        pytest.param(config, 0, id=name)
        for name, config in sorted({**_batch_configs(), **_equalizer_configs()}.items())
    ]
    rng = np.random.default_rng(2024)
    for trial in range(6):
        cases.append(
            pytest.param(
                _random_stochastic_config(rng), trial, id=f"stochastic{trial}"
            )
        )
    return cases


class TestPerFrameParity:
    """The fused point program == consecutive ``simulate_link`` calls.

    ``simulate_point`` with an unreachable error target runs exactly
    ``max_frames`` frames, so each frame's ``(bit_errors, detected)``
    pair must equal the serial reference's on an equal generator.
    """

    @pytest.mark.parametrize("config,seed", _parity_cases())
    def test_simulate_point_matches_simulate_link(self, config, seed):
        num_frames = 3
        rng_ref = np.random.default_rng(seed)
        reference = [simulate_link(config, rng=rng_ref) for _ in range(num_frames)]
        errors, detected = BatchLinkSimulator(config, 2048).simulate_point(
            np.random.default_rng(seed), errors_needed=10**9, max_frames=num_frames
        )
        assert errors.tolist() == [r.bit_errors for r in reference]
        assert detected.tolist() == [r.detected for r in reference]

    def test_rician_batches_without_fallback(self):
        """Fading configs run the array program; no per-frame serial fallback."""
        simulator = BatchLinkSimulator(LinkConfig(rician_k_db=10.0))
        assert not hasattr(simulator, "supports_fast_path")
        errors, detected = simulator.simulate_point(
            np.random.default_rng(0), errors_needed=10**9, max_frames=2
        )
        assert len(errors) == len(detected) == 2

    def test_rejects_bad_payload_size(self):
        with pytest.raises(ValueError, match="num_payload_bits"):
            BatchLinkSimulator(LinkConfig(), num_payload_bits=0)


class TestMultipathKernelEquivalence:
    """Cached-tap-grid apply and the rows kernel == per-Signal reference."""

    FS = 80e6

    def test_apply_matches_reference_randomized(self, rng):
        for _ in range(12):
            channel = rician_channel(
                float(rng.uniform(-3.0, 15.0)),
                int(rng.integers(1, 6)),
                float(rng.uniform(5e-9, 60e-9)),
                rng,
            )
            samples = rng.standard_normal(400) + 1j * rng.standard_normal(400)
            sig = Signal(samples, self.FS)
            fast = channel.apply(sig)
            ref = multipath_apply_reference(channel, sig)
            assert np.array_equal(fast.samples, ref.samples)
            assert fast.sample_rate == ref.sample_rate

    def test_integer_sample_delays_take_direct_path(self, rng):
        """Whole-sample delays skip the FFT operator — still bit-exact."""
        channel = MultipathChannel(
            paths=(
                PathComponent(delay_s=0.0, gain=0.8 + 0.1j),
                PathComponent(delay_s=2.0 / self.FS, gain=0.3j),
                PathComponent(delay_s=1.0 / self.FS, gain=-0.2 + 0.0j),
            )
        )
        samples = rng.standard_normal(256) + 1j * rng.standard_normal(256)
        sig = Signal(samples, self.FS)
        assert np.array_equal(
            channel.apply(sig).samples,
            multipath_apply_reference(channel, sig).samples,
        )

    def test_rows_kernel_matches_per_row_apply(self, rng):
        frames = 5
        rows = (
            rng.standard_normal((frames, 300))
            + 1j * rng.standard_normal((frames, 300))
        )
        channels = [
            rician_channel(6.0, int(rng.integers(1, 5)), 30e-9, rng)
            for _ in range(frames)
        ]
        batched = apply_channels_to_rows(rows, self.FS, channels)
        for f in range(frames):
            expected = channels[f].apply(Signal(rows[f], self.FS)).samples
            assert np.array_equal(batched[f], expected), f"frame {f}"


class TestStochasticChannelProperties:
    """Randomized Rician K / blockage plans: fused == serial, bit for bit."""

    def test_estimator_bit_exact_on_random_configs(self):
        rng = np.random.default_rng(7)
        for _ in range(3):
            config = _random_stochastic_config(rng)
            kwargs = dict(
                target_errors=8, max_bits=6144, bits_per_frame=512, seed=11
            )
            serial = estimate_link_ber(config, backend="serial", **kwargs)
            fused = estimate_link_ber(config, backend="fused", **kwargs)
            assert serial == fused, config


class TestEstimatorBackendEquivalence:
    def test_fused_backend_byte_identical(self):
        config = LinkConfig(
            distance_m=12.5, environment=Environment.typical_office()
        )
        kwargs = dict(target_errors=5, max_bits=8192, bits_per_frame=1024, seed=3)
        serial = estimate_link_ber(config, backend="serial", **kwargs)
        fused = estimate_link_ber(config, backend="fused", **kwargs)
        assert serial == fused

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            estimate_link_ber(LinkConfig(), backend="gpu")


# -- ResultCache LRU prune ----------------------------------------------------


class TestCachePrune:
    def _filled_cache(self, tmp_path, count=4):
        cache = ResultCache(tmp_path / "cache", version="v")
        keys = []
        for i in range(count):
            key = cache.key_for(index=i)
            cache.put(key, np.zeros(64))
            keys.append(key)
            # strictly increasing mtimes regardless of filesystem resolution
            os.utime(cache._path(key), (1_000_000 + i, 1_000_000 + i))
        return cache, keys

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        entry_size = cache.size_bytes() // len(keys)
        removed = cache.prune(max_bytes=2 * entry_size)
        assert removed == 2
        assert keys[0] not in cache and keys[1] not in cache
        assert keys[2] in cache and keys[3] in cache

    def test_get_refreshes_recency(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        assert cache.get(keys[0]) is not MISS  # touch the oldest entry
        now = time.time()
        assert cache._path(keys[0]).stat().st_mtime >= now - 60
        entry_size = cache.size_bytes() // len(keys)
        cache.prune(max_bytes=entry_size)
        assert keys[0] in cache  # survived: most recently used
        assert keys[1] not in cache

    def test_prune_zero_empties(self, tmp_path):
        cache, keys = self._filled_cache(tmp_path)
        assert cache.prune(max_bytes=0) == len(keys)
        assert len(cache) == 0

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache, _ = self._filled_cache(tmp_path)
        assert cache.prune(max_bytes=cache.size_bytes()) == 0

    def test_prune_rejects_negative(self, tmp_path):
        cache, _ = self._filled_cache(tmp_path, count=1)
        with pytest.raises(ValueError, match="non-negative"):
            cache.prune(max_bytes=-1)

    def test_prune_counts_as_invalidations(self, tmp_path):
        cache, _ = self._filled_cache(tmp_path)
        cache.prune(max_bytes=0)
        assert cache.stats.invalidations == 4
