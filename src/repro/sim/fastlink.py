"""The compiled/statistical fast tier of the link simulator.

:class:`FastLinkSimulator` is the ``backend="fast"`` engine behind
:func:`repro.sim.monte_carlo.estimate_link_ber`.  It subclasses
:class:`~repro.sim.batch.BatchLinkSimulator` and replaces the fused
scoring pass with a single-precision, bulk-RNG implementation whose
inner loops run through the optional numba kernels in
:mod:`repro.sim.jit` (pure-numpy fallbacks when numba is absent —
logged, never silent).

Exactness contract — the *statistical tier*
-------------------------------------------
Unlike the exact ``serial``/``fused`` backends, the fast tier
is **not** bit-identical to the reference.  It draws the same random
variates from the same distributions but in bulk order (one array call
per stage instead of the documented per-frame interleave), runs the
waveform chain in complex64/float32, detects frames with a batched FFT
correlation instead of ``np.correlate``, quantises Rician NLOS delays
to whole samples, and scores the header against the known transmitted
header bits (a corrupted header that still passes CRC-16 is ~2^-16
rare).  Acceptance is therefore statistical: the Wilson-CI overlap
suite in ``tests/test_fast_tier.py`` pins the fast tier's BER against
the serial reference across SNR points and schemes.  Because results
are not byte-reproducible against the exact tiers, the sweep cache
keeps ``"fast"`` results in their own keyspace
(:class:`repro.sim.executor.BerSweepTask`).

Configurations whose receiver tail carries LMS equalizer state
(``ap.equalizer_taps > 0``) fall back to the exact fused pass — the
per-frame adaptation loop dominates there anyway.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from repro.core.framing import HEADER_TOTAL_BITS, PREAMBLE_SYMBOLS
from repro.core.modulation import BPSK, get_scheme
from repro.core.tag import Tag
from repro.sim import jit
from repro.sim.batch import BatchLinkSimulator

__all__ = ["FastLinkSimulator"]


class FastLinkSimulator(BatchLinkSimulator):
    """Statistical fast tier: whole-budget scoring in single precision.

    Besides the build of its single-precision constants, only
    :meth:`_score_frames` changes; :meth:`simulate_point` (the budget
    loop with frame-exact early exit) is inherited unchanged, so the
    stopping rule matches the fused tier exactly — only the per-frame
    ``(errors, detected)`` numbers come from the fast chain.
    """

    # -- precomputation ----------------------------------------------------

    def _build_shared(self) -> None:
        # The fast tier's constants read no distance either, so they
        # join this class's shared build state.
        super()._build_shared()
        self._build_fast_tier()

    def _build_fast_tier(self) -> None:
        config = self.config
        self._f_exact_tail = config.ap.equalizer_taps > 0
        if self._f_exact_tail:
            return

        # Single-precision casts of the deterministic stage constants.
        self._f_payload_lut = self._payload_lut.astype(np.complex64)
        self._f_square_tx = (
            None if self._square_tx is None else self._square_tx.astype(np.float32)
        )
        self._f_square_rx = (
            None if self._square_rx is None else self._square_rx.astype(np.float32)
        )
        self._f_mixer = None if self._mixer is None else self._mixer.astype(np.complex64)
        self._f_blockage = (
            None
            if self._blockage_gain is None
            else self._blockage_gain.astype(np.float32)
        )
        self._f_switch_ba = (
            None
            if self._switch_ba is None
            else (
                self._switch_ba[0].astype(np.float32),
                self._switch_ba[1].astype(np.float32),
            )
        )
        self._f_channel_taps = (
            None
            if self._channel_taps is None
            else self._channel_taps.astype(np.float32)
        )
        if self._dc_ba is not None:
            self._f_dc_ba = (
                self._dc_ba[0].astype(np.float32),
                self._dc_ba[1].astype(np.float32),
            )
            self._f_dc_zi = self._dc_zi_base.astype(np.float32)
        else:
            self._f_dc_ba = None

        # Frame sync: one batched FFT correlation replaces the per-row
        # np.correlate.  With nfft >= padded_len every valid lag
        # k <= lags-1 only touches input indices k + i <= padded_len - 1,
        # so the circular product has no wraparound at those lags and
        # equals the linear valid-mode correlation.
        template = self._sync_template.astype(np.complex64)
        self._f_lags = self._padded_len - template.size + 1
        nfft = sp_fft.next_fast_len(self._padded_len)
        self._f_nfft = nfft
        self._f_template_spec_conj = np.conj(sp_fft.fft(template, nfft)).astype(
            np.complex64
        )

        # Rician bulk-tap plan (statistical: NLOS delays quantised to
        # whole samples, applied as grouped shift-adds instead of the
        # fractional-delay FFT operator).
        if self._use_rician:
            k_lin = 10.0 ** (config.rician_k_db / 10.0)
            los_power = k_lin / (k_lin + 1.0)  # |los_gain| == 1
            self._f_los_amp = math.sqrt(los_power)
            self._f_nlos_total = 1.0 - los_power
            self._f_num_nlos = config.num_nlos_paths
            self._f_max_delay = config.max_excess_delay_s
            self._f_tau = config.max_excess_delay_s / 3.0

        # Interference plan: static reflectors are constant phasors
        # foldable into the leak term; drifting reflectors keep their
        # slow phase modulation, with the shared sin/cos time ramps
        # hoisted out of the per-batch work.
        environment = config.environment
        tx_amplitude = config.ap.tx_amplitude()
        t = np.arange(self._padded_len, dtype=np.float64) / self._fs
        self._f_static_amps: list[float] = []
        self._f_drifting: list[tuple[float, float, np.ndarray, np.ndarray]] = []
        for reflector in environment.reflectors:
            amp = environment.reflector_amplitude(reflector, tx_amplitude)
            if reflector.drift_rate_hz > 0.0:
                omega_t = 2.0 * math.pi * reflector.drift_rate_hz * t
                self._f_drifting.append(
                    (
                        amp,
                        reflector.drift_amplitude_rad,
                        np.sin(omega_t).astype(np.float32),
                        np.cos(omega_t).astype(np.float32),
                    )
                )
            else:
                self._f_static_amps.append(amp)

        # Receiver-side constants.
        constellation = get_scheme(self._scheme_name).constellation
        self._f_points = constellation.points.astype(np.complex64)
        self._f_bit_labels = constellation.bit_labels.astype(np.int8)
        self._f_mean_point = complex(constellation.mean_point())
        self._f_bpsk_points = BPSK.constellation.points.astype(np.complex64)
        self._f_bpsk_labels = BPSK.constellation.bit_labels.astype(np.int8)
        preamble = PREAMBLE_SYMBOLS.astype(np.complex64)
        self._f_preamble_conj = np.conj(preamble)
        self._f_preamble_energy = float(np.sum(np.abs(PREAMBLE_SYMBOLS) ** 2))

        # The transmitted header is frame-invariant (it only carries the
        # fixed padded length), so the fast tier scores the demodulated
        # header bits against it instead of re-parsing CRC-16 per frame.
        tag = Tag(config.tag)
        frame0 = tag.make_frame(np.zeros(self.num_payload_bits, dtype=np.int8))
        self._f_header_bits = frame0.header.to_bits().astype(np.int8)

    # -- the fast scoring pass ---------------------------------------------

    def _score_frames(
        self, num_frames: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fast-tier ``(bit_errors, detected)`` for a frame block.

        Statistically equivalent to the fused pass (same distributions,
        same receiver decision rules), not bit-identical — see the
        module docstring for the exact deltas.
        """
        if self._f_exact_tail:
            return super()._score_frames(num_frames, rng)

        config = self.config
        n = num_frames
        n_sig = self._n_sig
        padded_len = self._padded_len
        sps = self._sps
        fs = self._fs

        # -- bulk RNG: one array draw per stage ------------------------
        payload = rng.integers(0, 2, size=(n, self.num_payload_bits)).astype(np.int8)
        carrier_phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
        delays = phases = None
        if self._use_rician and self._f_num_nlos > 0:
            delays = np.sort(
                rng.uniform(0.0, self._f_max_delay, size=(n, self._f_num_nlos)), axis=1
            )
            phases = rng.uniform(0.0, 2.0 * math.pi, size=(n, self._f_num_nlos))
        steps = (
            rng.standard_normal((n, n_sig + self._pn_lag), dtype=np.float32)
            if self._use_phase_noise
            else None
        )
        leak_phase = rng.uniform(0.0, 2.0 * math.pi, size=n)
        static_phases = [
            rng.uniform(0.0, 2.0 * math.pi, size=n) for _ in self._f_static_amps
        ]
        drift_draws = [
            (
                rng.uniform(0.0, 2.0 * math.pi, size=n),
                rng.uniform(0.0, 2.0 * math.pi, size=n),
            )
            for _ in self._f_drifting
        ]

        # -- TX: bits -> single-precision reflection waveform ----------
        if self._pad_bits:
            padded_payload = np.concatenate(
                [payload, np.zeros((n, self._pad_bits), dtype=np.int8)], axis=1
            )
        else:
            padded_payload = payload
        reflections = self.tx_reflections(padded_payload).astype(np.complex64)
        wave = np.repeat(reflections, sps, axis=1)
        if self._f_square_tx is not None:
            wave *= self._f_square_tx[None, :]
        if self._f_switch_ba is not None:
            wave = sp_signal.lfilter(
                self._f_switch_ba[0], self._f_switch_ba[1], wave, axis=-1
            )
        factors = (self._amplitude * np.exp(1j * carrier_phase)).astype(np.complex64)
        signal = wave * factors[:, None]

        if self._use_rician:
            signal = self._f_apply_rician(signal, delays, phases)
        if self._f_mixer is not None:
            signal *= self._f_mixer[None, :]
        if self._f_blockage is not None:
            signal *= self._f_blockage[None, :]
        if steps is not None:
            path = np.cumsum(steps * np.float32(self._pn_sqrt_step), axis=1)
            residual = path[:, self._pn_lag :] - path[:, : -self._pn_lag]
            signal *= np.exp(1j * residual)

        # -- composite: leak + clutter + signal window + AWGN ----------
        constant = self._leak_amp * np.exp(1j * leak_phase)
        for amp, phase0 in zip(self._f_static_amps, static_phases):
            constant = constant + amp * np.exp(1j * phase0)
        composite = np.empty((n, padded_len), dtype=np.complex64)
        composite[:] = constant.astype(np.complex64)[:, None]
        for (amp, drift_amp, sin_wt, cos_wt), (phase0, drift_phase) in zip(
            self._f_drifting, drift_draws
        ):
            phase = phase0.astype(np.float32)[:, None] + np.float32(drift_amp) * (
                sin_wt[None, :] * np.cos(drift_phase).astype(np.float32)[:, None]
                + cos_wt[None, :] * np.sin(drift_phase).astype(np.float32)[:, None]
            )
            composite += np.float32(amp) * np.exp(1j * phase)
        composite[:, self._guard : self._guard + n_sig] += signal
        if self._noise_sigma is not None:
            real = rng.standard_normal((n, padded_len), dtype=np.float32)
            imag = rng.standard_normal((n, padded_len), dtype=np.float32)
            composite += np.float32(self._noise_sigma) * (real + 1j * imag)

        # -- RX front end ----------------------------------------------
        work = composite
        if self._f_dc_ba is not None:
            b, a = self._f_dc_ba
            level = np.mean(work[:, : min(64, padded_len)], axis=1)
            zi = self._f_dc_zi[None, :] * level[:, None]
            work, _ = sp_signal.lfilter(b, a, work, axis=-1, zi=zi)
        if config.ap.adc is not None:
            work = self._adc_quantize(work)
        if self._f_square_rx is not None:
            work = work * self._f_square_rx[None, :]
            if self._f_channel_taps is not None:
                filtered_rows = sp_signal.lfilter(
                    self._f_channel_taps, np.ones(1, dtype=np.float32), work, axis=-1
                )
                delay = (self._f_channel_taps.size - 1) // 2
                if delay:
                    work = np.concatenate(
                        [
                            filtered_rows[:, delay:],
                            np.zeros((n, delay), dtype=filtered_rows.dtype),
                        ],
                        axis=1,
                    )
                else:
                    work = filtered_rows

        # -- frame sync: batched FFT correlation -----------------------
        starts = self._f_detect_starts(work)

        # -- matched filter at symbol instants only --------------------
        # The integrate-and-dump output at sample i is the mean of the
        # last sps inputs; sampling it only at the symbol instants turns
        # the full FIR pass into one cumulative sum plus two gathers.
        cumsum = np.empty((n, padded_len + 1), dtype=np.complex64)
        cumsum[:, 0] = 0.0
        np.cumsum(work, axis=1, out=cumsum[:, 1:])

        min_symbols = PREAMBLE_SYMBOLS.size + HEADER_TOTAL_BITS
        miss = self._padded_bits // 2
        errors = np.full(n, miss, dtype=np.int64)
        detected = np.zeros(n, dtype=bool)

        firsts = starts + sps - 1
        available = np.where(
            (starts >= 0) & (firsts < padded_len),
            (padded_len - firsts + sps - 1) // sps,
            0,
        )
        detected[(starts >= 0) & (available >= min_symbols)] = True
        full = np.nonzero((starts >= 0) & (available >= self._n_sym))[0]
        if full.size == 0:
            return errors, detected

        sym_idx = firsts[full][:, None] + np.arange(self._n_sym, dtype=np.int64)[
            None, :
        ] * sps
        high = np.take_along_axis(cumsum[full], sym_idx + 1, axis=1)
        low = np.take_along_axis(cumsum[full], sym_idx + 1 - sps, axis=1)
        symbols = (high - low) * np.float32(1.0 / sps)

        lead_len = np.maximum(0, starts[full] - sps)
        corrected = lead_len >= 4 * sps
        if np.any(corrected):
            means = cumsum[full[corrected], lead_len[corrected]] / lead_len[
                corrected
            ].astype(np.float32)
            symbols[corrected] -= means[:, None]

        # -- decode: gain, header check, payload demod -----------------
        num_preamble = PREAMBLE_SYMBOLS.size
        gains = symbols[:, :num_preamble] @ self._f_preamble_conj
        gains = gains / np.float32(self._f_preamble_energy)
        zero_gain = gains == 0
        detected[full] = True
        if np.all(zero_gain):
            return errors, detected
        gains[zero_gain] = 1.0
        equalised = symbols / gains[:, None]

        header_syms = equalised[:, num_preamble : num_preamble + HEADER_TOTAL_BITS]
        header_idx = jit.nearest_symbol_indices(
            header_syms.ravel(), self._f_bpsk_points
        )
        header_bits = (
            self._f_bpsk_labels[header_idx]
            .reshape(full.size, -1)
            .astype(np.int8)
        )
        header_ok = np.all(header_bits == self._f_header_bits[None, :], axis=1)
        header_ok &= ~zero_gain
        if not np.any(header_ok):
            return errors, detected

        payload_syms = equalised[header_ok, num_preamble + HEADER_TOTAL_BITS :]
        if abs(self._f_mean_point) > 1e-3:
            offset = payload_syms.mean(axis=1) - np.complex64(self._f_mean_point)
            payload_syms = payload_syms - offset[:, None]
        indices = jit.nearest_symbol_indices(payload_syms.ravel(), self._f_points)
        bits = (
            self._f_bit_labels[indices]
            .reshape(int(np.count_nonzero(header_ok)), -1)
            .astype(np.int8)
        )
        sent = padded_payload[full[header_ok]]
        errors[full[header_ok]] = np.count_nonzero(
            bits[:, : self._padded_bits] != sent, axis=1
        )
        return errors, detected

    # -- helpers -----------------------------------------------------------

    def _f_detect_starts(self, work: np.ndarray) -> np.ndarray:
        """Batched FFT preamble correlation; same CFAR rule as the
        exact tier's :meth:`_detect_starts`, float32 statistics."""
        n = work.shape[0]
        starts = np.full(n, -1, dtype=np.int64)
        if self._f_lags <= 0:
            return starts
        spectra = sp_fft.fft(work, self._f_nfft, axis=1)
        spectra *= self._f_template_spec_conj[None, :]
        corr = sp_fft.ifft(spectra, axis=1)[:, : self._f_lags]
        mag = np.abs(corr)
        peaks = np.argmax(mag, axis=1)
        floors = np.median(mag, axis=1)
        peak_vals = mag[np.arange(n), peaks]
        positive_floor = floors > 0.0
        hit = np.empty(n, dtype=bool)
        hit[~positive_floor] = peak_vals[~positive_floor] > 0.0
        idx = np.nonzero(positive_floor)[0]
        hit[idx] = (peak_vals[idx] / floors[idx]) >= self._threshold_ratio()
        starts[hit] = peaks[hit]
        return starts

    def _f_apply_rician(
        self,
        signal: np.ndarray,
        delays: np.ndarray | None,
        phases: np.ndarray | None,
    ) -> np.ndarray:
        """Per-frame Rician fading with whole-sample NLOS delays.

        The LOS tap is a real scalar; NLOS taps come from the
        :func:`repro.sim.jit.rician_gains` kernel and are applied as
        shift-adds grouped by quantised delay (duplicate
        ``(frame, delay)`` taps merge by gain summation — linearity).
        """
        n, n_sig = signal.shape
        out = signal * np.complex64(self._f_los_amp)
        if delays is None or self._f_num_nlos == 0:
            return out
        gains = jit.rician_gains(
            delays, phases, self._f_tau, self._f_nlos_total
        ).astype(np.complex64)
        wholes = np.floor(delays * self._fs).astype(np.int64)
        frames = np.repeat(np.arange(n, dtype=np.int64), self._f_num_nlos)
        wholes_flat = wholes.ravel()
        keys = wholes_flat * n + frames
        unique_keys, inverse = np.unique(keys, return_inverse=True)
        merged = np.zeros(unique_keys.size, dtype=np.complex64)
        np.add.at(merged, inverse, gains.ravel())
        key_wholes = unique_keys // n
        key_frames = unique_keys % n
        for whole in np.unique(key_wholes):
            group = key_wholes == whole
            rows = key_frames[group]
            taps = merged[group][:, None]
            w = int(whole)
            if w == 0:
                out[rows] += signal[rows] * taps
            elif w < n_sig:
                out[rows, w:] += signal[rows, : n_sig - w] * taps
        return out
