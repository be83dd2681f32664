"""Per-slot frame-success probabilities anchored to the link budget.

The network simulator abstracts each slot to a Bernoulli frame-success
draw — the standard MAC-scale abstraction — but the probabilities are
*not* free parameters: they come from the same calibrated budget the
waveform layer uses (:func:`repro.core.link.link_snr_db` feeding the
modulation scheme's theoretical BER), exactly like
:meth:`repro.core.network.MmTagNetwork.tdma_inventory`.

For 100k-tag populations calling :func:`link_snr_db` per tag would
dominate the runtime, so :class:`LinkBudgetModel` computes the budget
once at a 1 m reference and applies the backscatter ``d^-4`` range law
(40 dB/decade) analytically — and *verifies* that shortcut against the
exact budget at construction time, falling back to exact per-distance
evaluation if a future budget change breaks the scaling.  Incidence
angles are quantised to 0.25° and the Van Atta roundtrip-gain delta is
cached per bucket.

SNR is quantised to 0.01 dB buckets for pricing.  Each model keeps a
dense float64 table of frame-success probabilities indexed by bucket,
filled the first time a bucket is asked for, so pricing a population
is one rounding pass plus a gather.  The table spans a fixed window
(:data:`_TABLE_HALF_BUCKETS`); SNRs beyond it, ±inf and NaN are priced
one bucket at a time by the same function and not stored.

The ``spot_check`` hook closes the loop back to the waveform substrate:
it runs :func:`repro.core.link.simulate_link` at a sampled tag's
operating point so a network run can verify, on real waveforms, that
the analytic per-slot probabilities it used are honest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.channel.environment import Environment
from repro.core.ap import APConfig
from repro.core.link import LinkConfig, link_snr_db, simulate_link
from repro.core.modulation import get_scheme
from repro.core.tag import Tag, TagConfig

__all__ = ["LinkBudgetModel", "SpotCheck"]

#: Path-loss exponent of a backscatter (two-way) link, in dB/decade.
_RANGE_LAW_DB_PER_DECADE = 40.0

#: Incidence-angle cache bucket width, degrees.
_ANGLE_BUCKET_DEG = 0.25

#: The frame-success table holds the 0.01 dB buckets within ±200 dB
#: (40 001 float64 entries, 320 KB per model).
_TABLE_HALF_BUCKETS = 20_000


@dataclass(frozen=True)
class SpotCheck:
    """One waveform-level audit of the analytic per-slot model."""

    slot: int
    tag_id: int
    distance_m: float
    modeled_success_prob: float
    frame_success: bool
    measured_ber: float


class LinkBudgetModel:
    """Vectorised frame-success probabilities for a tag population.

    Parameters
    ----------
    tag:
        The tag hardware configuration shared by the population
        (distance and angle vary per deployed tag).
    ap / environment:
        The AP and RF surroundings, as in :class:`LinkConfig`.
    frame_bits:
        Payload bits per MAC frame; the success probability is
        ``(1 - BER)^(frame_bits + 32)`` (32 = CRC), matching
        ``tdma_inventory``.
    ber_source:
        ``"theory"`` (default) converts SNR to BER through the
        scheme's closed form, exactly as before.  ``"montecarlo"``
        fills each 0.01 dB frame-success bucket by running
        :func:`~repro.sim.monte_carlo.estimate_link_ber` at the
        boresight distance that realises the bucket's SNR — anchoring
        the MAC abstraction to the full waveform chain instead of the
        closed form.  Buckets are seeded deterministically from
        ``(mc_seed, bucket)`` so repeated runs (and process-pool
        workers) fill identical tables.
    link_backend:
        Backend for the Monte-Carlo fill; defaults to the ``"fast"``
        statistical tier, which is what makes per-bucket waveform
        fills affordable at network scale.
    mc_target_errors / mc_max_bits:
        Per-bucket stopping rule for the Monte-Carlo fill.
    """

    def __init__(
        self,
        tag: TagConfig,
        ap: APConfig,
        environment: Environment,
        frame_bits: int,
        ber_source: str = "theory",
        link_backend: str = "fast",
        mc_target_errors: int = 50,
        mc_max_bits: int = 100_000,
        mc_seed: int = 0x5EED,
    ) -> None:
        if frame_bits < 1:
            raise ValueError(f"frame_bits must be >= 1, got {frame_bits}")
        if ber_source not in ("theory", "montecarlo"):
            raise ValueError(
                f"unknown ber_source {ber_source!r}; "
                "choose 'theory' or 'montecarlo'"
            )
        self.tag = tag
        self.ap = ap
        self.environment = environment
        self.frame_bits = frame_bits
        self.ber_source = ber_source
        self.link_backend = link_backend
        self.mc_target_errors = mc_target_errors
        self.mc_max_bits = mc_max_bits
        self.mc_seed = mc_seed
        self.scheme = get_scheme(tag.modulation)

        self._ref_config = LinkConfig(
            distance_m=1.0, tag=tag, ap=ap, environment=environment
        )
        self._ref_snr_db = link_snr_db(self._ref_config)
        # Trust-but-verify the d^-4 shortcut against the exact budget.
        probe = link_snr_db(replace(self._ref_config, distance_m=3.0))
        expected = self._ref_snr_db - _RANGE_LAW_DB_PER_DECADE * math.log10(3.0)
        self._range_law_ok = abs(probe - expected) < 1e-6
        self._gain_cache: dict[int, float] = {0: 0.0}
        #: Frame-success price of bucket ``b`` at row
        #: ``b + _TABLE_HALF_BUCKETS``; NaN until first asked for.
        self._success_table = np.full(2 * _TABLE_HALF_BUCKETS + 1, np.nan)
        self._tag_model = Tag(tag)
        self._gain_ref_db = self._tag_model.ideal_roundtrip_gain_db(0.0)

    # -- analytic path --------------------------------------------------------

    def _angle_gain_delta_db(self, angle_deg: float) -> float:
        """Roundtrip-gain delta vs boresight, cached per 0.25° bucket."""
        bucket = int(round(angle_deg / _ANGLE_BUCKET_DEG))
        cached = self._gain_cache.get(bucket)
        if cached is None:
            angle = math.radians(bucket * _ANGLE_BUCKET_DEG)
            cached = (
                self._tag_model.ideal_roundtrip_gain_db(angle)
                - self._gain_ref_db
            )
            self._gain_cache[bucket] = cached
        return cached

    def angle_gain_delta_db(self, angle_deg: float) -> float:
        """Public bucketed Van Atta angle response (sensing hook).

        The roundtrip-gain delta vs boresight at ``angle_deg``,
        quantised to the same 0.25° buckets every priced slot uses —
        the observable the scenario layer's AoA estimator inverts
        (:class:`repro.net.scenario.sensing.AoaRangeEstimator`).
        """
        return self._angle_gain_delta_db(float(angle_deg))

    @property
    def angle_bucket_deg(self) -> float:
        """Width of one angle-response cache bucket, degrees."""
        return _ANGLE_BUCKET_DEG

    def snr_db(
        self,
        distances_m: np.ndarray | float,
        angles_deg: np.ndarray | float | None = None,
    ) -> np.ndarray:
        """Analytic symbol SNR for each (distance, angle) operating point.

        Scalars give a 0-d result with the same bits as the matching
        element of a one-element array.
        """
        distances_m = np.asarray(distances_m, dtype=np.float64)
        if self._range_law_ok:
            snr = self._ref_snr_db - _RANGE_LAW_DB_PER_DECADE * np.log10(
                distances_m
            )
        else:  # pragma: no cover - future-budget fallback, exact but slow
            snr = np.array(
                [
                    link_snr_db(replace(self._ref_config, distance_m=float(d)))
                    for d in np.atleast_1d(distances_m)
                ]
            ).reshape(distances_m.shape)
        if angles_deg is not None:
            angles_deg = np.asarray(angles_deg, dtype=np.float64)
            deltas = np.array(
                [
                    self._angle_gain_delta_db(float(a))
                    for a in np.atleast_1d(angles_deg)
                ]
            ).reshape(angles_deg.shape)
            snr = snr + deltas
        return snr

    def _ber(self, snr_key: float) -> float:
        """Scheme BER at one bucket's SNR key.

        From the closed form or, with ``ber_source="montecarlo"``, from
        a waveform-chain estimate at the distance that realises the
        key's SNR.
        """
        if self.ber_source == "montecarlo":
            return self._montecarlo_ber(snr_key)
        return self.scheme.theoretical_ber(snr_key)

    def _bucket_success(self, bucket: float) -> float:
        """Frame-success price of one 0.01 dB bucket, ``rint(snr * 100)``.

        The bucket's SNR key is ``bucket / 100``, the value
        ``np.round(snr, 2)`` returns.  Buckets inside the table window
        are priced once and stored; any other bucket (beyond the window,
        ±inf, NaN) is priced on every call.
        """
        inside = abs(bucket) <= _TABLE_HALF_BUCKETS  # False for NaN
        if inside:
            row = int(bucket) + _TABLE_HALF_BUCKETS
            price = self._success_table[row]
            if not math.isnan(price):
                return float(price)
        price = (1.0 - self._ber(bucket / 100.0)) ** (self.frame_bits + 32)
        if inside:
            self._success_table[row] = price
        return price

    def _montecarlo_ber(self, snr_key: float) -> float:
        """Price one frame-success bucket's BER from the waveform chain.

        Inverts the range law to the boresight distance whose budget
        delivers ``snr_key`` (SNR is the sufficient statistic the
        analytic path reduces every operating point to, so evaluating
        at boresight keeps the two sources consistent) and runs the
        configured Monte-Carlo backend there with a per-bucket
        deterministic seed.  Falls back to the closed form when the
        budget yields no testable bits (e.g. a bucket so deep the
        estimator detects nothing).
        """
        from repro.sim.monte_carlo import estimate_link_ber

        config = replace(
            self._ref_config, distance_m=float(self.range_for_snr_db(snr_key))
        )
        seed = np.random.SeedSequence(
            (self.mc_seed, int(round(snr_key * 100)) & 0xFFFFFFFF)
        )
        estimate = estimate_link_ber(
            config,
            target_errors=self.mc_target_errors,
            max_bits=self.mc_max_bits,
            bits_per_frame=self.frame_bits,
            seed=seed,
            backend=self.link_backend,
        )
        if estimate.bits_tested == 0:  # pragma: no cover - degenerate budget
            return self.scheme.theoretical_ber(snr_key)
        return float(estimate.ber)

    def frame_success_from_snr_db(self, snr_db: np.ndarray) -> np.ndarray:
        """Frame-success probability directly from (effective) symbol SNR.

        Public entry point for layers that adjust the SNR themselves
        before the BER conversion — the multi-AP deployment folds the
        cross-AP interference noise rise into an effective SINR and
        converts it here, reusing the same frame-success table the
        single-AP path uses.

        Each SNR maps to bucket ``rint(snr * 100)`` and its price is a
        gather from the table.  Only buckets the table has not seen, and
        SNRs outside its window, go through :meth:`_bucket_success`, once
        per distinct bucket.  The result has the input's shape (0-d in,
        0-d out).
        """
        buckets = np.rint(np.asarray(snr_db, dtype=np.float64).ravel() * 100.0)
        inside = np.abs(buckets) <= _TABLE_HALF_BUCKETS
        rows = np.where(inside, buckets, 0.0).astype(np.intp) + _TABLE_HALF_BUCKETS
        prices = self._success_table[rows]
        unpriced = ~inside | np.isnan(prices)
        if unpriced.any():
            todo, where = np.unique(buckets[unpriced], return_inverse=True)
            prices[unpriced] = np.array(
                [self._bucket_success(float(b)) for b in todo]
            )[where]
        return prices.reshape(np.shape(snr_db))

    def frame_success(self, snr_db: float) -> float:
        """Scalar :meth:`frame_success_from_snr_db`, bit for bit.

        One-tag repricing (a handoff commit) reads the same table
        without the array path's per-call overhead.  The bucket follows
        ``np.round(x, 2)`` exactly — scale by 100, round half to even —
        not Python's ``round(x, 2)``, which rounds the exact decimal
        value and can pick a neighbouring bucket.
        """
        return self._bucket_success(float(np.rint(snr_db * 100.0)))

    def frame_success_probability(
        self,
        distances_m: np.ndarray,
        angles_deg: np.ndarray | None = None,
        extra_attenuation_db: float = 0.0,
    ) -> np.ndarray:
        """Per-tag probability that one whole frame survives the slot.

        ``extra_attenuation_db`` models blockage: a body attenuating the
        one-way path by A dB costs a backscatter link ``2A`` dB of SNR
        (the wave crosses the blocker twice).
        """
        snr = self.snr_db(distances_m, angles_deg) - 2.0 * extra_attenuation_db
        return self.frame_success_from_snr_db(snr)

    def range_for_snr_db(self, snr_db: float) -> float:
        """Boresight distance at which the budget delivers ``snr_db``.

        Inverts the d^-4 range law around the 1 m reference budget; the
        deployment layer uses it to place the nominal cell edge (the
        distance where SNR crosses the scheme's BER threshold).
        """
        return 10.0 ** (
            (self._ref_snr_db - snr_db) / _RANGE_LAW_DB_PER_DECADE
        )

    def slot_duration_s(self) -> float:
        """Air time of one MAC slot (same overhead model as TDMA)."""
        symbols = (
            math.ceil((self.frame_bits + 32) / self.scheme.bits_per_symbol)
            + 60  # preamble + header overhead
        )
        return symbols / self.tag.symbol_rate_hz

    # -- waveform-level audit -------------------------------------------------

    def spot_check(
        self,
        slot: int,
        tag_id: int,
        distance_m: float,
        angle_deg: float,
        rng: np.random.Generator,
    ) -> SpotCheck:
        """Run one real waveform burst at a sampled tag's operating point."""
        config = replace(
            self._ref_config,
            distance_m=float(distance_m),
            incidence_angle_deg=float(angle_deg),
        )
        result = simulate_link(
            config, num_payload_bits=self.frame_bits, rng=rng
        )
        modeled = self.frame_success(
            float(self.snr_db(float(distance_m), float(angle_deg)))
        )
        return SpotCheck(
            slot=slot,
            tag_id=tag_id,
            distance_m=float(distance_m),
            modeled_success_prob=modeled,
            frame_success=bool(result.frame_success),
            measured_ber=float(result.ber),
        )
