"""Cross-layer consistency: analytic slot-success vs real waveform bursts.

The network layer abstracts every MAC slot to a Bernoulli draw whose
probability comes from :class:`~repro.net.link_model.LinkBudgetModel`
(analytic budget → theoretical BER → ``(1-BER)^bits``).  These tests
close the loop against the waveform substrate: at a grid of matched
operating points (distance × incidence angle × blockage), the empirical
frame-success rate of real :func:`~repro.core.link.simulate_link`
bursts must agree with the analytic probability within a statistical
bound.

The bound is ``3σ`` binomial noise plus a small systematic allowance:
the waveform chain carries impairments the theoretical BER curve does
not (phase noise, imperfect sync), which depress success on the steep
part of the cliff.  The allowance is calibrated to cover that gap while
still failing on a mis-anchored budget (a 1 dB SNR bookkeeping error
moves cliff probabilities by far more).

Everything is seeded — the empirical rates are exact reproducible
numbers, so the assertions cannot flake.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from repro.channel.blockage import BlockageEvent
from repro.channel.environment import Environment
from repro.core.ap import APConfig
from repro.core.link import LinkConfig, simulate_link
from repro.core.tag import TagConfig
from repro.net.link_model import LinkBudgetModel

_FRAME_BITS = 64
_BURSTS = 200
#: Systematic model-vs-waveform allowance (see module docstring).
_SYSTEMATIC = 0.08

#: (distance_m, angle_deg, one_way_blockage_db) — spans the cell from
#: deep inside coverage, across the BER cliff, to past the edge; the
#: blockage rows sit where 2A dB of extra loss lands mid-cliff.
_GRID = [
    (2.0, 0.0, 0.0),
    (2.0, 25.0, 0.0),
    (13.0, 0.0, 0.0),
    (13.0, 25.0, 0.0),
    (14.0, 0.0, 0.0),
    (14.0, 25.0, 0.0),
    (16.0, 0.0, 0.0),
    (4.2, 0.0, 10.0),
    (4.4, 25.0, 10.0),
    (13.0, 0.0, 10.0),
]


def _model() -> LinkBudgetModel:
    return LinkBudgetModel(
        TagConfig(), APConfig(), Environment.anechoic(), _FRAME_BITS
    )


def _empirical_rate(
    distance_m: float, angle_deg: float, blockage_db: float, seed: int
) -> float:
    config = LinkConfig(
        distance_m=distance_m,
        incidence_angle_deg=angle_deg,
        tag=TagConfig(),
        ap=APConfig(),
        environment=Environment.anechoic(),
        blockage_events=(
            (BlockageEvent(0.0, 1.0, blockage_db),) if blockage_db else ()
        ),
    )
    rng = np.random.default_rng(seed)
    hits = sum(
        simulate_link(config, num_payload_bits=_FRAME_BITS, rng=rng).frame_success
        for _ in range(_BURSTS)
    )
    return hits / _BURSTS


class TestModelMatchesWaveform:
    @pytest.mark.parametrize("distance_m,angle_deg,blockage_db", _GRID)
    def test_slot_success_within_statistical_bound(
        self, distance_m, angle_deg, blockage_db
    ):
        model = _model()
        p_model = float(
            model.frame_success_probability(
                np.array([distance_m]),
                np.array([angle_deg]),
                extra_attenuation_db=blockage_db,
            )[0]
        )
        p_emp = _empirical_rate(
            distance_m, angle_deg, blockage_db, seed=hash(
                (distance_m, angle_deg, blockage_db)
            ) % (2**31),
        )
        sigma = max(
            math.sqrt(p_model * (1.0 - p_model) / _BURSTS), 1.0 / _BURSTS
        )
        bound = 3.0 * sigma + _SYSTEMATIC
        assert abs(p_emp - p_model) <= bound, (
            f"d={distance_m} ang={angle_deg} blk={blockage_db}: "
            f"model {p_model:.3f} vs empirical {p_emp:.3f} "
            f"(bound {bound:.3f})"
        )


class TestMatchedSnrEquivalences:
    """The model's own SNR bookkeeping, checked against itself and the
    waveform at *matched* SNR rather than matched geometry."""

    def test_blockage_equals_equivalent_distance(self):
        # 2A dB of blockage is exactly the d^-4 cost of moving the tag
        # out by 10^(2A/40): the model must price both identically
        model = _model()
        a_db = 10.0
        for d in (3.0, 5.0, 8.0):
            equivalent = d * 10.0 ** (2.0 * a_db / 40.0)
            blocked = model.frame_success_probability(
                np.array([d]), extra_attenuation_db=a_db
            )[0]
            moved = model.frame_success_probability(np.array([equivalent]))[0]
            assert blocked == pytest.approx(moved, abs=1e-12), d

    def test_empirical_rate_is_monotone_in_distance(self):
        rates = [
            _empirical_rate(d, 0.0, 0.0, seed=77) for d in (12.0, 14.0, 16.0)
        ]
        assert rates[0] > rates[2], rates
        assert rates == sorted(rates, reverse=True), rates

    def test_empirical_blockage_depresses_success(self):
        clear = _empirical_rate(13.0, 0.0, 0.0, seed=78)
        blocked = _empirical_rate(13.0, 0.0, 10.0, seed=78)
        assert blocked < clear

    def test_vectorised_success_matches_scalar_path(self):
        # frame_success_from_snr_db's whole-array table gather must
        # agree with per-element evaluation bit for bit
        model = _model()
        snrs = np.linspace(-2.0, 14.0, 33)
        vector = model.frame_success_from_snr_db(snrs)
        scalar = np.array(
            [
                float(model.frame_success_from_snr_db(np.array([s]))[0])
                for s in snrs
            ]
        )
        np.testing.assert_array_equal(vector, scalar)
        assert np.all(np.diff(vector) >= 0.0)  # monotone in SNR
