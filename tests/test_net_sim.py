"""Network-scale simulation: population, link model, MACs, determinism.

Covers the :mod:`repro.net` layers above the engine — the SoA
population, the budget-anchored link model, the three MAC modes, churn
and blockage — and the headline guarantee: same (config, seed) ⇒
byte-identical report and event-trace digest.
"""

import hashlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.core.link import LinkConfig, link_snr_db
from repro.net import (
    LinkBudgetModel,
    NetSimConfig,
    Simulator,
    TagPopulation,
    jain_fairness,
    run_netsim,
)
from repro.net.mac import BlockageProcess
from repro.sim.faults import BlockageFrameOracle

_FAST = dict(num_tags=40, num_slots=300, min_distance_m=1.5, max_distance_m=3.0)


class TestJainFairness:
    def test_empty_is_zero(self):
        assert jain_fairness([]) == 0.0

    def test_all_zero_is_one(self):
        assert jain_fairness([0.0, 0.0, 0.0]) == 1.0

    def test_all_equal_is_one(self):
        assert jain_fairness([5.0] * 7) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_fairness([1.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)


class TestTagPopulation:
    def _deploy(self, pop, n, t=0.0):
        return pop.add(
            np.full(n, 2.0), np.zeros(n), np.full(n, 0.9), np.full(n, 0.1), t
        )

    def test_sequential_ids_across_batches(self):
        pop = TagPopulation()
        first = self._deploy(pop, 3)
        second = self._deploy(pop, 2, t=1.0)
        assert list(first) == [0, 1, 2]
        assert list(second) == [3, 4]
        assert len(pop) == 5

    def test_growth_preserves_state(self):
        pop = TagPopulation()
        self._deploy(pop, 10)
        pop.record_read(7, 128, 0.5)
        self._deploy(pop, 5000)  # forces several doublings
        assert pop.read[7]
        assert pop.delivered_bits[7] == 128
        assert pop.active_ids().size == 5010

    def test_depart_is_idempotent(self):
        pop = TagPopulation()
        self._deploy(pop, 2)
        assert pop.depart(0, 1.0)
        assert not pop.depart(0, 2.0)
        assert pop.departures == 1
        assert list(pop.active_ids()) == [1]

    def test_record_reads_vectorised_matches_scalar(self):
        a, b = TagPopulation(), TagPopulation()
        self._deploy(a, 6)
        self._deploy(b, 6)
        ids = np.array([1, 3, 4])
        a.record_reads(ids, 64, 2.0)
        for i in ids:
            b.record_read(int(i), 64, 2.0)
        np.testing.assert_array_equal(a.delivered_bits[:6], b.delivered_bits[:6])
        np.testing.assert_array_equal(a.read[:6], b.read[:6])
        np.testing.assert_array_equal(a.read_s[:6], b.read_s[:6])

    def test_latencies_only_for_read_tags(self):
        pop = TagPopulation()
        self._deploy(pop, 3, t=1.0)
        pop.record_read(1, 8, 4.0)
        np.testing.assert_allclose(pop.latencies_s(), [3.0])

    def test_expected_tags_preallocates_in_one_shot(self):
        pop = TagPopulation(expected_tags=5000)
        assert pop.distance_m.size >= 5000  # no doubling during deploy
        self._deploy(pop, 5000)
        assert len(pop) == 5000

    def test_expected_tags_is_a_floor_not_a_cap(self):
        pop = TagPopulation(expected_tags=8)
        self._deploy(pop, 500)  # growth past the hint still doubles
        assert pop.active_ids().size == 500

    def test_expected_tags_does_not_change_behaviour(self):
        hinted, unhinted = TagPopulation(expected_tags=64), TagPopulation()
        self._deploy(hinted, 50)
        self._deploy(unhinted, 50)
        hinted.record_read(9, 32, 1.5)
        unhinted.record_read(9, 32, 1.5)
        np.testing.assert_array_equal(
            hinted.active_ids(), unhinted.active_ids()
        )
        np.testing.assert_allclose(hinted.latencies_s(), unhinted.latencies_s())

    def test_rejects_negative_expected_tags(self):
        with pytest.raises(ValueError, match="expected_tags"):
            TagPopulation(expected_tags=-1)


class TestLinkBudgetModel:
    def _model(self, frame_bits=256):
        config = NetSimConfig()
        return LinkBudgetModel(
            config.tag, config.ap, config.environment, frame_bits
        )

    def test_range_law_matches_exact_budget(self):
        model = self._model()
        config = NetSimConfig()
        for d in (1.0, 2.5, 6.0, 12.0):
            exact = link_snr_db(
                LinkConfig(
                    distance_m=d,
                    tag=config.tag,
                    ap=config.ap,
                    environment=config.environment,
                )
            )
            analytic = float(model.snr_db(np.array([d]))[0])
            assert analytic == pytest.approx(exact, abs=1e-6), d

    def test_success_probability_monotone_in_distance(self):
        model = self._model()
        probs = model.frame_success_probability(np.array([2.0, 6.0, 18.0]))
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        assert probs[0] >= probs[1] >= probs[2]

    def test_blockage_attenuation_hurts(self):
        model = self._model()
        d = np.array([4.0])
        clear = model.frame_success_probability(d)
        blocked = model.frame_success_probability(d, extra_attenuation_db=20.0)
        assert blocked[0] < clear[0]

    def test_rejects_bad_frame_bits(self):
        with pytest.raises(ValueError, match="frame_bits"):
            self._model(frame_bits=0)

    def test_spot_check_reports_operating_point(self):
        model = self._model(frame_bits=64)
        check = model.spot_check(
            slot=5, tag_id=2, distance_m=2.0, angle_deg=0.0,
            rng=np.random.default_rng(0),
        )
        assert check.slot == 5 and check.tag_id == 2
        assert 0.0 <= check.modeled_success_prob <= 1.0
        assert 0.0 <= check.measured_ber <= 0.5


class TestRunNetsim:
    @pytest.mark.parametrize("protocol", ["aloha", "inventory", "fdma"])
    def test_byte_identical_reports(self, protocol):
        config = NetSimConfig(protocol=protocol, spot_check_every=0, **_FAST)
        first = run_netsim(config, seed=5)
        second = run_netsim(config, seed=5)
        assert pickle.dumps(first) == pickle.dumps(second)
        assert first.trace_digest == second.trace_digest

    def test_different_seeds_diverge(self):
        config = NetSimConfig(**_FAST)
        assert (
            run_netsim(config, seed=1).trace_digest
            != run_netsim(config, seed=2).trace_digest
        )

    def test_discovery_drains_and_reads_everyone(self):
        report = run_netsim(NetSimConfig(**_FAST), seed=3)
        assert report.tags_read == report.tags_total == 40
        assert report.slots_run < report.config.num_slots  # drained early
        assert math.isfinite(report.time_to_full_inventory_s)
        assert report.jain_fairness == pytest.approx(1.0)

    def test_inventory_uses_q_rounds(self):
        config = NetSimConfig(protocol="inventory", q_initial=6.0, **_FAST)
        report = run_netsim(config, seed=3)
        assert report.rounds >= 1
        assert math.isfinite(report.q_final)
        assert report.tags_read > 0

    def test_fdma_group_goodput_scales(self):
        base = NetSimConfig(protocol="fdma", stop_when_drained=False, **_FAST)
        narrow = run_netsim(replace(base, fdma_group_size=2), seed=4)
        wide = run_netsim(replace(base, fdma_group_size=8), seed=4)
        assert wide.frames_delivered > narrow.frames_delivered

    def test_churn_records_arrivals_and_departures(self):
        config = NetSimConfig(
            arrival_rate_hz=50_000.0, mean_dwell_s=2e-3, **_FAST
        )
        report = run_netsim(config, seed=6)
        assert report.arrivals > 40  # initial cohort + Poisson stream
        assert report.departures > 0
        assert report.tags_total == report.arrivals

    #: Seed-0 golden pins for a churning, blocked discovery run that
    #: drains early: protocol -> (trace digest, sha256 of the
    #: protocol-4 report pickle).
    _CHURN_GOLDEN = {
        "aloha": (
            "07942b9f971c46f3f96f669e46bff4495bbde4c223c4e71d5e0291ed3e2d790b",
            "0da665802f63cca85bbf4a4d1962986dd51c03d937223361ab18830c9d67dd0f",
        ),
        "inventory": (
            "5dbb38e0f402b56a5bbe84c07cf336a7b96960148c5aeedf5872afe0fb8b557f",
            "847ca9ea6bceff72169367eb8cfbf3fff89e68d09b5bf20e4b2733505ad40ada",
        ),
    }

    @pytest.mark.parametrize("protocol", sorted(_CHURN_GOLDEN))
    def test_churn_drain_matches_the_pins(self, protocol):
        config = NetSimConfig(
            protocol=protocol,
            num_tags=40,
            num_slots=3000,
            arrival_rate_hz=300.0,
            mean_dwell_s=0.05,
            blockage_rate_hz=20.0,
            stop_when_drained=True,
        )
        report = run_netsim(config, seed=0)
        assert report.departures > 0
        assert report.slots_run < config.num_slots  # the drain stop fired
        digest, report_sha = self._CHURN_GOLDEN[protocol]
        assert report.trace_digest == digest
        pickled = pickle.dumps(report, protocol=4)
        assert hashlib.sha256(pickled).hexdigest() == report_sha

    def test_blockage_degrades_delivery(self):
        clear_cfg = NetSimConfig(
            persistent=True, stop_when_drained=False, **_FAST
        )
        blocked_cfg = replace(
            clear_cfg,
            blockage_rate_hz=400.0,
            blockage_mean_s=5e-3,
            blockage_attenuation_db=30.0,
            max_distance_m=6.0,
            min_distance_m=4.0,
        )
        clear = run_netsim(replace(clear_cfg, max_distance_m=6.0,
                                   min_distance_m=4.0), seed=7)
        blocked = run_netsim(blocked_cfg, seed=7)
        assert blocked.blocked_slots > 0
        assert (
            blocked.reads_failed_channel > clear.reads_failed_channel
            or blocked.frames_delivered < clear.frames_delivered
        )

    def test_spot_checks_recorded_and_deterministic(self):
        config = NetSimConfig(spot_check_every=100, **_FAST)
        first = run_netsim(config, seed=8)
        second = run_netsim(config, seed=8)
        assert len(first.spot_checks) >= 1
        assert first.spot_checks == second.spot_checks
        for check in first.spot_checks:
            assert 0.0 <= check.modeled_success_prob <= 1.0

    def test_spot_check_toggle_does_not_shift_other_streams(self):
        """All processes register unconditionally: instrumentation on/off
        must not change the MAC's reads (only add audit events)."""
        base = NetSimConfig(**_FAST)
        plain = run_netsim(base, seed=9)
        audited = run_netsim(replace(base, spot_check_every=150), seed=9)
        assert plain.frames_delivered == audited.frames_delivered
        assert plain.tags_read == audited.tags_read
        assert plain.time_to_full_inventory_s == pytest.approx(
            audited.time_to_full_inventory_s
        )

    def test_trace_dump(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        report = run_netsim(NetSimConfig(**_FAST), seed=1, trace_path=path)
        assert report.trace_digest in path.read_text().splitlines()[0]

    def test_zero_tags_is_legal(self):
        config = NetSimConfig(num_tags=0, num_slots=10)
        report = run_netsim(config, seed=0)
        assert report.tags_total == 0
        assert report.jain_fairness == 0.0
        assert math.isnan(report.time_to_full_inventory_s)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_tags=-1),
            dict(num_slots=0),
            dict(protocol="csma"),
            dict(frame_bits=0),
            dict(min_distance_m=5.0, max_distance_m=2.0),
            dict(transmit_probability=0.0),
            dict(transmit_probability=1.5),
            dict(fdma_group_size=0),
            dict(arrival_rate_hz=-1.0),
            dict(mean_dwell_s=0.0),
            dict(blockage_rate_hz=-2.0),
            dict(spot_check_every=-1),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            NetSimConfig(**kwargs)


class TestBlockageProcess:
    def test_depth_counter_agrees_with_oracle(self):
        """The O(1) toggle counter is exactly the oracle's window set."""
        sim = Simulator(13)
        proc = sim.add_process(
            BlockageProcess(
                rate_hz=300.0, mean_duration_s=2e-3, slot_s=1e-4,
                horizon_s=0.5,
            )
        )
        proc.start()
        assert isinstance(proc.oracle, BlockageFrameOracle)
        assert proc.oracle.events, "plan should produce bursts at 300 Hz"
        samples = []

        def probe(t):
            samples.append((t, proc.is_blocked()))

        for k in range(500):
            t = k * 1e-3 + 5e-7  # offset: avoid edge-coincident queries
            sim.schedule_at(t, lambda t=t: probe(t), process="probe")
        sim.run()
        assert any(blocked for _, blocked in samples)
        for t, blocked in samples:
            assert blocked == proc.oracle.is_blocked_at(t), t
