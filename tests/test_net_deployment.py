"""Metro-scale multi-AP deployments: geometry, handoff, relay, determinism.

Covers :mod:`repro.net.deployment` — the AP-grid substrate
(:class:`Deployment`), the extended population, the three epoch
processes (mobility / association / relay) and the reuse-coloured MAC —
plus the executor-composition and schema-versioning guarantees of
:class:`~repro.net.task.MultiAPTask`.

The headline claims mirror the single-AP suite and add the two
deployment-specific ones: same (config, seed) ⇒ byte-identical report
and event-trace digest *including runs with handoffs and relays*, and
the physical claims (relaying extends read coverage past the cell edge;
handoff re-balances AP load under mobility).
"""

import hashlib
import math
import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.net import (
    MULTI_AP_REPORT_SCHEMA,
    Deployment,
    MetroTagPopulation,
    MultiAPConfig,
    MultiAPTask,
    run_multi_ap,
)
from repro.sim.cache import ResultCache
from repro.sim.checkpoint import SweepCheckpoint
from repro.sim.executor import SweepExecutor
from repro.sim.faults import FaultPlan
from repro.sim.retry import RetryPolicy

_SEED = 11

#: Small deployment that still exercises every layer: 3x3 grid, tight
#: pitch (everyone in coverage), a mobile minority, light blockage.
_FAST = dict(num_tags=40, num_slots=400, epoch_slots=50, ap_spacing_m=6.0)


def _config(**overrides) -> MultiAPConfig:
    merged = {**_FAST, **overrides}
    return MultiAPConfig(**merged)


class TestMultiAPConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"grid_rows": 0},
            {"grid_cols": 0},
            {"ap_spacing_m": 0.0},
            {"spatial_reuse_factor": 0},
            {"num_tags": -1},
            {"num_slots": 0},
            {"frame_bits": 0},
            {"hotspot_fraction": 1.5},
            {"mobile_fraction": -0.1},
            {"hotspot_sigma_m": 0.0},
            {"speed_min_m_s": 0.0},
            {"speed_min_m_s": 2.0, "speed_max_m_s": 1.0},
            {"pause_max_s": -1.0},
            {"time_warp": 0.0},
            {"epoch_slots": 0},
            {"handoff_hysteresis_db": -1.0},
            {"handoff_delay_slots": -1},
            {"relay_range_m": 0.0},
            {"relay_max_hops": 0},
            {"relay_hop_success": 0.0},
            {"relay_hop_success": 1.5},
            {"blockage_rate_hz": -1.0},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            MultiAPConfig(**kwargs)

    def test_field_names_cover_every_field(self):
        names = MultiAPConfig.field_names()
        assert {"num_tags", "ap_spacing_m", "handoff_hysteresis_db"} <= names

    def test_config_is_hashable_and_picklable(self):
        config = _config()
        assert pickle.loads(pickle.dumps(config)) == config
        hash(config)


class TestDeploymentGeometry:
    def test_grid_positions_are_cell_centres(self):
        d = Deployment(MultiAPConfig(grid_rows=2, grid_cols=3, ap_spacing_m=4.0))
        assert d.n_aps == 6
        # AP id = row * cols + col; AP (r, c) at ((c+.5)p, (r+.5)p)
        np.testing.assert_allclose(d.ap_xy[0], [2.0, 2.0])
        np.testing.assert_allclose(d.ap_xy[2], [10.0, 2.0])
        np.testing.assert_allclose(d.ap_xy[3], [2.0, 6.0])
        assert d.area_m == (12.0, 8.0)

    def test_reuse_colors_partition_the_grid(self):
        d = Deployment(MultiAPConfig(grid_rows=3, grid_cols=3,
                                     spatial_reuse_factor=3))
        together = np.sort(np.concatenate(d.aps_of_color))
        np.testing.assert_array_equal(together, np.arange(9))
        # diagonal neighbours share a colour, row/col neighbours don't
        assert d.reuse_color[0] == d.reuse_color[5] == d.reuse_color[7]
        assert d.reuse_color[0] != d.reuse_color[1]

    def test_reuse_factor_one_means_everyone_every_slot(self):
        d = Deployment(MultiAPConfig(spatial_reuse_factor=1))
        assert len(d.aps_of_color) == 1
        assert d.aps_of_color[0].size == d.n_aps

    def test_cell_radius_inverts_the_range_law(self):
        d = Deployment(_config())
        snr_at_edge = float(
            d.link_model.snr_db(np.array([d.cell_radius_m]))[0]
        )
        assert snr_at_edge == pytest.approx(d.coverage_snr_db, abs=1e-9)

    def test_coverage_margin_shrinks_the_cell(self):
        base = Deployment(_config())
        tight = Deployment(_config(coverage_margin_db=6.0))
        assert tight.cell_radius_m < base.cell_radius_m

    def test_snr_matrix_agrees_with_scalar_probe(self):
        d = Deployment(_config())
        xs = np.array([1.0, 7.3, 15.2])
        ys = np.array([2.0, 9.9, 4.4])
        matrix = d.snr_matrix(xs, ys)
        assert matrix.shape == (3, d.n_aps)
        for k in range(3):
            for ap in range(d.n_aps):
                scalar = d.snr_to_ap(float(xs[k]), float(ys[k]), ap)
                assert matrix[k, ap] == pytest.approx(scalar, abs=1e-9)


class TestInterference:
    def test_single_ap_has_no_noise_rise(self):
        d = Deployment(MultiAPConfig(grid_rows=1, grid_cols=1))
        np.testing.assert_array_equal(d.noise_rise_db, [0.0])

    def test_multi_ap_rise_is_positive(self):
        d = Deployment(_config())
        assert np.all(d.noise_rise_db > 0.0)

    def test_rise_decreases_with_spacing(self):
        rises = [
            Deployment(_config(ap_spacing_m=sp)).noise_rise_db.max()
            for sp in (4.0, 8.0, 16.0)
        ]
        assert rises[0] > rises[1] > rises[2]

    def test_aggressive_reuse_pays_more_interference(self):
        loose = Deployment(_config(spatial_reuse_factor=3))
        aggressive = Deployment(_config(spatial_reuse_factor=1))
        assert aggressive.noise_rise_db.max() > loose.noise_rise_db.max()

    def test_rise_is_folded_into_the_snr(self):
        d = Deployment(_config())
        raw = d.link_model.snr_db(np.array([3.0]))[0]
        x, y = d.ap_xy[0, 0] + 3.0, d.ap_xy[0, 1]
        assert d.snr_to_ap(float(x), float(y), 0) == pytest.approx(
            raw - d.noise_rise_db[0], abs=1e-9
        )


class TestMetroTagPopulation:
    def test_add_at_places_and_flags(self):
        pop = MetroTagPopulation()
        ids = pop.add_at(
            np.array([1.0, 2.0]), np.array([3.0, 4.0]),
            np.array([True, False]), 0.0,
        )
        np.testing.assert_array_equal(pop.x_m[ids], [1.0, 2.0])
        np.testing.assert_array_equal(pop.y_m[ids], [3.0, 4.0])
        np.testing.assert_array_equal(pop.mobile[ids], [True, False])
        np.testing.assert_array_equal(pop.serving_ap[ids], [-1, -1])
        np.testing.assert_array_equal(pop.relay_hops[ids], [-1, -1])

    def test_growth_preserves_metro_arrays(self):
        pop = MetroTagPopulation()
        pop.add_at(np.array([5.0]), np.array([6.0]), np.array([True]), 0.0)
        pop.serving_ap[0] = 3
        pop.eff_clear_p[0] = 0.77
        n = 5000  # force several capacity doublings past 1024
        pop.add_at(np.zeros(n), np.zeros(n), np.zeros(n, dtype=bool), 1.0)
        assert pop.x_m[0] == 5.0
        assert pop.serving_ap[0] == 3
        assert pop.eff_clear_p[0] == 0.77
        # grown tails carry the documented fills
        assert pop.serving_ap[4000] == -1
        assert math.isnan(pop.read_distance_m[4000])

    def test_success_p_reads_effective_probabilities(self):
        pop = MetroTagPopulation()
        ids = pop.add_at(np.zeros(2), np.zeros(2), np.zeros(2, dtype=bool), 0.0)
        pop.eff_clear_p[ids] = [0.9, 0.8]
        pop.eff_blocked_p[ids] = [0.1, 0.2]
        np.testing.assert_allclose(pop.success_p(ids, blocked=False), [0.9, 0.8])
        np.testing.assert_allclose(pop.success_p(ids, blocked=True), [0.1, 0.2])


class TestDeterminism:
    def test_static_run_is_byte_identical(self):
        config = _config()
        first = run_multi_ap(config, seed=_SEED)
        second = run_multi_ap(config, seed=_SEED)
        assert first.trace_digest == second.trace_digest
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_full_feature_run_is_byte_identical(self):
        # handoffs, relays, mobility, hotspot and blockage all at once —
        # the acceptance-criteria configuration
        config = _config(
            num_slots=800,
            mobile_fraction=0.5,
            hotspot_fraction=0.4,
            time_warp=2000.0,
            blockage_rate_hz=20.0,
            relay_range_m=5.0,
            persistent=True,
        )
        first = run_multi_ap(config, seed=_SEED)
        second = run_multi_ap(config, seed=_SEED)
        assert first.trace_digest == second.trace_digest
        assert pickle.dumps(first) == pickle.dumps(second)

    def test_different_seeds_diverge(self):
        config = _config()
        assert (
            run_multi_ap(config, seed=1).trace_digest
            != run_multi_ap(config, seed=2).trace_digest
        )

    def test_trace_dump_carries_the_digest(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        report = run_multi_ap(_config(), seed=_SEED, trace_path=path)
        assert report.trace_digest in path.read_text().splitlines()[0]

    def test_zero_tags_runs_clean(self):
        report = run_multi_ap(_config(num_tags=0), seed=_SEED)
        assert report.tags_total == 0
        assert report.tags_read == 0
        assert report.frames_delivered == 0


#: Seed-0 golden pins: name -> (config kwargs, the report field that
#: proves the config exercises its feature, trace digest, sha256 of the
#: protocol-4 report pickle).  Rerun and serial==sharded checks compare
#: the code against itself; these compare it against a recorded history,
#: so an optimisation that shifts both sides of those checks still fails.
_GOLDEN = {
    "handoff_mobile": (
        dict(
            num_tags=150,
            num_slots=1500,
            ap_spacing_m=10.0,
            epoch_slots=50,
            mobile_fraction=1.0,
            hotspot_fraction=1.0,
            time_warp=2000.0,
        ),
        "handoffs",
        "4973e23019d4aa1a66089d4c950f7b012fada5cdd13834feda36fe4e3e6a099b",
        "74ee1216084d7f1e61fab7fcf33b2aea0dc6999f4ef3e329ae988719097edf37",
    ),
    "relay_sparse": (
        dict(
            num_tags=200,
            num_slots=2500,
            ap_spacing_m=40.0,
            relay_range_m=6.0,
            relay_max_hops=4,
            mobile_fraction=0.5,
            time_warp=2000.0,
        ),
        "tags_read_relayed",
        "370c55ca505be6e25aecdcf6b3623d695cd2155c44edce60a1e6aa49b9c4f607",
        "6536a0d2a1ed26c68137051e8c8fedddd409a0f5a2da4f572f564a7e2b9e4278",
    ),
    "blockage_persistent": (
        dict(
            num_tags=120,
            num_slots=1200,
            ap_spacing_m=6.0,
            epoch_slots=50,
            mobile_fraction=0.5,
            hotspot_fraction=0.4,
            time_warp=2000.0,
            blockage_rate_hz=300.0,
            blockage_mean_s=0.0005,
            relay_range_m=5.0,
            persistent=True,
        ),
        "blocked_slots",
        "ae4abca613b03e8dfddc277fd1f44889d8374a5ce7d09bf26b7c2b77ef99ef62",
        "81efc27aaaa015c5e5d4f9e6de00c975de858dbef36cc26e10c61b6fbe3874a1",
    ),
}


class TestGoldenPins:
    @pytest.mark.parametrize("name", sorted(_GOLDEN))
    def test_report_and_trace_match_the_pins(self, name):
        kwargs, feature, digest, report_sha = _GOLDEN[name]
        report = run_multi_ap(MultiAPConfig(**kwargs), seed=0)
        assert getattr(report, feature) > 0
        assert report.trace_digest == digest
        pickled = pickle.dumps(report, protocol=4)
        assert hashlib.sha256(pickled).hexdigest() == report_sha


class TestRelay:
    #: Sparse deployment: cells don't overlap, tags between cells are
    #: out of direct coverage and must relay through neighbours.
    _SPARSE = dict(
        num_tags=200,
        num_slots=2500,
        ap_spacing_m=40.0,
        relay_range_m=6.0,
        relay_max_hops=4,
    )

    def test_relay_extends_coverage_past_the_cell_edge(self):
        on = run_multi_ap(MultiAPConfig(**self._SPARSE), seed=3)
        off = run_multi_ap(
            MultiAPConfig(**self._SPARSE, relay_enabled=False), seed=3
        )
        assert on.tags_read > off.tags_read
        assert on.tags_read_relayed > 0
        assert off.tags_read_relayed == 0
        assert on.coverage_relay > 0.0
        assert off.coverage_relay == 0.0
        # a relayed read lands beyond anything direct reads reach
        assert on.max_read_range_m > off.max_read_range_m
        assert on.max_read_range_m > on.cell_radius_m

    def test_relay_leaves_fully_covered_deployments_alone(self):
        # tight grid: everyone is in direct coverage, so relaying must
        # neither route anyone nor change a single byte
        config = _config()
        report = run_multi_ap(config, seed=_SEED)
        assert report.coverage_direct == 1.0
        assert report.coverage_relay == 0.0
        assert report.tags_read_relayed == 0
        off = run_multi_ap(replace(config, relay_enabled=False), seed=_SEED)
        assert report.trace_digest == off.trace_digest

    def test_unreachable_tags_are_counted_not_dropped(self):
        # one AP, tags sprayed over a huge block, tiny relay range:
        # somebody is out of everything
        config = MultiAPConfig(
            grid_rows=1,
            grid_cols=1,
            ap_spacing_m=60.0,
            num_tags=50,
            num_slots=500,
            relay_range_m=1.0,
        )
        report = run_multi_ap(config, seed=5)
        assert report.unreachable > 0
        assert report.tags_total == 50


class TestHandoff:
    #: Mobile cohort born in AP 0's corner, walking the block under a
    #: time warp; persistent mode so per-AP reads measure load.
    _MOBILE = dict(
        num_tags=150,
        num_slots=1500,
        ap_spacing_m=10.0,
        epoch_slots=50,
        mobile_fraction=1.0,
        hotspot_fraction=1.0,
        time_warp=2000.0,
        persistent=True,
        relay_enabled=False,
    )

    def test_handoff_rebalances_ap_load(self):
        on = run_multi_ap(MultiAPConfig(**self._MOBILE), seed=5)
        off = run_multi_ap(
            MultiAPConfig(**self._MOBILE, handoff_enabled=False), seed=5
        )
        assert on.handoffs > 0
        assert off.handoffs == 0
        assert on.ap_load_jain > off.ap_load_jain

    def test_handoff_latency_is_recorded_and_positive(self):
        report = run_multi_ap(MultiAPConfig(**self._MOBILE), seed=5)
        assert report.handoffs > 0
        assert math.isfinite(report.handoff_latency_mean_s)
        assert report.handoff_latency_mean_s >= 0.0
        assert (
            report.handoff_latency_p95_s >= report.handoff_latency_p50_s >= 0.0
        )

    def test_mobility_reports_physical_doppler(self):
        report = run_multi_ap(MultiAPConfig(**self._MOBILE), seed=5)
        # pedestrian speeds ≤ 1.5 m/s at 24 GHz: 2v/λ ≤ ~242 Hz; the
        # waypoint interpolation can't exceed the top speed
        assert 0.0 < report.max_doppler_hz < 300.0

    def test_static_tags_never_hand_off(self):
        config = _config(mobile_fraction=0.0)
        report = run_multi_ap(config, seed=_SEED)
        assert report.handoffs == 0
        assert math.isnan(report.handoff_latency_mean_s)


class TestMultiAPTaskBasics:
    def test_rejects_unknown_param(self):
        with pytest.raises(ValueError, match="not a MultiAPConfig field"):
            MultiAPTask(config=_config(), param="nope")

    def test_int_params_cast_from_float_sweep_values(self):
        task = MultiAPTask(config=_config())
        assert task.config_for(25.0).num_tags == 25
        assert isinstance(task.config_for(25.0).num_tags, int)

    def test_float_params_stay_float(self):
        task = MultiAPTask(config=_config(), param="ap_spacing_m")
        assert task.config_for(7.5).ap_spacing_m == 7.5

    def test_task_is_picklable(self):
        task = MultiAPTask(config=_config())
        assert pickle.loads(pickle.dumps(task)) == task


def _point_pickles(report) -> list[bytes]:
    """Per-point pickles (see tests/test_net_task.py for the rationale:
    list-level pickles differ through memoised back-references)."""
    return [pickle.dumps(point) for point in report.points]


_VALUES = [10.0, 25.0, 40.0]


class TestExecutorComposition:
    def _task(self, **overrides) -> MultiAPTask:
        return MultiAPTask(config=_config(num_slots=250, **overrides))

    def test_serial_equals_process_backend(self):
        task = self._task()
        serial = SweepExecutor("serial").run(_VALUES, task, seed=_SEED)
        pooled = SweepExecutor("process", max_workers=2).run(
            _VALUES, task, seed=_SEED
        )
        assert _point_pickles(serial) == _point_pickles(pooled)
        for a, b in zip(serial.points, pooled.points):
            assert a.metric.trace_digest == b.metric.trace_digest

    def test_cache_replay_is_byte_identical(self, tmp_path):
        task = self._task()
        cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor("serial", cache=cache).run(
            _VALUES, task, seed=_SEED
        )
        warm = SweepExecutor("serial", cache=cache).run(
            _VALUES, task, seed=_SEED
        )
        assert warm.cache_hits == len(_VALUES)
        assert _point_pickles(cold) == _point_pickles(warm)

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        task = self._task()
        straight = SweepExecutor("serial").run(_VALUES, task, seed=_SEED)
        path = tmp_path / "sweep.ckpt"
        seen = []

        def killer(record):
            seen.append(record)
            if len(seen) == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor("serial", on_progress=killer).run(
                _VALUES, task, seed=_SEED, checkpoint=path
            )
        resumed = SweepExecutor("serial").run(
            _VALUES, task, seed=_SEED, checkpoint=path, resume=True
        )
        assert resumed.resumed == 1
        assert _point_pickles(resumed) == _point_pickles(straight)

    def test_injected_faults_recover_bit_exactly(self):
        task = self._task()
        executor = SweepExecutor(
            "serial", retry=RetryPolicy(max_retries=2, backoff_base_s=1e-4)
        )
        baseline = executor.run(_VALUES, task, seed=_SEED)
        plan = FaultPlan.random(
            len(_VALUES), seed=99, raise_rate=0.8, max_faulty_attempts=2
        )
        chaotic = executor.run(_VALUES, task, seed=_SEED, faults=plan)
        assert chaotic.failed == 0
        assert chaotic.retried >= 1
        assert _point_pickles(chaotic) == _point_pickles(baseline)

    def test_adaptive_schedule_rejected_clearly(self):
        executor = SweepExecutor("serial", schedule="adaptive")
        with pytest.raises(ValueError, match="make_accumulator"):
            executor.run(_VALUES, self._task(), seed=_SEED)


class TestReportSchema:
    """Satellite: report round-trips must fail loudly on version skew."""

    def test_fresh_report_carries_the_schema_version(self):
        report = run_multi_ap(_config(num_slots=100), seed=_SEED)
        assert report.schema_version == MULTI_AP_REPORT_SCHEMA

    def test_stale_cache_entry_fails_loudly(self, tmp_path):
        task = MultiAPTask(config=_config(num_slots=100))
        value = 10.0
        cache = ResultCache(tmp_path / "cache")
        # poison the exact key the executor will look up with a report
        # from "the future" (or a mispickled past)
        forged = replace(
            task.run(value, np.random.SeedSequence(0)), schema_version=99
        )
        key = cache.key_for(seed=_SEED, index=0, **task.cache_parts(value))
        cache.put(key, forged)
        executor = SweepExecutor("serial", cache=cache)
        with pytest.raises(ValueError, match="schema_version 99"):
            executor.run([value], task, seed=_SEED)

    def test_stale_checkpoint_fails_loudly(self, tmp_path):
        import json

        task = MultiAPTask(config=_config(num_slots=100))
        path = tmp_path / "sweep.ckpt"
        SweepExecutor("serial").run([10.0], task, seed=_SEED, checkpoint=path)
        # rewrite the completed point with a version-skewed metric,
        # keeping the header (seed/fingerprint) intact
        header = json.loads(path.read_text().splitlines()[0])
        forged = replace(
            task.run(10.0, np.random.SeedSequence(0)), schema_version=99
        )
        ckpt = SweepCheckpoint(path)
        ckpt.start(
            seed=header["seed"],
            fingerprint=header["fingerprint"],
            n_points=header["n_points"],
        )
        ckpt.append(
            index=0, value=10.0, status="ok", attempts=1, seconds=0.1,
            metric=forged,
        )
        with pytest.raises(ValueError, match="schema_version 99"):
            SweepExecutor("serial").run(
                [10.0], task, seed=_SEED, checkpoint=path, resume=True
            )
