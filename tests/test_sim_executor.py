"""Determinism / equivalence properties of the sweep execution engine.

The engine's headline guarantee: for a fixed root seed, the ``process``
backend, the ``serial`` reference backend, and cache-hit replay all
return **byte-identical** results — across sweep shapes and worker
counts.  These tests pin that contract, plus the stable cache-key
machinery it leans on, the estimator's budget rules and the report's
convergence counters.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.channel.blockage import BlockageEvent
from repro.channel.environment import Environment
from repro.core.link import LinkConfig
from repro.core.tag import TagConfig
from repro.sim.cache import (
    MISS,
    CacheKeyError,
    ResultCache,
    canonicalize,
    code_version,
    stable_hash,
)
from repro.sim.executor import (
    BerSweepTask,
    FunctionTask,
    PointRecord,
    SweepExecutor,
)
from repro.sim.monte_carlo import BerEstimate, LinkBerAccumulator, estimate_link_ber


def _noisy_config() -> LinkConfig:
    """An office link whose far points actually accumulate bit errors."""
    return LinkConfig(
        tag=TagConfig(symbol_rate_hz=10e6, samples_per_symbol=4),
        environment=Environment.typical_office(),
    )


def _task(**overrides) -> BerSweepTask:
    kwargs = dict(
        config=_noisy_config(),
        param="distance_m",
        target_errors=8,
        max_bits=9_000,
        bits_per_frame=3_000,
    )
    kwargs.update(overrides)
    return BerSweepTask(**kwargs)


#: Mix of clean (low BER) and noisy (erroring) operating points.
_VALUES = [2.0, 9.0, 13.0, 17.0]


def _metric_squared(value: float) -> float:
    """Module-level so the process backend can pickle it."""
    return value * value


class TestSeedSpawnDeterminism:
    def test_same_seed_same_results(self):
        a = SweepExecutor("serial").run(_VALUES, _task(), seed=3)
        b = SweepExecutor("serial").run(_VALUES, _task(), seed=3)
        assert a.points == b.points
        assert pickle.dumps(a.points) == pickle.dumps(b.points)

    def test_different_seed_different_results(self):
        a = SweepExecutor("serial").run(_VALUES, _task(), seed=3)
        b = SweepExecutor("serial").run(_VALUES, _task(), seed=4)
        # the noisy far points must see different error patterns
        assert a.points != b.points

    def test_prefix_stability_across_sweep_shapes(self):
        """Child seeds depend only on (root, index): prefixes agree."""
        short = SweepExecutor("serial").run(_VALUES[:2], _task(), seed=3)
        full = SweepExecutor("serial").run(_VALUES, _task(), seed=3)
        assert short.points == full.points[:2]

    def test_single_point_sweep_matches_spawned_child(self):
        report = SweepExecutor("serial").run([13.0], _task(), seed=3)
        child = np.random.SeedSequence(3).spawn(1)[0]
        direct = estimate_link_ber(
            _task().config_for(13.0),
            target_errors=8,
            max_bits=9_000,
            bits_per_frame=3_000,
            seed=child,
        )
        assert report.points[0].metric == direct

    def test_estimates_carry_statistical_weight(self):
        report = SweepExecutor("serial").run(_VALUES, _task(), seed=3)
        for point in report.points:
            estimate = point.metric
            assert isinstance(estimate, BerEstimate)
            assert estimate.bits_tested > 0
            assert estimate.target_errors == 8


class TestBackendEquivalence:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_matches_serial_any_worker_count(self, workers):
        serial = SweepExecutor("serial").run(_VALUES, _task(), seed=7)
        process = SweepExecutor("process", max_workers=workers).run(
            _VALUES, _task(), seed=7
        )
        assert process.points == serial.points
        assert pickle.dumps(process.points) == pickle.dumps(serial.points)

    def test_process_function_task_matches_serial(self):
        task = FunctionTask(_metric_squared)
        serial = SweepExecutor("serial").run([1.0, 2.0, 3.0], task)
        process = SweepExecutor("process", max_workers=2).run([1.0, 2.0, 3.0], task)
        assert serial.points == process.points
        assert serial.metrics == [1.0, 4.0, 9.0]

    def test_report_is_index_ordered_regardless_of_completion(self):
        report = SweepExecutor("process", max_workers=2).run(
            _VALUES, _task(), seed=7
        )
        assert [p.value for p in report.points] == _VALUES
        assert [r.index for r in report.records] == sorted(
            r.index for r in report.records
        )


class TestCacheReplay:
    def test_cache_hit_replay_is_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        warm = SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        assert cold.cache_misses == len(_VALUES) and cold.cache_hits == 0
        assert warm.cache_hits == len(_VALUES) and warm.cache_misses == 0
        assert warm.points == cold.points
        assert pickle.dumps(warm.points) == pickle.dumps(cold.points)

    def test_three_way_agreement_serial_process_cached(self, tmp_path):
        serial = SweepExecutor("serial").run(_VALUES, _task(), seed=7)
        process = SweepExecutor("process", max_workers=2).run(
            _VALUES, _task(), seed=7
        )
        cache = ResultCache(tmp_path)
        SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        cached = SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        blobs = {
            pickle.dumps(report.points) for report in (serial, process, cached)
        }
        assert len(blobs) == 1

    def test_different_seed_does_not_hit_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        other = SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=8)
        assert other.cache_hits == 0

    def test_different_config_does_not_hit_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        other = SweepExecutor("serial", cache=cache).run(
            _VALUES, _task(target_errors=9), seed=7
        )
        assert other.cache_hits == 0

    def test_invalidation_forces_recompute(self, tmp_path):
        cache = ResultCache(tmp_path)
        SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        assert len(cache) == len(_VALUES)
        removed = cache.invalidate()
        assert removed == len(_VALUES)
        assert len(cache) == 0
        again = SweepExecutor("serial", cache=cache).run(_VALUES, _task(), seed=7)
        assert again.cache_hits == 0 and again.cache_misses == len(_VALUES)
        assert cache.stats.invalidations == removed

    def test_single_key_invalidation(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(probe=1)
        cache.put(key, {"x": 1})
        assert key in cache
        assert cache.invalidate(key) == 1
        assert key not in cache
        assert cache.get(key) is MISS

    def test_none_is_a_cacheable_value(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(probe="none")
        cache.put(key, None)
        assert cache.get(key) is None

    def test_version_partitions_the_keyspace(self, tmp_path):
        old = ResultCache(tmp_path, version="code-v1")
        new = ResultCache(tmp_path, version="code-v2")
        old.put(old.key_for(probe=1), "stale")
        assert new.get(new.key_for(probe=1)) is MISS

    def test_default_version_is_code_digest(self, tmp_path):
        assert ResultCache(tmp_path).version == code_version()
        assert len(code_version()) == 64

    def test_uncacheable_function_task_skips_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor("serial", cache=cache)
        report = executor.run([1.0, 2.0], FunctionTask(lambda v: v))
        assert report.metrics == [1.0, 2.0]
        assert cache.stats.lookups == 0 and len(cache) == 0

    def test_opted_in_function_task_is_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        task = FunctionTask(_metric_squared, cache_token="squared-v1")
        executor = SweepExecutor("serial", cache=cache)
        executor.run([3.0], task)
        warm = executor.run([3.0], task)
        assert warm.cache_hits == 1
        assert warm.metrics == [9.0]

    def test_get_or_compute(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key_for(probe="goc")
        calls = []
        value = cache.get_or_compute(key, lambda: calls.append(1) or 42)
        again = cache.get_or_compute(key, lambda: calls.append(1) or 43)
        assert value == again == 42
        assert len(calls) == 1


class TestStableHash:
    def test_deterministic_for_link_config(self):
        a = stable_hash(_noisy_config())
        b = stable_hash(_noisy_config())
        assert a == b and len(a) == 64

    def test_sensitive_to_any_field(self):
        base = stable_hash(_noisy_config())
        moved = stable_hash(_noisy_config().with_distance(5.0))
        remod = stable_hash(_noisy_config().with_modulation("BPSK"))
        assert len({base, moved, remod}) == 3

    def test_float_hashing_is_byte_exact(self):
        assert stable_hash(1.0) != stable_hash(1.0 + 1e-15)
        assert stable_hash(0.1 + 0.2) == stable_hash(0.30000000000000004)

    def test_ndarray_hashing_sees_dtype_shape_and_bytes(self):
        a = np.arange(6, dtype=np.float64)
        assert stable_hash(a) == stable_hash(a.copy())
        assert stable_hash(a) != stable_hash(a.reshape(2, 3))
        assert stable_hash(a) != stable_hash(a.astype(np.float32))

    def test_dict_order_does_not_matter(self):
        assert stable_hash({"a": 1, "b": 2}) == stable_hash({"b": 2, "a": 1})

    def test_lambdas_are_rejected(self):
        with pytest.raises(CacheKeyError):
            canonicalize(lambda x: x)

    def test_arbitrary_objects_are_rejected(self):
        class Opaque:
            pass

        with pytest.raises(CacheKeyError):
            canonicalize(Opaque())

    def test_named_functions_canonicalise_by_qualname(self):
        ref = canonicalize(_metric_squared)
        assert ref == ["fn", f"{_metric_squared.__module__}._metric_squared"]


class TestExecutorSurface:
    def test_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            SweepExecutor("threads")

    def test_rejects_bad_worker_count(self):
        with pytest.raises(ValueError):
            SweepExecutor("process", max_workers=0)

    def test_rejects_bad_sweep_param(self):
        with pytest.raises(ValueError):
            BerSweepTask(config=_noisy_config(), param="not_a_field")

    @pytest.mark.parametrize(
        "overrides,message",
        [
            ({"target_errors": 0}, "target_errors must be >= 1, got 0"),
            ({"bits_per_frame": 0}, "bits_per_frame must be >= 1, got 0"),
            ({"max_bits": 2_999}, "max_bits (2999) must cover one frame (3000 bits)"),
        ],
    )
    def test_rejects_bad_ber_budget_at_construction(self, overrides, message):
        with pytest.raises(ValueError) as raised:
            _task(**overrides)
        assert str(raised.value) == message

    def test_empty_sweep(self):
        report = SweepExecutor("serial").run([], _task(), seed=0)
        assert report.points == [] and report.records == []

    def test_progress_records_fire_per_point(self):
        seen: list[PointRecord] = []
        executor = SweepExecutor("serial", on_progress=seen.append)
        executor.run([1.0, 2.0], FunctionTask(_metric_squared))
        assert [r.index for r in seen] == [0, 1]
        assert all(not r.cached for r in seen)
        assert "computed" in seen[0].describe()

    def test_from_env_parses_environment(self, tmp_path):
        executor = SweepExecutor.from_env(
            environ={
                "REPRO_SWEEP_BACKEND": "process",
                "REPRO_SWEEP_WORKERS": "3",
                "REPRO_SWEEP_CACHE": str(tmp_path / "cache"),
            }
        )
        assert executor.backend == "process"
        assert executor.max_workers == 3
        assert executor.cache is not None

    def test_from_env_defaults_to_serial_uncached(self):
        executor = SweepExecutor.from_env(environ={})
        assert executor.backend == "serial"
        assert executor.cache is None

    def test_report_summary_mentions_backend_and_counts(self, tmp_path):
        cache = ResultCache(tmp_path)
        executor = SweepExecutor("serial", cache=cache)
        executor.run(_VALUES[:2], _task(), seed=7)
        report = executor.run(_VALUES[:2], _task(), seed=7)
        text = report.summary()
        assert "serial backend" in text
        assert "2 cache hits" in text


class TestFaultToleranceKnobs:
    def test_from_env_parses_fault_tolerance_knobs(self):
        executor = SweepExecutor.from_env(
            environ={
                "REPRO_SWEEP_TIMEOUT": "2.5",
                "REPRO_SWEEP_MAX_RETRIES": "3",
                "REPRO_SWEEP_BACKOFF_BASE": "0.01",
            }
        )
        assert executor.timeout_s == 2.5
        assert executor.retry is not None
        assert executor.retry.max_retries == 3
        assert executor.retry.backoff_base_s == 0.01

    def test_from_env_leaves_fault_knobs_off_by_default(self):
        executor = SweepExecutor.from_env(environ={})
        assert executor.timeout_s is None
        # None normalises to the no-retry policy: one try, no backoff
        assert executor.retry.max_retries == 0

    @pytest.mark.parametrize(
        "name, value",
        [
            ("REPRO_SWEEP_TIMEOUT", "soon"),
            ("REPRO_SWEEP_TIMEOUT", "-1"),
            ("REPRO_SWEEP_MAX_RETRIES", "many"),
            ("REPRO_SWEEP_MAX_RETRIES", "-2"),
            ("REPRO_SWEEP_BACKOFF_BASE", "fast"),
            ("REPRO_SWEEP_BACKOFF_BASE", "0"),
            ("REPRO_SWEEP_WORKERS", "many"),
            ("REPRO_SWEEP_WORKERS", "0"),
            ("REPRO_SWEEP_WORKERS", "-2"),
            ("REPRO_SWEEP_BACKEND", "threads"),
        ],
    )
    def test_from_env_rejects_bad_knobs_naming_the_variable(self, name, value):
        with pytest.raises(ValueError, match=name):
            SweepExecutor.from_env(environ={name: value})

    @pytest.mark.parametrize("timeout_s", [0.0, -1.0])
    def test_constructor_rejects_nonpositive_timeout(self, timeout_s):
        with pytest.raises(ValueError, match="timeout_s"):
            SweepExecutor("serial", timeout_s=timeout_s)


# -- the estimator accumulator ------------------------------------------------


def _fading_task(**overrides) -> BerSweepTask:
    """A fading link whose near points run out of bit budget before
    ``target_errors`` while the far points converge at once."""
    kwargs = dict(
        config=LinkConfig(
            rician_k_db=6.0,
            blockage_events=(BlockageEvent(0.2e-4, 0.6e-4, 10.0),),
        ),
        param="distance_m",
        target_errors=20,
        max_bits=30_000,
        bits_per_frame=512,
        link_backend="fused",
    )
    kwargs.update(overrides)
    return BerSweepTask(**kwargs)


class TestLinkBerAccumulator:
    def test_drives_to_same_estimate_as_estimate_link_ber(self):
        config = _fading_task().config_for(4.0)
        kwargs = dict(
            target_errors=15,
            max_bits=16_000,
            bits_per_frame=512,
            backend="fused",
            seed=9,
        )
        accumulator = LinkBerAccumulator(config, **kwargs)
        while not accumulator.done:
            accumulator.advance()
        assert accumulator.estimate() == estimate_link_ber(config, **kwargs)

    def test_advance_past_done_is_noop(self):
        accumulator = LinkBerAccumulator(
            _fading_task().config_for(2.0),
            target_errors=1,
            max_bits=512,
            bits_per_frame=512,
            backend="fused",
        )
        accumulator.advance()
        assert accumulator.done
        before = accumulator.estimate()
        accumulator.advance()
        assert accumulator.estimate() == before

    def test_validation_matches_estimator(self):
        config = LinkConfig()
        with pytest.raises(ValueError, match="target_errors"):
            LinkBerAccumulator(config, target_errors=0)
        with pytest.raises(ValueError, match="max_bits"):
            LinkBerAccumulator(config, max_bits=10, bits_per_frame=2048)
        # A zero-bit frame never advances the bit budget (the serial
        # loop would spin forever).
        with pytest.raises(ValueError, match="bits_per_frame"):
            LinkBerAccumulator(config, bits_per_frame=0)
        with pytest.raises(ValueError, match="backend"):
            LinkBerAccumulator(config, backend="gpu")


# -- convergence surfacing ----------------------------------------------------


class TestConvergenceReporting:
    def _mixed_report(self):
        # 2.0/3.0 m run out of bit budget before 20 errors; the far
        # points converge almost immediately.
        return SweepExecutor("serial").run(
            [2.0, 3.0, 4.0, 4.4, 5.0], _fading_task(), seed=5
        )

    def test_report_counts_converged_vs_budget_capped(self):
        report = self._mixed_report()
        assert report.converged + report.unconverged == 5
        assert report.unconverged >= 1
        for point in report.points:
            assert point.metric.is_converged in (True, False)

    def test_summary_mentions_convergence(self):
        text = self._mixed_report().summary()
        assert "hit target_errors" in text
        assert "hit the bit budget" in text

    def test_failure_summary_mentions_unconverged_points(self):
        text = self._mixed_report().failure_summary()
        assert "unconverged" in text
        assert "bit budget hit" in text

    def test_serial_link_tier_reports_convergence_too(self):
        fused = self._mixed_report()
        serial = SweepExecutor("serial").run(
            [2.0, 3.0, 4.0, 4.4, 5.0], _fading_task(link_backend="serial"), seed=5
        )
        assert serial.converged + serial.unconverged == 5
        assert (serial.converged, serial.unconverged) == (
            fused.converged,
            fused.unconverged,
        )
        assert "hit target_errors" in serial.summary()

    def test_scalar_metrics_do_not_count(self):
        report = SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(lambda v: v * v)
        )
        assert report.converged == 0 and report.unconverged == 0
        assert report.failure_summary() == ""
