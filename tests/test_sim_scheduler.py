"""Adaptive frame scheduler: bit-exactness, reallocation, fault tolerance.

The contract under test (see :mod:`repro.sim.scheduler`):

* every point of an adaptive run is **byte-identical** to the same
  point of a uniform run (and hence to a standalone
  ``estimate_link_ber`` call with the same seed/chunking/backend) —
  pickle-level comparisons, across serial and process backends;
* adaptive and uniform runs share :class:`ResultCache` entries (the
  cache key normalises backend, chunking and schedule away) and
  checkpoint lines (resume is schedule-agnostic);
* chunk-level retries, timeouts and pool-death degradation recover
  without changing a single number, mirroring the uniform engine;
* the report surfaces convergence: which points hit ``target_errors``
  versus ran out of bit budget, and how many rounds the tail took.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.channel.blockage import BlockageEvent
from repro.core.link import LinkConfig
from repro.sim.cache import ResultCache
from repro.sim.executor import (
    BerSweepTask,
    FunctionTask,
    SweepExecutor,
    run_sweep,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.monte_carlo import LinkBerAccumulator, estimate_link_ber
from repro.sim.retry import RetryPolicy
from repro.sim.scheduler import AdaptiveOutcome, advance_chunk, run_adaptive


def _task(**overrides) -> BerSweepTask:
    kwargs = dict(
        config=LinkConfig(
            rician_k_db=6.0,
            blockage_events=(BlockageEvent(0.2e-4, 0.6e-4, 10.0),),
        ),
        param="distance_m",
        target_errors=15,
        max_bits=16_000,
        bits_per_frame=512,
        chunk_frames=3,
        link_backend="vectorized",
    )
    kwargs.update(overrides)
    return BerSweepTask(**kwargs)


_VALUES = [3.0, 3.6, 4.0, 4.4]


def _fast_retry(budget: int) -> RetryPolicy:
    return RetryPolicy(max_retries=budget, backoff_base_s=0.001)


# -- the accumulator contract -------------------------------------------------


class TestLinkBerAccumulator:
    def test_drives_to_same_estimate_as_estimate_link_ber(self):
        config = _task().config_for(4.0)
        kwargs = dict(
            target_errors=15,
            max_bits=16_000,
            bits_per_frame=512,
            chunk_frames=3,
            backend="vectorized",
            seed=9,
        )
        accumulator = LinkBerAccumulator(config, **kwargs)
        while not accumulator.done:
            accumulator.advance()
        assert accumulator.estimate() == estimate_link_ber(config, **kwargs)

    def test_pickle_mid_run_is_bit_exact(self):
        config = _task().config_for(4.0)
        accumulator = LinkBerAccumulator(
            config,
            target_errors=15,
            max_bits=16_000,
            bits_per_frame=512,
            chunk_frames=3,
            backend="vectorized",
            seed=9,
        )
        accumulator.advance()
        clone = pickle.loads(pickle.dumps(accumulator))
        while not accumulator.done:
            accumulator.advance()
        while not clone.done:
            clone.advance()
        assert accumulator.estimate() == clone.estimate()

    def test_advance_past_done_is_noop(self):
        config = _task().config_for(2.0)
        accumulator = LinkBerAccumulator(
            config, target_errors=1, max_bits=512, bits_per_frame=512
        )
        while not accumulator.done:
            accumulator.advance()
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
        with pytest.raises(ValueError, match="chunk_frames"):
            LinkBerAccumulator(config, chunk_frames=0)
        with pytest.raises(ValueError, match="backend"):
            LinkBerAccumulator(config, backend="gpu")

    def test_advance_chunk_helper_returns_elapsed(self):
        accumulator = LinkBerAccumulator(
            _task().config_for(4.0), target_errors=1, bits_per_frame=512
        )
        result, seconds = advance_chunk(accumulator)
        assert result is accumulator
        assert seconds >= 0.0


# -- adaptive == uniform, bit for bit -----------------------------------------


class TestAdaptiveBitExactness:
    def test_serial_adaptive_matches_uniform(self):
        task = _task()
        uniform = SweepExecutor("serial").run(_VALUES, task, seed=5)
        adaptive = SweepExecutor("serial", schedule="adaptive").run(
            _VALUES, task, seed=5
        )
        assert pickle.dumps(adaptive.points) == pickle.dumps(uniform.points)
        assert adaptive.schedule == "adaptive"
        assert adaptive.rounds >= 1

    def test_process_adaptive_matches_uniform(self):
        task = _task()
        uniform = SweepExecutor("serial").run(_VALUES, task, seed=5)
        adaptive = SweepExecutor(
            "process", max_workers=2, schedule="adaptive"
        ).run(_VALUES, task, seed=5)
        assert pickle.dumps(adaptive.points) == pickle.dumps(uniform.points)

    def test_matches_standalone_estimator_per_point(self):
        task = _task()
        report = SweepExecutor("serial", schedule="adaptive").run(
            _VALUES, task, seed=5
        )
        children = np.random.SeedSequence(5).spawn(len(_VALUES))
        for i, value in enumerate(_VALUES):
            standalone = estimate_link_ber(
                task.config_for(value),
                target_errors=task.target_errors,
                max_bits=task.max_bits,
                bits_per_frame=task.bits_per_frame,
                chunk_frames=task.chunk_frames,
                backend=task.link_backend,
                seed=children[i],
            )
            assert report.points[i].metric == standalone, f"point {i}"

    def test_serial_link_backend_also_bit_exact(self):
        task = _task(link_backend="serial", target_errors=8, max_bits=8_000)
        uniform = SweepExecutor("serial").run(_VALUES[:3], task, seed=2)
        adaptive = SweepExecutor("serial", schedule="adaptive").run(
            _VALUES[:3], task, seed=2
        )
        assert pickle.dumps(adaptive.points) == pickle.dumps(uniform.points)

    def test_run_sweep_accepts_schedule(self):
        task = _task(target_errors=5, max_bits=4_096)
        report = run_sweep(_VALUES[:2], task, schedule="adaptive", seed=1)
        assert report.schedule == "adaptive"
        assert report.failed == 0


# -- composition: cache, checkpoint, env --------------------------------------


class TestAdaptiveComposition:
    def test_cross_mode_cache_hits(self, tmp_path):
        """Uniform/serial/chunk=1 warms the cache; adaptive/vectorized/
        chunk=3 hits every entry — the key normalises all three knobs."""
        cache = ResultCache(tmp_path / "cache")
        warm_task = _task(link_backend="serial", chunk_frames=1)
        hit_task = _task(link_backend="vectorized", chunk_frames=3)
        warm = SweepExecutor("serial", cache=cache).run(_VALUES, warm_task, seed=5)
        hit = SweepExecutor("serial", cache=cache, schedule="adaptive").run(
            _VALUES, hit_task, seed=5
        )
        assert warm.cache_misses == len(_VALUES) and warm.cache_hits == 0
        assert hit.cache_hits == len(_VALUES) and hit.cache_misses == 0
        assert pickle.dumps(hit.points) == pickle.dumps(warm.points)

    def test_adaptive_warms_cache_for_uniform(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        task = _task()
        SweepExecutor("serial", cache=cache, schedule="adaptive").run(
            _VALUES[:2], task, seed=5
        )
        uniform = SweepExecutor("serial", cache=cache).run(
            _VALUES[:2], task, seed=5
        )
        assert uniform.cache_hits == 2

    def test_checkpoint_resume_is_schedule_agnostic(self, tmp_path):
        """A checkpoint written by an adaptive run resumes a uniform run
        (and vice versa) bit-exactly."""
        task = _task()
        ck = tmp_path / "sweep.jsonl"
        first = SweepExecutor("serial", schedule="adaptive").run(
            _VALUES, task, seed=5, checkpoint=ck
        )
        resumed = SweepExecutor("serial").run(
            _VALUES, task, seed=5, checkpoint=ck, resume=True
        )
        assert resumed.resumed == len(_VALUES)
        assert pickle.dumps(resumed.points) == pickle.dumps(first.points)

    def test_from_env_parses_schedule(self):
        executor = SweepExecutor.from_env(
            environ={"REPRO_SWEEP_SCHEDULE": "adaptive"}
        )
        assert executor.schedule == "adaptive"
        assert SweepExecutor.from_env(environ={}).schedule == "uniform"

    def test_unknown_schedule_rejected(self):
        with pytest.raises(ValueError, match="schedule"):
            SweepExecutor("serial", schedule="greedy")

    def test_function_task_rejected_with_clear_error(self):
        with pytest.raises(ValueError, match="make_accumulator"):
            SweepExecutor("serial", schedule="adaptive").run(
                [1.0], FunctionTask(lambda v: v)
            )


# -- fault tolerance at chunk granularity -------------------------------------


class TestAdaptiveFaultTolerance:
    def test_chunk_retry_recovers_bit_identical(self):
        task = _task()
        clean = SweepExecutor("serial").run(_VALUES, task, seed=5)
        plan = FaultPlan(specs=(FaultSpec("raise", 1, attempts=2),))
        chaotic = SweepExecutor(
            "serial", schedule="adaptive", retry=_fast_retry(3)
        ).run(_VALUES, task, seed=5, faults=plan)
        assert pickle.dumps(chaotic.points) == pickle.dumps(clean.points)
        assert chaotic.retried == 2
        assert chaotic.recovered == 1
        assert chaotic.failed == 0

    def test_exhausted_chunk_budget_isolates_point(self):
        plan = FaultPlan(specs=(FaultSpec("raise", 0, attempts=99),))
        report = SweepExecutor(
            "serial", schedule="adaptive", retry=_fast_retry(1)
        ).run(_VALUES, task := _task(), seed=5, faults=plan)
        assert report.failed == 1
        assert report.points[0].metric is None
        assert all(p.metric is not None for p in report.points[1:])
        assert "InjectedFault" in report.failure_summary()

    def test_timeout_trips_chunk_and_retry_replays_it(self):
        task = _task(target_errors=5, max_bits=4_096)
        clean = SweepExecutor("serial").run(_VALUES[:2], task, seed=5)
        plan = FaultPlan(specs=(FaultSpec("hang", 1, attempts=1, delay_s=30.0),))
        report = SweepExecutor(
            "serial",
            schedule="adaptive",
            timeout_s=0.5,
            retry=_fast_retry(1),
        ).run(_VALUES[:2], task, seed=5, faults=plan)
        assert report.failed == 0
        assert report.retried == 1
        assert pickle.dumps(report.points) == pickle.dumps(clean.points)

    def test_pool_death_degrades_and_stays_bit_exact(self):
        task = _task()
        clean = SweepExecutor("serial").run(_VALUES, task, seed=5)
        plan = FaultPlan(specs=(FaultSpec("kill", 2, attempts=1),))
        report = SweepExecutor(
            "process",
            max_workers=2,
            schedule="adaptive",
            retry=_fast_retry(2),
        ).run(_VALUES, task, seed=5, faults=plan)
        assert report.degraded
        assert report.failed == 0
        assert pickle.dumps(report.points) == pickle.dumps(clean.points)


# -- convergence surfacing ----------------------------------------------------


class TestConvergenceReporting:
    def _mixed_report(self, schedule: str = "adaptive"):
        # 2.0/3.0 m run out of bit budget before 20 errors; the far
        # points converge almost immediately.
        task = _task(target_errors=20, max_bits=30_000)
        return SweepExecutor("serial", schedule=schedule).run(
            [2.0, 3.0, 4.0, 4.4, 5.0], task, seed=5
        )

    def test_report_counts_converged_vs_budget_capped(self):
        report = self._mixed_report()
        assert report.converged + report.unconverged == 5
        assert report.unconverged >= 1
        for point in report.points:
            assert point.metric.is_converged in (True, False)

    def test_summary_mentions_convergence_and_rounds(self):
        report = self._mixed_report()
        text = report.summary()
        assert "hit target_errors" in text
        assert "hit the bit budget" in text
        assert "adaptive schedule" in text

    def test_failure_summary_mentions_unconverged_points(self):
        report = self._mixed_report()
        text = report.failure_summary()
        assert "unconverged" in text
        assert "bit budget hit" in text

    def test_uniform_schedule_reports_convergence_too(self):
        report = self._mixed_report(schedule="uniform")
        assert report.converged + report.unconverged == 5
        assert "hit target_errors" in report.summary()
        assert "adaptive schedule" not in report.summary()

    def test_scalar_metrics_do_not_count(self):
        report = SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(lambda v: v * v)
        )
        assert report.converged == 0 and report.unconverged == 0
        assert report.failure_summary() == ""

    def test_adaptive_outcome_counters(self):
        task = _task(target_errors=20, max_bits=30_000)
        vals = [2.0, 4.4]
        children = np.random.SeedSequence(5).spawn(len(vals))
        finished: dict[int, object] = {}

        from repro.sim.executor import _PointState

        states = {i: _PointState() for i in range(len(vals))}
        outcome = run_adaptive(
            task=task,
            vals=vals,
            children=list(children),
            pending=[0, 1],
            states=states,
            finish_ok=lambda i, metric, s: finished.__setitem__(i, metric),
            finish_failed=lambda i: finished.__setitem__(i, None),
            backend="serial",
            workers=1,
            timeout_s=None,
            retry=RetryPolicy(),
            seed=5,
        )
        assert isinstance(outcome, AdaptiveOutcome)
        assert set(finished) == {0, 1}
        assert outcome.chunks == sum(outcome.chunks_per_point.values())
        # the unconverged near point (2.0 m) needs more chunks than the
        # cliff point — that asymmetry is the whole reason to adapt
        assert outcome.chunks_per_point[0] > outcome.chunks_per_point[1]
        assert outcome.rounds == max(outcome.chunks_per_point.values())
