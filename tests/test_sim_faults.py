"""Fault tolerance under deterministic chaos.

The contract this file pins: a sweep campaign survives every failure
mode the :class:`~repro.sim.faults.FaultPlan` harness can inject —
raised exceptions, stalls that trip the per-point timeout, killed pool
workers, corrupted cache entries, and a killed driver process — and
the *numbers never change*: recovered points, resumed points and
degraded-backend points are all bit-identical to an undisturbed run.
"""

from __future__ import annotations

import logging
import pickle

import numpy as np
import pytest

from repro.channel.environment import Environment
from repro.core.link import LinkConfig
from repro.core.tag import TagConfig
import repro.sim.checkpoint as checkpoint_module
from repro.sim.cache import MISS, ResultCache, stable_hash
from repro.sim.checkpoint import SYNC_AFTER_POINT_S, CheckpointError, SweepCheckpoint
from repro.sim.executor import (
    BerSweepTask,
    FunctionTask,
    PointTimeoutError,
    SweepExecutor,
    _task_fingerprint,
    sweep_keys,
)
from repro.sim.faults import (
    BlockageFrameOracle,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    StreamFaultPlan,
    StreamFaultSpec,
    blockage_burst_plan,
    corrupt_file,
)
from repro.sim.retry import RetryPolicy


def _noisy_config() -> LinkConfig:
    return LinkConfig(
        tag=TagConfig(symbol_rate_hz=10e6, samples_per_symbol=4),
        environment=Environment.typical_office(),
    )


def _ber_task(**overrides) -> BerSweepTask:
    kwargs = dict(
        config=_noisy_config(),
        param="distance_m",
        target_errors=8,
        max_bits=9_000,
        bits_per_frame=3_000,
    )
    kwargs.update(overrides)
    return BerSweepTask(**kwargs)


_VALUES = [2.0, 9.0, 13.0, 17.0]


def _square(value: float) -> float:
    """Module-level so the process backend can pickle it."""
    return value * value


def _fast_retry(max_retries: int = 2) -> RetryPolicy:
    return RetryPolicy(max_retries=max_retries, backoff_base_s=1e-6, jitter=0.0)


# -- the plan itself ----------------------------------------------------------


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor", index=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"index": -1},
            {"attempts": 0},
            {"delay_s": -1.0},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**{"kind": "raise", "index": 0, **kwargs})


class TestFaultPlan:
    def test_random_plan_is_seed_deterministic(self):
        a = FaultPlan.random(20, seed=5, raise_rate=0.3, kill_rate=0.1)
        b = FaultPlan.random(20, seed=5, raise_rate=0.3, kill_rate=0.1)
        assert a.specs == b.specs
        c = FaultPlan.random(20, seed=6, raise_rate=0.3, kill_rate=0.1)
        assert a.specs != c.specs

    def test_random_plan_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            FaultPlan.random(5, raise_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan.random(5, max_faulty_attempts=0)

    def test_fault_fires_only_while_attempts_remain(self):
        plan = FaultPlan(specs=(FaultSpec("raise", 2, attempts=2),))
        with pytest.raises(InjectedFault):
            plan.before_attempt(2, 0)
        with pytest.raises(InjectedFault):
            plan.before_attempt(2, 1)
        plan.before_attempt(2, 2)  # budget spent: no-op
        plan.before_attempt(1, 0)  # different point: no-op

    def test_kill_is_noop_in_the_owning_process(self):
        plan = FaultPlan(specs=(FaultSpec("kill", 0),))
        plan.before_attempt(0, 0)  # would hard-exit a worker; harmless here

    def test_plan_pickles(self):
        plan = FaultPlan.random(10, seed=3, raise_rate=0.5, corrupt_rate=0.2)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs == plan.specs
        assert clone.main_pid == plan.main_pid

    def test_corrupt_indices_listed_but_never_fire_in_compute(self):
        plan = FaultPlan(specs=(FaultSpec("corrupt", 3),))
        assert plan.corrupt_indices() == [3]
        plan.before_attempt(3, 0)  # corrupt is a cache-side fault

    def test_empty_plan(self):
        assert FaultPlan().is_empty
        assert not FaultPlan(specs=(FaultSpec("raise", 0),)).is_empty


# -- per-point isolation, retries, timeouts (serial) --------------------------


class TestErrorIsolation:
    def test_raising_point_becomes_failed_record(self):
        plan = FaultPlan(specs=(FaultSpec("raise", 1, attempts=99),))
        report = SweepExecutor("serial").run(
            [1.0, 2.0, 3.0], FunctionTask(_square), faults=plan
        )
        assert report.metrics == [1.0, None, 9.0]
        assert report.failed == 1
        record = report.records[1]
        assert not record.ok and record.status == "failed"
        assert "InjectedFault" in record.error
        assert "FAILED" in record.describe()
        assert "InjectedFault" in report.failure_summary()
        assert "1 failed" in report.summary()

    def test_retry_recovers_bit_identical(self):
        clean = SweepExecutor("serial").run(_VALUES, _ber_task(), seed=3)
        plan = FaultPlan(specs=(FaultSpec("raise", 2, attempts=2),))
        chaotic = SweepExecutor("serial", retry=_fast_retry(2)).run(
            _VALUES, _ber_task(), seed=3, faults=plan
        )
        assert chaotic.points == clean.points
        assert pickle.dumps(chaotic.points) == pickle.dumps(clean.points)
        assert chaotic.failed == 0
        assert chaotic.retried == 2
        assert chaotic.recovered == 1
        assert chaotic.records[2].attempts == 3

    def test_exhausted_budget_counts_failed_not_recovered(self):
        plan = FaultPlan(specs=(FaultSpec("raise", 0, attempts=99),))
        report = SweepExecutor("serial", retry=_fast_retry(2)).run(
            [5.0], FunctionTask(_square), faults=plan
        )
        assert report.failed == 1
        assert report.retried == 2
        assert report.recovered == 0
        assert report.records[0].attempts == 3

    def test_timeout_trips_and_retry_recovers(self):
        plan = FaultPlan(specs=(FaultSpec("hang", 0, attempts=1, delay_s=30.0),))
        executor = SweepExecutor(
            "serial", timeout_s=0.2, retry=_fast_retry(1)
        )
        report = executor.run([4.0], FunctionTask(_square), faults=plan)
        assert report.metrics == [4.0 * 4.0]
        assert report.retried == 1 and report.recovered == 1
        assert report.records[0].attempts == 2

    def test_timeout_without_retry_fails_with_timeout_traceback(self):
        plan = FaultPlan(specs=(FaultSpec("hang", 0, attempts=9, delay_s=30.0),))
        report = SweepExecutor("serial", timeout_s=0.2).run(
            [4.0], FunctionTask(_square), faults=plan
        )
        assert report.failed == 1
        assert PointTimeoutError.__name__ in report.records[0].error

    def test_faultless_run_reports_clean_counters(self):
        report = SweepExecutor("serial").run([1.0, 2.0], FunctionTask(_square))
        assert report.failed == report.retried == report.recovered == 0
        assert not report.degraded
        assert report.failure_summary() == ""


# -- the acceptance chaos scenario (process backend) --------------------------


class TestChaosAcceptance:
    """Seeded FaultPlan: exceptions + a worker kill + a timeout, one run."""

    def _chaos_plan(self) -> FaultPlan:
        return FaultPlan(
            specs=(
                FaultSpec("raise", 1, attempts=1),  # transient: 1 retry
                FaultSpec("raise", 2, attempts=99),  # permanent: exhausts budget
                FaultSpec("kill", 3, attempts=1),  # worker death -> degrade
                FaultSpec("hang", 4, attempts=1, delay_s=30.0),  # timeout
            )
        )

    def _run(self):
        executor = SweepExecutor(
            "process",
            max_workers=2,
            timeout_s=1.0,
            retry=_fast_retry(2),
        )
        return executor.run(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            FunctionTask(_square),
            seed=0,
            faults=self._chaos_plan(),
        )

    def test_sweep_completes_with_exact_counters(self):
        report = self._run()
        assert report.metrics == [1.0, 4.0, None, 16.0, 25.0, 36.0]
        assert report.failed == 1
        assert report.retried == 4  # 1 (raise) + 2 (exhausted) + 1 (timeout)
        assert report.recovered == 2  # the transient raise + the timeout
        assert report.degraded  # the kill broke the pool
        assert len(report.records) == 6
        assert [r.index for r in report.records] == [0, 1, 2, 3, 4, 5]
        assert "degraded to serial" in report.summary()

    def test_chaos_counters_are_reproducible(self):
        a = self._run()
        b = self._run()
        assert (a.failed, a.retried, a.recovered, a.degraded) == (
            b.failed,
            b.retried,
            b.recovered,
            b.degraded,
        )
        assert a.metrics == b.metrics

    def test_recovered_points_match_the_faultless_run(self):
        clean = SweepExecutor("serial").run(
            [1.0, 2.0, 3.0, 4.0, 5.0, 6.0], FunctionTask(_square), seed=0
        )
        chaotic = self._run()
        for i, record in enumerate(chaotic.records):
            if record.ok:
                assert chaotic.points[i] == clean.points[i]


class TestPoolDegradation:
    def test_worker_kill_degrades_and_still_answers(self):
        plan = FaultPlan(specs=(FaultSpec("kill", 0, attempts=1),))
        clean = SweepExecutor("serial").run(_VALUES, _ber_task(), seed=7)
        report = SweepExecutor("process", max_workers=2).run(
            _VALUES, _ber_task(), seed=7, faults=plan
        )
        assert report.degraded
        assert report.failed == 0
        assert report.points == clean.points
        assert pickle.dumps(report.points) == pickle.dumps(clean.points)


# -- checkpoint / resume ------------------------------------------------------


class TestCheckpointResume:
    def test_resume_is_bit_identical_to_uninterrupted(self, tmp_path):
        """Kill-then-resume == uninterrupted, byte for byte (acceptance)."""
        task = _ber_task()
        uninterrupted = SweepExecutor("serial").run(_VALUES, task, seed=3)

        path = tmp_path / "sweep.jsonl"
        seen = []

        def killer(record):
            seen.append(record)
            if len(seen) == 2:
                raise KeyboardInterrupt  # simulated SIGINT mid-campaign

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor("serial", on_progress=killer).run(
                _VALUES, task, seed=3, checkpoint=path
            )
        assert len(SweepCheckpoint(path).load()) == 2

        resumed = SweepExecutor("serial").run(
            _VALUES, task, seed=3, checkpoint=path, resume=True
        )
        assert resumed.resumed == 2
        assert resumed.points == uninterrupted.points
        assert pickle.dumps(resumed.metrics) == pickle.dumps(
            uninterrupted.metrics
        )
        # and the checkpoint is now complete: a third run computes nothing
        replay = SweepExecutor("serial").run(
            _VALUES, task, seed=3, checkpoint=path, resume=True
        )
        assert replay.resumed == len(_VALUES)
        assert pickle.dumps(replay.metrics) == pickle.dumps(
            uninterrupted.metrics
        )

    def test_resumed_records_are_flagged(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(_square), checkpoint=path
        )
        resumed = SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(_square), checkpoint=path, resume=True
        )
        assert all(r.resumed for r in resumed.records)
        assert "resumed" in resumed.records[0].describe()

    def test_resume_requires_checkpoint(self):
        with pytest.raises(ValueError):
            SweepExecutor("serial").run(
                [1.0], FunctionTask(_square), resume=True
            )

    def test_resume_refuses_a_different_seed(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(_square), seed=3, checkpoint=path
        )
        with pytest.raises(CheckpointError):
            SweepExecutor("serial").run(
                [1.0, 2.0],
                FunctionTask(_square),
                seed=4,
                checkpoint=path,
                resume=True,
            )

    def test_resume_refuses_a_different_task(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        SweepExecutor("serial").run(_VALUES, _ber_task(), seed=3, checkpoint=path)
        with pytest.raises(CheckpointError):
            SweepExecutor("serial").run(
                _VALUES,
                _ber_task(target_errors=9),
                seed=3,
                checkpoint=path,
                resume=True,
            )

    def test_serial_ber_fingerprint_is_unchanged(self):
        # the digest checkpoints have always carried for a serial task:
        # checkpoints written before fingerprints moved to cache_parts()
        # still resume
        task = _ber_task()
        vals = [float(v) for v in _VALUES]
        assert _task_fingerprint(task, vals) == stable_hash(
            {"task": task, "values": vals}
        )

    def test_failed_points_are_recomputed_on_resume(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        plan = FaultPlan(specs=(FaultSpec("raise", 1, attempts=1),))
        first = SweepExecutor("serial").run(
            [1.0, 2.0, 3.0], FunctionTask(_square), faults=plan, checkpoint=path
        )
        assert first.failed == 1  # no retries configured: point 1 failed
        resumed = SweepExecutor("serial").run(
            [1.0, 2.0, 3.0], FunctionTask(_square), checkpoint=path, resume=True
        )
        assert resumed.resumed == 2
        assert resumed.metrics == [1.0, 4.0, 9.0]  # recomputed cleanly
        assert resumed.failed == 0

    def test_torn_trailing_line_is_tolerated(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(_square), seed=0, checkpoint=path
        )
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "index": 5, "val')  # torn write
        checkpoint = SweepCheckpoint(path)
        entries = checkpoint.load()
        assert sorted(entries) == [0, 1]
        assert checkpoint.skipped_lines == 1

    def test_corrupt_metric_payload_is_skipped(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        SweepExecutor("serial").run(
            [1.0, 2.0], FunctionTask(_square), seed=0, checkpoint=path
        )
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace('"sha256": "', '"sha256": "00')
        path.write_text("\n".join(lines) + "\n")
        checkpoint = SweepCheckpoint(path)
        entries = checkpoint.load()
        assert len(entries) == 1
        assert checkpoint.skipped_lines == 1

    def test_missing_header_is_refused(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text("")
        with pytest.raises(CheckpointError):
            SweepCheckpoint(path).load()

    def test_process_backend_checkpoints_too(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        report = SweepExecutor("process", max_workers=2).run(
            [1.0, 2.0, 3.0], FunctionTask(_square), seed=0, checkpoint=path
        )
        entries = SweepCheckpoint(path).load(seed=0)
        assert sorted(entries) == [0, 1, 2]
        assert [entries[i].metric for i in range(3)] == report.metrics


@pytest.fixture
def fsyncs(monkeypatch):
    """Every fd the checkpoint module fsyncs (the syncs still run)."""
    calls = []
    real = checkpoint_module.os.fsync

    def counting(fd):
        calls.append(fd)
        real(fd)

    monkeypatch.setattr(checkpoint_module.os, "fsync", counting)
    return calls


class TestBatchedFsync:
    """The checkpoint's durability contract: every line is written and
    flushed as its point lands, so resume and torn-tail behaviour never
    depend on a sync; the header is fsynced, the lines are fsynced once
    they carry ``SYNC_AFTER_POINT_S`` of point time, and a run ends
    with one fsync of whatever is still unsynced."""

    def test_batched_checkpoint_resumes_bit_identically(self, tmp_path, fsyncs):
        task = _ber_task()
        uninterrupted = SweepExecutor("serial").run(_VALUES, task, seed=3)

        checkpoint = SweepCheckpoint(tmp_path / "cp.jsonl")
        seen = []

        def killer(record):
            seen.append(len(fsyncs))
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor("serial", on_progress=killer).run(
                _VALUES, task, seed=3, checkpoint=checkpoint
            )
        # both lines had landed with no fsync but the header's
        assert seen == [1, 1]
        assert len(SweepCheckpoint(checkpoint.path).load(seed=3)) == 2

        resumed = SweepExecutor("serial").run(
            _VALUES,
            task,
            seed=3,
            checkpoint=SweepCheckpoint(checkpoint.path),
            resume=True,
        )
        assert resumed.resumed == 2
        assert pickle.dumps(resumed.metrics) == pickle.dumps(
            uninterrupted.metrics
        )

    def test_torn_tail_stays_one_line_with_batching(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "cp.jsonl")
        SweepExecutor("serial").run(
            [1.0, 2.0, 3.0], FunctionTask(_square), seed=0, checkpoint=checkpoint
        )
        with checkpoint.path.open("a", encoding="utf-8") as handle:
            handle.write('{"kind": "point", "ind')  # torn write
        loader = SweepCheckpoint(checkpoint.path)
        assert sorted(loader.load(seed=0)) == [0, 1, 2]
        assert loader.skipped_lines == 1

    def test_subsecond_points_sync_only_header_and_end(self, tmp_path, fsyncs):
        values = [float(v) for v in range(150)]
        report = SweepExecutor("serial").run(
            values, FunctionTask(_square), seed=0, checkpoint=tmp_path / "cp.jsonl"
        )
        assert report.compute_seconds < SYNC_AFTER_POINT_S
        assert len(fsyncs) == 2
        assert len(SweepCheckpoint(tmp_path / "cp.jsonl").load(seed=0)) == 150

    def test_cached_sweep_op_issues_four_fsyncs(self, tmp_path, fsyncs):
        """Two checkpointed 150-point runs, cold then warm on one cache:
        the warm pass's cache hits carry 0 s and force no sync."""
        cache = ResultCache(tmp_path / "cache", version="v")
        task = FunctionTask(_square, cache_token="sq-v1")
        values = [float(v) for v in range(150)]
        executor = SweepExecutor("serial", cache=cache)
        cold = executor.run(values, task, seed=0, checkpoint=tmp_path / "cp.jsonl")
        assert cold.cache_misses == 150 and len(fsyncs) == 2
        warm = executor.run(values, task, seed=0, checkpoint=tmp_path / "cp.jsonl")
        assert warm.cache_hits == 150
        assert len(fsyncs) == 4
        assert len(SweepCheckpoint(tmp_path / "cp.jsonl").load(seed=0)) == 150

    def test_point_time_paces_the_syncs(self, tmp_path, fsyncs):
        checkpoint = SweepCheckpoint(tmp_path / "cp.jsonl")
        checkpoint.start(seed=0, fingerprint="f", n_points=7)
        for i, seconds in enumerate([1.0, 2.5, 1.0]):
            checkpoint.append(
                index=i, value=float(i), status="ok", attempts=1,
                seconds=seconds, metric=i,
            )
            assert len(fsyncs) == 2 + i  # every line of >= 1 s syncs
        for i in range(3, 7):
            checkpoint.append(
                index=i, value=float(i), status="ok", attempts=1,
                seconds=0.5, metric=i,
            )
        assert len(fsyncs) == 6  # two 0.5 s lines make one sync
        checkpoint.sync()
        assert len(fsyncs) == 6  # nothing left unsynced
        assert sorted(checkpoint.load(seed=0)) == list(range(7))

    def test_completed_run_is_synced(self, tmp_path, fsyncs):
        # the run ends with a sync, so a finished checkpoint owes the
        # disk nothing and holds no open handle
        checkpoint = SweepCheckpoint(tmp_path / "cp.jsonl")
        SweepExecutor("serial").run(
            [1.0, 2.0, 3.0], FunctionTask(_square), seed=0, checkpoint=checkpoint
        )
        synced = len(fsyncs)
        checkpoint.sync()
        assert len(fsyncs) == synced
        assert checkpoint._handle is None

    def test_interrupt_closes_the_append_handle(self, tmp_path, fsyncs):
        checkpoint = SweepCheckpoint(tmp_path / "cp.jsonl")

        def killer(record):
            if record.index == 1:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor("serial", on_progress=killer).run(
                [1.0, 2.0, 3.0], FunctionTask(_square), checkpoint=checkpoint
            )
        assert checkpoint._handle is None
        assert len(fsyncs) == 2  # the header, and the lines at the interrupt

    def test_degraded_run_closes_the_append_handle(self, tmp_path, fsyncs):
        checkpoint = SweepCheckpoint(tmp_path / "cp.jsonl")
        plan = FaultPlan(specs=(FaultSpec("kill", 0, attempts=1),))
        report = SweepExecutor("process", max_workers=2).run(
            [1.0, 2.0, 3.0, 4.0],
            FunctionTask(_square),
            faults=plan,
            checkpoint=checkpoint,
        )
        assert report.degraded
        assert checkpoint._handle is None
        assert len(fsyncs) == 2
        assert sorted(checkpoint.load(seed=0)) == [0, 1, 2, 3]

    def test_sync_is_safe_with_nothing_pending(self, tmp_path):
        checkpoint = SweepCheckpoint(tmp_path / "absent.jsonl")
        checkpoint.sync()  # no file, no appends: a no-op
        assert not checkpoint.exists()


class TestInterruptSafety:
    def test_interrupt_leaves_no_partial_files(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v")
        path = tmp_path / "cp.jsonl"
        task = FunctionTask(_square, cache_token="sq-v1")
        seen = []

        def killer(record):
            seen.append(record)
            if len(seen) == 2:
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor("serial", cache=cache, on_progress=killer).run(
                [1.0, 2.0, 3.0, 4.0], task, seed=0, checkpoint=path
            )
        # checkpoint: loadable, exactly the completed prefix
        assert sorted(SweepCheckpoint(path).load(seed=0)) == [0, 1]
        # atomicity: no half-written temp files anywhere
        assert not list((tmp_path / "cache").glob(".tmp-*"))
        assert not list(tmp_path.glob(".tmp-*"))
        # cache entries that exist are complete and readable
        assert cache.verify(quarantine=False).corrupt == 0
        # and the campaign finishes cleanly from where it stopped
        resumed = SweepExecutor("serial", cache=cache).run(
            [1.0, 2.0, 3.0, 4.0], task, seed=0, checkpoint=path, resume=True
        )
        assert resumed.metrics == [1.0, 4.0, 9.0, 16.0]
        assert resumed.resumed == 2


# -- cache corruption ---------------------------------------------------------


class TestCacheCorruption:
    def _warm(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v")
        task = FunctionTask(_square, cache_token="sq-v1")
        executor = SweepExecutor("serial", cache=cache)
        executor.run(_VALUES[:3], task, seed=0)
        keys = sweep_keys(cache, task, _VALUES[:3], 0)
        return cache, task, keys

    def test_fault_plan_corrupts_chosen_entry(self, tmp_path, caplog):
        cache, task, keys = self._warm(tmp_path)
        plan = FaultPlan(specs=(FaultSpec("corrupt", 1),))
        assert plan.corrupt_cache_entries(cache, keys) == 1
        with caplog.at_level(logging.WARNING, logger="repro.sim.cache"):
            warm = SweepExecutor("serial", cache=cache).run(
                _VALUES[:3], task, seed=0
            )
        # corrupted entry is a miss (recomputed), the others hit
        assert warm.cache_hits == 2 and warm.cache_misses == 1
        assert warm.metrics == [v * v for v in _VALUES[:3]]
        assert cache.stats.corrupt == 1
        assert any("integrity" in r.message for r in caplog.records)

    def test_verify_quarantines_corrupt_entries(self, tmp_path):
        cache, task, keys = self._warm(tmp_path)
        corrupt_file(cache.entry_path(keys[0]))
        report = cache.verify(quarantine=True)
        assert report.checked == 3
        assert report.corrupt == 1 and report.quarantined == 1
        assert len(cache) == 2
        assert (cache.quarantine_dir / f"{keys[0]}.pkl").exists()
        assert cache.get(keys[0]) is MISS
        # a second scan is clean
        assert cache.verify().corrupt == 0

    def test_unpicklable_payload_counts_as_read_error(self, tmp_path, caplog):
        import hashlib

        cache = ResultCache(tmp_path / "cache", version="v")
        key = cache.key_for(probe=1)
        payload = b"this is not a pickle"
        digest = hashlib.sha256(payload).hexdigest().encode("ascii")
        cache._path(key).write_bytes(
            b"repro-cache:2\n" + digest + b"\n" + payload
        )
        with caplog.at_level(logging.WARNING, logger="repro.sim.cache"):
            assert cache.get(key) is MISS
        assert cache.stats.errors == 1
        assert cache.stats.corrupt == 0
        assert any("unpickle" in r.message for r in caplog.records)

    def test_truncated_entry_counts_as_corrupt(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", version="v")
        key = cache.key_for(probe=2)
        cache.put(key, list(range(50)))
        path = cache.entry_path(key)
        path.write_bytes(path.read_bytes()[:-7])
        assert cache.get(key) is MISS
        assert cache.stats.corrupt == 1


# -- channel-level chaos ------------------------------------------------------


class TestBlockagePlan:
    def test_plan_is_seed_deterministic(self):
        a = blockage_burst_plan(1.0, rate_hz=5.0, seed=3)
        b = blockage_burst_plan(1.0, rate_hz=5.0, seed=3)
        assert a == b
        assert a != blockage_burst_plan(1.0, rate_hz=5.0, seed=4)

    def test_zero_rate_means_no_events(self):
        assert blockage_burst_plan(1.0, rate_hz=0.0, seed=0) == []

    def test_events_stay_inside_the_horizon(self):
        events = blockage_burst_plan(0.5, rate_hz=20.0, seed=1)
        assert events
        for event in events:
            assert 0.0 <= event.start_s < event.stop_s <= 0.5

    def test_rate_scales_event_count(self):
        low = blockage_burst_plan(10.0, rate_hz=1.0, seed=0)
        high = blockage_burst_plan(10.0, rate_hz=20.0, seed=0)
        assert len(high) > len(low)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration_s": 0.0, "rate_hz": 1.0},
            {"duration_s": 1.0, "rate_hz": -1.0},
            {"duration_s": 1.0, "rate_hz": 1.0, "mean_duration_s": 0.0},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        duration = kwargs.pop("duration_s")
        with pytest.raises(ValueError):
            blockage_burst_plan(duration, **kwargs)


class TestBlockageFrameOracle:
    def test_blocked_slots_mostly_fail(self):
        events = blockage_burst_plan(
            1.0, rate_hz=0.0, seed=0
        )  # start clean, add one wall-to-wall blocker
        from repro.channel.blockage import BlockageEvent

        events = [BlockageEvent(start_s=0.0, stop_s=1.0, attenuation_db=20.0)]
        oracle = BlockageFrameOracle(
            events,
            frame_duration_s=1e-3,
            clear_success_prob=1.0,
            blocked_success_prob=0.0,
        )
        rng = np.random.default_rng(0)
        outcomes = [oracle(0, rng) for _ in range(100)]
        assert not any(outcomes)
        assert oracle.blocked_transmissions == 100

    def test_clear_slots_mostly_succeed(self):
        oracle = BlockageFrameOracle(
            [], frame_duration_s=1e-3, clear_success_prob=1.0
        )
        rng = np.random.default_rng(0)
        assert all(oracle(0, rng) for _ in range(100))
        assert oracle.blocked_transmissions == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockageFrameOracle([], frame_duration_s=0.0)
        with pytest.raises(ValueError):
            BlockageFrameOracle([], frame_duration_s=1e-3, clear_success_prob=1.5)


class TestStreamFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            StreamFaultSpec(kind="meteor", at_s=0.0)
        with pytest.raises(ValueError, match="at_s"):
            StreamFaultSpec(kind="flood", at_s=-1.0)
        with pytest.raises(ValueError, match="probability"):
            StreamFaultSpec(kind="malformed", at_s=0.0, probability=1.5)
        with pytest.raises(ValueError, match="factor"):
            StreamFaultSpec(kind="slow", at_s=0.0, factor=0.0)

    def test_window_contains(self):
        spec = StreamFaultSpec(kind="slow", at_s=1.0, duration_s=2.0)
        assert not spec.window_contains(0.5)
        assert spec.window_contains(1.0)
        assert spec.window_contains(2.9)
        assert not spec.window_contains(3.0)


class TestStreamFaultPlan:
    def _stream(self, n=40):
        return [(0.1 * i, f"ev{i}") for i in range(n)]

    def test_random_plan_is_seed_deterministic(self):
        kwargs = dict(horizon_s=10.0, floods=2, stalls=1, slow_windows=1,
                      malformed_rate=0.1, duplicate_rate=0.1)
        assert (StreamFaultPlan.random(seed=5, **kwargs)
                == StreamFaultPlan.random(seed=5, **kwargs))
        assert (StreamFaultPlan.random(seed=5, **kwargs)
                != StreamFaultPlan.random(seed=6, **kwargs))

    def test_transform_is_deterministic(self):
        plan = StreamFaultPlan.random(
            horizon_s=4.0, seed=3, floods=1, flood_events=5, stalls=1,
            malformed_rate=0.2, duplicate_rate=0.2, reorder_rate=0.2,
        )
        run = lambda: list(plan.transform(
            iter(self._stream()),
            flood_factory=lambda k, t: f"flood{k}",
            malform=lambda item, why: ("bad", item),
        ))
        assert run() == run()

    def test_stall_shifts_later_arrivals(self):
        plan = StreamFaultPlan(
            specs=(StreamFaultSpec(kind="stall", at_s=1.0, duration_s=0.5),),
        )
        out = list(plan.transform(iter(self._stream(30))))
        times = dict(zip((item for _, item in out),
                         (t for t, _ in out)))
        assert times["ev5"] == pytest.approx(0.5)   # before the stall
        assert times["ev20"] == pytest.approx(2.5)  # 2.0 + 0.5 shift

    def test_flood_injects_burst(self):
        plan = StreamFaultPlan(
            specs=(StreamFaultSpec(kind="flood", at_s=0.55, events=4,
                                   rate_hz=100.0),),
        )
        out = list(plan.transform(iter(self._stream(20)),
                                  flood_factory=lambda k, t: f"flood{k}"))
        floods = [(t, item) for t, item in out
                  if isinstance(item, str) and item.startswith("flood")]
        assert [item for _, item in floods] == [
            "flood0", "flood1", "flood2", "flood3"
        ]
        assert floods[0][0] == pytest.approx(0.55)
        assert floods[-1][0] == pytest.approx(0.58)

    def test_flood_without_factory_is_skipped(self):
        plan = StreamFaultPlan(
            specs=(StreamFaultSpec(kind="flood", at_s=0.5, events=4),),
        )
        out = list(plan.transform(iter(self._stream(10))))
        assert len(out) == 10

    def test_slow_windows_compound(self):
        plan = StreamFaultPlan(
            specs=(
                StreamFaultSpec(kind="slow", at_s=0.0, duration_s=2.0,
                                factor=3.0),
                StreamFaultSpec(kind="slow", at_s=1.0, duration_s=2.0,
                                factor=2.0),
            ),
        )
        assert plan.service_factor(0.5) == pytest.approx(3.0)
        assert plan.service_factor(1.5) == pytest.approx(6.0)
        assert plan.service_factor(2.5) == pytest.approx(2.0)
        assert plan.service_factor(5.0) == pytest.approx(1.0)

    def test_reorder_emits_backwards_timestamps(self):
        plan = StreamFaultPlan(
            specs=(StreamFaultSpec(kind="reorder", at_s=0.0,
                                   duration_s=100.0, probability=0.5),),
            seed=1,
        )
        out = list(plan.transform(iter(self._stream(60))))
        times = [t for t, _ in out]
        assert any(b < a for a, b in zip(times, times[1:]))
        assert sorted(item for _, item in out) == sorted(
            item for _, item in self._stream(60)
        )

    def test_duplicates_reemit_same_item(self):
        plan = StreamFaultPlan(
            specs=(StreamFaultSpec(kind="duplicate", at_s=0.0,
                                   duration_s=100.0, probability=0.5),),
            seed=1,
        )
        out = [item for _, item in plan.transform(iter(self._stream(60)))]
        assert len(out) > 60
        assert len(set(out)) == 60

    def test_empty_plan_is_identity(self):
        plan = StreamFaultPlan()
        assert plan.is_empty
        assert list(plan.transform(iter(self._stream()))) == self._stream()
