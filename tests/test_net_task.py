"""NetSimTask under the sweep executor: every composition stays byte-exact.

The fault-tolerant sweep stack (process pool, cache replay,
checkpoint/resume, injected faults, retries) was built for Monte-Carlo
BER points; these tests pin that a :class:`~repro.net.task.NetSimTask`
point — a full discrete-event network simulation — composes with all
of it without losing a single byte of determinism.
"""

import pickle

import pytest

from repro.net import NetSimConfig, NetSimTask
from repro.sim.executor import SweepExecutor
from repro.sim.faults import FaultPlan
from repro.sim.retry import RetryPolicy

_SEED = 17
_POPULATIONS = [8.0, 20.0, 50.0]


def _point_pickles(report) -> list[bytes]:
    """Per-point pickles.

    Pickled point by point (not as one list): a serially-computed sweep
    shares nested config objects *across* reports, which pickle's memo
    encodes as back-references, while pool/cache round-trips deep-copy
    them — semantically identical metrics, different list-level bytes.
    Per-report byte-identity is the meaningful determinism claim.
    """
    return [pickle.dumps(point) for point in report.points]


def _task(**overrides) -> NetSimTask:
    config = NetSimConfig(
        num_slots=150, min_distance_m=1.5, max_distance_m=3.0, **overrides
    )
    return NetSimTask(config=config)


class TestTaskBasics:
    def test_rejects_unknown_param(self):
        with pytest.raises(ValueError, match="not a NetSimConfig field"):
            NetSimTask(config=NetSimConfig(), param="nope")

    def test_int_params_cast_from_float_sweep_values(self):
        task = _task()
        assert task.config_for(25.0).num_tags == 25
        assert isinstance(task.config_for(25.0).num_tags, int)

    def test_float_params_stay_float(self):
        task = NetSimTask(config=NetSimConfig(), param="arrival_rate_hz")
        assert task.config_for(125.5).arrival_rate_hz == 125.5

    def test_task_is_picklable(self):
        task = _task(protocol="inventory")
        assert pickle.loads(pickle.dumps(task)) == task


class TestExecutorComposition:
    def test_serial_equals_process_backend(self):
        task = _task()
        serial = SweepExecutor("serial").run(_POPULATIONS, task, seed=_SEED)
        pooled = SweepExecutor("process", max_workers=2).run(
            _POPULATIONS, task, seed=_SEED
        )
        assert _point_pickles(serial) == _point_pickles(pooled)
        # digests too: the full event history matched, not just the summary
        for a, b in zip(serial.points, pooled.points):
            assert a.metric.trace_digest == b.metric.trace_digest

    def test_cache_replay_is_byte_identical(self, tmp_path):
        from repro.sim.cache import ResultCache

        task = _task()
        cold_cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor("serial", cache=cold_cache).run(
            _POPULATIONS, task, seed=_SEED
        )
        warm = SweepExecutor("serial", cache=cold_cache).run(
            _POPULATIONS, task, seed=_SEED
        )
        assert warm.cache_hits == len(_POPULATIONS)
        assert _point_pickles(cold) == _point_pickles(warm)

    def test_cache_misses_on_config_change(self, tmp_path):
        from repro.sim.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        SweepExecutor("serial", cache=cache).run(
            _POPULATIONS, _task(), seed=_SEED
        )
        report = SweepExecutor("serial", cache=cache).run(
            _POPULATIONS, _task(protocol="inventory"), seed=_SEED
        )
        assert report.cache_hits == 0

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        task = _task()
        straight = SweepExecutor("serial").run(_POPULATIONS, task, seed=_SEED)
        path = tmp_path / "sweep.ckpt"
        seen = []

        def killer(record):
            seen.append(record)
            if len(seen) == 1:
                raise KeyboardInterrupt  # simulated SIGINT mid-campaign

        with pytest.raises(KeyboardInterrupt):
            SweepExecutor("serial", on_progress=killer).run(
                _POPULATIONS, task, seed=_SEED, checkpoint=path
            )
        resumed = SweepExecutor("serial").run(
            _POPULATIONS, task, seed=_SEED, checkpoint=path, resume=True
        )
        assert resumed.resumed == 1
        assert _point_pickles(resumed) == _point_pickles(straight)

    def test_injected_faults_recover_bit_exactly(self):
        task = _task()
        executor = SweepExecutor(
            "serial", retry=RetryPolicy(max_retries=2, backoff_base_s=1e-4)
        )
        baseline = executor.run(_POPULATIONS, task, seed=_SEED)
        plan = FaultPlan.random(
            len(_POPULATIONS),
            seed=99,
            raise_rate=0.8,
            max_faulty_attempts=2,
        )
        chaotic = executor.run(_POPULATIONS, task, seed=_SEED, faults=plan)
        assert chaotic.failed == 0
        assert chaotic.retried >= 1  # the plan actually injected something
        assert _point_pickles(chaotic) == _point_pickles(baseline)
