"""Equivalence contract of the fused whole-budget backend.

The ``"fused"`` tier hands the entire remaining frame budget to one
:meth:`~repro.sim.batch.BatchLinkSimulator.simulate_point` array
program.  Its contract is **byte identity** with the serial
reference: same RNG serial order per frame, frame-exact early exit on
``target_errors``, invariant to block-growth schedules and to which
bit-exact tier warmed the cache.  These tests pin every face of that
contract.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.channel.environment import Environment
from repro.core.link import LinkConfig
from repro.sim.batch import BatchLinkSimulator
from repro.sim.cache import ResultCache
from repro.sim.executor import BerSweepTask, SweepExecutor
from repro.sim.monte_carlo import (
    BIT_EXACT_BACKENDS,
    LinkBerAccumulator,
    estimate_link_ber,
)

_NOISY = LinkConfig(distance_m=13.0, environment=Environment.typical_office())
_RICIAN = LinkConfig(
    distance_m=8.0, rician_k_db=6.0, environment=Environment.typical_office()
)


def _estimate(config, backend, *, target_errors=50, max_bits=24_576):
    return estimate_link_ber(
        config,
        target_errors=target_errors,
        max_bits=max_bits,
        bits_per_frame=2048,
        seed=0,
        backend=backend,
    )


class TestByteIdentity:
    @pytest.mark.parametrize("config", [_NOISY, _RICIAN], ids=["awgn", "rician"])
    def test_fused_equals_serial(self, config):
        assert _estimate(config, "fused") == _estimate(config, "serial")

    def test_early_exit_is_frame_exact(self):
        """A tiny error target must stop fused on the same frame as serial."""
        serial = _estimate(_NOISY, "serial", target_errors=2)
        fused = _estimate(_NOISY, "fused", target_errors=2)
        assert fused == serial
        assert fused.bit_errors >= 2
        # stopped early: budget would have allowed 12 frames
        assert fused.frames < 12

    @pytest.mark.parametrize("start_block", [1, 2, 5, 16, 128])
    def test_block_growth_schedule_invariant(self, start_block):
        """simulate_point results do not depend on the block schedule.

        Overshoot frames inside a block consume RNG state the serial
        path would never draw, but are discarded before absorption —
        the accumulated counts must not see them.
        """
        simulator = BatchLinkSimulator(_NOISY, num_payload_bits=2048)
        baseline = simulator.simulate_point(
            np.random.default_rng(5), errors_needed=20, max_frames=12,
            start_block=16,
        )
        got = simulator.simulate_point(
            np.random.default_rng(5), errors_needed=20, max_frames=12,
            start_block=start_block,
        )
        assert np.array_equal(got[0], baseline[0])
        assert np.array_equal(got[1], baseline[1])


class TestAccumulatorReplay:
    def test_accumulator_matches_driver(self):
        """Advancing the accumulator to done equals the estimator."""
        accumulator = LinkBerAccumulator(
            _NOISY,
            target_errors=50,
            max_bits=24_576,
            bits_per_frame=2048,
            seed=0,
            backend="fused",
        )
        while not accumulator.done:
            accumulator = accumulator.advance()
        assert accumulator.estimate() == _estimate(_NOISY, "fused")


class TestCacheKeyspace:
    def _task(self, backend):
        return BerSweepTask(
            config=_NOISY,
            target_errors=20,
            max_bits=8_192,
            bits_per_frame=2048,
            link_backend=backend,
        )

    def test_bit_exact_tiers_share_cache_entries(self):
        """serial and fused → one cache key."""
        keys = {
            pickle.dumps(self._task(backend).cache_parts())
            for backend in BIT_EXACT_BACKENDS
        }
        assert len(keys) == 1

    def test_fast_tier_has_its_own_keyspace(self):
        exact = pickle.dumps(self._task("serial").cache_parts())
        fast = pickle.dumps(self._task("fast").cache_parts())
        assert exact != fast

    def test_cache_warmed_by_serial_serves_fused(self, tmp_path):
        """Cross-backend cache replay is byte-identical."""
        values = [12.0, 13.0]
        cache = ResultCache(tmp_path / "cache")
        cold = SweepExecutor("serial", cache=cache).run(
            values, self._task("serial"), seed=0
        )
        warm = SweepExecutor("serial", cache=cache).run(
            values, self._task("fused"), seed=0
        )
        assert warm.cache_hits == len(values)
        assert [pickle.dumps(p.metric) for p in cold.points] == [
            pickle.dumps(p.metric) for p in warm.points
        ]

    def test_fused_sweep_matches_serial_sweep(self):
        """A computed fused sweep returns the serial sweep's points."""
        values = [12.0, 13.0]
        report = SweepExecutor("serial").run(
            values, self._task("fused"), seed=0
        )
        baseline = SweepExecutor("serial").run(
            values, self._task("serial"), seed=0
        )
        assert [p.metric for p in report.points] == [
            p.metric for p in baseline.points
        ]
