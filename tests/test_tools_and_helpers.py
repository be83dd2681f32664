"""Tests for tools/generate_api_docs.py and small helper functions."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.sim.sweep import SweepPoint, metrics, sweep_1d, values

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestSweepHelpers:
    def test_values_and_metrics_columns(self):
        points = sweep_1d([1.0, 2.0], lambda x: x + 10)
        assert values(points) == [1.0, 2.0]
        assert metrics(points) == [11.0, 12.0]

    def test_empty_sweep(self):
        assert sweep_1d([], lambda x: x) == []

    def test_metric_can_be_any_object(self):
        points = sweep_1d([1.0], lambda x: {"snr": x})
        assert metrics(points) == [{"snr": 1.0}]
        assert isinstance(points[0], SweepPoint)


class TestApiDocGenerator:
    def test_generator_runs_and_covers_key_modules(self, tmp_path):
        # run the real generator against a scratch output location by
        # importing it and overriding OUTPUT
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import generate_api_docs

            text = generate_api_docs.render()
        finally:
            sys.path.pop(0)
        for marker in (
            "repro.core.tag",
            "repro.core.ap",
            "repro.em.vanatta",
            "class `VanAttaArray`",
            "simulate_link",
            "repro.core.harvesting",
        ):
            assert marker in text, marker

    def test_generator_cli_writes_file(self, tmp_path):
        # Run a copy of the tool: its OUTPUT resolves under tmp_path, so
        # the committed docs/API.md is never rewritten and the staleness
        # check below still compares it with a fresh render.
        (tmp_path / "tools").mkdir()
        tool = shutil.copy(
            REPO_ROOT / "tools" / "generate_api_docs.py", tmp_path / "tools"
        )
        result = subprocess.run(
            [sys.executable, str(tool)],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
        )
        assert result.returncode == 0, result.stderr
        assert "wrote" in result.stdout
        written = (tmp_path / "docs" / "API.md").read_text()
        assert written == (REPO_ROOT / "docs" / "API.md").read_text(), (
            "docs/API.md is stale; run python tools/generate_api_docs.py"
        )

    def test_committed_doc_is_current(self):
        sys.path.insert(0, str(REPO_ROOT / "tools"))
        try:
            import generate_api_docs

            expected = generate_api_docs.render()
        finally:
            sys.path.pop(0)
        committed = (REPO_ROOT / "docs" / "API.md").read_text()
        assert committed == expected, (
            "docs/API.md is stale; run python tools/generate_api_docs.py"
        )


class TestBenchRegressionGate:
    """Pure-logic tests for the CI bench-regression gate.

    The gate (``tools/profile_hotpaths.py --check BENCH_hotpaths.json``)
    compares a fresh quick-mode run against the committed trajectory
    file and fails when any kernel's speedup collapses below
    ``REGRESSION_FLOOR`` times its recorded value.  These tests exercise
    the comparison logic with synthetic reports so no actual
    benchmarking is involved.
    """

    @staticmethod
    def _report(**speedups):
        from tools.profile_hotpaths import BenchReport, KernelBench

        return BenchReport(
            benchmarks=tuple(
                KernelBench(
                    name=name,
                    description=name,
                    reference_s=1.0,
                    vectorized_s=1.0 / ratio,
                    repeats=1,
                )
                for name, ratio in speedups.items()
            ),
            quick=True,
            generated="synthetic",
        )

    def test_passes_when_within_floor(self):
        from tools.profile_hotpaths import check_regression

        report = self._report(viterbi_decode=20.0, frame_chain_tx=40.0)
        baseline = {"viterbi_decode": 22.0, "frame_chain_tx": 45.0}
        assert check_regression(report, baseline) == []

    def test_fails_when_speedup_collapses(self):
        from tools.profile_hotpaths import check_regression

        # 1.1x measured vs 22x recorded: the classic "kernel rerouted
        # back through the reference loop" signature.
        report = self._report(viterbi_decode=1.1)
        failures = check_regression(report, {"viterbi_decode": 22.0})
        assert len(failures) == 1
        assert "viterbi_decode" in failures[0]

    def test_boundary_exactly_at_floor_passes(self):
        from tools.profile_hotpaths import REGRESSION_FLOOR, check_regression

        report = self._report(viterbi_decode=REGRESSION_FLOOR * 10.0)
        assert check_regression(report, {"viterbi_decode": 10.0}) == []

    def test_kernel_missing_from_run_is_a_failure(self):
        from tools.profile_hotpaths import check_regression

        report = self._report(viterbi_decode=20.0)
        failures = check_regression(
            report, {"viterbi_decode": 20.0, "frame_chain_tx": 40.0}
        )
        assert len(failures) == 1
        assert "frame_chain_tx" in failures[0]

    def test_new_kernel_not_in_baseline_is_ignored(self):
        from tools.profile_hotpaths import check_regression

        report = self._report(viterbi_decode=20.0, brand_new_kernel=1.0)
        assert check_regression(report, {"viterbi_decode": 20.0}) == []

    def test_floor_validation(self):
        from tools.profile_hotpaths import check_regression

        report = self._report(viterbi_decode=20.0)
        with pytest.raises(ValueError):
            check_regression(report, {"viterbi_decode": 20.0}, floor=0.0)
        with pytest.raises(ValueError):
            check_regression(report, {"viterbi_decode": 20.0}, floor=1.5)

    def test_load_trajectory_round_trip(self, tmp_path):
        from tools.profile_hotpaths import (
            check_regression,
            load_trajectory_speedups,
            write_trajectory,
        )

        report = self._report(viterbi_decode=21.5, frame_chain_tx=44.0)
        path = tmp_path / "bench.json"
        write_trajectory(report, path)
        speedups = load_trajectory_speedups(path)
        assert speedups == {"viterbi_decode": 21.5, "frame_chain_tx": 44.0}
        # a report can be checked against its own trajectory file
        assert check_regression(report, path) == []


class TestProfileHotpathsMain:
    """Exit codes of ``tools/profile_hotpaths.py``, the CI gate step.

    The suite itself is stubbed out: these tests pin what ``main`` does
    with a report, not how fast the kernels are.
    """

    @pytest.fixture
    def tool(self, monkeypatch):
        from tools import profile_hotpaths

        monkeypatch.delenv("REPRO_SKIP_BENCH", raising=False)
        return profile_hotpaths

    @staticmethod
    def _stub_suite(tool, monkeypatch, speedup):
        """Replace the suite by one viterbi_decode entry; returns the
        list of ``quick`` flags it was called with."""
        report = tool.BenchReport(
            benchmarks=(
                tool.KernelBench(
                    name="viterbi_decode",
                    description="stub",
                    reference_s=1.0,
                    vectorized_s=1.0 / speedup,
                    repeats=1,
                ),
            ),
            quick=True,
            generated="2000-01-01T00:00:00Z",
        )
        calls = []

        def run(quick):
            calls.append(quick)
            return report

        monkeypatch.setattr(tool, "run_hotpath_benchmarks", run)
        return calls

    @staticmethod
    def _baseline(path, speedup=22.0):
        path.write_text(
            json.dumps({"benchmarks": [{"name": "viterbi_decode", "speedup": speedup}]})
        )
        return str(path)

    def test_collapsed_kernel_exits_one(self, tool, monkeypatch, tmp_path, capsys):
        self._stub_suite(tool, monkeypatch, 1.1)
        out = tmp_path / "bench.json"
        baseline = self._baseline(tmp_path / "baseline.json")
        code = tool.main(["--quick", "--out", str(out), "--check", baseline])
        assert code == 1
        assert "viterbi_decode" in capsys.readouterr().err
        assert out.exists()  # --out is written before the gate decides

    def test_passing_report_exits_zero_and_writes_out(
        self, tool, monkeypatch, tmp_path, capsys
    ):
        self._stub_suite(tool, monkeypatch, 20.0)
        out = tmp_path / "bench.json"
        baseline = self._baseline(tmp_path / "baseline.json")
        code = tool.main(["--quick", "--out", str(out), "--check", baseline])
        stdout = capsys.readouterr().out
        assert code == 0
        assert "viterbi_decode" in stdout
        assert "20.0x" in stdout
        assert tool.load_trajectory_speedups(out) == {"viterbi_decode": 20.0}

    def test_skip_env_exits_zero_without_running(
        self, tool, monkeypatch, tmp_path, capsys
    ):
        calls = self._stub_suite(tool, monkeypatch, 1.1)
        monkeypatch.setenv("REPRO_SKIP_BENCH", "1")
        out = tmp_path / "bench.json"
        baseline = self._baseline(tmp_path / "baseline.json")
        code = tool.main(["--quick", "--out", str(out), "--check", baseline])
        assert code == 0
        assert calls == []
        assert not out.exists()
        assert "REPRO_SKIP_BENCH=1" in capsys.readouterr().out

    def test_baseline_is_read_before_out_overwrites_it(
        self, tool, monkeypatch, tmp_path
    ):
        self._stub_suite(tool, monkeypatch, 1.1)
        path = self._baseline(tmp_path / "bench.json")
        assert tool.main(["--quick", "--out", path, "--check", path]) == 1

    def test_missing_baseline_exits_two_before_running(
        self, tool, monkeypatch, tmp_path
    ):
        calls = self._stub_suite(tool, monkeypatch, 20.0)
        missing = str(tmp_path / "absent.json")
        with pytest.raises(SystemExit) as exited:
            tool.main(["--quick", "--out", str(tmp_path / "b.json"), "--check", missing])
        assert exited.value.code == 2
        assert calls == []


class TestReceiverTimingRobustness:
    """Doppler and timing-offset tolerance of the burst receiver."""

    @pytest.mark.parametrize("velocity", [-3.0, 3.0])
    def test_running_speed_doppler_tolerated(self, velocity):
        from dataclasses import replace

        from repro.core.link import LinkConfig, simulate_link

        config = replace(LinkConfig(distance_m=3.0), radial_velocity_m_s=velocity)
        result = simulate_link(config, num_payload_bits=1024, rng=5)
        assert result.frame_success

    def test_fractional_sample_timing_survives(self, rng):
        """A burst arriving between sample instants still decodes."""
        import numpy as np

        from repro.core.ap import AccessPoint, APConfig
        from repro.core.tag import Tag, TagConfig

        tag = Tag(TagConfig(samples_per_symbol=8))
        frame = tag.make_frame(rng.integers(0, 2, 256).astype(np.int8))
        waveform, _ = tag.backscatter_waveform(frame)
        delayed = waveform.scale(1e-3).pad(256, 264).delay(
            0.4 / waveform.sample_rate
        )
        result = AccessPoint(APConfig(adc=None)).receive_burst(delayed, 8)
        assert result.success
