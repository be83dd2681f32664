"""``repro serve``: CLI surface and signal-driven shutdown edges.

In-process tests cover the argument surface (validation exit codes,
replay output, the experiments row); the subprocess tests cover what
only a real process can: SIGINT mid-burst leaves a *loadable*
checkpoint and zero torn dead-letter lines, and a second SIGINT
force-exits with status 130.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.net.sim import NetSimConfig, run_netsim
from repro.serve.inventory import LiveInventory

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("servecli") / "trace.jsonl"
    config = NetSimConfig(
        num_tags=25, num_slots=2500, protocol="aloha", trace_capacity=8192
    )
    run_netsim(config, seed=2, trace_path=path)
    return path


class TestServeArguments:
    def test_replay_prints_summary(self, trace_path, capsys):
        code = main(["serve", "--trace", str(trace_path), "--rate", "0",
                     "--status-interval", "60"])
        out = capsys.readouterr().out
        assert code == 0
        assert "mode=replay" in out
        assert "state sha256" in out

    def test_replay_is_deterministic_text(self, trace_path, capsys):
        argv = ["serve", "--trace", str(trace_path), "--rate", "0",
                "--status-interval", "60"]
        main(argv)
        first = capsys.readouterr().out
        main(argv)
        second = capsys.readouterr().out
        assert first == second

    def test_duration_zero_exit_two(self, trace_path, capsys):
        code = main(["serve", "--trace", str(trace_path), "--duration", "0"])
        assert code == 2
        assert "duration" in capsys.readouterr().err

    def test_source_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve"])
        assert excinfo.value.code == 2

    def test_trace_and_live_exclusive(self, trace_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--trace", str(trace_path), "--live"])
        assert excinfo.value.code == 2

    def test_chaos_requires_duration(self, trace_path, capsys):
        code = main(["serve", "--trace", str(trace_path), "--chaos", "1"])
        assert code == 2
        assert "--duration" in capsys.readouterr().err

    def test_bad_queue_depth_exit_two(self, trace_path, capsys):
        code = main(["serve", "--trace", str(trace_path),
                     "--queue-depth", "0"])
        assert code == 2

    def test_missing_trace_exit_two(self, tmp_path, capsys):
        code = main(["serve", "--trace", str(tmp_path / "absent.jsonl")])
        assert code == 2
        assert "no trace dump" in capsys.readouterr().err

    def test_bad_header_count_exit_two(self, tmp_path, capsys):
        path = tmp_path / "badheader.jsonl"
        path.write_text(
            '{"trace":"repro.net","total_events":"x","ring_capacity":8,'
            '"digest_sha256":""}\n'
        )
        code = main(["serve", "--trace", str(path), "--rate", "0",
                     "--status-interval", "60"])
        assert code == 2
        assert "'total_events'" in capsys.readouterr().err

    def test_experiments_lists_e23(self, capsys):
        main(["experiments"])
        assert "E23" in capsys.readouterr().out

    def test_log_level_flag_accepted(self, trace_path, capsys):
        code = main(["--log-level", "WARNING", "serve", "--trace",
                     str(trace_path), "--rate", "0",
                     "--status-interval", "60"])
        assert code == 0


def _spawn_serve(tmp_path, *extra: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=REPO_SRC, PYTHONUNBUFFERED="1")
    return subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", "--live",
            "--offered-rate", "2000", "--rate", "500",
            "--queue-depth", "64", "--status-interval", "0.2",
            "--checkpoint", str(tmp_path / "inv.ckpt"),
            "--dead-letter", str(tmp_path / "dlq.jsonl"),
            "--chaos", "3", "--duration", "30",
            *extra,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_for_status(proc: subprocess.Popen, timeout_s: float = 30.0) -> str:
    """Read stdout until the first periodic status line appears."""
    seen: list[str] = []
    deadline = time.monotonic() + timeout_s
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        seen.append(line)
        if line.startswith("[serve "):
            return "".join(seen)
    raise AssertionError(
        f"daemon produced no status line:\n{''.join(seen)}"
    )


class TestSignalShutdown:
    def test_sigint_mid_burst_drains_and_checkpoints(self, tmp_path):
        proc = _spawn_serve(tmp_path)
        try:
            _wait_for_status(proc)
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, out
        assert "mode=live" in out
        assert "drained=True" in out
        # Checkpoint must load and verify.
        state = LiveInventory.load_checkpoint(tmp_path / "inv.ckpt")
        assert state["total_reads"] > 0
        # Every dead-letter line must be complete JSON (no torn writes).
        dlq = tmp_path / "dlq.jsonl"
        if dlq.exists():
            for line in dlq.read_text().splitlines():
                json.loads(line)

    def test_double_sigint_force_exits_130(self, tmp_path):
        # The second signal must win even though the drain itself is
        # fast: rapid-fire SIGINTs until the process dies, so one is
        # guaranteed to land after the first was processed (CPython
        # coalesces signals delivered before the handler runs, so a
        # single precisely-timed second signal would be racy).
        for attempt in range(3):
            proc = _spawn_serve(tmp_path)
            try:
                _wait_for_status(proc)
                proc.send_signal(signal.SIGINT)
                while proc.poll() is None:
                    time.sleep(0.002)
                    try:
                        proc.send_signal(signal.SIGINT)
                    except ProcessLookupError:
                        break
                out, _ = proc.communicate(timeout=60)
            finally:
                proc.kill()
            if proc.returncode == 130:
                return
        raise AssertionError(
            f"never saw force-exit 130; last run exited "
            f"{proc.returncode}:\n{out}"
        )

    def test_sigterm_equivalent_to_sigint(self, tmp_path):
        proc = _spawn_serve(tmp_path)
        try:
            _wait_for_status(proc)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == 0, out
        assert "drained=True" in out
