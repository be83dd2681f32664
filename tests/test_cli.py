"""Tests for repro.cli."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_link_defaults(self):
        args = build_parser().parse_args(["link"])
        assert args.distance == 4.0
        assert args.modulation == "QPSK"

    def test_invalid_modulation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["link", "--modulation", "1024QAM"])

    @pytest.mark.parametrize(
        "command", [["sweep"], ["netsim", "--sweep-tags", "10,20"]],
        ids=["sweep", "netsim"],
    )
    @pytest.mark.parametrize("width", ["0", "-2"])
    def test_bad_worker_count_exit_two(self, command, width, capsys):
        with pytest.raises(SystemExit) as exited:
            main(command + ["--workers", width])
        assert exited.value.code == 2
        assert "argument --workers: must be >= 1" in capsys.readouterr().err


class TestLinkCommand:
    def test_successful_link_exit_zero(self, capsys):
        code = main(["link", "--distance", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "frame OK     : True" in out
        assert "2.40 nJ" in out

    def test_dead_link_exit_one(self, capsys):
        code = main(["link", "--distance", "80", "--seed", "1"])
        assert code == 1
        assert "frame OK     : False" in capsys.readouterr().out

    def test_anechoic_environment_selectable(self, capsys):
        code = main(["link", "--environment", "anechoic", "--seed", "0"])
        assert code == 0


class TestSweepCommand:
    def test_snr_sweep_prints_table_and_plot(self, capsys):
        code = main(["sweep", "--metric", "snr", "--points", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "snr vs distance" in out
        assert "distance [m]" in out

    def test_ber_sweep_runs(self, capsys):
        code = main([
            "sweep", "--metric", "ber", "--start", "2", "--stop", "16",
            "--points", "3", "--seed", "0",
        ])
        assert code == 0
        assert "ber" in capsys.readouterr().out

    def test_bad_range_exit_two(self, capsys):
        code = main(["sweep", "--start", "5", "--stop", "2"])
        assert code == 2

    @pytest.mark.parametrize("flag,value", [("--target-errors", "0")])
    def test_bad_ber_budget_exit_two(self, flag, value, capsys):
        code = main([
            "sweep", "--metric", "ber", "--points", "2", "--max-retries", "2",
            flag, value,
        ])
        assert code == 2
        assert f"{flag} must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag,value",
        [("--target-errors", "30"), ("--link-backend", "serial")],
    )
    def test_ber_only_flag_with_snr_exit_two(self, flag, value, capsys):
        assert main(["sweep", "--points", "2", flag, value]) == 2
        assert f"{flag} applies to the ber metric only" in capsys.readouterr().err

    def test_ber_only_flags_default_unset(self):
        args = build_parser().parse_args(["sweep"])
        assert args.target_errors is None
        assert args.link_backend is None


class TestEnergyCommand:
    def test_prints_all_schemes(self, capsys):
        code = main(["energy"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("OOK", "BPSK", "QPSK", "8PSK", "16QAM"):
            assert name in out
        assert "2.4" in out  # calibration point visible

    def test_duty_cycle_adds_battery_table(self, capsys):
        code = main(["energy", "--duty-cycle", "0.01"])
        out = capsys.readouterr().out
        assert code == 0
        assert "battery life" in out
        assert "lifetime_days" in out


class TestNetworkCommand:
    def test_inventory_runs(self, capsys):
        code = main(["network", "--tags", "3", "--rounds", "10", "--seed", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregate goodput" in out
        assert "fairness" in out

    def test_zero_tags_exit_two(self, capsys):
        assert main(["network", "--tags", "0"]) == 2

    def test_protocol_default_is_tdma(self):
        args = build_parser().parse_args(["network"])
        assert args.protocol == "tdma"

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["network", "--protocol", "csma"])

    def test_aloha_discovery_table(self, capsys):
        code = main([
            "network", "--protocol", "aloha", "--tags", "4",
            "--rounds", "30", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0  # tiny population with a fat budget: all found
        assert "slotted-ALOHA discovery" in out
        assert "4/4" in out

    def test_fdma_routes_to_event_sim(self, capsys):
        code = main([
            "network", "--protocol", "fdma", "--tags", "6",
            "--rounds", "5", "--seed", "2",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "protocol            : fdma" in out
        assert "tags read" in out


class TestNetsimCommand:
    def test_single_run_summary(self, capsys):
        code = main([
            "netsim", "--tags", "30", "--slots", "200", "--seed", "4",
            "--max-distance", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "protocol            : aloha" in out
        assert "slot outcomes" in out
        assert "Jain fairness" in out

    def test_inventory_protocol_reports_q(self, capsys):
        code = main([
            "netsim", "--tags", "30", "--slots", "400",
            "--protocol", "inventory", "--seed", "4", "--max-distance", "3",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "Q rounds / final Q" in out

    def test_trace_dump(self, tmp_path, capsys):
        path = tmp_path / "trace.jsonl"
        code = main([
            "netsim", "--tags", "10", "--slots", "50", "--seed", "1",
            "--trace", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert path.exists()
        assert "event trace" in out

    def test_sweep_tags_prints_table(self, capsys):
        code = main([
            "netsim", "--slots", "150", "--seed", "3", "--max-distance", "3",
            "--sweep-tags", "10,25",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "netsim population sweep" in out
        assert "num_tags" in out
        assert "2 computed" in out or "2 points" in out or "jain" in out

    def test_sweep_tags_bad_list_exit_two(self, capsys):
        assert main(["netsim", "--sweep-tags", "10,abc"]) == 2
        assert "comma-separated" in capsys.readouterr().err

    def test_negative_tags_exit_two(self, capsys):
        assert main(["netsim", "--tags", "-1"]) == 2

    def test_bad_config_exit_two(self, capsys):
        # validation errors surface as exit 2, not a traceback
        assert main(["netsim", "--transmit-probability", "1.5"]) == 2
        assert "transmit" in capsys.readouterr().err

    def test_bad_trace_capacity_exit_two(self, capsys):
        assert main(["netsim", "--trace-capacity", "0"]) == 2
        assert "trace_capacity" in capsys.readouterr().err

    def test_same_seed_same_output(self, capsys):
        argv = ["netsim", "--tags", "20", "--slots", "150", "--seed", "9"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out


class TestNetsimMetroCommand:
    def test_grid_run_prints_deployment_summary(self, capsys):
        code = main([
            "netsim", "--grid", "2x2", "--tags", "40", "--slots", "200",
            "--seed", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "deployment          : 2x2 APs" in out
        assert "per-AP reads" in out
        assert "AP load Jain" in out

    def test_mobile_run_reports_handoffs(self, capsys):
        code = main([
            "netsim", "--grid", "1x2", "--tags", "30", "--slots", "300",
            "--mobile-fraction", "1.0", "--time-warp", "2000",
            "--epoch-slots", "50", "--persistent", "--seed", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "handoffs" in out
        assert "max Doppler" in out

    def test_trace_dump(self, tmp_path, capsys):
        path = tmp_path / "metro.jsonl"
        code = main([
            "netsim", "--grid", "2x2", "--tags", "10", "--slots", "50",
            "--seed", "1", "--trace", str(path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert path.exists()
        assert "event trace" in out

    def test_metro_sweep_prints_table(self, capsys):
        code = main([
            "netsim", "--grid", "2x2", "--slots", "150", "--seed", "3",
            "--sweep-tags", "10,25",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "metro population sweep" in out
        assert "jain_ap_load" in out

    def test_bad_grid_exit_two(self, capsys):
        assert main(["netsim", "--grid", "bogus"]) == 2
        assert "RxC" in capsys.readouterr().err

    def test_bad_trace_capacity_exit_two(self, capsys):
        assert main(["netsim", "--grid", "2x2", "--trace-capacity", "0"]) == 2
        assert "trace_capacity" in capsys.readouterr().err

    def test_same_seed_same_output(self, capsys):
        argv = [
            "netsim", "--grid", "3x3", "--tags", "50", "--slots", "200",
            "--mobile-fraction", "0.5", "--seed", "9",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert first == capsys.readouterr().out

    def test_e21_listed_in_experiments(self, capsys):
        assert main(["experiments"]) == 0
        assert "E21" in capsys.readouterr().out


class TestBeamsearchCommand:
    def test_both_strategies_reported(self, capsys):
        code = main(["beamsearch", "--direction", "15", "--seed", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "exhaustive" in out
        assert "hierarchical" in out


class TestSchemesCommand:
    def test_table_lists_thresholds(self, capsys):
        code = main(["schemes"])
        out = capsys.readouterr().out
        assert code == 0
        assert "snr_threshold_db" in out
        assert "16QAM" in out


class TestDeterminism:
    def test_same_seed_same_output(self, capsys):
        main(["link", "--seed", "9"])
        first = capsys.readouterr().out
        main(["link", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second


class TestExperimentsCommand:
    def test_lists_all_sixteen(self, capsys):
        from repro.cli import main as cli_main

        code = cli_main(["experiments"])
        out = capsys.readouterr().out
        assert code == 0
        for exp_id in ("E1", "E8", "E12", "E16"):
            assert exp_id in out
        assert "EXPERIMENTS.md" in out


class TestCacheCommand:
    def test_stats_listing(self, tmp_path, capsys):
        code = main(["cache", "--dir", str(tmp_path / "c")])
        out = capsys.readouterr().out
        assert code == 0
        assert "entries   : 0" in out
        assert "bytes" in out

    def test_prune_evicts_to_budget(self, tmp_path, capsys):
        from repro.sim.cache import ResultCache

        cache = ResultCache(tmp_path / "c", version="v")
        for i in range(3):
            cache.put(cache.key_for(i=i), list(range(100)))
        code = main(["cache", "--dir", str(tmp_path / "c"), "--prune", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "pruned 3 entries" in out
        assert len(cache) == 0

    def test_prune_and_clear_conflict(self, tmp_path, capsys):
        code = main(["cache", "--dir", str(tmp_path / "c"), "--clear", "--prune", "0"])
        assert code == 2

    def test_prune_negative_rejected(self, tmp_path):
        assert main(["cache", "--dir", str(tmp_path / "c"), "--prune", "-5"]) == 2


class TestSweepLinkBackend:
    def test_parser_accepts_fused(self):
        args = build_parser().parse_args(
            ["sweep", "--metric", "ber", "--link-backend", "fused"]
        )
        assert args.link_backend == "fused"

    def test_parser_rejects_unknown_backend(self, capsys):
        for backend in ("gpu", "vectorized"):
            with pytest.raises(SystemExit) as exited:
                build_parser().parse_args(["sweep", "--link-backend", backend])
            assert exited.value.code == 2
            assert "'fused'" in capsys.readouterr().err

    def test_fused_ber_sweep_matches_serial(self, capsys):
        argv = ["sweep", "--metric", "ber", "--start", "2", "--stop", "14",
                "--points", "3", "--target-errors", "5", "--seed", "0"]
        def numbers_only(text):
            # drop the executor's wall-clock summary lines; everything
            # else (the BER table and plot) must match exactly
            return [line for line in text.splitlines()
                    if " s " not in line and "wall" not in line
                    and "slowest point" not in line]

        assert main(argv + ["--link-backend", "serial"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--link-backend", "fused"]) == 0
        fused_out = capsys.readouterr().out
        # identical numbers, not merely similar: the fused kernel is
        # bit-identical to the serial frame chain
        assert numbers_only(serial_out) == numbers_only(fused_out)


class TestSweepFaultToleranceFlags:
    _ARGV = ["sweep", "--metric", "ber", "--start", "2", "--stop", "10",
             "--points", "3", "--target-errors", "5", "--seed", "0"]

    def test_parser_accepts_fault_tolerance_flags(self):
        args = build_parser().parse_args(
            ["sweep", "--timeout", "5", "--max-retries", "2",
             "--checkpoint", "run.jsonl", "--resume"]
        )
        assert args.timeout == 5.0
        assert args.max_retries == 2
        assert args.checkpoint == "run.jsonl"
        assert args.resume is True

    def test_fault_tolerance_flags_default_off(self):
        args = build_parser().parse_args(["sweep"])
        assert args.timeout is None
        assert args.max_retries == 0
        assert args.checkpoint is None
        assert args.resume is False

    def test_resume_requires_checkpoint(self, capsys):
        assert main(self._ARGV + ["--resume"]) == 2
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("timeout", ["0", "-3"])
    def test_nonpositive_timeout_exit_two(self, timeout, capsys):
        assert main(self._ARGV + ["--timeout", timeout]) == 2
        assert "--timeout" in capsys.readouterr().err

    def test_negative_max_retries_exit_two(self, capsys):
        assert main(self._ARGV + ["--max-retries", "-1"]) == 2
        assert "--max-retries" in capsys.readouterr().err

    def test_checkpoint_then_resume_is_bit_exact(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.jsonl"
        argv = self._ARGV + ["--checkpoint", str(ckpt)]

        assert main(argv) == 0
        first = capsys.readouterr().out
        assert ckpt.exists()

        assert main(argv + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "3 resumed" in second

        def table_lines(text):
            return [l for l in text.splitlines() if l.startswith("  ") or "ber" in l]

        # the resumed run reproduces the same numbers without recomputing
        first_rows = [l for l in first.splitlines() if l and l[0].isdigit()]
        second_rows = [l for l in second.splitlines() if l and l[0].isdigit()]
        assert first_rows == second_rows

    def test_resume_of_another_sweeps_checkpoint_exit_two(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.jsonl"
        assert main(self._ARGV + ["--checkpoint", str(ckpt)]) == 0
        capsys.readouterr()
        other = ["--points", "4", "--checkpoint", str(ckpt), "--resume"]
        assert main(self._ARGV + other) == 2
        err = capsys.readouterr().err
        assert "belongs to a different sweep" in err
        assert "Traceback" not in err

    def test_resume_across_exact_link_tiers(self, tmp_path, capsys):
        """serial and fused points are byte-identical, so either tier
        resumes the other's checkpoint; the statistical fast tier
        cannot."""
        ckpt = tmp_path / "sweep.jsonl"
        argv = self._ARGV + ["--checkpoint", str(ckpt)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--link-backend", "fused", "--resume"]) == 0
        assert "3 resumed" in capsys.readouterr().out
        assert main(argv + ["--link-backend", "fast", "--resume"]) == 2
        assert "belongs to a different sweep" in capsys.readouterr().err

    def test_resume_of_an_empty_checkpoint_exit_two(self, tmp_path, capsys):
        ckpt = tmp_path / "sweep.jsonl"
        ckpt.write_text("")
        assert main(self._ARGV + ["--checkpoint", str(ckpt), "--resume"]) == 2
        err = capsys.readouterr().err
        assert "has no header line" in err
        assert "Traceback" not in err


class TestCacheVerifyCommand:
    def test_verify_clean_cache_exit_zero(self, tmp_path, capsys):
        from repro.sim.cache import ResultCache

        cache = ResultCache(tmp_path / "c", version="v")
        cache.put(cache.key_for(i=1), [1, 2, 3])
        code = main(["cache", "--dir", str(tmp_path / "c"), "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified 1 entries: 0 corrupt, 0 quarantined" in out

    def test_verify_quarantines_corrupt_entry_exit_one(self, tmp_path, capsys):
        from repro.sim.cache import ResultCache
        from repro.sim.faults import corrupt_file

        cache = ResultCache(tmp_path / "c", version="v")
        key = cache.key_for(i=1)
        cache.put(key, [1, 2, 3])
        corrupt_file(cache.entry_path(key))
        code = main(["cache", "--dir", str(tmp_path / "c"), "--verify"])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 corrupt, 1 quarantined" in out
        assert "quarantine" in out
        assert len(list(cache.quarantine_dir.iterdir())) == 1

    def test_verify_conflicts_with_clear(self, tmp_path, capsys):
        code = main(["cache", "--dir", str(tmp_path / "c"), "--verify", "--clear"])
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err
