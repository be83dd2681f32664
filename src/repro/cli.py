"""Command-line interface: drive the stack without writing a script.

``python -m repro <command>``:

* ``link``        one uplink burst at an operating point
* ``sweep``       SNR / BER across distances (parallel + cached)
* ``energy``      node power / energy-per-bit table (+ battery life)
* ``network``     inventory of an N-tag deployment (TDMA / ALOHA / FDMA)
* ``netsim``      event-driven network simulation at 10k-100k tag scale
                  (``--grid RxC`` switches to a multi-AP metro deployment
                  with roaming, handoff and tag-to-tag relaying)
* ``serve``       long-running AP daemon: replay a trace dump or run an
                  embedded live producer through the bounded ingest
                  pipeline (backpressure, shedding, health endpoint)
* ``beamsearch``  AP beam-search strategies toward a tag
* ``schemes``     modulation table with SNR thresholds
* ``cache``       inspect / invalidate / LRU-prune a sweep result cache

All commands take ``--seed``; identical invocations print identical
numbers — including ``sweep --backend process``, whose per-point
seeding is bit-identical to the serial reference path.

``--log-level`` (or the ``REPRO_LOG_LEVEL`` environment variable)
turns on structured logging from every ``repro.*`` module — retries,
pool degradation, daemon shutdown all narrate themselves at WARNING.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Sequence

import numpy as np

from repro.channel.environment import Environment
from repro.core.adaptation import snr_threshold_db
from repro.core.beamsearch import BeamSearchConfig, BeamSearcher
from repro.core.energy import TagEnergyModel
from repro.core.link import LinkConfig, link_snr_db, simulate_link
from repro.core.modulation import available_schemes, get_scheme
from repro.core.network import MmTagNetwork, NetworkTag
from repro.core.tag import TagConfig
from repro.net import (
    PROTOCOLS,
    MultiAPConfig,
    MultiAPTask,
    NetSimConfig,
    NetSimTask,
    run_multi_ap,
    run_netsim,
)
from repro.net.scenario.backoff import (
    DEFAULT_STRATEGY,
    strategy_names,
    strategy_summaries,
)
from repro.net.scenario.mobile import TRAJECTORIES, MobileReaderConfig
from repro.net.scenario.mobile import run_mobile_reader
from repro.sim.cache import ResultCache
from repro.sim.checkpoint import CheckpointError
from repro.sim.executor import BerSweepTask, FunctionTask, SweepExecutor
from repro.sim.monte_carlo import LINK_BER_BACKENDS
from repro.sim.retry import RetryPolicy
from repro.sim.plotting import ascii_plot
from repro.sim.results import ResultTable

__all__ = ["main", "build_parser"]


def _environment(name: str) -> Environment:
    if name == "office":
        return Environment.typical_office()
    if name == "anechoic":
        return Environment.anechoic()
    raise argparse.ArgumentTypeError(f"unknown environment {name!r}")


def _worker_count(raw: str) -> int:
    """argparse type of a process-pool width: an integer >= 1."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="mmTag reproduction: mmWave backscatter simulation toolkit",
    )
    parser.add_argument(
        "--log-level",
        default=os.environ.get("REPRO_LOG_LEVEL"),
        choices=["DEBUG", "INFO", "WARNING", "ERROR", "CRITICAL"],
        help="enable structured logging at this level (default: the "
             "REPRO_LOG_LEVEL environment variable, else off)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    link = sub.add_parser("link", help="simulate one uplink burst")
    link.add_argument("--distance", type=float, default=4.0, help="tag range [m]")
    link.add_argument("--angle", type=float, default=0.0, help="incidence angle [deg]")
    link.add_argument("--modulation", default="QPSK", choices=available_schemes())
    link.add_argument("--symbol-rate", type=float, default=10e6, help="[sym/s]")
    link.add_argument("--bits", type=int, default=2048, help="payload bits")
    link.add_argument("--environment", default="office", choices=["office", "anechoic"])
    link.add_argument("--seed", type=int, default=0)

    sweep = sub.add_parser("sweep", help="sweep metric vs distance")
    sweep.add_argument("--metric", default="snr", choices=["snr", "ber"])
    sweep.add_argument("--start", type=float, default=1.0)
    sweep.add_argument("--stop", type=float, default=12.0)
    sweep.add_argument("--points", type=int, default=8)
    sweep.add_argument("--modulation", default="QPSK", choices=available_schemes())
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument(
        "--backend", default="serial", choices=list(SweepExecutor.BACKENDS),
        help="execution backend (process = pool fan-out, bit-identical to serial)",
    )
    sweep.add_argument("--workers", type=_worker_count, default=None,
                       help="process-pool width (default: CPU count)")
    sweep.add_argument("--cache-dir", default=None,
                       help="directory for the on-disk result cache (ber metric)")
    sweep.add_argument("--target-errors", type=int, default=None,
                       help="bit errors to accumulate per point "
                            "(ber metric; default 30)")
    sweep.add_argument(
        "--link-backend", default=None, choices=list(LINK_BER_BACKENDS),
        help="per-point frame chain (fused = whole-budget kernel, "
             "bit-identical to serial; fast = compiled statistical tier, own "
             "cache keyspace; ber metric; default serial)",
    )
    sweep.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                       help="per-point wall-clock budget; a stalled point "
                            "fails (and retries) instead of hanging the sweep")
    sweep.add_argument("--max-retries", type=int, default=0,
                       help="retry budget per failing point (seeded "
                            "exponential backoff between attempts)")
    sweep.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="stream completed points to an append-only JSONL "
                            "checkpoint at PATH")
    sweep.add_argument("--resume", action="store_true",
                       help="skip points already completed in --checkpoint "
                            "(bit-exact: resumed == uninterrupted)")

    cache = sub.add_parser("cache", help="inspect / invalidate a sweep result cache")
    cache.add_argument("--dir", required=True, help="cache directory")
    cache.add_argument("--clear", action="store_true",
                       help="invalidate every entry instead of listing stats")
    cache.add_argument("--prune", type=int, default=None, metavar="MAX_BYTES",
                       help="evict least-recently-used entries until the cache "
                            "fits MAX_BYTES")
    cache.add_argument("--verify", action="store_true",
                       help="integrity-scan every entry (sha256) and "
                            "quarantine the corrupt ones")

    energy = sub.add_parser("energy", help="node power / energy table")
    energy.add_argument("--symbol-rate", type=float, default=10e6)
    energy.add_argument("--duty-cycle", type=float, default=None,
                        help="optional duty cycle for battery-life rows")
    energy.add_argument("--battery-j", type=float, default=2400.0,
                        help="battery energy [J] (CR2032 ~ 2400 J)")

    network = sub.add_parser("network", help="inventory of N tags (TDMA/ALOHA/FDMA)")
    network.add_argument("--tags", type=int, default=4)
    network.add_argument("--rounds", type=int, default=50)
    network.add_argument("--max-distance", type=float, default=6.0)
    network.add_argument("--seed", type=int, default=0)
    network.add_argument(
        "--protocol", default="tdma", choices=["tdma", "aloha", "fdma"],
        help="tdma/aloha = the analytic MmTagNetwork protocols; fdma runs "
             "concurrent groups on the event-driven simulator "
             "(same engine as `repro netsim`)",
    )

    netsim = sub.add_parser(
        "netsim", help="event-driven network simulation (10k-100k tags)"
    )
    netsim.add_argument("--tags", type=int, default=1000,
                        help="initial population at t=0")
    netsim.add_argument("--slots", type=int, default=2000,
                        help="MAC slot horizon")
    netsim.add_argument("--protocol", default="aloha", choices=list(PROTOCOLS))
    netsim.add_argument("--frame-bits", type=int, default=256)
    netsim.add_argument("--max-distance", type=float, default=6.0)
    netsim.add_argument("--transmit-probability", type=float, default=None,
                        help="fixed ALOHA p (default: adaptive 1/backlog)")
    netsim.add_argument("--persistent", action="store_true",
                        help="saturated ALOHA: tags stay in contention "
                             "after success (offered-load studies)")
    netsim.add_argument("--arrival-rate", type=float, default=0.0,
                        help="Poisson tag arrival rate [Hz]")
    netsim.add_argument("--mean-dwell", type=float, default=None,
                        help="mean tag dwell time before departure [s]")
    netsim.add_argument("--blockage-rate", type=float, default=0.0,
                        help="blockage burst rate [Hz]")
    netsim.add_argument("--spot-check-every", type=int, default=0,
                        help="audit the analytic slot model with a real "
                             "waveform burst every N slots (0 = off)")
    netsim.add_argument("--seed", type=int, default=0)
    netsim.add_argument("--trace", default=None, metavar="PATH",
                        help="dump the event-trace ring (JSONL + digest "
                             "header) to PATH after the run")
    netsim.add_argument("--trace-capacity", type=int, default=4096,
                        help="event-trace ring size (the digest always "
                             "covers every event; the ring bounds the "
                             "dumped tail, so million-tag traces don't "
                             "blow RAM)")
    netsim.add_argument("--strategy", default=DEFAULT_STRATEGY,
                        metavar="NAME",
                        help="ALOHA backoff/arbitration strategy "
                             f"(registered: {', '.join(strategy_names())}; "
                             f"default {DEFAULT_STRATEGY!r} is "
                             "byte-identical to the seed MAC)")
    netsim.add_argument("--list-strategies", action="store_true",
                        help="list the registered backoff strategies and "
                             "exit")
    reader = netsim.add_argument_group(
        "mobile reader (activated by --reader-trajectory)"
    )
    reader.add_argument("--reader-trajectory", default=None,
                        choices=list(TRAJECTORIES),
                        help="fly a drone/cart reader over a static tag "
                             "field instead of a fixed AP")
    reader.add_argument("--reader-speed", type=float, default=2.0,
                        help="reader flight speed [m/s]")
    reader.add_argument("--reader-altitude", type=float, default=2.0,
                        help="reader height above the tag plane [m]")
    reader.add_argument("--reader-radius", type=float, default=2.0,
                        help="orbit radius [m] (circular trajectory)")
    reader.add_argument("--field-size", type=float, default=6.0,
                        help="tag field edge length [m] (tags uniform "
                             "over the square)")
    reader.add_argument("--reader-epoch-slots", type=int, default=50,
                        help="slots between reader position updates")
    reader.add_argument("--reader-warp", type=float, default=1000.0,
                        help="vehicle seconds per MAC second")
    reader.add_argument("--sensing-noise", type=float, default=0.0,
                        help="Gaussian noise on the per-read sensing "
                             "observables [dB]")
    metro = netsim.add_argument_group(
        "multi-AP metro deployment (activated by --grid)"
    )
    metro.add_argument("--grid", default=None, metavar="RxC",
                       help="AP grid, e.g. 3x3: run a metro-scale multi-AP "
                            "deployment instead of a single AP")
    metro.add_argument("--ap-spacing", type=float, default=8.0,
                       help="centre-to-centre AP pitch [m]")
    metro.add_argument("--reuse", type=int, default=3,
                       help="spatial reuse factor (1 = every AP polls "
                            "every slot)")
    metro.add_argument("--hotspot-fraction", type=float, default=0.0,
                       help="fraction of tags clustered around AP 0")
    metro.add_argument("--mobile-fraction", type=float, default=0.0,
                       help="fraction of tags on random-waypoint walks")
    metro.add_argument("--time-warp", type=float, default=1.0,
                       help="pedestrian seconds per MAC second")
    metro.add_argument("--epoch-slots", type=int, default=100,
                       help="slots between position/association/relay "
                            "updates")
    metro.add_argument("--no-handoff", action="store_true",
                       help="pin tags to their initial AP")
    metro.add_argument("--hysteresis", type=float, default=3.0,
                       help="handoff margin hysteresis [dB]")
    metro.add_argument("--handoff-delay", type=int, default=8,
                       help="trigger-to-commit signalling delay [slots]")
    metro.add_argument("--no-relay", action="store_true",
                       help="disable tag-to-tag relaying")
    metro.add_argument("--relay-range", type=float, default=3.0,
                       help="maximum tag-to-tag hop distance [m]")
    metro.add_argument("--relay-hops", type=int, default=3,
                       help="maximum relay hop count")
    netsim.add_argument("--sweep-tags", default=None, metavar="N1,N2,...",
                        help="sweep population sizes under the sweep "
                             "executor (cache/retries compose)")
    netsim.add_argument("--backend", default="serial",
                        choices=list(SweepExecutor.BACKENDS),
                        help="sweep backend (with --sweep-tags)")
    netsim.add_argument("--workers", type=_worker_count, default=None,
                        help="process-pool width (with --sweep-tags)")
    netsim.add_argument("--cache-dir", default=None,
                        help="on-disk result cache (with --sweep-tags)")

    serve = sub.add_parser(
        "serve", help="long-running AP daemon (trace replay or live netsim)"
    )
    feed = serve.add_mutually_exclusive_group(required=True)
    feed.add_argument("--trace", default=None, metavar="PATH",
                      help="replay a netsim event-trace dump on virtual "
                           "time (deterministic: same trace + config => "
                           "byte-identical final state)")
    feed.add_argument("--live", action="store_true",
                      help="generate reads from an embedded netsim "
                           "producer, paced on the wall clock")
    serve.add_argument("--rate", type=float, default=10_000.0,
                       help="consumer service rate [events/s]; 0 = "
                            "infinitely fast")
    serve.add_argument("--queue-depth", type=int, default=1024,
                       help="bounded ingest queue capacity")
    serve.add_argument("--policy", default="shed-oldest",
                       choices=["block", "shed-oldest", "shed-newest"],
                       help="what happens when an arrival finds the queue "
                            "full")
    serve.add_argument("--duration", type=float, default=None,
                       help="stop after this many stream seconds (replay) "
                            "/ wall seconds (live); default: run until "
                            "the trace ends (replay) or forever (live)")
    serve.add_argument("--port", type=int, default=None,
                       help="serve /healthz /readyz /metrics on this port "
                            "(0 = ephemeral; default: no ops endpoint)")
    serve.add_argument("--status-interval", type=float, default=5.0,
                       help="seconds between status lines")
    serve.add_argument("--offered-rate", type=float, default=2_000.0,
                       help="live-mode offered load [events/s]")
    serve.add_argument("--rate-limit", type=float, default=0.0,
                       help="per-source token-bucket admission rate "
                            "[events/s]; 0 disables")
    serve.add_argument("--max-tags", type=int, default=100_000,
                       help="live-inventory retention bound (LRU evicts "
                            "beyond it)")
    serve.add_argument("--ttl", type=float, default=None,
                       help="evict tags idle longer than this many stream "
                            "seconds")
    serve.add_argument("--dedup-window", type=int, default=4096,
                       help="per-source (source, seq) dedup window; 0 "
                            "disables")
    serve.add_argument("--checkpoint", default=None, metavar="PATH",
                       help="write the final inventory state (atomic, "
                            "sha256-verified) to PATH on shutdown")
    serve.add_argument("--dead-letter", default=None, metavar="PATH",
                       help="quarantine malformed events to a JSONL log "
                            "at PATH")
    serve.add_argument("--seed", type=int, default=0,
                       help="live-producer seed")
    serve.add_argument("--chaos", type=int, default=None, metavar="SEED",
                       help="inject a seeded StreamFaultPlan (floods, "
                            "stalls, slow consumer, malformed/duplicate "
                            "events); requires --duration")

    beam = sub.add_parser("beamsearch", help="AP beam search toward a tag")
    beam.add_argument("--direction", type=float, default=20.0, help="true tag bearing [deg]")
    beam.add_argument("--snr", type=float, default=25.0, help="aligned SNR [dB]")
    beam.add_argument("--elements", type=int, default=16)
    beam.add_argument("--seed", type=int, default=0)

    sub.add_parser("schemes", help="modulation table with SNR thresholds")
    sub.add_parser("experiments", help="list the reproduction experiment suite")
    return parser


_EXPERIMENT_INDEX = [
    ("E1", "Van Atta retro-gain vs incidence angle", "test_e1_vanatta_pattern"),
    ("E2", "uplink SNR vs distance (d^-4 law)", "test_e2_snr_vs_distance"),
    ("E3", "BER waterfalls vs theory", "test_e3_ber_waterfall"),
    ("E4", "BER vs distance per data rate", "test_e4_ber_vs_distance"),
    ("E5", "rate-adapted goodput vs distance", "test_e5_throughput"),
    ("E6", "angular coverage: retro vs fixed beam", "test_e6_angle_coverage"),
    ("E7", "multi-tag FDMA + TDMA scaling", "test_e7_multitag"),
    ("E8", "power & energy table (2.4 nJ/bit)", "test_e8_energy_table"),
    ("E9", "switch rise time vs symbol rate", "test_e9_switch_speed"),
    ("E10", "self-interference rejection + DC-block ablation", "test_e10_interference"),
    ("E11", "feature matrix vs prior systems", "test_e11_feature_table"),
    ("E12", "ablations: array size / tolerance / coding", "test_e12_ablations"),
    ("E13", "AP beam-search cost (extension)", "test_e13_beam_search"),
    ("E14", "coding gain ladder (extension)", "test_e14_coding_gain"),
    ("E15", "spatial reuse SINR (extension)", "test_e15_spatial_reuse"),
    ("E16", "battery-free envelope (extension)", "test_e16_harvesting"),
    ("E17", "AP receive diversity / MRC (extension)", "test_e17_diversity"),
    ("E18", "sweep-engine scaling: pool + cache vs serial", "test_e18_executor_scaling"),
    ("E19", "fault tolerance: chaos sweep + ARQ under blockage", "test_e19_fault_tolerance"),
    ("E20", "network scale: MAC goodput/latency/fairness at 10k tags", "test_e20_network_scale"),
    ("E21", "metro scale: multi-AP roaming, handoff, relaying", "test_e21_metro_deployment"),
    ("E23", "live AP service: overload shedding + bounded memory", "test_e23_live_service"),
    ("E24", "scenario zoo: backoff shootout, mobile reader, AoA/range sensing", "test_e24_scenario_zoo"),
]


# -- command implementations --------------------------------------------------


def _cmd_link(args: argparse.Namespace) -> int:
    config = LinkConfig(
        distance_m=args.distance,
        incidence_angle_deg=args.angle,
        tag=TagConfig(modulation=args.modulation, symbol_rate_hz=args.symbol_rate),
        environment=_environment(args.environment),
    )
    result = simulate_link(config, num_payload_bits=args.bits, rng=args.seed)
    print(f"analytic SNR : {link_snr_db(config):8.2f} dB")
    measured = result.snr_measured_db
    print(f"measured SNR : {measured:8.2f} dB" if measured is not None
          else "measured SNR :     lost")
    print(f"detected     : {result.detected}")
    print(f"frame OK     : {result.frame_success}")
    print(f"BER          : {result.ber:.3e}  ({result.bit_errors}/{result.num_payload_bits})")
    print(f"tag power    : {result.energy.total_power_w * 1e3:8.2f} mW")
    print(f"energy/bit   : {result.energy.energy_per_bit_nj:8.2f} nJ")
    return 0 if result.frame_success else 1


def _sweep_snr_metric(modulation: str, distance: float) -> float:
    """Analytic SNR at one range (module-level so the pool can pickle it)."""
    config = LinkConfig(
        distance_m=distance,
        tag=TagConfig(modulation=modulation),
        environment=Environment.typical_office(),
    )
    return link_snr_db(config)


def _cmd_sweep(args: argparse.Namespace) -> int:
    import functools

    if args.points < 2 or args.stop <= args.start:
        print("sweep needs stop > start and points >= 2", file=sys.stderr)
        return 2
    if args.metric != "ber":
        for flag, given in (("--cache-dir", args.cache_dir is not None),
                            ("--target-errors", args.target_errors is not None),
                            ("--link-backend", args.link_backend is not None)):
            if given:
                print(f"{flag} applies to the ber metric only", file=sys.stderr)
                return 2
    target_errors = 30 if args.target_errors is None else args.target_errors
    if target_errors < 1:
        print(f"--target-errors must be >= 1, got {target_errors}", file=sys.stderr)
        return 2
    if args.resume and args.checkpoint is None:
        print("--resume requires --checkpoint", file=sys.stderr)
        return 2
    if args.timeout is not None and args.timeout <= 0:
        print("--timeout must be a positive number of seconds", file=sys.stderr)
        return 2
    if args.max_retries < 0:
        print("--max-retries must be >= 0", file=sys.stderr)
        return 2
    distances = [float(d) for d in np.linspace(args.start, args.stop, args.points)]
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    executor = SweepExecutor(
        args.backend,
        max_workers=args.workers,
        cache=cache,
        timeout_s=args.timeout,
        retry=RetryPolicy(max_retries=args.max_retries),
    )
    if args.metric == "snr":
        task = FunctionTask(functools.partial(_sweep_snr_metric, args.modulation))
    else:
        task = BerSweepTask(
            config=LinkConfig(
                tag=TagConfig(modulation=args.modulation),
                environment=Environment.typical_office(),
            ),
            param="distance_m",
            target_errors=target_errors,
            max_bits=20_000,
            bits_per_frame=2048,
            link_backend=args.link_backend or "serial",
        )
    try:
        report = executor.run(
            distances, task, seed=args.seed,
            checkpoint=args.checkpoint, resume=args.resume,
        )
    except CheckpointError as exc:  # resumed against the wrong file
        print(exc, file=sys.stderr)
        return 2
    table = ResultTable(
        f"{args.metric} vs distance ({args.modulation})",
        ["distance_m", args.metric],
    )
    plotted_x, plotted_y = [], []
    for point in report.points:
        if point.metric is None:  # isolated failure (see report.summary())
            table.add_row(round(point.value, 2), "failed")
            continue
        value = point.metric.ber if args.metric == "ber" else point.metric
        plotted_x.append(point.value)
        plotted_y.append(value)
        table.add_row(round(point.value, 2), value)
    print(table.to_text())
    print()
    if plotted_y:
        print(
            ascii_plot(
                {args.metric: (plotted_x, plotted_y)},
                log_y=(args.metric == "ber"),
                x_label="distance [m]",
                y_label=args.metric,
            )
        )
        print()
    print(report.summary())
    if cache is not None:
        print(cache.stats.summary())
    return 0 if report.failed == 0 else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.dir)
    exclusive = sum(bool(flag) for flag in (args.clear, args.prune is not None, args.verify))
    if exclusive > 1:
        print("--clear, --prune and --verify are mutually exclusive", file=sys.stderr)
        return 2
    if args.verify:
        report = cache.verify(quarantine=True)
        print(report.summary())
        if report.quarantined:
            print(f"quarantined entries moved to {cache.quarantine_dir}")
        return 0 if report.corrupt == 0 else 1
    if args.clear:
        removed = cache.invalidate()
        print(f"invalidated {removed} entries in {cache.directory}")
        return 0
    if args.prune is not None:
        if args.prune < 0:
            print("--prune takes a non-negative byte budget", file=sys.stderr)
            return 2
        removed = cache.prune(max_bytes=args.prune)
        print(
            f"pruned {removed} entries in {cache.directory} "
            f"({len(cache)} left, {cache.size_bytes()} bytes)"
        )
        return 0
    print(f"cache dir : {cache.directory}")
    print(f"entries   : {len(cache)}")
    print(f"size      : {cache.size_bytes()} bytes")
    print(f"code ver  : {cache.version[:16]}…")
    return 0


def _cmd_energy(args: argparse.Namespace) -> int:
    model = TagEnergyModel()
    table = ResultTable(
        f"tag energy at {args.symbol_rate / 1e6:g} Msym/s",
        ["modulation", "bit_rate_mbps", "power_mw", "nj_per_bit"],
    )
    for name in available_schemes():
        report = model.report(name, args.symbol_rate)
        table.add_row(
            name,
            report.bit_rate_hz / 1e6,
            round(report.total_power_w * 1e3, 2),
            round(report.energy_per_bit_nj, 3),
        )
    print(table.to_text())
    if args.duty_cycle is not None:
        print()
        life = ResultTable(
            f"battery life at duty {args.duty_cycle:g} "
            f"({args.battery_j:g} J store)",
            ["modulation", "avg_power_mw", "lifetime_days"],
        )
        for name in available_schemes():
            power = model.duty_cycled_power_w(name, args.symbol_rate, args.duty_cycle)
            seconds = model.battery_lifetime_s(
                args.battery_j, name, args.symbol_rate, args.duty_cycle
            )
            life.add_row(name, round(power * 1e3, 3), round(seconds / 86_400, 1))
        print(life.to_text())
    return 0


def _netsim_config(args: argparse.Namespace, **overrides: object) -> NetSimConfig:
    """Build a :class:`NetSimConfig` from CLI args (shared network/netsim)."""
    params: dict[str, object] = dict(
        num_tags=args.tags,
        max_distance_m=args.max_distance,
        environment=Environment.typical_office(),
    )
    params.update(overrides)
    return NetSimConfig(**params)  # type: ignore[arg-type]


def _print_netsim_report(config: NetSimConfig, seed: int,
                         trace_path: str | None = None,
                         strategy: str | None = None) -> int:
    """Run one event-driven simulation and print its summary (shared)."""
    report = run_netsim(config, seed=seed, trace_path=trace_path,
                        strategy=strategy)
    print(report.summary())
    if trace_path is not None:
        print(f"event trace         : {trace_path}")
    return 0


def _cmd_network(args: argparse.Namespace) -> int:
    if args.tags < 1:
        print("need at least one tag", file=sys.stderr)
        return 2
    if args.protocol == "fdma":
        # Concurrent groups need the time-aware simulator; share it with
        # `repro netsim` (one slot serves one group, so `rounds` full
        # passes over the population take rounds * ceil(tags/8) slots).
        groups = -(-args.tags // 8)
        config = _netsim_config(
            args, protocol="fdma", num_slots=max(1, args.rounds * groups)
        )
        return _print_netsim_report(config, args.seed)
    rng = np.random.default_rng(args.seed)
    tags = [
        NetworkTag(
            config=TagConfig(tag_id=i),
            distance_m=float(rng.uniform(1.5, args.max_distance)),
            incidence_angle_deg=float(rng.uniform(-30, 30)),
        )
        for i in range(args.tags)
    ]
    network = MmTagNetwork(tags, environment=Environment.typical_office())
    if args.protocol == "aloha":
        num_slots = max(1, args.rounds * args.tags)
        discovered, slots_used = network.slotted_aloha_discovery(
            num_slots=num_slots, rng=args.seed
        )
        table = ResultTable(
            f"slotted-ALOHA discovery: {args.tags} tags, "
            f"{num_slots} slot budget",
            ["metric", "value"],
        )
        table.add_row("discovered", f"{len(discovered)}/{args.tags}")
        table.add_row("slots used", slots_used)
        table.add_row(
            "slots per tag",
            round(slots_used / max(1, len(discovered)), 2),
        )
        print(table.to_text())
        return 0 if len(discovered) == args.tags else 1
    inventory = network.tdma_inventory(num_rounds=args.rounds, rng=args.seed)
    table = ResultTable(
        f"TDMA inventory: {args.tags} tags x {args.rounds} rounds",
        ["tag_id", "distance_m", "snr_db", "goodput_kbps"],
    )
    snrs = network.per_tag_snr_db()
    per_tag = inventory.per_tag_goodput_bps()
    for tag in network.tags:
        table.add_row(
            tag.config.tag_id,
            round(tag.distance_m, 2),
            round(snrs[tag.config.tag_id], 1),
            round(per_tag[tag.config.tag_id] / 1e3, 1),
        )
    print(table.to_text())
    print(f"\naggregate goodput: {inventory.aggregate_goodput_bps / 1e6:.2f} Mbps")
    print(f"fairness (Jain):   {inventory.jain_fairness():.3f}")
    return 0


def _metro_config(args: argparse.Namespace) -> MultiAPConfig:
    """Build a :class:`MultiAPConfig` from ``netsim --grid`` args."""
    try:
        rows, cols = (int(part) for part in args.grid.lower().split("x"))
    except ValueError:
        raise ValueError(
            f"--grid takes RxC (e.g. 3x3), got {args.grid!r}"
        ) from None
    return MultiAPConfig(
        grid_rows=rows,
        grid_cols=cols,
        ap_spacing_m=args.ap_spacing,
        spatial_reuse_factor=args.reuse,
        num_tags=args.tags,
        num_slots=args.slots,
        frame_bits=args.frame_bits,
        environment=Environment.typical_office(),
        hotspot_fraction=args.hotspot_fraction,
        mobile_fraction=args.mobile_fraction,
        time_warp=args.time_warp,
        epoch_slots=args.epoch_slots,
        handoff_enabled=not args.no_handoff,
        handoff_hysteresis_db=args.hysteresis,
        handoff_delay_slots=args.handoff_delay,
        relay_enabled=not args.no_relay,
        relay_range_m=args.relay_range,
        relay_max_hops=args.relay_hops,
        persistent=args.persistent,
        blockage_rate_hz=args.blockage_rate,
        trace_capacity=args.trace_capacity,
    )


def _parse_sweep_tags(raw: str) -> list[float]:
    return [float(int(v)) for v in raw.split(",") if v]


def _cmd_netsim_metro(args: argparse.Namespace) -> int:
    """The multi-AP branch of ``repro netsim`` (--grid given)."""
    try:
        config = _metro_config(args)
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.sweep_tags is None:
        report = run_multi_ap(config, seed=args.seed,
                              trace_path=args.trace,
                              strategy=args.strategy)
        print(report.summary())
        if args.trace is not None:
            print(f"event trace         : {args.trace}")
        return 0
    if args.strategy != DEFAULT_STRATEGY:
        print("--sweep-tags races populations, not strategies; "
              "sweep tasks run the default strategy only "
              "(use repro.net.scenario.shootout for strategy races)",
              file=sys.stderr)
        return 2

    try:
        populations = _parse_sweep_tags(args.sweep_tags)
    except ValueError:
        print("--sweep-tags takes comma-separated integers", file=sys.stderr)
        return 2
    if not populations:
        print("--sweep-tags needs at least one population", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    executor = SweepExecutor(args.backend, max_workers=args.workers, cache=cache)
    sweep = executor.run(
        populations,
        MultiAPTask(config=config, param="num_tags"),
        seed=args.seed,
    )
    table = ResultTable(
        f"metro population sweep ({config.grid_rows}x{config.grid_cols} APs, "
        f"{config.ap_spacing_m:g} m pitch)",
        ["num_tags", "tags_read", "relayed", "goodput_kbps", "jain_ap_load",
         "handoffs"],
    )
    for point in sweep.points:
        report = point.metric
        if report is None:
            table.add_row(int(point.value), "failed", "-", "-", "-", "-")
            continue
        table.add_row(
            int(point.value),
            f"{report.tags_read}/{report.tags_total}",
            report.tags_read_relayed,
            round(report.goodput_bps / 1e3, 1),
            round(report.ap_load_jain, 3),
            report.handoffs,
        )
    print(table.to_text())
    print()
    print(sweep.summary())
    if cache is not None:
        print(cache.stats.summary())
    return 0 if sweep.failed == 0 else 1


def _cmd_netsim_reader(args: argparse.Namespace) -> int:
    """The mobile-reader branch of ``repro netsim``."""
    for flag, given in (("--grid", args.grid is not None),
                        ("--sweep-tags", args.sweep_tags is not None),
                        ("--protocol", args.protocol != "aloha")):
        if given:
            print(f"--reader-trajectory is a single-AP ALOHA scenario; "
                  f"drop {flag}", file=sys.stderr)
            return 2
    try:
        config = MobileReaderConfig(
            num_tags=args.tags,
            num_slots=args.slots,
            frame_bits=args.frame_bits,
            environment=Environment.typical_office(),
            field_size_m=args.field_size,
            altitude_m=args.reader_altitude,
            trajectory=args.reader_trajectory,
            speed_m_s=args.reader_speed,
            orbit_radius_m=args.reader_radius,
            epoch_slots=args.reader_epoch_slots,
            time_warp=args.reader_warp,
            # Saturated traffic: sensing needs estimates all run long.
            persistent=True,
            blockage_rate_hz=args.blockage_rate,
            sensing_noise_db=args.sensing_noise,
            trace_capacity=args.trace_capacity,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    report = run_mobile_reader(config, seed=args.seed,
                               trace_path=args.trace,
                               strategy=args.strategy)
    print(report.summary())
    if args.trace is not None:
        print(f"event trace         : {args.trace}")
    return 0


def _cmd_netsim(args: argparse.Namespace) -> int:
    if args.list_strategies:
        for name, summary in strategy_summaries():
            marker = "*" if name == DEFAULT_STRATEGY else " "
            print(f"{marker} {name:<12} {summary}")
        print("(* = default, byte-identical to the seed MAC)")
        return 0
    if args.strategy not in strategy_names():
        print(f"unknown backoff strategy {args.strategy!r}; choose from "
              f"{', '.join(strategy_names())}", file=sys.stderr)
        return 2
    if args.tags < 0 or args.slots < 1:
        print("need --tags >= 0 and --slots >= 1", file=sys.stderr)
        return 2
    if args.reader_trajectory is not None:
        return _cmd_netsim_reader(args)
    if args.grid is not None:
        return _cmd_netsim_metro(args)
    try:
        config = _netsim_config(
            args,
            num_slots=args.slots,
            protocol=args.protocol,
            frame_bits=args.frame_bits,
            transmit_probability=args.transmit_probability,
            persistent=args.persistent,
            arrival_rate_hz=args.arrival_rate,
            mean_dwell_s=args.mean_dwell,
            blockage_rate_hz=args.blockage_rate,
            spot_check_every=args.spot_check_every,
            trace_capacity=args.trace_capacity,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    if args.strategy != DEFAULT_STRATEGY:
        if args.protocol != "aloha":
            print("--strategy applies to the 'aloha' protocol only",
                  file=sys.stderr)
            return 2
        if args.transmit_probability is not None:
            print("--strategy and --transmit-probability are mutually "
                  "exclusive", file=sys.stderr)
            return 2
    if args.sweep_tags is None:
        return _print_netsim_report(config, args.seed, trace_path=args.trace,
                                    strategy=args.strategy)

    if args.strategy != DEFAULT_STRATEGY:
        print("--sweep-tags races populations, not strategies; "
              "sweep tasks run the default strategy only "
              "(use repro.net.scenario.shootout for strategy races)",
              file=sys.stderr)
        return 2
    try:
        populations = _parse_sweep_tags(args.sweep_tags)
    except ValueError:
        print("--sweep-tags takes comma-separated integers", file=sys.stderr)
        return 2
    if not populations:
        print("--sweep-tags needs at least one population", file=sys.stderr)
        return 2
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    executor = SweepExecutor(args.backend, max_workers=args.workers, cache=cache)
    sweep = executor.run(
        populations, NetSimTask(config=config, param="num_tags"), seed=args.seed
    )
    table = ResultTable(
        f"netsim population sweep ({config.protocol})",
        ["num_tags", "slots_run", "tags_read", "goodput_kbps",
         "latency_p95_ms", "jain"],
    )
    for point in sweep.points:
        report = point.metric
        if report is None:
            table.add_row(int(point.value), "failed", "-", "-", "-", "-")
            continue
        p95 = report.latency_p95_s
        table.add_row(
            int(point.value),
            report.slots_run,
            f"{report.tags_read}/{report.tags_total}",
            round(report.goodput_bps / 1e3, 1),
            round(p95 * 1e3, 3) if np.isfinite(p95) else "-",
            round(report.jain_fairness, 3),
        )
    print(table.to_text())
    print()
    print(sweep.summary())
    if cache is not None:
        print(cache.stats.summary())
    return 0 if sweep.failed == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.engine import TraceReadError
    from repro.serve import ServeConfig, run_service
    from repro.sim.faults import StreamFaultPlan

    if args.chaos is not None and args.duration is None:
        print("--chaos requires --duration (the fault-plan horizon)",
              file=sys.stderr)
        return 2
    try:
        config = ServeConfig(
            trace_path=args.trace,
            live=args.live,
            queue_depth=args.queue_depth,
            policy=args.policy,
            service_rate_hz=args.rate,
            rate_limit_hz=args.rate_limit,
            dedup_window=args.dedup_window,
            max_tags=args.max_tags,
            ttl_s=args.ttl,
            offered_rate_hz=args.offered_rate,
            seed=args.seed,
            duration_s=args.duration,
            port=args.port,
            status_interval_s=args.status_interval,
            checkpoint_path=args.checkpoint,
            dead_letter_path=args.dead_letter,
        )
    except ValueError as error:
        print(str(error), file=sys.stderr)
        return 2
    fault_plan = None
    if args.chaos is not None:
        fault_plan = StreamFaultPlan.random(
            horizon_s=args.duration,
            seed=args.chaos,
            floods=2,
            flood_events=max(64, 4 * args.queue_depth),
            stalls=1,
            stall_s=min(0.5, args.duration / 10),
            slow_windows=1,
            slow_factor=4.0,
            slow_s=min(0.5, args.duration / 10),
            malformed_rate=0.01,
            duplicate_rate=0.02,
            reorder_rate=0.01,
        )
        print(f"chaos: StreamFaultPlan seed={args.chaos} "
              f"({len(fault_plan.specs)} faults)")
    try:
        report = run_service(config, fault_plan=fault_plan, out=print)
    except TraceReadError as error:
        print(str(error), file=sys.stderr)
        return 2
    print(report.summary())
    return 0


def _cmd_beamsearch(args: argparse.Namespace) -> int:
    from repro.em.antenna import patch_element
    from repro.em.array import UniformLinearArray

    config = BeamSearchConfig(
        ap_array=UniformLinearArray(
            num_elements=args.elements, element=patch_element(5.0)
        )
    )
    searcher = BeamSearcher(
        config, tag_direction_deg=args.direction, aligned_snr_db=args.snr
    )
    table = ResultTable(
        f"beam search: tag at {args.direction:g} deg, {args.elements} elements "
        f"(beamwidth {config.beamwidth_deg():.1f} deg)",
        ["strategy", "probes", "time_ms", "best_deg", "error_deg", "loss_db"],
    )
    for label, result in (
        ("exhaustive", searcher.exhaustive_search(rng=args.seed)),
        ("hierarchical", searcher.hierarchical_search(rng=args.seed)),
    ):
        table.add_row(
            label,
            result.num_probes,
            round(result.search_time_s(config.probe_slot_duration_s) * 1e3, 3),
            round(result.best_steer_deg, 2),
            round(result.pointing_error_deg, 2),
            round(result.pointing_loss_db, 2),
        )
    print(table.to_text())
    return 0


def _cmd_schemes(_args: argparse.Namespace) -> int:
    table = ResultTable(
        "modulation schemes (thresholds at BER 1e-3)",
        ["name", "bits_per_symbol", "switch_lines", "mod_loss_db", "snr_threshold_db"],
    )
    for name in available_schemes():
        scheme = get_scheme(name)
        table.add_row(
            scheme.name,
            scheme.bits_per_symbol,
            scheme.num_lines,
            round(scheme.modulation_loss_db(), 2),
            round(snr_threshold_db(scheme), 2),
        )
    print(table.to_text())
    return 0


def _cmd_experiments(_args: argparse.Namespace) -> int:
    table = ResultTable(
        "experiment suite (run: pytest benchmarks/ --benchmark-only -s)",
        ["id", "what it regenerates", "bench module"],
    )
    for exp_id, title, module in _EXPERIMENT_INDEX:
        table.add_row(exp_id, title, f"benchmarks/{module}.py")
    print(table.to_text())
    print("\npaper-vs-measured notes: EXPERIMENTS.md")
    return 0


_COMMANDS = {
    "link": _cmd_link,
    "sweep": _cmd_sweep,
    "cache": _cmd_cache,
    "energy": _cmd_energy,
    "network": _cmd_network,
    "netsim": _cmd_netsim,
    "serve": _cmd_serve,
    "beamsearch": _cmd_beamsearch,
    "schemes": _cmd_schemes,
    "experiments": _cmd_experiments,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        level = getattr(logging, str(args.log_level).upper(), None)
        if not isinstance(level, int):
            print(f"unknown log level {args.log_level!r}", file=sys.stderr)
            return 2
        logging.basicConfig(
            level=level,
            format="%(asctime)s %(levelname)s %(name)s: %(message)s",
        )
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
