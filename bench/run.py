"""Run the repository benchmark: five end-to-end workloads.

    python3 bench/run.py [--workload W] [--seed S] [--seconds N]
                         [--trace [0|1]] [--repeats N] [--json OUT]
    python3 bench/run.py --compare PARENT.json CHANGE.json

Every run of a workload is a sequence of fresh child processes
(``measure.py``), started one at a time, each one process and one
thread.  An untraced run spawns ``SETUPS`` children: all set the
workload up, the last one then runs the timed ops, and ``setup_s`` is
the median of their set-up times.  A traced run spawns an untraced and
a traced child; the layer table comes from the traced one and the
ratio of their throughputs is the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the ``end_to_end`` metrics
of ``BENCHMARK.json`` untraced, its ``per_layer`` metrics traced.  The
exit status is non-zero when an output check fails or a child dies.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import compare
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = BENCH / "reference.json"
WORKLOADS = ("ber_waterfall", "sweep_cached", "metro", "netsim_churn", "serve_replay")
DEFAULT_SEED = 0
#: Children per untraced run; ``setup_s`` is the median of their set-ups.
SETUPS = 3
#: Seconds a child may run beyond its timed phase before it is killed.
CHILD_GRACE_S = 120.0


class ChildError(RuntimeError):
    """A benchmark child failed to set up or exited with an error."""


def _spawn(
    workload: str,
    seed: int,
    workdir: Path,
    *,
    seconds: float = 0.0,
    trace: bool = False,
) -> tuple[float, dict | None]:
    """Run one child; returns its set-up seconds and, unless it only
    set up (``seconds == 0``), its result."""
    command = [
        sys.executable, str(BENCH / "measure.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--workdir", str(workdir),
        "--trace", str(int(trace)),
    ]
    command += ["--seconds", str(seconds)] if seconds else ["--setup-only"]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[variable] = "1"
    start = time.perf_counter()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(seconds + CHILD_GRACE_S, child.kill)
    watchdog.start()
    try:
        ready = child.stdout.readline()
        setup_s = time.perf_counter() - start
        output = child.stdout.read()
        child.wait()
    finally:
        watchdog.cancel()
        if child.poll() is None:
            child.kill()
        child.wait()
        child.stdout.close()
    if ready.strip() != "ready" or child.returncode != 0:
        raise ChildError(f"{workload} child exited with status {child.returncode}")
    return setup_s, json.loads(output.splitlines()[-1]) if seconds else None


def _items_per_s(child: dict) -> float:
    """Median over the child's ops of items per second."""
    rates = [op["items"] / op["seconds"] for op in child["ops"] if op["items"]]
    return statistics.median(rates) if rates else 0.0


def _layer_metrics(traced: dict, overhead: float) -> dict[str, float]:
    spans = traced["spans"]
    wall = spans[tracing.Recorder.ROOT]["total_s"]
    metrics = {
        f"{name}.self_pct": 100.0 * row["self_s"] / wall for name, row in spans.items()
    }
    metrics["trace.overhead_pct"] = 100.0 * overhead
    metrics.update(traced["counters"])
    return metrics


def _run(workload: str, seed: int, seconds: float, trace: bool,
         workdir: Path) -> tuple[dict, dict]:
    """One run of one workload (untraced or traced), and the result of
    its last child."""
    run: dict = {"failures": []}
    if trace:
        _, plain = _spawn(workload, seed, workdir / "plain", seconds=seconds)
        _, traced = _spawn(workload, seed, workdir / "traced", seconds=seconds, trace=True)
        children = [plain, traced]
        traced_rate = _items_per_s(traced)
        overhead = _items_per_s(plain) / traced_rate - 1.0 if traced_rate else 0.0
        run["metrics"] = _layer_metrics(traced, overhead)
        run["spans"], run["counters"] = traced["spans"], traced["counters"]
        run["rates"] = {"untraced": _items_per_s(plain), "traced": traced_rate}
        mismatched = [
            i for i, (a, b) in enumerate(zip(plain["ops"], traced["ops"]))
            if a["digest"] != b["digest"]
        ]
        run["failures"] += [f"op {i}: traced output differs from untraced" for i in mismatched]
    else:
        setups = [
            _spawn(workload, seed, workdir / f"setup{k}")[0] for k in range(SETUPS - 1)
        ]
        setup_s, child = _spawn(workload, seed, workdir / "run", seconds=seconds)
        children = [child]
        run["metrics"] = {
            "items_per_s": _items_per_s(child),
            "setup_s": statistics.median(setups + [setup_s]),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        mismatched = []
    ops = [op for child in children for op in child["ops"]]
    run["failures"] += [
        f"op {i}: {failure}"
        for child in children
        for i, op in enumerate(child["ops"])
        for failure in op["failures"]
    ]
    run["attempted"] = len(ops)
    run["failed"] = sum(1 for op in ops if op["failures"]) + len(mismatched)
    run["ops"] = len(children[-1]["ops"])
    run["digest"] = children[0]["ops"][0]["digest"]
    return run, children[-1]


def run_workload(name: str, seed: int, seconds: float, trace: bool, repeats: int,
                 workdir: Path) -> dict:
    """``repeats`` runs of one workload, with the median of each metric."""
    runs = []
    for r in range(repeats):
        run, child = _run(name, seed, seconds, trace, workdir / f"{name}-{r}")
        runs.append(run)
    if len({run["digest"] for run in runs}) > 1:
        runs[-1]["failures"].append("op 0 output differs across repeats")
        runs[-1]["failed"] += 1
    return {
        "item": child["item"],
        "params": child["params"],
        "manifest": child["manifest"],
        "runs": runs,
        "metrics": {
            metric: statistics.median(run["metrics"][metric] for run in runs)
            for metric in runs[0]["metrics"]
        },
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "failures": [failure for run in runs for failure in run["failures"]],
    }


def _reference(name: str, seed: int, digest: str) -> str:
    reference = json.loads(REFERENCE_PATH.read_text())
    if seed != reference["seed"]:
        return f"n/a (recorded for seed {reference['seed']})"
    return "match" if reference["digests"].get(name) == digest else "mismatch"


def _print_workload(name: str, result: dict, spec: dict, seed: int, seconds: float,
                    trace: bool) -> None:
    runs = result["runs"]
    print(f"== {name}: seed {seed}, {seconds:g} s timed, {len(runs)} run(s)"
          f"{', traced' if trace else ''} ==")
    if trace:
        _print_layers(result, runs[-1])
    else:
        notes = {
            "items_per_s": f"{result['item']} per second, median over "
                           f"{runs[-1]['ops']} ops",
            "setup_s": f"median over {SETUPS} set-ups",
        }
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            values = ", ".join(f"{run['metrics'][metric]:.6g}" for run in runs)
            print(f"  {metric:<14} {result['metrics'][metric]:>14.6g} "
                  f"{entry['unit']:<8} {notes.get(metric, '')}"
                  + (f" [runs: {values}]" if len(runs) > 1 else ""))
    print(f"  ops            {result['attempted']} attempted, {result['failed']} failed")
    for failure in result["failures"]:
        print(f"    FAILED {failure}")
    print(f"  reference      {_reference(name, seed, runs[0]['digest'])}")


def _print_layers(result: dict, run: dict) -> None:
    """The spans that fired, the root's unattributed time, the tracing
    overhead and the counters of the layers that fired."""
    spans = run["spans"]
    wall = spans[tracing.Recorder.ROOT]["total_s"]
    print(f"  {'layer':<12} {'span':<28} {'calls':>9} {'total_s':>10} {'self_s':>10} "
          f"{'self%':>7} {'p50_us':>9} {'p99_us':>9}")
    rows = [(span.layer, span.name) for span in tracing.SPANS]
    rows.append(("unattributed", tracing.Recorder.ROOT))
    fired = set()
    for layer, name in rows:
        row = spans[name]
        if not row["calls"]:
            continue
        fired.add(name.split(".")[0])
        percentiles = (
            f" {row['p50_us']:>9.2f} {row['p99_us']:>9.2f}" if "p50_us" in row else ""
        )
        print(f"  {layer:<12} {name:<28} {row['calls']:>9} {row['total_s']:>10.4f} "
              f"{row['self_s']:>10.4f} {100 * row['self_s'] / wall:>7.2f}{percentiles}")
    rates = run["rates"]
    print(f"  tracing overhead {run['metrics']['trace.overhead_pct']:.2f} % "
          f"(untraced {rates['untraced']:.6g} vs traced {rates['traced']:.6g} "
          f"{result['item']}/s)")
    for name, unit in tracing.COUNTERS:
        if name.split(".")[0] in fired:
            print(f"  {name:<28} {run['counters'][name]:>14.6g} {unit}")


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() or "unknown"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run the repository benchmark.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__,
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"input seed, >= 0 (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=int,
                        help="timed seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: report the layer table")
    parser.add_argument("--repeats", type=int, default=1,
                        help="runs per workload, each a fresh set of children")
    parser.add_argument("--json", type=Path, metavar="OUT",
                        help="also write the results and run manifest here")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two --json outputs and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, SPEC_PATH)
    if args.seed < 0 or args.repeats < 1 or (args.seconds is not None and args.seconds < 1):
        parser.error("--seed must be >= 0, --repeats and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    spec = json.loads(SPEC_PATH.read_text())
    seconds = args.seconds or spec["run_seconds"]
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    workdir = BENCH / ".work" / f"run-{os.getpid()}"
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, seconds, trace,
                                         args.repeats, workdir)
            _print_workload(name, results[name], spec, args.seed, seconds, trace)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    manifest = {
        "git_commit": _git_commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": seconds,
        "trace": int(trace),
        "repeats": args.repeats,
        **results[names[0]]["manifest"],
    }
    print("manifest: " + ", ".join(f"{key} {value}" for key, value in manifest.items()))
    if args.json:
        args.json.write_text(
            json.dumps({"manifest": manifest, "workloads": results}, indent=1) + "\n"
        )

    entries = spec["per_layer" if trace else "end_to_end"]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}."
        for entry in entries:
            metrics[prefix + entry["name"]] = {
                "value": result["metrics"][entry["name"]],
                "unit": entry["unit"],
            }
    failed = sum(result["failed"] for result in results.values())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(result["attempted"] for result in results.values()),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
