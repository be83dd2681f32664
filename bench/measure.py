"""Benchmark child process: one workload, set up, then timed.

Run by ``run.py``, never by hand.  The child sets the workload up,
writes ``ready`` on its standard output (the parent times set-up from
spawn to that line), and unless ``--setup-only`` runs ops until
``--seconds`` have passed, collecting cyclic garbage between ops
(untimed) so every op starts from the same heap and peak RSS does not
grow with the number of ops a run fits.  It then runs the untimed output
checks and
writes one JSON line: per-op items, seconds, digests and failures,
peak RSS, the run manifest and, with ``--trace 1``, the layer report.
Everything else the workload prints goes to standard error.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import platform
import resource
import sys
import time
from pathlib import Path


def _manifest() -> dict:
    import numpy
    import scipy

    from repro.sim.cache import code_version

    return {
        "code_version": code_version(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": "present" if importlib.util.find_spec("numba") else "absent",
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    protocol = sys.stdout
    sys.stdout = sys.stderr

    import tracing
    from workloads import WORKLOADS, Op

    workload_cls = WORKLOADS[args.workload]
    workload = workload_cls(args.seed, args.workdir)
    print("ready", file=protocol, flush=True)
    if args.setup_only:
        return 0

    recorder = tracing.Recorder() if args.trace else None
    uninstall = tracing.install(recorder) if recorder else None
    first_counts: dict[str, float] = {}
    ops = []
    start = time.perf_counter()
    try:
        while not ops or time.perf_counter() - start < args.seconds:
            index = len(ops)
            began = time.perf_counter()
            try:
                if recorder is None:
                    op = workload.op(index)
                else:
                    with recorder.root():
                        op = workload.op(index)
            except Exception as exc:  # a failed op is counted, not fatal
                op = Op(0, "", [f"{type(exc).__name__}: {exc}"])
            seconds = time.perf_counter() - began
            ops.append(
                {"items": op.items, "seconds": seconds, "digest": op.digest,
                 "failures": op.failures}
            )
            if recorder is not None and index == 0:
                first_counts = dict(recorder.counts)
            gc.collect()
    finally:
        if uninstall is not None:
            uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    try:
        ops[0]["failures"] += workload.final_checks()
    except Exception as exc:
        ops[0]["failures"].append(f"final check: {type(exc).__name__}: {exc}")

    result = {
        "workload": args.workload,
        "item": workload_cls.item,
        "params": workload_cls.params,
        "ops": ops,
        "peak_rss_mb": peak_rss_mb,
        "manifest": _manifest(),
    }
    if recorder is not None:
        spans = recorder.report()
        net_run_s = spans.get("net.run", {}).get("total_s", 0.0)
        events = recorder.counts.get("net.events", 0)
        result["spans"] = spans
        result["counters"] = tracing.counter_values(
            first_counts, events / net_run_s if net_run_s else 0.0
        )
    print(json.dumps(result), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
