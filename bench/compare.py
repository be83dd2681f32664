"""Compare two benchmark result files metric by metric.

``run.py --compare PARENT.json CHANGE.json`` reads two ``--json``
outputs of the same workloads and, for each metric and workload,
prints both sides' median and quartiles, the pairs the change won and
a verdict, using the bounds in ``BENCHMARK.json``:

* ``improved``: the change won at least nine tenths of at least ten
  pairs (ties count for neither side) and its median beats the
  parent's by more than the parent's interquartile range;
* ``unresolved``: a side's interquartile range is wider than the bound
  and the change does not read better on every run than the parent
  does on every run;
* ``regressed``: the change's median is worse than the parent's by
  more than the bound;
* ``unchanged``: otherwise.

Metrics without a bound (the per-layer ones) get medians only.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

_ENVIRONMENT = ("python", "numpy", "scipy", "numba", "nproc")


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int]:
    """The verdict on one metric, and the pairs the change won."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    # Positive gain: the change reads better.
    gain = sign * (c_med - p_med)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    pairs = min(len(parent), len(change))
    if pairs >= 10 and wins >= 0.9 * pairs and gain > p_q3 - p_q1:
        return "improved", wins
    spread = max(p_q3 - p_q1, c_q3 - c_q1)
    if better == "higher":
        every_run_better = min(change) > max(parent)
    else:
        every_run_better = max(change) < min(parent)
    if spread > bound * abs(p_med) and not every_run_better:
        return "unresolved", wins
    if -gain > bound * abs(p_med):
        return "regressed", wins
    return "unchanged", wins


def _runs(result: dict, workload: str, metric: str) -> list[float] | None:
    runs = result["workloads"].get(workload, {}).get("runs", [])
    values = [run["metrics"][metric] for run in runs if metric in run["metrics"]]
    return values or None


def compare(parent: dict, change: dict, spec: dict) -> tuple[list[str], bool]:
    """Report lines, and whether any metric regressed."""
    lines = []
    for key in _ENVIRONMENT:
        a, b = parent["manifest"].get(key), change["manifest"].get(key)
        if a != b:
            lines.append(f"warning: environments differ in {key}: {a} vs {b}")
    header = (
        f"{'workload':<14} {'metric':<30} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'gap':>8} {'won':>7}  verdict"
    )
    lines.append(header)
    regressed = False
    for workload in parent["workloads"]:
        for entry in spec["end_to_end"] + spec["per_layer"]:
            name = entry["name"]
            a = _runs(parent, workload, name)
            b = _runs(change, workload, name)
            if a is None or b is None:
                continue
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            gap = (b_med - a_med) / abs(a_med) if a_med else 0.0
            if "bound" in entry:
                outcome, wins = verdict(a, b, entry["better"], entry["bound"])
                regressed |= outcome == "regressed"
                won = f"{wins}/{min(len(a), len(b))}"
            else:
                outcome, won = "-", "-"
            lines.append(
                f"{workload:<14} {name:<30} "
                f"{f'{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]':>34} "
                f"{f'{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]':>34} "
                f"{gap:>+8.2%} {won:>7}  {outcome}"
            )
    return lines, regressed


def main(parent_path: Path, change_path: Path, spec_path: Path) -> int:
    parent = json.loads(parent_path.read_text())
    change = json.loads(change_path.read_text())
    spec = json.loads(spec_path.read_text())
    lines, regressed = compare(parent, change, spec)
    print("\n".join(lines))
    return 1 if regressed else 0
