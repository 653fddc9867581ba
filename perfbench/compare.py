"""``perfbench compare A.json B.json``: is B worse than A?

One row per (workload, end-to-end metric).  A row is ``regressed`` when
B's median is worse than A's by more than the metric's bound in
``BENCHMARK.json``; ``unresolved`` -- never ``ok`` -- when it is not,
but either side's quartile spread is wider than the bound, unless every
run of B reads better than every run of A; ``ok`` otherwise.
``failed_share`` has an absolute bound of zero: any rise regresses.

The per-layer numbers are not judged: they explain an end-to-end
change, they are not themselves a result.  The exact counts among them
(calls, cache and tier ratios) repeat bit for bit on one commit, so the
ones that differ between A and B are listed: that is what the change
did to the work, free of timing noise.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional, Tuple

from perfbench import SCHEMA, load_benchmark

OK, REGRESSED, UNRESOLVED = "ok", "regressed", "unresolved"


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    delta = a - b if better == "higher" else b - a
    if a == 0:
        return float("inf") if delta > 0 else 0.0
    return delta / abs(a)


def _spread(row: Dict) -> float:
    if row["median"] == 0:
        return 0.0
    return (row["q3"] - row["q1"]) / abs(row["median"])


def _all_better(a: Dict, b: Dict, better: str) -> bool:
    if better == "higher":
        return min(b["samples"]) > max(a["samples"])
    return max(b["samples"]) < min(a["samples"])


def judge(a: Dict, b: Dict, better: str, bound: float) -> str:
    """Verdict for one metric from its two summaries."""
    if _worse_by(a["median"], b["median"], better) > bound:
        return REGRESSED
    if bound == 0:
        return OK
    if (max(_spread(a), _spread(b)) > bound
            and not _all_better(a, b, better)):
        return UNRESOLVED
    return OK


def refusal(a: Dict, b: Dict) -> Optional[str]:
    """Why these two reports cannot be compared, if they cannot."""
    for label, report in (("A", a), ("B", b)):
        if report.get("schema") != SCHEMA:
            return f"{label} is not a {SCHEMA} report"
        if report["smoke"]:
            return (f"{label} is a smoke run: its sizes only prove the "
                    f"plumbing")
    if a["seed"] != b["seed"]:
        return (f"seeds differ (A {a['seed']}, B {b['seed']}): the "
                f"inputs are not the same")
    if a["run_seconds"] != b["run_seconds"]:
        return (f"run lengths differ (A {a['run_seconds']} s, "
                f"B {b['run_seconds']} s)")
    if b["host"]["cpus_available"] < a["host"]["cpus_available"]:
        return (f"B ran on fewer CPUs "
                f"({b['host']['cpus_available']} < "
                f"{a['host']['cpus_available']})")
    return None


def compare(a: Dict, b: Dict, bounds: Dict[str, float]
            ) -> List[Tuple[str, str, Optional[Dict], Optional[Dict], str]]:
    """Rows of (workload, metric, A summary, B summary, verdict).

    A metric or workload present in A and missing from B regressed:
    B could not measure what A could.
    """
    rows = []
    for name, workload_a in a["workloads"].items():
        rows_b = b["workloads"].get(name, {}).get("end_to_end", {})
        for metric, row_a in workload_a["end_to_end"].items():
            row_b = rows_b.get(metric)
            if row_b is None:
                verdict = REGRESSED
            else:
                verdict = judge(row_a, row_b, row_a["better"],
                                bounds.get(metric, 0.0))
            rows.append((name, metric, row_a, row_b, verdict))
    return rows


#: Per-layer metrics that are timings, not counts.
_TIMED_SUFFIXES = (".self_us", ".share")
_TIMED_NAMES = ("parallel.engine.speedup_w2", "trace.overhead_share")


def count_differences(a: Dict, b: Dict) -> List[Tuple[str, str, float, float]]:
    """(workload, metric, A, B) for every exact count that moved."""
    moved = []
    for name, workload_a in a["workloads"].items():
        layers_b = b["workloads"].get(name, {}).get("per_layer", {})
        for metric, row_a in workload_a["per_layer"].items():
            if metric.endswith(_TIMED_SUFFIXES) or metric in _TIMED_NAMES:
                continue
            row_b = layers_b.get(metric)
            if row_b is not None and row_b["median"] != row_a["median"]:
                moved.append((name, metric, row_a["median"],
                              row_b["median"]))
    return moved


def _cell(row: Optional[Dict]) -> str:
    if row is None:
        return "missing"
    return (f"{row['median']:.4g} [{row['q1']:.4g} .. {row['q3']:.4g}] "
            f"n={row['n']}")


def compare_files(path_a: str, path_b: str) -> int:
    """Print the table; 0 clean, 1 any ``regressed``, 2 refused."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    why_not = refusal(a, b)
    if why_not is not None:
        print(f"refused: {why_not}", file=sys.stderr)
        return 2
    bounds = {metric["name"]: metric["bound"]
              for metric in load_benchmark()["end_to_end"]}
    rows = compare(a, b, bounds)
    print(f"{'workload':<16}{'metric':<14}{'A':<38}{'B':<38}"
          f"{'B/A':<30}verdict")
    for name, metric, row_a, row_b, verdict in rows:
        ratio = ""
        if row_b is not None and row_a["median"]:
            ratio = (f"{row_b['median'] / row_a['median']:.3f}x of "
                     f"{row_a['median']:.4g} {row_a['unit']}")
        print(f"{name:<16}{metric:<14}{_cell(row_a):<38}"
              f"{_cell(row_b):<38}{ratio:<30}{verdict}")
    moved = count_differences(a, b)
    print(f"exact counts that differ: {len(moved)}")
    for name, metric, value_a, value_b in moved:
        print(f"  {name:<16}{metric:<40}{value_a:.6g} -> {value_b:.6g}")
    counts = {verdict: sum(1 for row in rows if row[4] == verdict)
              for verdict in (OK, UNRESOLVED, REGRESSED)}
    print(f"{counts[OK]} ok, {counts[UNRESOLVED]} unresolved, "
          f"{counts[REGRESSED]} regressed")
    return 1 if counts[REGRESSED] else 0
