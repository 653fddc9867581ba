"""``perfbench run``: every workload, rep by rep, into one report.

Each rep is a fresh subprocess (``python -m perfbench rep ...``), so no
rep inherits another's caches, heap or import state.  Reps are
scheduled round-robin across the workloads -- rep 1 of each, then rep 2
of each -- because this class of host shows 2x neighbour bursts lasting
about half a minute: back-to-back reps of one workload would all land
inside one burst, interleaved reps spread it over every workload and
the median drops it.

The timed reps come first; the traced reps that give the per-layer
numbers are a separate pass afterwards.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from typing import Dict, List

from perfbench import ROOT, SCHEMA, load_benchmark, trace
from perfbench.rep import DETAIL_PREFIX, cpus_available

REPS = 5
TRACED_REPS = 2
#: Smoke runs only prove the plumbing; their numbers mean nothing.
SMOKE_REPS = 2
SMOKE_TRACED_REPS = 1
REP_TIMEOUT_S = 600

INTERACTION_RULE = (
    "With one driver thread and nothing contending, a layer with share "
    "s can save at most s of a rep: a 5x roll-out needs codec + "
    "core.loadbalancer + simulation.session + dnssrv.recursive to fall "
    "together.  On rollout_sharded, per-shard set-up and merge sit on "
    "the critical path of the last shard, so freeing them can save "
    "more than their serial share.")


def host_fingerprint() -> Dict:
    import numpy

    return {
        "cpus": os.cpu_count(),
        "cpus_available": cpus_available(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarize(samples: List[float]) -> Dict:
    """Median with quartiles and n, as every metric is reported."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def run_one_rep(workload: str, seed: int, seconds: float, traced: bool,
                smoke: bool) -> Dict:
    """One rep in a subprocess -> {"result", "detail"} or {"error"}."""
    command = [sys.executable, "-m", "perfbench", "rep",
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(traced))]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"no result within {REP_TIMEOUT_S} s"}
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-1:] or ["no message"]
        return {"error": f"exit {done.returncode}: {tail[0]}"}
    lines = done.stdout.strip().splitlines()
    detail = next(line for line in reversed(lines)
                  if line.startswith(DETAIL_PREFIX))
    return {"result": json.loads(lines[-1]),
            "detail": json.loads(detail[len(DETAIL_PREFIX):])}


def _collect(reps: List[Dict], section: List[Dict]) -> Dict:
    """Per-metric summaries over the reps that produced a result."""
    results = [rep["result"] for rep in reps if "result" in rep]
    if not results:
        return {}
    return {
        metric["name"]: {
            "unit": metric["unit"], "better": metric["better"],
            **summarize([result["metrics"][metric["name"]]["value"]
                         for result in results])}
        for metric in section}


def _workload_report(why: str, timed: List[Dict], traced: List[Dict],
                     benchmark: Dict) -> Dict:
    problems: List[str] = []
    digests = set()
    for rep in timed + traced:
        if "error" in rep:
            problems.append(rep["error"])
        else:
            problems += rep["detail"]["problems"]
            digests.add(rep["detail"]["result_digest"])
    if len(digests) > 1:
        problems.append(
            "result_digest differs between reps: "
            + ", ".join(sorted(digest[:12] for digest in digests)))

    end_to_end = _collect(timed, benchmark["end_to_end"])
    # A rep that produced nothing, or whose checks failed, counts every
    # op as failed.
    shares = [rep["result"]["failed"] / rep["result"]["attempted"]
              if "result" in rep else 1.0 for rep in timed]
    end_to_end["failed_share"] = {
        "unit": "ratio", "better": "lower",
        **summarize([1.0] * len(shares) if problems else shares)}
    return {
        "why": why,
        "result_digest": (digests.pop() if len(digests) == 1 else None),
        "problems": problems,
        "end_to_end": end_to_end,
        "per_layer": _collect(traced, benchmark["per_layer"]),
    }


def _print_workload(name: str, report: Dict) -> None:
    print(f"\n== {name}: {report['why']}")
    for metric, row in report["end_to_end"].items():
        print(f"  {metric:<14}{row['median']:>14.4f} {row['unit']:<7}"
              f"[{row['q1']:.4f} .. {row['q3']:.4f}] n={row['n']}")
    print(f"  result_digest {report['result_digest']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def _print_layers(name: str, per_layer: Dict) -> None:
    if per_layer:
        print(f"\n-- {name}: per layer (medians of "
              f"{next(iter(per_layer.values()))['n']} traced reps)")
        print(trace.format_table(
            {metric: row["median"] for metric, row in per_layer.items()}))


def run_all(seed: int, out_path: str, smoke: bool) -> int:
    """Run the whole benchmark; 0 when every output check passed."""
    benchmark = load_benchmark()
    seconds = 0 if smoke else benchmark["run_seconds"]
    reps = SMOKE_REPS if smoke else REPS
    traced_reps = SMOKE_TRACED_REPS if smoke else TRACED_REPS
    whys = {entry["name"]: entry["why"]
            for entry in benchmark["workloads"]}

    timed: Dict[str, List[Dict]] = {name: [] for name in whys}
    traced: Dict[str, List[Dict]] = {name: [] for name in whys}
    for into, count, is_traced in ((timed, reps, False),
                                   (traced, traced_reps, True)):
        for rep in range(count):
            for name in whys:
                print(f"{'traced' if is_traced else 'timed'} rep "
                      f"{rep + 1}/{count}: {name}", file=sys.stderr)
                into[name].append(
                    run_one_rep(name, seed, seconds, is_traced, smoke))

    report = {
        "schema": SCHEMA, "smoke": smoke, "seed": seed,
        "run_seconds": seconds, "reps": reps, "traced_reps": traced_reps,
        "host": host_fingerprint(),
        "workloads": {
            name: _workload_report(why, timed[name], traced[name],
                                   benchmark)
            for name, why in whys.items()},
    }
    for name, workload in report["workloads"].items():
        _print_workload(name, workload)
    for name, workload in report["workloads"].items():
        _print_layers(name, workload["per_layer"])
    print("\n" + INTERACTION_RULE)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    failed = [name for name, workload in report["workloads"].items()
              if workload["problems"]]
    if failed:
        print("output checks failed on: " + ", ".join(failed),
              file=sys.stderr)
    return 1 if failed else 0
