"""One rep: the single run the benchmark contract defines.

A rep is one fresh process.  It samples set-up time by building the
workload's world several times through the public ``build_world``
(which doubles as the warm-up), then repeats the workload's timed
region -- a *pass*: one whole roll-out, or the 100 000 lookups -- until
the passes add up to ``--seconds``, and reports the fastest pass: the
timed region does the same work every time and a neighbour on the host
only ever slows a pass down, so the fastest pass is the steadiest reading
of the program's own speed.

With ``--trace 0`` it prints the end-to-end metrics.  With ``--trace 1``
it alternates traced passes with untraced ones (their baseline) and
prints the per-layer metrics; the two sets never share a pass, so the
end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import json
import os
import resource
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional

from perfbench import load_benchmark, trace
from perfbench.workloads import WORKLOADS, Outcome

#: Builds per rep; ``setup_s`` is their median.  The first build of a
#: process is about twice the later ones (imports, memo tables), so the
#: median reads the warm cost.
SETUP_SAMPLES = 7

DETAIL_PREFIX = "perfbench-detail "


class Refused(Exception):
    """The host cannot run this workload as specified."""


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    outcome: Outcome


def cpus_available() -> int:
    return len(os.sched_getaffinity(0))


def _cpu_seconds() -> float:
    """User + system CPU of this process and the children it reaped."""
    return sum(usage.ru_utime + usage.ru_stime
               for usage in (resource.getrusage(resource.RUSAGE_SELF),
                             resource.getrusage(resource.RUSAGE_CHILDREN)))


def _peak_rss_mib() -> float:
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def sample_setup(workload, samples: int) -> float:
    walls = []
    for _ in range(samples):
        gc.collect()
        start = perf_counter()
        world = workload.build_world()
        walls.append(perf_counter() - start)
        del world
    return statistics.median(walls)


def measure_pass(workload, seed: int, smoke: bool,
                 tracer: Optional[trace.Tracer] = None) -> Pass:
    """Prepare (untimed), run the timed region, evaluate (untimed).

    The tracer's wrappers are in place for the timed region only, so
    the world ``dns_hot`` builds while preparing is not traced.
    """
    timed = workload.prepare(seed, smoke)
    gc.collect()
    with contextlib.ExitStack() as stack:
        if tracer is not None:
            stack.enter_context(tracer)
            stack.enter_context(tracer.root())
        cpu_start = _cpu_seconds()
        start = perf_counter()
        raw = timed()
        wall_s = perf_counter() - start
        cpu_s = _cpu_seconds() - cpu_start
    return Pass(wall_s, cpu_s, workload.evaluate(raw, smoke))


def _problems(passes: List[Pass]) -> List[str]:
    problems = [problem for one in passes
                for problem in one.outcome.problems]
    digests = sorted({one.outcome.digest for one in passes})
    if len(digests) > 1:
        problems.append("result_digest differs between passes: "
                        + ", ".join(d[:12] for d in digests))
    return problems


def timed_rep(workload, seed: int, seconds: float, smoke: bool):
    setup_s = sample_setup(workload, 1 if smoke else SETUP_SAMPLES)
    passes = [measure_pass(workload, seed, smoke)]
    # Read after one pass: the high-water mark then does not depend on
    # how many passes fit into --seconds.
    peak_rss_mib = _peak_rss_mib()
    while sum(one.wall_s for one in passes) < seconds:
        passes.append(measure_pass(workload, seed, smoke))
    values = {
        "ops_per_s": max(one.outcome.ops / one.wall_s for one in passes),
        "op_cpu_us": min(one.cpu_s / one.outcome.ops * 1e6
                         for one in passes),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mib,
    }
    return values, passes


def traced_rep(workload, seed: int, seconds: float, smoke: bool):
    # Shards of a workers=1 run execute in this process, where the
    # wrappers can see them, so that is what a sharded workload traces.
    sharded = workload.workers is not None
    in_process = (dataclasses.replace(workload, workers=1) if sharded
                  else workload)
    tracer = trace.Tracer()
    traced: List[Pass] = []
    untraced: List[Pass] = []
    two_workers: List[Pass] = []
    # Traced and untraced passes alternate, so a slow spell of the host
    # falls on both sides of the overhead and speed-up ratios.
    while not traced or sum(
            one.wall_s
            for one in traced + untraced + two_workers) < seconds:
        traced.append(measure_pass(in_process, seed, smoke, tracer))
        untraced.append(measure_pass(in_process, seed, smoke))
        if sharded:
            two_workers.append(measure_pass(workload, seed, smoke))

    def fastest(passes: List[Pass]) -> float:
        return min(one.wall_s for one in passes)

    values = tracer.metrics(len(traced))
    values.update(traced[0].outcome.counts)
    values["parallel.engine.speedup_w2"] = (
        fastest(untraced) / fastest(two_workers) if sharded else 0.0)
    values["trace.overhead_share"] = (
        fastest(traced) / fastest(untraced) - 1.0)
    if tracer.missing:
        print("not in this checkout, left untraced: "
              + ", ".join(tracer.missing), file=sys.stderr)
    print(f"  traced wall {tracer.wall_ns / 1e9:.3f} s over "
          f"{len(traced)} passes")
    print(trace.format_table(values))
    return values, traced + untraced + two_workers


def run_rep(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool) -> Dict:
    """Run one rep, print its report, return the contract's result."""
    workload = WORKLOADS[name]
    if workload.workers is not None and cpus_available() < 2:
        raise Refused(
            f"{name} needs 2 CPUs, this process may use "
            f"{cpus_available()}: a shard curve recorded on one core "
            f"says nothing about scaling")
    benchmark = load_benchmark()
    section = benchmark["per_layer" if traced else "end_to_end"]
    values, passes = (traced_rep if traced else timed_rep)(
        workload, seed, seconds, smoke)
    disagree = set(values) ^ {metric["name"] for metric in section}
    if disagree:
        raise RuntimeError(
            "BENCHMARK.json and the rep disagree on metric names: "
            + ", ".join(sorted(disagree)))

    problems = _problems(passes)
    attempted = sum(one.outcome.ops for one in passes)
    failed = (attempted if problems
              else sum(one.outcome.failed for one in passes))
    metrics = {metric["name"]: {"value": values[metric["name"]],
                                "unit": metric["unit"]}
               for metric in section}
    if not traced:
        for metric_name, metric in metrics.items():
            print(f"  {metric_name:<14}{metric['value']:>14.4f} "
                  f"{metric['unit']}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(DETAIL_PREFIX + json.dumps({
        "workload": name, "seed": seed, "trace": int(traced),
        "smoke": smoke, "passes": len(passes),
        "pass_wall_s": [one.wall_s for one in passes],
        "result_digest": passes[0].outcome.digest,
        "problems": problems}))
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}
