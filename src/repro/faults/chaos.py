"""Seeded chaos: random fault schedules and the soak runner.

``python -m repro soak --seed S --count N`` generates N random
scenarios from one SplitMix64 seed -- faults drawn from the whole
fault table, and for about half of them a surge-traffic schedule with
load feedback on a capacity-starved world -- runs each end to end on
a small control-plane world, and asserts the *global invariants* no
scenario may violate no matter what broke:

* **determinism** -- the same seed replays byte-identically (scenario 0
  is run twice and its report digests compared);
* **availability floor** -- sessions keep completing through every
  degradation ladder the faults exercise;
* **exact recovery** -- after the run every fault has been reverted:
  each kind's audit finds nothing it breaks still broken, and no
  fault trace-context leaks;
* **current rankings** -- every ranking the global load balancer keeps
  equals a fresh scoring of its target (:func:`stale_rankings`; on the
  soak's control-plane worlds answers read the published map, so the
  memo is empty there and ``tests/test_lb_memo.py`` drives the rule);
* **no unhandled exceptions** -- faults degrade, they never crash the
  simulator;
* **conservation** -- sessions and authoritative queries add up
  (completed + failed == scheduled; query-log buckets == its total).

Scenario generation is pure SplitMix64 arithmetic -- no ``random``
module, no global state -- so scenario *i* under seed *S* is one
deterministic function of ``(S, i)``.  That makes checkpoint/resume
trivial: a soak interrupted after k scenarios resumes at k+1 and
produces the byte-identical report the uninterrupted run would have.

The same purity makes the campaign embarrassingly parallel:
``--workers N`` fans pending scenarios across a process pool while the
parent appends finished rows *in index order* (checkpointing each
extension), so the report and every intermediate checkpoint stay
byte-identical to the serial run's.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

from repro.cliutil import output, positive_int
from repro.codec import encode
from repro.faults.kinds import KINDS
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.net.latency import _mix64

SCHEMA = "soak/v1"

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Tiny deterministic RNG (SplitMix64), private to the chaos plane.

    The same finalizer the latency model and the network's loss stream
    use, so the whole simulator shares one PRNG idiom; a separate
    instance per scenario keeps scenario *i* independent of how many
    draws scenario *i-1* made.
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def randrange(self, n: int) -> int:
        """Uniform-ish int in [0, n) (modulo bias is irrelevant at
        fault-menu sizes)."""
        if n <= 0:
            raise ValueError(f"randrange needs n >= 1, got {n}")
        return self.next_u64() % n

    def choice(self, seq):
        return seq[self.randrange(len(seq))]


def scenario_seed(seed: int, index: int) -> int:
    """The per-scenario sub-seed: a pure function of (seed, index)."""
    return SplitMix64((seed * 0x5851F42D4C957F2D + index) & _MASK64
                      ).next_u64()


# -- schedule generation ----------------------------------------------------

def generate_schedule(rng: SplitMix64, n_days: int,
                      max_events: int = 4) -> FaultSchedule:
    """One random, grammar-valid, non-overlapping fault schedule.

    The menu is the fault table: each draw picks a ``KINDS`` row, then
    one of its ``soak_targets``, then one value per ``soak_params``
    menu.  Events start on day 1 at the earliest (day 0 boots clean)
    and end at least one day before the timeline does, so every
    scenario gets at least one fully-recovered day -- the window the
    exact-recovery invariant (and any resolve-side alert assertion)
    observes.
    """
    menu = tuple(KINDS.values())
    n_events = 1 + rng.randrange(max_events)
    events: List[FaultEvent] = []
    used: set = set()
    for _ in range(n_events):
        for _attempt in range(8):
            row = rng.choice(menu)
            target = rng.choice(row.soak_targets)
            start = 1 + rng.randrange(max(1, n_days - 4))
            duration = 2 + rng.randrange(4)
            duration = min(duration, n_days - 1 - start)
            if duration < 1:
                continue
            end = start + duration
            if any(k == row.name and t == target and s < end and start < e
                   for k, t, s, e in used):
                continue  # same-target overlap: redraw
            used.add((row.name, target, start, end))
            events.append(FaultEvent(
                start_day=start, duration_days=duration, target=target,
                kind=row.name,
                params=tuple((name, rng.choice(values))
                             for name, values in row.soak_params)))
            break
    return FaultSchedule(tuple(events)).validate()


# -- the soak configuration and scenario shape ------------------------------

@dataclass(frozen=True)
class SoakConfig:
    """Budget and invariant knobs for one soak campaign.

    ``count`` is deliberately *not* part of the resume identity: a
    checkpointed soak can be extended (``--count 50 --resume``) and
    yields exactly the rows the longer run would have produced.
    """

    seed: int = 2025
    count: int = 25
    sessions_per_day: int = 20
    availability_floor: float = 0.95
    max_events: int = 4

    def identity(self) -> Dict:
        """The fields a resumed run must match exactly."""
        return {
            "seed": self.seed,
            "sessions_per_day": self.sessions_per_day,
            "availability_floor": self.availability_floor,
            "max_events": self.max_events,
        }


def _scenario_spec(config: SoakConfig, index: int):
    """The ScenarioSpec for soak scenario ``index`` (pure function)."""
    # Imported here so ``repro.faults`` has no hard import edge into
    # the simulation layer (schedules/injector stay world-agnostic).
    from repro.api import ScenarioSpec
    from repro.core.loadfeedback import LoadFeedbackConfig
    from repro.core.mapmaker import MapMakerConfig
    from repro.simulation.rollout import RolloutConfig
    from repro.simulation.world import WorldConfig
    from repro.topology.traffic import generate_surges

    sub_seed = scenario_seed(config.seed, index)
    rollout = RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 21),
        rollout_start=datetime.date(2014, 3, 6),
        rollout_end=datetime.date(2014, 3, 12),
        sessions_per_day=config.sessions_per_day,
        seed=sub_seed & 0x7FFFFFFF,
    )
    schedule = generate_schedule(SplitMix64(sub_seed), rollout.n_days,
                                 max_events=config.max_events)
    spec = ScenarioSpec(
        world=replace(WorldConfig.tiny(), serve_stale_window=900.0),
        rollout=rollout, faults=schedule, control_plane=MapMakerConfig())
    # Its own derived stream decides whether the scenario is surged
    # (so the fault draws above never depend on it): a generated
    # traffic schedule -- flash crowds, regional events, diurnal
    # waves, content surges -- plus the load-feedback loop over
    # servers small enough that surges actually move utilization.
    surge_rng = SplitMix64(sub_seed ^ 0x5355524745)  # "SURGE"
    if surge_rng.randrange(2):
        spec = replace(
            spec, world=replace(spec.world, server_capacity_rps=0.2),
            traffic=generate_surges(surge_rng, rollout.n_days),
            load_feedback=LoadFeedbackConfig())
    return spec


# -- invariants -------------------------------------------------------------

def world_restored(world) -> List[str]:
    """Violation strings for any fault not exactly reverted: each
    kind's own audit (its ``KINDS`` row), then the trace context."""
    problems = [problem for row in KINDS.values()
                for problem in row.leftovers(world)]
    if "faults" in world.obs.tracer.context:
        problems.append("tracer still carries fault context")
    return problems


def stale_rankings(world) -> List[str]:
    """Violation strings for every ranking the global load balancer
    keeps that a fresh scoring of its target would not reproduce: its
    memo outlived a score input (a load-tracker day, a measurement
    flush).  Cluster outages must not show up here either -- dead
    clusters stay in a memoised ranking and are skipped at pick time."""
    return [f"stale memoised ranking for target ({target.geo.lat:.4f}, "
            f"{target.geo.lon:.4f}) AS{target.asn}"
            for target in world.mapping.global_lb.stale_rankings()]


def _conservation(outcome) -> List[str]:
    """Session and query book-keeping identities."""
    problems: List[str] = []
    result = outcome.result
    scheduled = sum(result.sessions_per_day.values())
    completed = len(result.rum.beacons)
    failed = sum(result.failed_sessions_per_day.values())
    if completed + failed != scheduled:
        problems.append(
            f"session conservation: {completed} completed + {failed} "
            f"failed != {scheduled} scheduled")
    degraded = sum(result.degraded_sessions_per_day.values())
    if degraded > completed:
        problems.append(
            f"{degraded} degraded sessions exceed {completed} completed")
    log = outcome.world.query_log
    bucket_sum = sum(log.bucket_count(b) for b in log.buckets())
    if bucket_sum != log.total_queries:
        problems.append(
            f"query conservation: bucket sum {bucket_sum} != total "
            f"{log.total_queries}")
    if log.ecs_queries > log.total_queries:
        problems.append(
            f"{log.ecs_queries} ECS queries exceed total "
            f"{log.total_queries}")
    return problems


def _availability(outcome) -> float:
    failed = sum(outcome.result.failed_sessions_per_day.values())
    completed = len(outcome.result.rum.beacons)
    total = completed + failed
    return completed / total if total else 1.0


def _report_digest(outcome) -> str:
    """SHA-256 of the canonical monitor report (the determinism pin)."""
    blob = json.dumps(outcome.report(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- running one scenario ---------------------------------------------------

def run_scenario(config: SoakConfig, index: int) -> Dict:
    """Run soak scenario ``index`` and return its (JSON-safe) row."""
    from repro.api import run as run_api
    from repro.obs.monitor.driver import CONTROL_PLANE_TIERS

    spec = _scenario_spec(config, index)
    row: Dict = {
        "index": index,
        "seed": scenario_seed(config.seed, index),
        "schedule": encode(spec.faults),
        "violations": [],
    }
    if spec.traffic:  # surged scenarios only
        row["traffic"] = encode(spec.traffic)
    try:
        outcome = run_api(spec)
    except Exception as exc:  # invariant: faults never crash the sim
        row["violations"].append(
            f"unhandled exception: {type(exc).__name__}: {exc}")
        return row

    availability = _availability(outcome)
    row["availability"] = round(availability, 6)
    if availability < config.availability_floor:
        row["violations"].append(
            f"availability {availability:.4f} below floor "
            f"{config.availability_floor}")
    row["violations"].extend(world_restored(outcome.world))
    row["violations"].extend(stale_rankings(outcome.world))
    row["violations"].extend(_conservation(outcome))

    monitor = outcome.monitor
    age = monitor.store.get("mapmaker.map_age_days")
    row["max_map_age"] = max(age.values) if age is not None else 0.0
    fired: Dict[str, int] = {}
    for alert in monitor.engine.log:
        if alert.kind == "fired":
            fired[alert.rule] = fired.get(alert.rule, 0) + 1
    row["alerts_fired"] = {rule: fired[rule] for rule in sorted(fired)}
    tiers: Dict[str, float] = {}
    counters = outcome.world.obs.registry.snapshot()["counters"]
    for tier in CONTROL_PLANE_TIERS:
        value = counters.get(f"mapping.tier.{tier}", 0.0)
        if value:
            tiers[tier] = value
    row["tier_decisions"] = tiers
    row["map_versions_published"] = (
        outcome.world.control_plane.maps_published)
    row["maps_rejected"] = outcome.world.control_plane.maps_rejected
    row["failovers"] = outcome.world.control_plane.failovers
    row["digest"] = _report_digest(outcome)
    return row


# -- the soak campaign with checkpoint/resume -------------------------------

def _run_pending(config: SoakConfig, indices: List[int],
                 workers: Optional[int], progress):
    """Yield rows for ``indices``, in index order, serial or pooled.

    The pool path submits every pending scenario up front and gathers
    futures in submission (= index) order: completion order never
    surfaces, so parallel rows land exactly where serial rows would --
    and the caller checkpoints each yielded row just like the serial
    loop does.
    """
    if workers is None or workers <= 1 or len(indices) <= 1:
        for index in indices:
            if progress is not None:
                progress(index, config.count)
            yield run_scenario(config, index)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
            max_workers=min(workers, len(indices))) as pool:
        # run_scenario is a pure function of its arguments, so a row
        # computed in a pool process is byte-identical to one inline.
        futures = [pool.submit(run_scenario, config, index)
                   for index in indices]
        for index, future in zip(indices, futures):
            if progress is not None:
                progress(index, config.count)
            yield future.result()


def _load_checkpoint(path: str, config: SoakConfig) -> List[Dict]:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"checkpoint {path!r} has schema "
                         f"{doc.get('schema')!r}, expected {SCHEMA!r}")
    if doc.get("config") != config.identity():
        raise ValueError(
            f"checkpoint {path!r} was written by a different soak "
            f"config: {doc.get('config')} vs {config.identity()}")
    return list(doc.get("rows", []))


def _write_checkpoint(path: str, config: SoakConfig,
                      rows: List[Dict]) -> None:
    doc = {"schema": SCHEMA, "config": config.identity(), "rows": rows}
    tmp = f"{path}.tmp"
    with open(tmp, "w") as handle:
        json.dump(doc, handle, sort_keys=True, indent=2)
        handle.write("\n")
    os.replace(tmp, path)


def run_soak(config: SoakConfig,
             checkpoint: Optional[str] = None,
             resume: bool = False,
             stop_after: Optional[int] = None,
             progress=None,
             workers: Optional[int] = None) -> Dict:
    """Run (or resume) a soak campaign and return its report document.

    ``stop_after`` limits how many *new* scenarios this invocation
    runs (interruption, for the checkpoint tests); the report of a
    stopped run carries ``"partial": true``.  ``workers=N`` fans
    scenarios across N processes; rows append (and checkpoints write)
    in index order regardless, so report and checkpoint bytes match
    the serial run's exactly.
    """
    rows: List[Dict] = []
    if resume:
        if not checkpoint:
            raise ValueError("--resume needs --checkpoint")
        rows = _load_checkpoint(checkpoint, config)
        rows = rows[: config.count]

    pending = list(range(len(rows), config.count))
    if stop_after is not None:
        pending = pending[:stop_after]
    for row in _run_pending(config, pending, workers, progress):
        rows.append(row)
        if checkpoint:
            _write_checkpoint(checkpoint, config, rows)

    partial = len(rows) < config.count

    # Determinism probe: scenario 0 replayed must digest identically.
    determinism_ok = True
    if rows and not partial:
        replay = run_scenario(config, 0)
        determinism_ok = replay == rows[0]
        if not determinism_ok:
            rows[0].setdefault("violations", []).append(
                "nondeterministic replay: scenario 0 differs on re-run")

    violations = sum(len(row.get("violations", ())) for row in rows)
    availabilities = [row["availability"] for row in rows
                      if "availability" in row]
    report = {
        "schema": SCHEMA,
        "config": {**config.identity(), "count": config.count},
        "rows": rows,
        "summary": {
            "scenarios": len(rows),
            "events": sum(len(row["schedule"]) for row in rows),
            "violations": violations,
            "worst_availability": (round(min(availabilities), 6)
                                   if availabilities else 1.0),
            "max_map_age": max((row.get("max_map_age", 0.0)
                                for row in rows), default=0.0),
            "deterministic": determinism_ok,
        },
        "passed": violations == 0 and determinism_ok and not partial,
    }
    if partial:
        report["partial"] = True
    return report


# -- CLI --------------------------------------------------------------------

def render_report(report: Dict) -> str:
    lines = [f"soak: {report['summary']['scenarios']} scenarios "
             f"(seed {report['config']['seed']})"]
    for row in report["rows"]:
        events = ", ".join(
            f"{e['kind']}@{e['target']}" for e in row["schedule"])
        status = ("OK" if not row.get("violations")
                  else "; ".join(row["violations"]))
        lines.append(
            f"  [{row['index']:>3}] avail={row.get('availability', 0):.4f}"
            f" map_age<= {row.get('max_map_age', 0):g}"
            f" | {events or 'no faults'} | {status}")
    summary = report["summary"]
    lines.append(
        f"violations={summary['violations']} "
        f"worst_availability={summary['worst_availability']:.4f} "
        f"deterministic={summary['deterministic']} "
        f"passed={report['passed']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro soak", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=2025)
    parser.add_argument("--count", type=positive_int, default=25,
                        help="scenarios to run (default 25)")
    parser.add_argument("--sessions", type=positive_int, default=20,
                        help="sessions per simulated day")
    parser.add_argument("--availability-floor", type=float, default=0.95)
    parser.add_argument("--max-events", type=positive_int, default=4)
    parser.add_argument("--checkpoint", default=None,
                        help="write progress here after every scenario")
    parser.add_argument("--resume", action="store_true",
                        help="continue from --checkpoint instead of "
                             "starting over")
    parser.add_argument("--stop-after", type=positive_int, default=None,
                        help="run at most this many new scenarios "
                             "(for interruption testing)")
    parser.add_argument("--workers", type=positive_int, default=None,
                        help="fan scenarios across N processes "
                             "(report/checkpoint bytes unchanged)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write to this path instead of stdout")
    args = parser.parse_args(argv)

    config = SoakConfig(
        seed=args.seed, count=args.count,
        sessions_per_day=args.sessions,
        availability_floor=args.availability_floor,
        max_events=args.max_events)

    def progress(index: int, count: int) -> None:
        print(f"soak scenario {index + 1}/{count}...", file=sys.stderr)

    report = run_soak(config, checkpoint=args.checkpoint,
                      resume=args.resume, stop_after=args.stop_after,
                      progress=progress, workers=args.workers)
    if args.format == "json":
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    else:
        text = render_report(report) + "\n"
    with output(args.out) as stream:
        stream.write(text)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
