"""Extension experiment: distance-only vs load-aware mapping.

The paper's map maker optimizes for proximity, but Section 3 is
explicit that the real system folds *load* into the placement
decision: "the mapping system needs to be aware of the load on each
server cluster" so a flash crowd cannot melt the nearest deployment.
This experiment replays one flash crowd (a step surge on North
American demand) twice over the same seeded world -- once with pure
distance scoring, once with the load-feedback loop on -- and measures
the trade the feedback buys:

* **overload relief** -- fewer sessions land on a cluster whose every
  candidate is already past its capacity ceiling
  (``lb.overloaded_picks``), and the peak p95 cluster utilization
  over the surge window flattens.
* **distance cost** -- the median mapping distance may grow (load
  spreads to farther clusters), but must stay within a configured
  bound of the distance-only arm.

A third pair of runs re-executes the load-aware arm through the
sharded engine with 1 and 4 workers and requires byte-identical
merged metrics, pinning the feedback loop into the determinism
contract.
"""

from __future__ import annotations

import datetime
from dataclasses import replace
from typing import Any, Dict

from repro.api import ScenarioSpec
from repro.api import run as run_scenario
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.experiments.base import (
    ExperimentResult,
    ratio,
    sharded_digest,
)
from repro.experiments.scales import get_scale
from repro.simulation.rollout import RolloutConfig, _run_rollout
from repro.simulation.world import _build_world
from repro.topology.traffic import TrafficSchedule, TrafficShape

EXPERIMENT_ID = "load_tradeoff"
TITLE = "Flash crowd: distance-only vs load-aware mapping"
PAPER_CLAIM = ("Section 3: the map maker balances proximity against "
               "cluster load -- under a flash crowd a load-aware map "
               "sheds the hottest clusters at a bounded cost in "
               "mapping distance")

#: Step surge on one continent: NA demand x5 for days [6, 12).
SURGE_START = 6
SURGE_DAYS = 6
SURGE_MAGNITUDE = 5.0
SURGE_TARGET = "continent:NA"

SESSIONS = 60
SEED = 17
TIMELINE = RolloutConfig(
    start_date=datetime.date(2014, 3, 1),
    end_date=datetime.date(2014, 3, 14),
    rollout_start=datetime.date(2014, 3, 3),
    rollout_end=datetime.date(2014, 3, 6),
    sessions_per_day=SESSIONS,
    seed=SEED)

#: Per-server ceiling sized so the surge overloads the nearby clusters
#: at ``SESSIONS`` sessions/day.
CAPACITY_RPS = 0.3

#: The load-aware arm: proportional penalty plus a demotion ladder.
FEEDBACK = LoadFeedbackConfig(load_penalty_ms=50.0,
                              overload_threshold=0.7,
                              demotion_penalty_ms=2000.0)

#: Acceptance bound on median mapping-distance inflation.  The surge
#: deliberately saturates nearby capacity, so the load-aware arm is
#: expected to ship a real distance cost -- just a bounded one.
DISTANCE_BOUND = 2.25

DISTANCE_ONLY = "distance_only"
LOAD_AWARE = "load_aware"


class _UtilizationProbe:
    """Per-day p95 cluster utilization of one world's deployments, read
    at end of day (after the day's sessions accumulate, before the
    overnight decay)."""

    def __init__(self, deployments) -> None:
        self.deployments = deployments
        self.daily: Dict[int, float] = {}

    def on_day(self, record) -> None:
        utils = sorted(cluster.utilization
                       for cluster in self.deployments.live_clusters())
        if not utils:
            return
        rank = min(len(utils) - 1, int(round(0.95 * (len(utils) - 1))))
        self.daily[record.day] = utils[rank]

    def peak(self, start: int, end: int) -> float:
        window = [value for day, value in self.daily.items()
                  if start <= day < end]
        return max(window) if window else 0.0


def _surge() -> TrafficSchedule:
    return TrafficSchedule((TrafficShape(
        start_day=SURGE_START, duration_days=SURGE_DAYS,
        target=SURGE_TARGET, kind="flash_crowd",
        magnitude=SURGE_MAGNITUDE),))


def _spec_for(arm: str, scale: str) -> ScenarioSpec:
    world = replace(get_scale(scale).world,
                    server_capacity_rps=CAPACITY_RPS)
    return ScenarioSpec(
        world=world,
        rollout=TIMELINE,
        control_plane=MapMakerConfig(),
        monitor=False,
        traffic=_surge(),
        load_feedback=FEEDBACK if arm == LOAD_AWARE else None)


def _run_arm(spec: ScenarioSpec) -> Dict[str, Any]:
    """One serial arm with the utilization probe attached.

    Goes through the private world/rollout helpers rather than
    :func:`repro.api.run` because the probe needs the observer slot
    (which ``run`` reserves for the monitor); observation never
    perturbs the run, so both arms replay their spec exactly.
    """
    world = _build_world(spec)
    probe = _UtilizationProbe(world.deployments)
    result = _run_rollout(world, config=spec.rollout, observer=probe,
                          traffic=spec.traffic if spec.traffic else None)
    snap = world.obs.registry.snapshot()
    sessions = sum(result.sessions_per_day.values())
    surge_end = SURGE_START + SURGE_DAYS
    distances = snap["histograms"]["session.mapping_distance_miles"]
    return {
        "sessions": sessions,
        "overloaded_picks": int(snap["counters"].get(
            "lb.overloaded_picks", 0)),
        "spillovers": int(snap["gauges"].get("lb.spillovers", 0)),
        "dist_p50": distances["p50"],
        "peak_util_p95": probe.peak(SURGE_START, surge_end),
        "demoted_share": snap["gauges"].get(
            "mapping.load_demoted_share", 0.0),
    }


def run(scale: str) -> ExperimentResult:
    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE,
                              scale=scale, paper_claim=PAPER_CLAIM)

    arms: Dict[str, Dict[str, Any]] = {}
    for arm in (DISTANCE_ONLY, LOAD_AWARE):
        metrics = _run_arm(_spec_for(arm, scale))
        metrics["arm"] = arm
        metrics["overload_share"] = ratio(metrics["overloaded_picks"],
                                          metrics["sessions"])
        arms[arm] = metrics
        result.rows.append({key: metrics[key] for key in (
            "arm", "sessions", "overloaded_picks", "overload_share",
            "spillovers", "dist_p50", "peak_util_p95",
            "demoted_share")})

    base, aware = arms[DISTANCE_ONLY], arms[LOAD_AWARE]

    # -- determinism: the load-aware spec through the sharded engine --
    aware_spec = _spec_for(LOAD_AWARE, scale)
    digests = {workers: sharded_digest(run_scenario(aware_spec,
                                                    workers=workers))
               for workers in (1, 4)}

    # -- checks -----------------------------------------------------------

    result.check(
        "overload_relief",
        aware["overloaded_picks"] < base["overloaded_picks"],
        f"sessions with every candidate over the ceiling: "
        f"{base['overloaded_picks']} distance-only -> "
        f"{aware['overloaded_picks']} load-aware")

    result.check(
        "peak_load_flattened",
        aware["peak_util_p95"] < base["peak_util_p95"],
        f"surge-window peak p95 cluster utilization "
        f"{base['peak_util_p95']:.2f} -> {aware['peak_util_p95']:.2f}")

    dist_ratio = ratio(aware["dist_p50"], base["dist_p50"])
    result.check(
        "distance_bounded",
        0 < dist_ratio <= DISTANCE_BOUND,
        f"median mapping distance {base['dist_p50']:.0f} -> "
        f"{aware['dist_p50']:.0f} miles ({dist_ratio:.2f}x, "
        f"bound {DISTANCE_BOUND}x)")

    result.check(
        "feedback_engaged",
        aware["demoted_share"] > 0.0,
        f"load-aware arm demoted {aware['demoted_share']:.2f} of "
        f"clusters at peak (distance-only arm tracks no load)")

    result.check(
        "shard_deterministic",
        digests[1] == digests[4],
        f"merged-state sha256 workers=1 {digests[1][:16]}... vs "
        f"workers=4 {digests[4][:16]}...")

    result.summary = {
        "sessions_per_day": SESSIONS,
        "seed": SEED,
        "server_capacity_rps": CAPACITY_RPS,
        "overload_ratio": ratio(aware["overloaded_picks"],
                                base["overloaded_picks"]),
        "peak_util_ratio": ratio(aware["peak_util_p95"],
                                 base["peak_util_p95"]),
        "distance_ratio": dist_ratio,
        "digest": digests[1][:16],
    }
    return result
