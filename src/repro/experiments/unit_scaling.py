"""Extension experiment: the Section 5 unit-scaling axes, re-run.

Paper Section 5 names mapping-unit explosion as end-user mapping's
central scaling cost: finer units buy accuracy but inflate the unit
count (measurement + map size) and the authoritative query rate.
This experiment re-runs those axes over the pluggable
:mod:`repro.core.units` construction API, comparing three published-map
schemes on one seeded world:

* ``ldns``          -- NS-style units (one per resolver): few units,
  coarse accuracy;
* ``geo_as``        -- today's per-/24 geo+AS units: the accuracy
  ceiling, at one unit per client block;
* ``routing_aware`` -- k-medoids clustering of announced CIDRs over
  batched RTT columns, run at a unit count *matched to the ldns arm*
  (plus a half-count sweep point for the tradeoff curve).

Each arm drives the same roll-out timeline through the split control
plane and reports unit count, mapping accuracy (median mapping
distance and RTT), authoritative queries per session, and the share of
decisions answered from the map's unit table.  A final pair of runs
re-executes the routing-aware arm through the sharded engine with 1
and 4 workers and requires byte-identical merged state.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, Optional

from repro.api import ScenarioSpec
from repro.api import run as run_scenario
from repro.core.mapmaker import MapMakerConfig, TIERS
from repro.experiments.base import (
    ExperimentResult,
    ratio,
    sharded_digest,
)
from repro.experiments.scales import get_scale
from repro.simulation.rollout import RolloutConfig

EXPERIMENT_ID = "unit_scaling"
TITLE = "Unit count vs mapping accuracy vs query rate, per scheme"
PAPER_CLAIM = ("Section 5: finer mapping units buy accuracy at the "
               "cost of unit count and query-rate inflation; "
               "routing-aware clustering reaches near-geo_as accuracy "
               "at an NS-scale unit count")

SESSIONS = 100
SEED = 17

#: Accuracy bound: the routing-aware arm's median mapping distance
#: must stay within this factor of the geo_as (per-/24) ceiling while
#: using the ldns-scale unit budget.
ACCURACY_BOUND = 1.25

#: Unit-budget bound: the matched routing-aware arm must use at most
#: this fraction of the geo_as unit count (at tiny scale ldns units
#: are ~5x fewer than /24 blocks; the paper's gap is ~88x).
UNIT_BUDGET = 0.5


TIMELINE = RolloutConfig(
    start_date=datetime.date(2014, 3, 1),
    end_date=datetime.date(2014, 3, 14),
    rollout_start=datetime.date(2014, 3, 3),
    rollout_end=datetime.date(2014, 3, 6),
    sessions_per_day=SESSIONS,
    seed=SEED)


def _spec_for(scheme: Optional[str], scale: str) -> ScenarioSpec:
    return ScenarioSpec(
        world=get_scale(scale).world,
        rollout=TIMELINE,
        control_plane=MapMakerConfig(),
        unit_scheme=scheme,
        monitor=False)


def _run_arm(spec: ScenarioSpec) -> Dict[str, Any]:
    """One serial arm: unit gauges, accuracy, and query accounting.

    The accuracy metrics are measured over the *ECS cohort* (sessions
    through public resolvers after the roll-out completes): those are
    the queries the map's ``eu:`` unit table answers, so scheme
    granularity shows there -- the all-session medians are dominated
    by the NS-tier path every scheme shares.
    """
    outcome = run_scenario(spec)
    world, result = outcome.world, outcome.result
    snap = world.obs.registry.snapshot()
    counters = snap["counters"]
    sessions = sum(result.sessions_per_day.values())
    tier_counts = {tier: counters.get(f"mapping.tier.{tier}", 0.0)
                   for tier in TIERS}
    decisions = sum(tier_counts.values())
    unit_share = ratio(
        tier_counts["fresh_eu"] + tier_counts["stale_eu"], decisions)
    distances = result.rum.metric_values(
        "mapping_distance_miles", via_public=True,
        day_range=result.after_window)
    rtts = result.rum.metric_values(
        "rtt_ms", via_public=True, day_range=result.after_window)
    return {
        "units": int(snap["gauges"]["units.total"]),
        "dist_ecs_mean": (sum(distances) / len(distances)
                          if distances else 0.0),
        "rtt_ecs_mean": sum(rtts) / len(rtts) if rtts else 0.0,
        "dist_p50": snap["histograms"][
            "session.mapping_distance_miles"]["p50"],
        "queries_per_session": ratio(
            world.query_log.total_queries, sessions),
        "unit_tier_share": unit_share,
        "cohesion_miles": snap["gauges"].get(
            "units.cohesion_miles_mean", 0.0),
        "sessions": sessions,
    }


def run(scale: str) -> ExperimentResult:
    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE,
                              scale=scale, paper_claim=PAPER_CLAIM)

    arms: Dict[str, Dict[str, Any]] = {}
    for scheme in ("ldns", "geo_as"):
        arms[scheme] = _run_arm(_spec_for(scheme, scale))

    # Matched unit counts: the routing-aware arm gets exactly the ldns
    # arm's unit budget, plus a half-budget sweep point so the report
    # carries a (coarse) unit-count-vs-accuracy tradeoff curve.
    matched = max(1, arms["ldns"]["units"])
    routing_scheme = f"routing_aware:{matched}"
    arms[routing_scheme] = _run_arm(_spec_for(routing_scheme, scale))
    half_scheme = f"routing_aware:{max(1, matched // 2)}"
    arms[half_scheme] = _run_arm(_spec_for(half_scheme, scale))

    for scheme, metrics in arms.items():
        row = {"scheme": scheme}
        row.update({key: metrics[key] for key in (
            "units", "dist_ecs_mean", "rtt_ecs_mean",
            "queries_per_session", "unit_tier_share",
            "cohesion_miles")})
        result.rows.append(row)

    ldns = arms["ldns"]
    geo = arms["geo_as"]
    routing = arms[routing_scheme]

    # -- determinism: the routing-aware spec through the sharded engine --
    routing_spec = _spec_for(routing_scheme, scale)
    digests = {workers: sharded_digest(run_scenario(routing_spec,
                                                    workers=workers))
               for workers in (1, 4)}

    # -- checks -----------------------------------------------------------

    result.check(
        "unit_path_engaged",
        all(metrics["unit_tier_share"] > 0.0
            for metrics in arms.values()),
        f"share of decisions answered from the eu: unit table: "
        f"{ {s: round(m['unit_tier_share'], 3) for s, m in arms.items()} }")

    result.check(
        "fewer_units_than_geo_as",
        routing["units"] <= UNIT_BUDGET * geo["units"],
        f"routing-aware uses {routing['units']} units vs "
        f"{geo['units']} per-/24 geo+AS units "
        f"(bound {UNIT_BUDGET:.0%} of geo_as)")

    accuracy_ratio = ratio(routing["dist_ecs_mean"],
                           geo["dist_ecs_mean"])
    result.check(
        "geo_as_level_accuracy",
        0 < accuracy_ratio <= ACCURACY_BOUND,
        f"ECS-cohort mean mapping distance "
        f"{routing['dist_ecs_mean']:.0f} mi routing-aware vs "
        f"{geo['dist_ecs_mean']:.0f} mi geo_as "
        f"({accuracy_ratio:.2f}x, bound {ACCURACY_BOUND}x)")

    result.check(
        "beats_ldns_at_matched_count",
        routing["dist_ecs_mean"] < ldns["dist_ecs_mean"]
        and routing["rtt_ecs_mean"] < ldns["rtt_ecs_mean"],
        f"at {matched} units: routing-aware ECS-cohort mean "
        f"{routing['dist_ecs_mean']:.0f} mi / "
        f"{routing['rtt_ecs_mean']:.1f} ms vs ldns "
        f"{ldns['dist_ecs_mean']:.0f} mi / "
        f"{ldns['rtt_ecs_mean']:.1f} ms")

    # Query-rate axis: every scheme serves the same session stream
    # through the same resolver caches, so the authoritative rate may
    # only drift within noise -- the paper's inflation axis is driven
    # by ECS cache fragmentation, already pinned by the fig17 suite.
    query_spread = ratio(
        max(m["queries_per_session"] for m in arms.values()),
        min(m["queries_per_session"] for m in arms.values()))
    result.check(
        "query_rate_recorded",
        all(m["queries_per_session"] > 0 for m in arms.values()),
        f"authoritative queries per session by scheme: "
        f"{ {s: round(m['queries_per_session'], 2) for s, m in arms.items()} }"
        f" (max/min spread {query_spread:.2f}x)")

    result.check(
        "shard_deterministic",
        digests[1] == digests[4],
        f"merged-state sha256 workers=1 {digests[1][:16]}... vs "
        f"workers=4 {digests[4][:16]}...")

    result.summary = {
        "sessions_per_day": SESSIONS,
        "seed": SEED,
        "matched_units": matched,
        "geo_as_units": geo["units"],
        "unit_reduction": ratio(geo["units"], routing["units"]),
        "accuracy_ratio": accuracy_ratio,
        "query_spread": query_spread,
        "digest": digests[1][:16],
    }
    return result
