"""Extension experiment: the resolver-plane policy matrix.

Section 3 of the paper treats the public-resolver fleet as a fixed
anycast surface; this experiment runs every world's live PoP fleets
(:class:`repro.topology.resolvers.ResolverFleets`) across an ECS
policy matrix and one PoP-outage scenario, on one seeded world:

* ``whitelist_on``  -- every provider ECS-whitelisted at the full /32
  scope ceiling (the default policy, spelled out: the reference);
* ``whitelist_off`` -- every provider revoked from the ECS whitelist
  (queries lose the client-subnet option; mapping falls back to LDNS
  location);
* ``scope_20``      -- whitelisted but scope-narrowing capped at /20
  (coarser answer scopes share LDNS cache entries);
* ``outage``        -- default policy plus a scheduled ``pop_outage``
  of the busiest PoP: its clients silently re-home to the surviving
  catchment (cold caches, longer detours) and recover exactly.

Each arm reports the ECS-cohort mean mapping distance, the LDNS
cache-hit rate, the ECS share of authoritative queries, and -- for the
outage arm -- catchment shifts, cold-cache misses, alert lifecycle,
and the availability floor.  A static detour audit measures how much
farther the withdrawn PoP's clients travel to their failover PoP, and
a final pair of runs re-executes the outage arm through the sharded
engine with 1 and 4 workers, requiring byte-identical merged state.
"""

from __future__ import annotations

import datetime
from typing import Any, Dict, List, Optional, Tuple

from repro.api import ScenarioSpec
from repro.api import run as run_scenario
from repro.experiments.base import (
    ExperimentResult,
    ratio,
    sharded_digest,
)
from repro.experiments.scales import get_scale
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults.chaos import world_restored
from repro.net.geometry import great_circle_miles
from repro.simulation.rollout import RolloutConfig
from repro.topology.resolvers import (
    EcsPolicy,
    ResolverFleets,
    ResolverPolicySet,
)

EXPERIMENT_ID = "resolver_matrix"
TITLE = "ECS policy matrix and PoP-outage catchment shifts"
PAPER_CLAIM = ("Section 3: mapping accuracy for public-resolver users "
               "hinges on the resolver plane -- ECS adoption and scope "
               "-- and anycast catchments move when PoPs withdraw")

SESSIONS = 300
SEED = 23

#: The availability floor the outage arm must hold: a PoP withdrawal
#: degrades (re-homes) sessions, it never fails them wholesale.
AVAILABILITY_FLOOR = 0.95

#: Outage window (simulation days): long enough to accumulate shifted
#: sessions, ending early enough that the run observes full recovery.
OUTAGE_START, OUTAGE_DAYS = 4, 4


TIMELINE = RolloutConfig(
    start_date=datetime.date(2014, 3, 1),
    end_date=datetime.date(2014, 3, 14),
    rollout_start=datetime.date(2014, 3, 2),
    rollout_end=datetime.date(2014, 3, 4),
    sessions_per_day=SESSIONS,
    seed=SEED)


def _policy_set(world_config, whitelist: bool,
                ceiling: int) -> ResolverPolicySet:
    """One uniform policy across every provider in the world."""
    return ResolverPolicySet(policies=tuple(
        (provider.name,
         EcsPolicy(whitelist_enabled=whitelist, scope_ceiling=ceiling))
        for provider in world_config.internet.providers))


def _busiest_pop(world) -> Tuple[str, str, str]:
    """(resolver_id, provider, city-slug) of the public PoP homing the
    most client blocks -- the outage target with a guaranteed
    catchment, chosen deterministically from the built world."""
    homed: Dict[str, int] = {}
    for block in world.internet.blocks:
        for resolver_id, _weight in block.ldns:
            if resolver_id.startswith("pub-"):
                homed[resolver_id] = homed.get(resolver_id, 0) + 1
    resolver_id = max(sorted(homed), key=lambda rid: homed[rid])
    _, provider, city = resolver_id.split("-", 2)
    return resolver_id, provider, city


def _detour_audit(world, resolver_id: str) -> Dict[str, float]:
    """Static catchment-shift geometry: for every block homed to the
    withdrawn PoP, distance to it vs to the failover PoP the live
    fleet routes to.  Pure arithmetic over the built world -- no RNG,
    so the audit is exactly reproducible."""
    fleets = ResolverFleets.from_providers(world.internet.providers)
    fleets.withdraw(resolver_id)
    home_geo = fleets.pops[resolver_id].resolver.geo
    home_miles: List[float] = []
    detour_miles: List[float] = []
    rehomed = 0
    for block in world.internet.blocks:
        if not any(rid == resolver_id for rid, _w in block.ldns):
            continue
        target = fleets.route(resolver_id, block)
        if target is None or target == resolver_id:
            continue
        rehomed += 1
        home_miles.append(great_circle_miles(block.geo, home_geo))
        detour_miles.append(great_circle_miles(
            block.geo, fleets.pops[target].resolver.geo))
    return {
        "rehomed_blocks": float(rehomed),
        "home_miles_mean": (sum(home_miles) / len(home_miles)
                            if home_miles else 0.0),
        "detour_miles_mean": (sum(detour_miles) / len(detour_miles)
                              if detour_miles else 0.0),
    }


def _run_arm(spec: ScenarioSpec) -> Dict[str, Any]:
    outcome = run_scenario(spec)
    result = outcome.result
    snap = outcome.world.obs.registry.snapshot()
    gauges = snap["gauges"]
    counters = snap["counters"]
    sessions = sum(result.sessions_per_day.values())
    failed = sum(result.failed_sessions_per_day.values())
    distances = result.rum.metric_values(
        "mapping_distance_miles", via_public=True,
        day_range=result.after_window)
    log = outcome.world.query_log
    fired: Dict[str, int] = {}
    if outcome.monitor is not None:
        for alert in outcome.monitor.engine.log:
            if alert.kind == "fired":
                fired[alert.rule] = fired.get(alert.rule, 0) + 1
    return {
        "outcome": outcome,
        "dist_ecs_mean": (sum(distances) / len(distances)
                          if distances else 0.0),
        "cache_hit_rate": ratio(gauges.get("ldns.cache.hits", 0.0),
                                gauges.get("ldns.cache.lookups", 0.0)),
        "ecs_share": ratio(log.ecs_queries, log.total_queries),
        "shifted": sum(result.catchment_shifted_per_day.values()),
        "pop_failovers": counters.get("resolver.pop_failovers", 0.0),
        "cold_misses": counters.get("resolver.cold_cache_misses", 0.0),
        "availability": ratio(sessions - failed, sessions),
        "alerts_fired": fired,
        "sessions": sessions,
    }


def run(scale: str) -> ExperimentResult:
    result = ExperimentResult(experiment_id=EXPERIMENT_ID, title=TITLE,
                              scale=scale, paper_claim=PAPER_CLAIM)
    world_config = get_scale(scale).world

    def spec_for(policies: ResolverPolicySet,
                 faults: Optional[FaultSchedule] = None,
                 monitor: bool = False) -> ScenarioSpec:
        return ScenarioSpec(
            world=world_config,
            rollout=TIMELINE,
            resolver_policies=policies,
            faults=faults or FaultSchedule(),
            monitor=monitor)

    arms: Dict[str, Dict[str, Any]] = {}
    arms["whitelist_on"] = _run_arm(spec_for(
        _policy_set(world_config, whitelist=True, ceiling=32)))
    arms["whitelist_off"] = _run_arm(spec_for(
        _policy_set(world_config, whitelist=False, ceiling=32)))
    arms["scope_20"] = _run_arm(spec_for(
        _policy_set(world_config, whitelist=True, ceiling=20)))

    # The outage arm targets the busiest PoP of the already-built
    # baseline world (same world seed => same PoP in its own build).
    baseline_world = arms["whitelist_on"]["outcome"].world
    pop_id, provider, city = _busiest_pop(baseline_world)
    outage_schedule = FaultSchedule((FaultEvent(
        start_day=OUTAGE_START, duration_days=OUTAGE_DAYS,
        target=f"public:{provider}:{city}",
        kind=FaultKind.POP_OUTAGE),)).validate()
    arms["outage"] = _run_arm(spec_for(
        _policy_set(world_config, whitelist=True, ceiling=32),
        faults=outage_schedule, monitor=True))

    detour = _detour_audit(baseline_world, pop_id)

    for name, metrics in arms.items():
        result.rows.append({
            "policy": name,
            **{key: metrics[key] for key in (
                "dist_ecs_mean", "cache_hit_rate", "ecs_share",
                "shifted", "cold_misses", "availability")},
        })

    wl_on = arms["whitelist_on"]
    wl_off = arms["whitelist_off"]
    scoped = arms["scope_20"]
    outage = arms["outage"]

    # -- determinism: the outage spec through the sharded engine ----------
    outage_spec = spec_for(
        _policy_set(world_config, whitelist=True, ceiling=32),
        faults=outage_schedule)
    digests = {workers: sharded_digest(
                   run_scenario(outage_spec, workers=workers),
                   "catchment_shifted_per_day")
               for workers in (1, 4)}

    # -- checks -----------------------------------------------------------

    result.check(
        "whitelist_gates_ecs",
        wl_off["ecs_share"] == 0.0
        and wl_on["ecs_share"] > 0.0
        and wl_off["dist_ecs_mean"] > wl_on["dist_ecs_mean"],
        f"ECS share {wl_on['ecs_share']:.2%} whitelisted vs "
        f"{wl_off['ecs_share']:.2%} revoked; public-cohort mean "
        f"distance {wl_on['dist_ecs_mean']:.0f} mi vs "
        f"{wl_off['dist_ecs_mean']:.0f} mi")

    result.check(
        "scope_ceiling_coarsens_cache",
        scoped["cache_hit_rate"] >= wl_on["cache_hit_rate"]
        and scoped["ecs_share"] > 0.0,
        f"/20 scope ceiling LDNS hit rate "
        f"{scoped['cache_hit_rate']:.2%} vs /32 "
        f"{wl_on['cache_hit_rate']:.2%} (coarser scopes share "
        f"entries; ECS still on at {scoped['ecs_share']:.2%})")

    result.check(
        "outage_rehomes_catchment",
        outage["shifted"] > 0 and outage["cold_misses"] > 0
        and outage["alerts_fired"].get("resolver_pop_outage", 0) > 0,
        f"{pop_id} outage re-homed {outage['shifted']} sessions "
        f"({outage['cold_misses']:.0f} cold-cache misses); "
        f"alerts fired: {outage['alerts_fired']}")

    restored = world_restored(outage["outcome"].world)
    result.check(
        "outage_recovers_exactly",
        not restored
        and outage["availability"] >= AVAILABILITY_FLOOR,
        f"post-run violations {restored or 'none'}; availability "
        f"{outage['availability']:.4f} "
        f"(floor {AVAILABILITY_FLOOR})")

    result.check(
        "failover_detour_is_farther",
        detour["rehomed_blocks"] > 0
        and detour["detour_miles_mean"] > detour["home_miles_mean"],
        f"{detour['rehomed_blocks']:.0f} blocks re-home "
        f"{detour['home_miles_mean']:.0f} mi -> "
        f"{detour['detour_miles_mean']:.0f} mi to the failover PoP")

    result.check(
        "shard_deterministic",
        digests[1] == digests[4],
        f"merged-state sha256 workers=1 {digests[1][:16]}... vs "
        f"workers=4 {digests[4][:16]}...")

    result.summary = {
        "sessions_per_day": SESSIONS,
        "seed": SEED,
        "outage_target": f"public:{provider}:{city}",
        "detour_miles_mean": detour["detour_miles_mean"],
        "home_miles_mean": detour["home_miles_mean"],
        "shifted_sessions": outage["shifted"],
        "cold_cache_misses": outage["cold_misses"],
        "digest": digests[1][:16],
    }
    return result
