"""The four workloads, sized as the benchmark fixes them.

All are closed loops in one driver process.  An *op* is one client
session on the roll-outs and one client DNS lookup on ``dns_hot``.  The
seed feeds ``RolloutConfig.seed`` and the ``dns_hot`` generator; the
world seed stays at its default (2014), so every seed runs on the same
ecosystem.

What varies between the workloads is what the paper's pipeline depends
on: how often the ECS-scoped LDNS cache hits (sparse roll-out arrivals
miss, dense ``dns_hot`` arrivals hit), whether mapping scores per query
or reads a published map, and whether the sharded engine runs at all.
"""

from __future__ import annotations

import dataclasses
import datetime
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import repro.api
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.dnssrv.stub import StubResolver
from repro.faults import FaultEvent, FaultSchedule
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig
from repro.topology.resolvers import EcsPolicy, ResolverPolicySet
from repro.topology.traffic import TrafficSchedule, TrafficShape

from perfbench import checks

SESSIONS_PER_DAY = 1000
DNS_LOOKUPS = 100_000
DNS_WINDOW_SECONDS = 600.0
#: Smoke sizes, for the benchmark's own tests only.
SMOKE_SESSIONS_PER_DAY = 60
SMOKE_DNS_LOOKUPS = 3000


@dataclass
class Outcome:
    """One pass, evaluated after its timed region ended."""

    ops: int
    failed: int
    digest: str
    problems: List[str]
    """Failed output checks; any entry fails every op of the rep."""
    counts: Dict[str, float]
    """Exact-count ratios from the program's public counters."""


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _count_metrics(snapshot: Dict, ops: int, degraded: int = 0,
                   requests: int = 0) -> Dict[str, float]:
    gauges = snapshot["gauges"]
    tiers = {name: value for name, value in snapshot["counters"].items()
             if name.startswith("mapping.tier.")}
    fresh = sum(value for name, value in tiers.items()
                if name.startswith("mapping.tier.fresh_"))
    decisions = (gauges["mapping.decision_cache.hits"]
                 + gauges["mapping.decision_cache.misses"])
    return {
        "dnssrv.cache.hit_ratio": _ratio(
            gauges["ldns.cache.hits"], gauges["ldns.cache.lookups"]),
        "dnssrv.recursive.upstream_per_op": _ratio(
            gauges["ldns.upstream_queries"], ops),
        "dnssrv.recursive.failovers": gauges["ldns.failovers"],
        "dnssrv.transport.bytes_per_query": _ratio(
            gauges["network.bytes"], gauges["network.queries"]),
        "core.system.decision_hit_ratio": _ratio(
            gauges["mapping.decision_cache.hits"], decisions),
        "core.system.ecs_share": _ratio(
            gauges["mapping.ecs_resolutions"],
            gauges["mapping.resolutions"]),
        "core.mapmaker.fresh_tier_share": _ratio(
            fresh, sum(tiers.values())),
        "simulation.session.degraded_share": _ratio(degraded, ops),
        "simulation.session.requests_per_op": _ratio(requests, ops),
    }


# -- roll-outs -----------------------------------------------------------------

def _timeline(seed: int, smoke: bool) -> RolloutConfig:
    day = datetime.date(2014, 3, 1)
    return RolloutConfig(
        start_date=day,
        end_date=day + datetime.timedelta(days=7),
        rollout_start=day + datetime.timedelta(days=2),
        rollout_end=day + datetime.timedelta(days=5),
        sessions_per_day=(SMOKE_SESSIONS_PER_DAY if smoke
                          else SESSIONS_PER_DAY),
        monthly_growth=0.0,
        seed=seed)


def _plain_spec(seed: int, smoke: bool) -> repro.api.ScenarioSpec:
    return repro.api.ScenarioSpec(
        world=WorldConfig.tiny(), rollout=_timeline(seed, smoke),
        monitor=False)


def _planes_spec(seed: int, smoke: bool) -> repro.api.ScenarioSpec:
    world = dataclasses.replace(
        WorldConfig.small(), serve_stale_window=3600.0,
        server_capacity_rps=2.0)
    return repro.api.ScenarioSpec(
        world=world,
        rollout=_timeline(seed, smoke),
        control_plane=MapMakerConfig(),
        unit_scheme="routing_aware",
        load_feedback=LoadFeedbackConfig(),
        resolver_policies=ResolverPolicySet(tuple(
            (provider.name,
             EcsPolicy(whitelist_enabled=True, scope_ceiling=22))
            for provider in world.internet.providers)),
        faults=FaultSchedule((
            FaultEvent(3, 2, "ns:0", "auth_outage"),
            FaultEvent(4, 2, "public:*", "anycast_flap"),
            FaultEvent(5, 1, "mapmaker:primary", "mapmaker_crash"),
        )).validate(),
        traffic=TrafficSchedule((
            TrafficShape(2, 3, "continent:EU", "flash_crowd", 3.0),
        )).validate(),
        monitor=True)


@dataclass(frozen=True)
class RolloutWorkload:
    name: str
    why: str
    spec: Callable[[int, bool], repro.api.ScenarioSpec]
    workers: Optional[int] = None
    shards: Optional[int] = None
    paper_shape: bool = False

    def build_world(self):
        """The set-up sample: the workload's world and planes through
        the public ``build_world`` (which takes no load-feedback
        argument; that plane costs nothing to build)."""
        spec = self.spec(0, False)
        return repro.api.build_world(
            spec.world, control_plane=spec.control_plane,
            unit_scheme=spec.unit_scheme,
            resolver_policies=spec.resolver_policies)

    def prepare(self, seed: int, smoke: bool) -> Callable[[], object]:
        spec = self.spec(seed, smoke)
        if self.workers is None:
            return lambda: repro.api.run(spec)
        return lambda: repro.api.run(spec, workers=self.workers,
                                     shards=self.shards)

    def evaluate(self, run, smoke: bool) -> Outcome:
        result = run.result
        # A sharded run has no live world; its merged registry stands in.
        registry = (run.world.obs.registry if hasattr(run, "world")
                    else run.registry)
        snapshot = registry.snapshot()
        ops = sum(result.sessions_per_day.values())
        problems = (checks.rollout_conservation(result)
                    + checks.cache_conservation(snapshot["gauges"]))
        if self.paper_shape and not smoke:
            problems += checks.paper_shape(result)
        return Outcome(
            ops=ops,
            failed=sum(result.failed_sessions_per_day.values()),
            digest=checks.digest(
                checks.rollout_document(result, snapshot)),
            problems=problems,
            counts=_count_metrics(
                snapshot, ops,
                degraded=sum(result.degraded_sessions_per_day.values()),
                requests=sum(result.requests_per_day.values())))


# -- dns_hot ---------------------------------------------------------------------

@dataclass(frozen=True)
class DnsHotWorkload:
    name: str
    why: str
    workers = None
    """Never sharded: there is no roll-out engine under it."""

    def build_world(self):
        return repro.api.build_world(WorldConfig.tiny())

    def prepare(self, seed: int, smoke: bool) -> Callable[[], object]:
        """Untimed: a fresh world with ECS on at every public resolver,
        and the lookups, spread evenly over the simulated window so the
        300 s answers expire once along the way."""
        world = self.build_world()
        world.enable_ecs(world.public_ldns_ids())
        rng = random.Random(seed)
        lookups = SMOKE_DNS_LOOKUPS if smoke else DNS_LOOKUPS
        queries = []
        for index in range(lookups):
            block = world.internet.pick_block(rng)
            ldns = world.ldns_registry[block.pick_ldns(rng)]
            domain = world.catalog.pick_provider(rng).domain
            client_ip = block.prefix.network | rng.randint(1, 254)
            queries.append((ldns, domain, client_ip,
                            DNS_WINDOW_SECONDS * index / lookups))
        network = world.network

        def timed():
            return world, [
                StubResolver(client_ip, network).resolve(domain, ldns, now)
                for ldns, domain, client_ip, now in queries]

        return timed

    def evaluate(self, run, smoke: bool) -> Outcome:
        world, resolutions = run
        snapshot = world.obs.registry.snapshot()
        gauges = snapshot["gauges"]
        ops = len(resolutions)
        rcodes: Dict[str, int] = {}
        for resolution in resolutions:
            key = str(int(resolution.rcode))
            rcodes[key] = rcodes.get(key, 0) + 1
        problems = checks.cache_conservation(gauges)
        if gauges["ldns.client_queries"] != ops:
            problems.append(
                f"{ops} lookups sent but the resolvers counted "
                f"{gauges['ldns.client_queries']:.0f}")
        return Outcome(
            ops=ops,
            failed=sum(1 for resolution in resolutions
                       if not resolution.ok),
            digest=checks.digest({
                "hits": sum(1 for resolution in resolutions
                            if resolution.ldns_cache_hit),
                "upstream": sum(resolution.upstream_queries
                                for resolution in resolutions),
                "rcodes": rcodes,
                "address_sum": sum(sum(resolution.addresses)
                                   for resolution in resolutions),
            }),
            problems=problems,
            counts=_count_metrics(snapshot, ops))


WORKLOADS = {workload.name: workload for workload in (
    RolloutWorkload(
        name="rollout_serial",
        why="serial engine, every plane off: sparse arrivals miss the "
            "LDNS cache, so each session pays stub, recursive, codec, "
            "authoritative and per-query scoring",
        spec=_plain_spec, paper_shape=True),
    RolloutWorkload(
        name="rollout_sharded",
        why="same spec through workers=2 shards=8: the only workload "
            "where plan, per-shard world rebuilds, pickling and merge "
            "do work, on real cores",
        spec=_plain_spec, workers=2, shards=8),
    RolloutWorkload(
        name="rollout_planes",
        why="small world, every plane on: published-map lookup instead "
            "of per-query scoring, plus faults, surge, load feedback, "
            "resolver policies and the monitor",
        spec=_planes_spec),
    DnsHotWorkload(
        name="dns_hot",
        why="dense DNS lookups only: the ECS-scoped cache hits, so "
            "stub, recursive and cache dominate and codec, "
            "authoritative and mapping do little"),
)}
