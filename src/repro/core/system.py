"""The MappingSystem facade: DNS answer source backed by scoring + LB.

This class is the production shape of Equations 1 and 2: it receives
each authoritative DNS question (with or without an EDNS0
client-subnet option), asks its policy for the mapping target, runs
global and local load balancing, and returns A records plus the RFC
7871 answer scope.

The production split between the (periodic) scoring pipeline and the
(real-time) name-server path lives in the global load balancer: it
ranks a target's candidates once per score epoch with
:meth:`~repro.core.scoring.Scorer.rank` and keeps that ranking, so a
query pays only the liveness and headroom walk over it.

When a :class:`~repro.core.mapmaker.service.MapPublicationService` is
attached (``attach_control_plane``), the split becomes literal: the
answer path stops scoring at query time entirely and instead reads the
latest *published map* through the service's age-bounded degradation
ladder (fresh EU -> stale EU -> NS fallback -> static geo), applying
only the load-balancer headroom walk to the published ranking.  Worlds
without a control plane keep the per-query scoring path unchanged.

What an answer builds.  Both paths share what repeats: one tuple of A
records per (name, TTL, server addresses), for the first
``_RECORD_SETS`` such sets, one tuple of clusters per published id
tuple (per map version), one counter handle per ladder tier.  All are
bounded by catalog x deployment and held here, on the world's mapping
system.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cdn.content import ContentCatalog
from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.core.loadbalancer import (
    GlobalLoadBalancer,
    LoadBalancerConfig,
    LocalLoadBalancer,
)
from repro.core.policies import MappingPolicy, MapTarget, ResolutionContext
from repro.core.scoring import Scorer
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv.authoritative import ZoneAnswer
from repro.obs import NOOP, NULL_SPAN, Counter, Observability


#: Server sets whose A records an answer keeps.  A `tiny` world
#: answers from a few hundred; a world whose servers run hot picks
#: thousands (3 327 in one `rollout_planes` pass), and keeping every
#: one of those records promoted enough objects to the oldest
#: generation to add a full garbage collection, about 0.25 s, to each
#: pass -- more than rebuilding them costs.  Past the bound a set's
#: records are built per answer.
_RECORD_SETS = 1024
#: Enum members read off their class cost a metaclass lookup each.
_ANSWERED_QTYPES = (QType.A, QType.ANY)
_NOERROR = Rcode.NOERROR


@dataclass
class MappingStats:
    resolutions: int = 0
    ecs_resolutions: int = 0
    nxdomain: int = 0
    no_target: int = 0


class MappingSystem:
    """Answer source for the CDN zone, parameterized by policy."""

    def __init__(
        self,
        deployments: DeploymentPlan,
        catalog: ContentCatalog,
        policy: MappingPolicy,
        scorer: Scorer,
        lb_config: Optional[LoadBalancerConfig] = None,
        candidate_index=None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.deployments = deployments
        self.catalog = catalog
        self.policy = policy
        self.scorer = scorer
        self.obs = obs if obs is not None else NOOP
        self.lb_config = lb_config or LoadBalancerConfig()
        self.global_lb = GlobalLoadBalancer(
            deployments, scorer, self.lb_config,
            candidate_index=candidate_index, obs=self.obs)
        self.local_lb = LocalLoadBalancer(self.lb_config)
        self.stats = MappingStats()
        self.control_plane = None
        self._records: Dict[tuple, Tuple[ResourceRecord, ...]] = {}
        self._published: Dict[Tuple[str, ...], Tuple[Cluster, ...]] = {}
        self._published_version: Optional[int] = None
        # ``mapping.tier.<tier>`` counters, created on first use.
        self._tier_counters: Dict[str, Counter] = {}

    # -- policy swap (the roll-out flips this) ---------------------------

    def set_policy(self, policy: MappingPolicy) -> None:
        """Switch mapping policy; the next answer uses it."""
        self.policy = policy

    # -- control plane (the published-map read path) ---------------------

    def attach_control_plane(self, service) -> None:
        """Route answers through a published-map service's ladder.

        ``service`` is a :class:`~repro.core.mapmaker.service.
        MapPublicationService` (duck-typed: ``lookup`` +
        ``static_ranking``).
        """
        self.control_plane = service

    # -- AnswerSource interface ------------------------------------------

    def answer(
        self,
        qname: str,
        qtype: int,
        ecs: Optional[ClientSubnetOption],
        src_ip: int,
        now: float,
    ) -> ZoneAnswer:
        provider = self.catalog.by_cdn_hostname(qname)
        if provider is None:
            self.stats.nxdomain += 1
            return ZoneAnswer(rcode=Rcode.NXDOMAIN)
        if qtype not in _ANSWERED_QTYPES:
            # NODATA: the name exists but we only publish A records.
            return ZoneAnswer(rcode=Rcode.NOERROR)

        self.stats.resolutions += 1
        if ecs is not None:
            self.stats.ecs_resolutions += 1
        tracer = self.obs.tracer
        traced = tracer.active
        with (tracer.span("mapping.decision", qname=qname,
                          policy=self.policy.name, ecs=ecs is not None)
              if traced else NULL_SPAN) as span:
            context = ResolutionContext(qname, src_ip, ecs)
            target, scope = self.policy.decide(context)
            if target is None:
                self.stats.no_target += 1
                return ZoneAnswer(rcode=Rcode.SERVFAIL)

            global_lb = self.global_lb
            hits_before = global_lb.ranking_hits
            tier = None
            if self.control_plane is not None:
                cluster, tier = self._pick_published(context, target, now)
            else:
                cluster = global_lb.pick_cluster(target)
            if cluster is None:
                return ZoneAnswer(rcode=Rcode.SERVFAIL)
            servers = self.local_lb.pick_servers(cluster, provider.name)
            if not servers:
                return ZoneAnswer(rcode=Rcode.SERVFAIL)
            if traced:
                if tier is not None:
                    cache_label = f"published:{tier}"
                else:
                    cache_label = ("hit" if global_lb.ranking_hits
                                   > hits_before else "miss")
                span.set(
                    cluster=cluster.cluster_id,
                    decision_cache=cache_label,
                    scope=scope,
                    servers=len(servers),
                )
            ttl = provider.dns_ttl
            key = (qname, ttl, *[server.ip for server in servers])
            records = self._records.get(key)
            if records is None:
                records = tuple(
                    ResourceRecord(qname, QType.A, ttl, ARdata(ip))
                    for ip in key[2:])
                if len(self._records) < _RECORD_SETS:
                    self._records[key] = records
            return ZoneAnswer(records, _NOERROR, scope)

    # -- internals ---------------------------------------------------------

    def _pick_published(
        self, context: ResolutionContext, target: MapTarget, now: float,
    ) -> Tuple[Optional[Cluster], str]:
        """(cluster, tier) from the latest published map's ladder.

        The published ranking replaces scoring; liveness and the
        headroom walk still apply at answer time (a published entry may
        name a cluster that died after publication).  When every rung
        above it is exhausted -- map too old, unit unknown, or all its
        clusters dead -- the static geo map answers.
        """
        day = int(now // 86400.0)
        client_prefix = (context.ecs.prefix if context.ecs is not None
                         else None)
        control_plane = self.control_plane
        ids, tier = control_plane.lookup(client_prefix, context.ldns_ip,
                                         day)
        cluster = self.global_lb.walk(self._published_clusters(ids))
        if cluster is None:
            tier = "static_geo"
            cluster = self.global_lb.walk(
                control_plane.static_ranking(target.geo))
        if cluster is not None:
            counter = self._tier_counters.get(tier)
            if counter is None:
                counter = self._tier_counters[tier] = (
                    self.obs.registry.counter("mapping.tier." + tier))
            counter.inc()
        return cluster, tier

    def _published_clusters(self, ids: Tuple[str, ...]
                            ) -> Tuple[Cluster, ...]:
        """The deployed clusters a published id tuple names, in its
        order; resolved once per id tuple while the map version
        stands."""
        version = self.control_plane.current.version
        if version != self._published_version:
            self._published.clear()
            self._published_version = version
        clusters = self._published.get(ids)
        if clusters is None:
            deployed = self.deployments.clusters
            clusters = self._published[ids] = tuple(
                deployed[cluster_id] for cluster_id in ids
                if cluster_id in deployed)
        return clusters
