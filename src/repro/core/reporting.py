"""Operational status reporting for the mapping system.

The production mapping system is monitored as intensely as it monitors
the Internet.  This module renders the canonical metrics exported by
:mod:`repro.obs.collect` into one structured status report -- the view
an operator (or an example script) uses to sanity-check a running
world: mapping decision volumes and cache efficiency, load-balancer
spillover, cluster health and utilization, resolver cache hit rates,
and the authoritative query mix.

Reporting reads the :class:`~repro.obs.metrics.MetricsRegistry`
snapshot rather than reaching into component internals; the collector
layer is the single place that knows where each number lives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.cdn.deployments import DeploymentPlan


@dataclass(frozen=True, slots=True)
class ClusterHealth:
    cluster_id: str
    city: str
    alive: bool
    live_servers: int
    total_servers: int
    utilization: float
    cache_hit_rate: float


@dataclass
class StatusReport:
    """One point-in-time operational snapshot."""

    mapping_resolutions: int = 0
    mapping_ecs_share: float = 0.0
    decision_cache_hit_rate: float = 0.0
    lb_decisions: int = 0
    lb_spillovers: int = 0
    clusters_total: int = 0
    clusters_alive: int = 0
    mean_utilization: float = 0.0
    hottest_clusters: List[ClusterHealth] = field(default_factory=list)
    ldns_cache_hit_rate: float = 0.0
    ldns_tcp_retries: int = 0
    ldns_failovers: int = 0
    authoritative_queries: int = 0
    authoritative_truncations: int = 0
    querylog_queries: int = 0
    querylog_ecs_share: float = 0.0
    """Share of logged authoritative queries carrying client-subnet --
    the live roll-out progress number the monitor plane watches."""

    def lines(self) -> List[str]:
        """Human-readable rendering."""
        out = [
            "mapping system status",
            f"  resolutions        {self.mapping_resolutions}",
            f"  ecs share          {self.mapping_ecs_share:.1%}",
            f"  decision cache     {self.decision_cache_hit_rate:.1%} hit",
            f"  lb spillovers      {self.lb_spillovers} of "
            f"{self.lb_decisions} decisions",
            f"  clusters           {self.clusters_alive}/"
            f"{self.clusters_total} alive, mean util "
            f"{self.mean_utilization:.1%}",
            f"  ldns caches        {self.ldns_cache_hit_rate:.1%} hit, "
            f"{self.ldns_tcp_retries} tcp retries, "
            f"{self.ldns_failovers} failovers",
            f"  authoritative      {self.authoritative_queries} queries, "
            f"{self.authoritative_truncations} truncations",
            f"  query log          {self.querylog_queries} logged, "
            f"{self.querylog_ecs_share:.1%} ecs",
        ]
        for health in self.hottest_clusters:
            out.append(
                f"    {health.cluster_id:<28} util "
                f"{health.utilization:6.1%}  cache-hit "
                f"{health.cache_hit_rate:6.1%}  "
                f"{health.live_servers}/{health.total_servers} up")
        return out


def cluster_health(deployments: DeploymentPlan,
                   top: int = 5) -> List[ClusterHealth]:
    """Per-cluster health, hottest (most utilized) first."""
    rows = []
    for cluster in deployments.clusters.values():
        live = cluster.live_servers()
        requests = sum(s.cache.stats.requests for s in cluster.servers)
        hits = sum(s.cache.stats.hits for s in cluster.servers)
        rows.append(ClusterHealth(
            cluster_id=cluster.cluster_id,
            city=cluster.city,
            alive=cluster.alive,
            live_servers=len(live),
            total_servers=len(cluster.servers),
            utilization=(cluster.utilization
                         if cluster.alive else float("inf")),
            cache_hit_rate=hits / requests if requests else 0.0,
        ))
    rows.sort(key=lambda r: (r.utilization if r.alive else -1.0),
              reverse=True)
    return rows[:top]


def build_status_report(world, top_clusters: int = 5) -> StatusReport:
    """Aggregate a :class:`StatusReport` from a running world.

    All scalar fields come from the world registry's collector gauges
    (see :mod:`repro.obs.collect` for the canonical names); only the
    per-cluster health table reads the deployment plan directly.
    """
    gauges = world.obs.registry.snapshot()["gauges"]

    resolutions = gauges["mapping.resolutions"]
    ecs_resolutions = gauges["mapping.ecs_resolutions"]
    cache_hits = gauges["mapping.decision_cache.hits"]
    decisions = cache_hits + gauges["mapping.decision_cache.misses"]
    ldns_hits = gauges["ldns.cache.hits"]
    ldns_lookups = gauges["ldns.cache.lookups"]

    return StatusReport(
        mapping_resolutions=int(resolutions),
        mapping_ecs_share=(ecs_resolutions / resolutions
                           if resolutions else 0.0),
        decision_cache_hit_rate=(cache_hits / decisions
                                 if decisions else 0.0),
        lb_decisions=int(gauges["lb.decisions"]),
        lb_spillovers=int(gauges["lb.spillovers"]),
        clusters_total=int(gauges["clusters.total"]),
        clusters_alive=int(gauges["clusters.alive"]),
        mean_utilization=gauges["clusters.mean_utilization"],
        hottest_clusters=cluster_health(world.deployments, top_clusters),
        ldns_cache_hit_rate=(ldns_hits / ldns_lookups
                             if ldns_lookups else 0.0),
        ldns_tcp_retries=int(gauges["ldns.tcp_retries"]),
        ldns_failovers=int(gauges["ldns.failovers"]),
        authoritative_queries=int(gauges["auth.queries"]),
        authoritative_truncations=int(gauges["auth.truncations"]),
        querylog_queries=int(gauges.get("querylog.queries", 0.0)),
        querylog_ecs_share=(
            gauges.get("querylog.ecs_queries", 0.0)
            / gauges["querylog.queries"]
            if gauges.get("querylog.queries") else 0.0),
    )
