"""Snapshot-time collectors: component state -> registry gauges.

Every component in the stack keeps its own cheap local counters (a DNS
cache counts hits, a load balancer counts spillovers) -- the hot paths
never pay for centralized bookkeeping.  This module registers the
*collectors* that read those internals into canonical registry metrics
whenever someone snapshots: the single place that knows where each
number lives, so :mod:`repro.core.reporting`, ``repro.obs.dump``, and
tests all consume the same metric names instead of spelunking
component internals themselves.

Canonical metric names exported for a wired world:

====================================  =====================================
``mapping.resolutions``               DNS questions answered by mapping
``mapping.ecs_resolutions``           ... of which carried ECS
``mapping.nxdomain`` / ``no_target``  mapping error counts
``mapping.decision_cache.hits`` /
``mapping.decision_cache.misses``     per-query ranking memo
``lb.decisions`` / ``lb.spillovers``  global load balancer
``ldns.cache.hits`` / ``lookups`` /
``insertions`` / ``evictions`` /
``expirations`` / ``stale_hits``      summed over the LDNS fleet
``ldns.client_queries`` /
``ldns.upstream_queries`` /
``ldns.tcp_retries`` /
``ldns.failovers`` /
``ldns.timeout_failovers`` /
``ldns.tcp_failovers`` /
``ldns.servfails`` /
``ldns.stale_served`` /
``ldns.retry_penalty_ms``             recursive resolver activity
``auth.queries`` / ``responses`` /
``truncations`` / ``tcp_queries``     authoritative servers
``network.queries`` / ``bytes``       simulated wire
``querylog.queries`` /
``querylog.ecs_queries``              authoritative query-log totals
``edge.cache.requests`` / ``hits``    edge-server content caches
``clusters.total`` / ``alive`` /
``clusters.mean_utilization``         deployment health
``measurement.rtt_lookups`` /
``measurement.memo_hits``             ping-mesh measurement service
``resolver.pops_total`` /
``pops_healthy`` / ``pops_down`` /
``resolver.providers_flapping``       anycast PoP fleet health
====================================  =====================================
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsRegistry


def register_world_collectors(registry: MetricsRegistry, world) -> None:
    """Wire one world-shaped object into a registry.

    ``world`` is a :class:`repro.simulation.world.World` (or anything
    exposing the same components).
    Collector gauges refresh on every snapshot, so the registry always
    reflects the live components.
    """

    def _collect(reg: MetricsRegistry) -> None:
        stats = world.mapping.stats
        reg.gauge("mapping.resolutions").set(stats.resolutions)
        reg.gauge("mapping.ecs_resolutions").set(stats.ecs_resolutions)
        reg.gauge("mapping.nxdomain").set(stats.nxdomain)
        reg.gauge("mapping.no_target").set(stats.no_target)

        glb = world.mapping.global_lb
        reg.gauge("mapping.decision_cache.hits").set(glb.ranking_hits)
        reg.gauge("mapping.decision_cache.misses").set(glb.ranking_misses)
        reg.gauge("lb.decisions").set(glb.decisions)
        reg.gauge("lb.spillovers").set(glb.spillovers)

        cache_totals = {"hits": 0, "misses": 0, "insertions": 0,
                        "evictions": 0, "expirations": 0,
                        "stale_hits": 0}
        client_queries = upstream = tcp_retries = 0
        timeout_failovers = tcp_failovers = 0
        servfails = stale_served = 0
        retry_penalty_ms = 0.0
        for ldns in world.ldns_registry.values():
            for key, value in ldns.cache.stats.as_dict().items():
                if key in cache_totals:
                    cache_totals[key] += value
            client_queries += ldns.client_queries
            upstream += ldns.upstream_queries_total
            tcp_retries += ldns.tcp_retries
            timeout_failovers += ldns.timeout_failovers
            tcp_failovers += ldns.tcp_failovers
            servfails += ldns.servfail_responses
            stale_served += ldns.stale_served
            retry_penalty_ms += ldns.retry_penalty_ms_total
        for key, value in cache_totals.items():
            reg.gauge(f"ldns.cache.{key}").set(value)
        reg.gauge("ldns.cache.lookups").set(
            cache_totals["hits"] + cache_totals["misses"])
        reg.gauge("ldns.client_queries").set(client_queries)
        reg.gauge("ldns.upstream_queries").set(upstream)
        reg.gauge("ldns.tcp_retries").set(tcp_retries)
        # ``failovers`` stays the historical total; the split gauges
        # distinguish UDP-timeout abandonment from TCP-retry death.
        reg.gauge("ldns.failovers").set(timeout_failovers + tcp_failovers)
        reg.gauge("ldns.timeout_failovers").set(timeout_failovers)
        reg.gauge("ldns.tcp_failovers").set(tcp_failovers)
        reg.gauge("ldns.servfails").set(servfails)
        reg.gauge("ldns.stale_served").set(stale_served)
        reg.gauge("ldns.retry_penalty_ms").set(retry_penalty_ms)

        reg.gauge("auth.queries").set(
            sum(ns.queries_received for ns in world.nameservers))
        reg.gauge("auth.responses").set(
            sum(ns.responses_sent for ns in world.nameservers))
        reg.gauge("auth.truncations").set(
            sum(ns.truncated_count for ns in world.nameservers))
        reg.gauge("auth.tcp_queries").set(
            sum(ns.tcp_queries for ns in world.nameservers))

        reg.gauge("network.queries").set(world.network.queries_sent)
        reg.gauge("network.bytes").set(world.network.bytes_sent)

        reg.gauge("querylog.queries").set(world.query_log.total_queries)
        reg.gauge("querylog.ecs_queries").set(world.query_log.ecs_queries)

        clusters = list(world.deployments.clusters.values())
        alive = [c for c in clusters if c.alive]
        # Deployment geometry is replicated identically in every shard
        # of a sharded run (merge=max); utilization is load-driven and
        # load splits across shards, so the mean keeps the sum default.
        reg.gauge("clusters.total", merge="max").set(len(clusters))
        reg.gauge("clusters.alive", merge="max").set(len(alive))
        # A non-finite utilization (a cluster mid-teardown under fault
        # injection) must not poison the fleet mean into NaN.
        finite = [c.utilization for c in alive
                  if math.isfinite(c.utilization)]
        reg.gauge("clusters.mean_utilization").set(
            sum(finite) / len(finite) if finite else 0.0)

        edge_requests = edge_hits = 0
        for cluster in clusters:
            for server in cluster.servers:
                edge_requests += server.cache.stats.requests
                edge_hits += server.cache.stats.hits
        reg.gauge("edge.cache.requests").set(edge_requests)
        reg.gauge("edge.cache.hits").set(edge_hits)

        measurement = world.measurement
        reg.gauge("measurement.rtt_lookups").set(
            measurement.rtt_lookups)
        reg.gauge("measurement.memo_hits").set(
            measurement.rtt_memo_hits)

        # Fleet membership and health replay identically in every
        # shard -- merge by max.
        fleets = world.resolver_fleets
        reg.gauge("resolver.pops_total", merge="max").set(
            fleets.pops_total)
        reg.gauge("resolver.pops_down", merge="max").set(fleets.pops_down)
        reg.gauge("resolver.pops_healthy", merge="max").set(
            fleets.pops_total - fleets.pops_down)
        reg.gauge("resolver.providers_flapping", merge="max").set(
            len(fleets.flapping))

    registry.register_collector(_collect)
