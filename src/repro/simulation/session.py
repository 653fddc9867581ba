"""The page-download session model.

Turns one client page view into the four RUM milestones the paper
measures (Section 4.1), using an explicit RTT-based transfer model:

* **DNS time** -- stub -> LDNS hop plus whatever recursion cost the
  LDNS paid (zero on cache hit).
* **TCP connect** -- one client--server RTT (SYN/SYN-ACK).
* **TTFB** -- request upstream + server time + first chunk downstream
  = one RTT + server time.  Server time for a *dynamic* base page
  includes an origin fetch over the overlay (the component end-user
  mapping cannot improve); static base pages hit the edge cache.
* **Content download time** -- embedded objects fetched over
  ``parallel_connections`` persistent connections; each object costs a
  request round trip plus window-limited transfer time
  (``size / (tcp_window / rtt)``), plus an origin fetch when the edge
  cache misses.

The returned :class:`SessionResult` carries everything the RUM beacon
needs plus bookkeeping for the query-rate and load analyses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from repro.cdn.content import ContentProvider, WebPage
from repro.core.loadbalancer import spread_load
from repro.dnssrv.stub import StubResolver
from repro.net.geometry import great_circle_miles
from repro.obs import NULL_SPAN
from repro.simulation.world import World
from repro.topology.internet import ClientBlock

#: Effective TCP window for the transfer model (bytes).
TCP_WINDOW_BYTES = 64 * 1024
#: Parallel persistent connections a browser opens per host.
PARALLEL_CONNECTIONS = 6
#: Edge server base processing time for a cache hit (ms).
EDGE_PROCESS_MS = 4.0
#: TCP connect timeout burned per dead edge server the client tries
#: before the next address in the answer (fault-injection path only).
CONNECT_TIMEOUT_MS = 3000.0


@dataclass(frozen=True, slots=True)
class SessionResult:
    """One completed page download."""

    block: ClientBlock
    provider_name: str
    domain: str
    resolver_id: str
    via_public_resolver: bool
    ecs_used: bool
    server_ip: int
    cluster_id: Optional[str]
    dns_ms: float
    connect_ms: float
    rtt_ms: float
    ttfb_ms: float
    download_ms: float
    mapping_distance_miles: float
    upstream_dns_queries: int
    requests: int
    """HTTP requests issued (base page + embedded objects): the
    'client requests' series of Figure 2."""
    edge_cache_hits: int
    failed: bool = False
    """True when the session could not complete at all (DNS SERVFAIL
    with no fallback, or every answered server dead): the complement
    of the availability metric."""
    degraded: bool = False
    """Completed, but through a degradation path: stub failover, an
    ECS-stripped resolution, a stale DNS answer, or a dead-server
    connect retry."""
    stale_served: bool = False
    """The DNS answer came from an expired cache entry (RFC 8767)."""
    catchment_shifted: bool = False
    """Anycast delivered this session to a PoP other than its
    build-time catchment (a withdrawn or flapping PoP re-homed it)."""
    cold_cache_miss: bool = False
    """A catchment-shifted session whose resolution also missed the
    LDNS cache: the cost of landing on a PoP that never saw this
    client population (the outage-boundary cold-cache effect)."""

    @property
    def page_load_ms(self) -> float:
        """Full page time: DNS + connect + TTFB + content download."""
        return self.dns_ms + self.connect_ms + self.ttfb_ms + (
            self.download_ms)


def simulate_session(
    world: World,
    block: ClientBlock,
    now: float,
    rng: random.Random,
    provider: Optional[ContentProvider] = None,
    page: Optional[WebPage] = None,
    account_load: bool = True,
) -> SessionResult:
    """Run one client session end to end through the real stack."""
    provider = provider or world.catalog.pick_provider(rng)
    page = page or provider.pick_page(rng)
    client_ip = block.prefix.network | rng.randint(1, 254)

    tracer = world.obs.tracer
    with tracer.trace("session") as root:
        if tracer.active:
            root.set(block=str(block.prefix), provider=provider.name)
        result = _run_session(world, block, now, rng, provider, page,
                              client_ip, account_load, root)
    _record_session_metrics(world.obs.registry, block, result)
    return result


def _run_session(world, block, now, rng, provider, page, client_ip,
                 account_load, root) -> SessionResult:
    # --- DNS ----------------------------------------------------------------
    resolver_id = block.pick_ldns(rng)
    # The resolver plane may re-home the session: anycast routes around
    # withdrawn/flapping PoPs deterministically (no RNG, so fault and
    # healthy runs stay stream-aligned).
    fleets = world.resolver_fleets
    routed_id = (fleets.route(resolver_id, block)
                 if fleets.disturbed(resolver_id) else resolver_id)
    # None: every PoP of the provider is withdrawn, so the intended
    # address is a black hole and the stub must burn its timeout,
    # exactly like an LDNS blackout.
    fleet_dark = routed_id is None
    catchment_shifted = not fleet_dark and routed_id != resolver_id
    if catchment_shifted:
        resolver_id = routed_id
    ldns = world.ldns_registry[resolver_id]
    fallback_id = None
    fallback = None
    if not ldns.alive or fleet_dark:
        # An injected LDNS blackout (or a fleet gone entirely dark):
        # the stub will fail over to the nearest live resolver after
        # its timeout.
        fallback_id, fallback = _fallback_ldns(world, client_ip,
                                               resolver_id)
    if fleet_dark:
        ldns = _DarkFleet(ldns)
    stub = StubResolver(client_ip, world.network)
    tracer = world.obs.tracer
    traced = tracer.active
    with (tracer.span("dns", resolver=resolver_id)
          if traced else NULL_SPAN) as dns_span:
        resolution = stub.resolve(provider.domain, ldns, now,
                                  fallback=fallback)
        if traced:
            dns_span.set(dns_ms=resolution.dns_time_ms,
                         cache_hit=resolution.ldns_cache_hit,
                         upstream_queries=resolution.upstream_queries)
            if resolution.failed_over:
                dns_span.set(failed_over=True, fallback=fallback_id)
    if resolution.failed_over and fallback_id is not None:
        resolver_id, ldns = fallback_id, fallback
    if not resolution.ok:
        root.set(failed=True, rcode=int(resolution.rcode))
        return _failed_session(world, block, provider, resolver_id,
                               ldns, resolution)

    # Try the answered addresses in order; footnote 2 of the paper has
    # two servers returned "as a precaution against transient
    # failures" -- a dead first server costs a connect timeout, not
    # the session.
    server_ip = None
    server = None
    dead_tried = 0
    for ip in resolution.addresses:
        candidate = world.deployments.server_index.get(ip)
        if candidate is None:
            raise RuntimeError(f"mapped to unknown server {ip}")
        if candidate.alive:
            server_ip, server = ip, candidate
            break
        dead_tried += 1
    if server is None:
        root.set(failed=True, dead_servers=dead_tried)
        return _failed_session(world, block, provider, resolver_id,
                               ldns, resolution)
    cluster = world.deployments.cluster_of_server(server_ip)
    if cluster is None:
        raise RuntimeError(f"mapped to unknown server {server_ip}")

    # --- transport characteristics ------------------------------------------
    base_rtt = world.network.rtt_ms(client_ip, server_ip)
    rtt = _with_noise(base_rtt + block.last_mile_ms, rng)
    connect_ms = rtt + dead_tried * CONNECT_TIMEOUT_MS

    # --- base page (TTFB) ------------------------------------------------------
    origin = world.origins[provider.name]
    edge_origin_rtt = world.network.rtt_ms(server_ip, origin.ip)
    base_key = f"{provider.name}{page.url}#base"
    requests = 1
    cache_hits = 0
    if page.dynamic:
        # Personalized: always goes to origin over the overlay.
        server_time = origin.fetch_time_ms(edge_origin_rtt,
                                           page.origin_think_ms)
    else:
        hit = server.serve(base_key, page.base_size_bytes)
        if hit:
            cache_hits += 1
            server_time = EDGE_PROCESS_MS
        else:
            server_time = origin.fetch_time_ms(edge_origin_rtt,
                                               page.origin_think_ms)
    ttfb_ms = rtt + server_time

    # --- embedded content -----------------------------------------------------
    per_connection: List[float] = [0.0] * PARALLEL_CONNECTIONS
    throughput_bytes_per_ms = TCP_WINDOW_BYTES / max(rtt, 1.0)
    for index, obj in enumerate(page.objects):
        requests += 1
        key = obj.name
        if obj.cacheable:
            hit = server.serve(key, obj.size_bytes)
        else:
            hit = False
            server.cache.stats.misses += 1
        object_ms = rtt + obj.size_bytes / throughput_bytes_per_ms
        if hit:
            cache_hits += 1
            object_ms += EDGE_PROCESS_MS
        else:
            object_ms += origin.fetch_time_ms(edge_origin_rtt,
                                              think_ms=8.0)
        connection = index % PARALLEL_CONNECTIONS
        per_connection[connection] += object_ms
    download_ms = max(per_connection) if page.objects else 0.0

    # --- bookkeeping -----------------------------------------------------------
    if account_load:
        answered = [world.deployments.server_index[ip]
                    for ip in resolution.addresses
                    if ip in world.deployments.server_index
                    and world.deployments.server_index[ip].alive]
        spread_load(answered, rps=0.01 * requests)

    ecs_used = (ldns.ecs_enabled and not ldns.ecs_stripped
                and ldns.ecs_whitelisted)
    degraded = (resolution.failed_over or resolution.stale
                or dead_tried > 0 or catchment_shifted
                or (ldns.ecs_enabled and ldns.ecs_stripped)
                or (ldns.ecs_enabled and not ldns.ecs_whitelisted))
    if traced:
        root.set(cluster=cluster.cluster_id, resolver=resolver_id,
                 rtt_ms=rtt, connect_ms=connect_ms, ttfb_ms=ttfb_ms,
                 download_ms=download_ms, requests=requests,
                 edge_cache_hits=cache_hits)
        if degraded:
            root.set(degraded=True)
        if catchment_shifted:
            root.set(catchment_shifted=True)
    meta = world.internet.resolvers[resolver_id]
    return SessionResult(
        block=block,
        provider_name=provider.name,
        domain=provider.domain,
        resolver_id=resolver_id,
        via_public_resolver=meta.is_public,
        ecs_used=ecs_used,
        server_ip=server_ip,
        cluster_id=cluster.cluster_id,
        dns_ms=resolution.dns_time_ms,
        connect_ms=connect_ms,
        rtt_ms=rtt,
        ttfb_ms=ttfb_ms,
        download_ms=download_ms,
        mapping_distance_miles=great_circle_miles(block.geo, cluster.geo),
        upstream_dns_queries=resolution.upstream_queries,
        requests=requests,
        edge_cache_hits=cache_hits,
        degraded=degraded,
        stale_served=resolution.stale,
        catchment_shifted=catchment_shifted,
        cold_cache_miss=catchment_shifted and not resolution.ldns_cache_hit,
    )


class _DarkFleet:
    """Stand-in for an LDNS whose provider fleet is entirely withdrawn.

    Quacks just enough like a dead :class:`RecursiveResolver` (``ip``,
    ``name``, ``alive=False``) for the stub's blackout path to burn its
    timeout and fail over, without mutating the real resolver -- the
    PoP itself is healthy software behind a withdrawn route.
    """

    alive = False

    def __init__(self, ldns) -> None:
        self.ip = ldns.ip
        self.name = ldns.name


def _fallback_ldns(world, client_ip: int, exclude_id: str):
    """Nearest live resolver to fail over to, or (None, None).

    Prefers public resolvers (the secondary users actually configure);
    when *every* public resolver is dark -- a whole-plane outage --
    falls back to the nearest live ISP/enterprise resolver so clients
    with any working resolver path still complete.  Deterministic:
    ties on RTT break by resolver id.
    """
    public = world.public_ldns_ids()
    best_id, best, best_key = _nearest_live(world, client_ip,
                                            exclude_id, public)
    if best_id is None:
        skip = set(public)
        rest = [rid for rid in sorted(world.ldns_registry)
                if rid not in skip]
        best_id, best, best_key = _nearest_live(world, client_ip,
                                                exclude_id, rest)
    return best_id, best


def _nearest_live(world, client_ip: int, exclude_id: str, pool):
    pops = world.resolver_fleets.pops
    best_id, best, best_key = None, None, None
    for rid in pool:
        if rid == exclude_id:
            continue
        candidate = world.ldns_registry[rid]
        if not candidate.alive:
            continue
        # A withdrawn PoP is healthy software behind a dead route:
        # failing over to it would just be a second black hole.
        if rid in pops and not pops[rid].healthy:
            continue
        key = (world.network.rtt_ms(client_ip, candidate.ip), rid)
        if best_key is None or key < best_key:
            best_id, best, best_key = rid, candidate, key
    return best_id, best, best_key


def _failed_session(world, block, provider, resolver_id, ldns,
                    resolution) -> SessionResult:
    """A session the client could not complete: no reachable answer.

    Carries the DNS time actually burned, so availability analyses see
    the cost; every transfer milestone is zero and no requests count.
    """
    meta = world.internet.resolvers[resolver_id]
    return SessionResult(
        block=block,
        provider_name=provider.name,
        domain=provider.domain,
        resolver_id=resolver_id,
        via_public_resolver=meta.is_public,
        ecs_used=False,
        server_ip=0,
        cluster_id=None,
        dns_ms=resolution.dns_time_ms,
        connect_ms=0.0,
        rtt_ms=0.0,
        ttfb_ms=0.0,
        download_ms=0.0,
        mapping_distance_miles=0.0,
        upstream_dns_queries=resolution.upstream_queries,
        requests=0,
        edge_cache_hits=0,
        failed=True,
    )


def _record_session_metrics(registry, block: ClientBlock,
                            result: SessionResult) -> None:
    """Session-level registry metrics (demand-weighted histograms).

    Failed sessions count only toward ``sessions.failed`` -- their
    zeroed milestones would poison the latency histograms.  The
    fault-path counters (``sessions.failed`` / ``.degraded`` /
    ``.stale``) are created lazily on first increment, so a healthy
    run's registry snapshot is unchanged by their existence.
    """
    if result.failed:
        registry.counter("sessions.failed").inc()
        return
    registry.counter("sessions.completed").inc()
    registry.counter("sessions.requests").inc(result.requests)
    registry.counter("sessions.edge_cache_hits").inc(
        result.edge_cache_hits)
    if result.ecs_used:
        registry.counter("sessions.ecs_used").inc()
    if result.degraded:
        registry.counter("sessions.degraded").inc()
    if result.stale_served:
        registry.counter("sessions.stale").inc()
    if result.catchment_shifted:
        registry.counter("resolver.pop_failovers").inc()
    if result.cold_cache_miss:
        registry.counter("resolver.cold_cache_misses").inc()
    weight = block.demand
    registry.histogram("session.dns_ms").observe(result.dns_ms, weight)
    registry.histogram("session.rtt_ms").observe(result.rtt_ms, weight)
    registry.histogram("session.ttfb_ms").observe(result.ttfb_ms, weight)
    registry.histogram("session.page_load_ms").observe(
        result.page_load_ms, weight)
    registry.histogram("session.mapping_distance_miles").observe(
        result.mapping_distance_miles, weight)


def _with_noise(rtt_ms: float, rng: random.Random,
                sigma: float = 0.15) -> float:
    """Mean-one lognormal congestion noise on the measured RTT."""
    return rtt_ms * math.exp(rng.gauss(-0.5 * sigma * sigma, sigma))
