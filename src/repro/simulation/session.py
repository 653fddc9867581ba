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
from typing import Dict, List, Optional

from repro.cdn.content import PARALLEL_CONNECTIONS, ContentProvider, WebPage
from repro.core.loadbalancer import spread_load
from repro.dnssrv import stub
from repro.net.geometry import great_circle_miles
from repro.obs import NULL_SPAN, Counter
from repro.simulation.world import World
from repro.topology.internet import ClientBlock

#: Effective TCP window for the transfer model (bytes).
TCP_WINDOW_BYTES = 64 * 1024
#: Edge server base processing time for a cache hit (ms).
EDGE_PROCESS_MS = 4.0
#: TCP connect timeout burned per dead edge server the client tries
#: before the next address in the answer (fault-injection path only).
CONNECT_TIMEOUT_MS = 3000.0


@dataclass(slots=True)
class SessionResult:
    """One completed page download.

    Written once, by the session that builds it, and never after; not
    frozen, because a frozen constructor pays a call per field."""

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
                              client_ip, root)
    metrics = world.session_metrics
    if metrics is None:
        metrics = world.session_metrics = SessionMetrics(world.obs.registry)
    metrics.record(block, result)
    return result


def _run_session(world, block, now, rng, provider, page, client_ip,
                 root) -> SessionResult:
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
    tracer = world.obs.tracer
    traced = tracer.active
    with (tracer.span("dns", resolver=resolver_id)
          if traced else NULL_SPAN) as dns_span:
        resolution = stub.resolve(client_ip, world.network,
                                  provider.domain, ldns, now,
                                  fallback=fallback)
        if traced:
            dns_span.set(dns_ms=resolution.dns_time_ms,
                         cache_hit=resolution.cache_hit,
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
    # the session.  Every live answered server shares the load.  The
    # walk reads the answer's records where the cache keeps them.
    server_index = world.deployments.server_index
    live = []
    dead_tried = 0
    for address in resolution.iter_addresses():
        candidate = server_index.get(address)
        if candidate is None:
            raise RuntimeError(f"mapped to unknown server {address}")
        if candidate.alive:
            live.append(candidate)
        elif not live:
            dead_tried += 1
    if not live:
        root.set(failed=True, dead_servers=dead_tried)
        return _failed_session(world, block, provider, resolver_id,
                               ldns, resolution)
    server = live[0]
    server_ip = server.ip
    cluster = world.deployments.cluster_of_server(server_ip)
    if cluster is None:
        raise RuntimeError(f"mapped to unknown server {server_ip}")

    # --- transport characteristics ------------------------------------------
    base_rtt = world.network.rtt_ms(client_ip, server_ip)
    rtt = _with_noise(base_rtt + block.last_mile_ms, rng)
    connect_ms = rtt + dead_tried * CONNECT_TIMEOUT_MS

    # --- page: TTFB and content download --------------------------------------
    origin = world.origins[provider.name]
    edge_origin_rtt = world.network.rtt_ms(server_ip, origin.ip)
    ttfb_ms, download_ms, cache_hits = _serve_page(
        server, origin, edge_origin_rtt, rtt, provider, page)
    requests = 1 + len(page.objects)

    # --- bookkeeping -----------------------------------------------------------
    spread_load(live, rps=0.01 * requests)

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
    # Positional, in field order: binding 21 keywords costs three times
    # what the constructor does.
    return SessionResult(
        block,
        provider.name,
        provider.domain,
        resolver_id,
        meta.is_public,  # via_public_resolver
        ecs_used,
        server_ip,
        cluster.cluster_id,
        resolution.dns_time_ms,  # dns_ms
        connect_ms,
        rtt,  # rtt_ms
        ttfb_ms,
        download_ms,
        great_circle_miles(block.geo, cluster.geo),  # mapping distance
        resolution.upstream_queries,  # upstream_dns_queries
        requests,
        cache_hits,  # edge_cache_hits
        False,  # failed
        degraded,
        resolution.stale,  # stale_served
        catchment_shifted,
        catchment_shifted and not resolution.cache_hit,  # cold_cache_miss
    )


def _serve_page(server, origin, edge_origin_rtt: float, rtt: float,
                provider: ContentProvider, page: WebPage):
    """``(ttfb_ms, download_ms, edge_cache_hits)`` of one page view.

    The page's :class:`~repro.cdn.content.PagePlan` makes one call into
    the edge cache for the whole page; the arithmetic per object stays
    as it was, in index order: rtt + window-limited transfer, then the
    edge's processing time on a hit or an origin fetch on a miss,
    summed into the object's connection.  Float addition does not
    associate, so that order is what keeps every milestone (and every
    digest over them) bit-identical.
    """
    plan = page.plan(provider.name)
    hits = server.serve_page(plan)
    if page.dynamic:
        # Personalized: always goes to origin over the overlay.
        server_time = origin.fetch_time_ms(edge_origin_rtt,
                                           page.origin_think_ms)
        object_hits = hits
    else:
        server_time = (EDGE_PROCESS_MS if hits[0] else
                       origin.fetch_time_ms(edge_origin_rtt,
                                            page.origin_think_ms))
        object_hits = hits[1:]
    per_connection: List[float] = [0.0] * PARALLEL_CONNECTIONS
    throughput_bytes_per_ms = TCP_WINDOW_BYTES / max(rtt, 1.0)
    fetch_ms = origin.fetch_time_ms(edge_origin_rtt, think_ms=8.0)
    for connection, size, hit in zip(plan.connections, plan.object_sizes,
                                     object_hits):
        object_ms = rtt + size / throughput_bytes_per_ms
        object_ms += EDGE_PROCESS_MS if hit else fetch_ms
        per_connection[connection] += object_ms
    download_ms = max(per_connection) if page.objects else 0.0
    return rtt + server_time, download_ms, hits.count(True)


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


class SessionMetrics:
    """Session-level registry metrics (demand-weighted histograms),
    bound once per world (``World.session_metrics``).

    Failed sessions count only toward ``sessions.failed`` -- their
    zeroed milestones would poison the latency histograms.  A completed
    session's three counters and five histograms are bound by the
    world's first completed session.  The conditional counters
    (``sessions.ecs_used`` and the fault path: ``sessions.failed`` /
    ``.degraded`` / ``.stale``, ``resolver.pop_failovers`` /
    ``.cold_cache_misses``) are created on first increment, so a
    healthy run's registry snapshot is unchanged by their existence.
    Either way each instrument is asked of the registry once.
    """

    __slots__ = ("registry", "completed", "requests", "edge_cache_hits",
                 "dns_ms", "rtt_ms", "ttfb_ms", "page_load_ms",
                 "mapping_distance_miles", "_conditional")

    def __init__(self, registry) -> None:
        self.registry = registry
        self.completed = None
        self._conditional: Dict[str, Counter] = {}

    def _bind(self) -> None:
        registry = self.registry
        self.completed = registry.counter("sessions.completed")
        self.requests = registry.counter("sessions.requests")
        self.edge_cache_hits = registry.counter("sessions.edge_cache_hits")
        self.dns_ms = registry.histogram("session.dns_ms")
        self.rtt_ms = registry.histogram("session.rtt_ms")
        self.ttfb_ms = registry.histogram("session.ttfb_ms")
        self.page_load_ms = registry.histogram("session.page_load_ms")
        self.mapping_distance_miles = registry.histogram(
            "session.mapping_distance_miles")

    def _count(self, name: str) -> None:
        counter = self._conditional.get(name)
        if counter is None:
            counter = self._conditional[name] = self.registry.counter(name)
        counter.inc()

    def record(self, block: ClientBlock, result: SessionResult) -> None:
        if result.failed:
            self._count("sessions.failed")
            return
        if self.completed is None:
            self._bind()
        self.completed.inc()
        self.requests.inc(result.requests)
        self.edge_cache_hits.inc(result.edge_cache_hits)
        if result.ecs_used:
            self._count("sessions.ecs_used")
        if result.degraded:
            self._count("sessions.degraded")
        if result.stale_served:
            self._count("sessions.stale")
        if result.catchment_shifted:
            self._count("resolver.pop_failovers")
        if result.cold_cache_miss:
            self._count("resolver.cold_cache_misses")
        weight = block.demand
        self.dns_ms.observe(result.dns_ms, weight)
        self.rtt_ms.observe(result.rtt_ms, weight)
        self.ttfb_ms.observe(result.ttfb_ms, weight)
        self.page_load_ms.observe(result.page_load_ms, weight)
        self.mapping_distance_miles.observe(
            result.mapping_distance_miles, weight)


def _with_noise(rtt_ms: float, rng: random.Random,
                sigma: float = 0.15) -> float:
    """Mean-one lognormal congestion noise on the measured RTT."""
    return rtt_ms * math.exp(rng.gauss(-0.5 * sigma * sigma, sigma))
