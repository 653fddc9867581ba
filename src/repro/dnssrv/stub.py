"""Client-side stub resolver.

The stub is what runs on the paper's "client": it forwards every query
to a configured LDNS and measures how long the resolution took.  The
DNS-lookup component of the RUM navigation timing (paper Section 4.2)
comes from here:

``dns_time = rtt(client, LDNS) + time the LDNS spent on recursion``

A cache hit at the LDNS costs the client only the first term -- which
is why the client--LDNS distance matters even when mapping is perfect.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.dnsproto.types import QType, Rcode
from repro.dnssrv.recursive import AgedAnswer, RecursiveResolver, Step
from repro.dnssrv.transport import Network

#: Time a stub waits on a dead LDNS before trying its fallback.
LDNS_TIMEOUT_MS = 1000.0


class Resolution(AgedAnswer):
    """What the client learned from one DNS lookup.

    ``records`` are the LDNS's answer with TTLs aged to the moment of
    the lookup, materialised on first read (see :class:`AgedAnswer`);
    ``addresses`` and ``ok`` never need them.
    """

    __slots__ = ("rcode", "dns_time_ms", "ldns_cache_hit",
                 "upstream_queries", "failed_over", "stale")

    def __init__(self, steps: Tuple[Step, ...], now: float, rcode: int,
                 dns_time_ms: float, ldns_cache_hit: bool,
                 upstream_queries: int, failed_over: bool = False,
                 stale: bool = False) -> None:
        AgedAnswer.__init__(self, steps, now)
        self.rcode = rcode
        self.dns_time_ms = dns_time_ms
        self.ldns_cache_hit = ldns_cache_hit
        self.upstream_queries = upstream_queries
        self.failed_over = failed_over
        """True when the configured LDNS was dark and the stub retried
        through its fallback resolver (after burning the timeout)."""
        self.stale = stale
        """True when the answer came from an expired cache entry served
        under RFC 8767 serve-stale."""

    @property
    def ok(self) -> bool:
        return self.rcode == Rcode.NOERROR and bool(self.addresses)


class StubResolver:
    """A client's resolver: one client IP, one (or more) LDNS."""

    def __init__(self, client_ip: int, network: Network) -> None:
        self.client_ip = client_ip
        self.network = network

    def resolve(
        self,
        qname: str,
        ldns: RecursiveResolver,
        now: float,
        qtype: int = QType.A,
        fallback: Optional[RecursiveResolver] = None,
    ) -> Resolution:
        """Resolve through the given LDNS, measuring elapsed time.

        If the LDNS is dark (an injected blackout) the stub burns
        :data:`LDNS_TIMEOUT_MS` and retries through ``fallback`` --
        the behaviour of clients configured with a public resolver as
        secondary.  No fallback (or a dead one) means SERVFAIL.
        """
        client_hop_ms = self.network.rtt_ms(self.client_ip, ldns.ip)
        tracer = self.network.obs.tracer
        if not getattr(ldns, "alive", True):
            if tracer.active:
                tracer.event(
                    "stub.hop", ldns=ldns.name, rtt_ms=client_hop_ms,
                    timeout=True, penalty_ms=LDNS_TIMEOUT_MS)
            burned = client_hop_ms + LDNS_TIMEOUT_MS
            if fallback is None or not getattr(fallback, "alive", True):
                return Resolution((), now, Rcode.SERVFAIL, burned, False,
                                  0, failed_over=True)
            inner = self.resolve(qname, fallback, now, qtype)
            return Resolution(
                inner.steps, now, inner.rcode, burned + inner.dns_time_ms,
                inner.ldns_cache_hit, inner.upstream_queries,
                failed_over=True, stale=inner.stale)
        if tracer.active:
            tracer.event("stub.hop", ldns=ldns.name, rtt_ms=client_hop_ms)
        result = ldns.resolve(qname, qtype, self.client_ip, now)
        return Resolution(
            result.steps, now, result.rcode,
            client_hop_ms + result.upstream_rtt_ms, result.cache_hit,
            result.upstream_queries, stale=result.stale)
