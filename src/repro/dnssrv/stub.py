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

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv.recursive import RecursiveResolver
from repro.dnssrv.transport import Network

#: Time a stub waits on a dead LDNS before trying its fallback.
LDNS_TIMEOUT_MS = 1000.0


@dataclass(frozen=True, slots=True)
class Resolution:
    """What the client learned from one DNS lookup."""

    records: Tuple[ResourceRecord, ...]
    rcode: int
    dns_time_ms: float
    ldns_cache_hit: bool
    upstream_queries: int
    failed_over: bool = False
    """True when the configured LDNS was dark and the stub retried
    through its fallback resolver (after burning the timeout)."""
    stale: bool = False
    """True when the answer came from an expired cache entry served
    under RFC 8767 serve-stale."""

    @property
    def addresses(self) -> List[int]:
        return [record.rdata.address for record in self.records
                if record.rtype == QType.A]

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
        if not getattr(ldns, "alive", True):
            self.network.obs.tracer.event(
                "stub.hop", ldns=ldns.name, rtt_ms=client_hop_ms,
                timeout=True, penalty_ms=LDNS_TIMEOUT_MS)
            burned = client_hop_ms + LDNS_TIMEOUT_MS
            if fallback is None or not getattr(fallback, "alive", True):
                return Resolution(
                    records=(), rcode=Rcode.SERVFAIL,
                    dns_time_ms=burned, ldns_cache_hit=False,
                    upstream_queries=0, failed_over=True)
            inner = self.resolve(qname, fallback, now, qtype)
            return Resolution(
                records=inner.records,
                rcode=inner.rcode,
                dns_time_ms=burned + inner.dns_time_ms,
                ldns_cache_hit=inner.ldns_cache_hit,
                upstream_queries=inner.upstream_queries,
                failed_over=True,
                stale=inner.stale,
            )
        self.network.obs.tracer.event("stub.hop", ldns=ldns.name,
                                      rtt_ms=client_hop_ms)
        result = ldns.resolve(qname, qtype, self.client_ip, now)
        return Resolution(
            records=result.records,
            rcode=result.rcode,
            dns_time_ms=client_hop_ms + result.upstream_rtt_ms,
            ldns_cache_hit=result.cache_hit,
            upstream_queries=result.upstream_queries,
            stale=result.stale,
        )
