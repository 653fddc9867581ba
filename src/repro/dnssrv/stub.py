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

from typing import Optional

from repro.dnsproto.types import QType, Rcode
from repro.dnssrv.recursive import RecursionResult, RecursiveResolver
from repro.dnssrv.transport import Network

#: Time a stub waits on a dead LDNS before trying its fallback.
LDNS_TIMEOUT_MS = 1000.0


def resolve(client_ip: int, network: Network, qname: str,
            ldns: RecursiveResolver, now: float, qtype: int = QType.A,
            fallback: Optional[RecursiveResolver] = None
            ) -> RecursionResult:
    """Resolve ``qname`` for the client at ``client_ip`` through the
    given LDNS, measuring elapsed time.

    What the client learns is the LDNS's own result, its
    ``dns_time_ms`` grown by the client's hop (and by the timeout
    burned on a dark LDNS, with ``failed_over`` set).  Its ``records``
    are the answer with TTLs aged to the moment of the lookup,
    materialised on first read (see
    :class:`~repro.dnssrv.recursive.RecursionResult`); ``addresses``
    and ``ok`` never need them.

    If the LDNS is dark (an injected blackout) the stub burns
    :data:`LDNS_TIMEOUT_MS` and retries through ``fallback`` -- the
    behaviour of clients configured with a public resolver as
    secondary.  No fallback (or a dead one) means SERVFAIL.
    """
    client_hop_ms = network.rtt_ms(client_ip, ldns.ip)
    tracer = network.obs.tracer
    if not getattr(ldns, "alive", True):
        if tracer.active:
            tracer.event(
                "stub.hop", ldns=ldns.name, rtt_ms=client_hop_ms,
                timeout=True, penalty_ms=LDNS_TIMEOUT_MS)
        burned = client_hop_ms + LDNS_TIMEOUT_MS
        if fallback is None or not getattr(fallback, "alive", True):
            result = RecursionResult((), now, Rcode.SERVFAIL, False, 0,
                                     0.0)
            result.dns_time_ms = burned
        else:
            result = resolve(client_ip, network, qname, fallback, now,
                             qtype)
            result.dns_time_ms = burned + result.dns_time_ms
        result.failed_over = True
        return result
    if tracer.active:
        tracer.event("stub.hop", ldns=ldns.name, rtt_ms=client_hop_ms)
    result = ldns.resolve(qname, qtype, client_ip, now)
    result.dns_time_ms = client_hop_ms + result.upstream_rtt_ms
    return result


class StubResolver:
    """A client's resolver: one client IP, one (or more) LDNS.

    For callers that keep one per client; a caller with a client per
    lookup calls :func:`resolve` and builds none.
    """

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
    ) -> RecursionResult:
        """:func:`resolve` for this stub's client."""
        return resolve(self.client_ip, self.network, qname, ldns, now,
                       qtype, fallback)
