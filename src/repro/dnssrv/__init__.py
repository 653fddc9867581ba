"""The resolver stack: stub, recursive LDNS, authoritative, transport.

These components speak real DNS wire format to each other through an
in-memory network with simulated latency:

* :mod:`repro.dnssrv.transport` -- the network: registered endpoints,
  per-hop latency from the geolocation database, query accounting.
* :mod:`repro.dnssrv.cache` -- the ECS-aware recursive cache with
  RFC 7871 scope semantics (one entry per answer scope, not per name).
* :mod:`repro.dnssrv.authoritative` -- authoritative server framework:
  static zones, a whoami zone (NetSession's client--LDNS discovery
  trick), and a pluggable answer source for the mapping system.
* :mod:`repro.dnssrv.recursive` -- the LDNS: recursion, CNAME chasing,
  TTL bookkeeping, and optional EDNS0 client-subnet forwarding.
* :mod:`repro.dnssrv.stub` -- the client-side stub resolver.
"""

from repro.dnssrv.authoritative import (
    AuthoritativeServer,
    AnswerSource,
    StaticZone,
    WhoAmIZone,
    ZoneAnswer,
)
from repro.dnssrv.cache import CacheEntry, CacheStats, EcsAwareCache
from repro.dnssrv.recursive import RecursionResult, RecursiveResolver
from repro.dnssrv.stub import StubResolver
from repro.dnssrv.transport import AuthorityDirectory, Network, QuerySink

__all__ = [
    "AnswerSource",
    "AuthoritativeServer",
    "AuthorityDirectory",
    "CacheEntry",
    "CacheStats",
    "EcsAwareCache",
    "Network",
    "QuerySink",
    "RecursionResult",
    "RecursiveResolver",
    "StaticZone",
    "StubResolver",
    "WhoAmIZone",
    "ZoneAnswer",
]
