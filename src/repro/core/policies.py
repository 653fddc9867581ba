"""Request-routing policies: NS-based, end-user, and client-aware NS.

A policy answers one question: *given what the DNS query tells us, what
target should we optimize server placement for?*

* :class:`NSMappingPolicy` -- Equation 1: the target is the LDNS
  itself.  This is all a traditional mapping system can do, because the
  DNS protocol only reveals the resolver's address.
* :class:`EUMappingPolicy` -- Equation 2: when the query carries an
  EDNS0 client-subnet option, the target is the client's /24 block;
  falls back to the LDNS when ECS is absent (exactly the production
  behaviour during the incremental roll-out).
* :class:`CANSMappingPolicy` -- Section 6's hybrid: the target is the
  *set of clients known to use this LDNS* (from NetSession-style
  pairing data), scored as a demand-weighted aggregate.  Client-aware,
  but needs no protocol extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Tuple

from repro.dnsproto.edns import ClientSubnetOption
from repro.geo.database import GeoDatabase
from repro.net.geometry import GeoPoint
from repro.net.ipv4 import Prefix


@dataclass(frozen=True, slots=True)
class MapTarget:
    """What the scorer optimizes for: a point (or weighted set)."""

    geo: GeoPoint
    asn: int
    members: Tuple[Tuple["MapTarget", float], ...] = ()
    """Non-empty for aggregate targets (CANS): (target, weight) pairs.
    The top-level geo/asn then hold the demand-weighted centroid."""

    @property
    def is_aggregate(self) -> bool:
        return bool(self.members)


@dataclass(frozen=True, slots=True)
class ResolutionContext:
    """Everything the policy may inspect for one query."""

    qname: str
    ldns_ip: int
    ecs: Optional[ClientSubnetOption]


class MappingPolicy(Protocol):
    """Strategy interface for choosing the mapping target."""

    name: str

    def decide(self, context: ResolutionContext
               ) -> Tuple[Optional[MapTarget], Optional[int]]:
        """``(target, scope)`` from one look at the query: the mapping
        target (None when it cannot be placed) and the RFC 7871 scope
        to return (0 for 'not client-specific')."""
        ...


class NSMappingPolicy:
    """Traditional mapping: route by the resolver's location."""

    name = "ns"

    def __init__(self, geodb: GeoDatabase) -> None:
        self._geodb = geodb

    def decide(self, context: ResolutionContext
               ) -> Tuple[Optional[MapTarget], Optional[int]]:
        # The answer depends only on the LDNS: scope 0, cacheable for
        # every client behind this resolver.
        record = self._geodb.lookup(context.ldns_ip)
        if record is None:
            return None, 0
        return MapTarget(geo=record.geo, asn=record.asn), 0


class EUMappingPolicy:
    """End-user mapping: route by the client's /24 when ECS is present.

    ``scope_prefix_len`` is the /y the authority declares on answers
    (paper Section 2.1: "the name server can return a resolution that
    is valid for a superset of the client's /x IP block").  Returning a
    scope shorter than /24 trades mapping precision for cache reuse --
    the ablation in ``tests/test_ablations.py`` sweeps this.
    """

    name = "eu"

    def __init__(self, geodb: GeoDatabase,
                 scope_prefix_len: int = 24) -> None:
        if not 0 < scope_prefix_len <= 32:
            raise ValueError(f"bad scope length {scope_prefix_len}")
        self._geodb = geodb
        self.scope_prefix_len = scope_prefix_len
        self._fallback = NSMappingPolicy(geodb)

    def decide(self, context: ResolutionContext
               ) -> Tuple[Optional[MapTarget], Optional[int]]:
        """The client's block and the configured scope; without ECS,
        or for a client subnet the geo database cannot place, the LDNS
        and scope 0 -- that answer is not client-specific."""
        ecs = context.ecs
        if ecs is not None:
            record = self._geodb.lookup_prefix(ecs.prefix)
            if record is not None:
                return (MapTarget(geo=record.geo, asn=record.asn),
                        min(self.scope_prefix_len, ecs.source_prefix_len))
        return self._fallback.decide(context)


class ClientClusterIndex:
    """Client clusters per LDNS, from NetSession-style pairing data.

    For each LDNS address, holds the demand-weighted set of client
    locations observed using it (the paper's 'client cluster',
    Section 3.3).  Aggregates are truncated to the heaviest
    ``max_members`` members for tractability.
    """

    def __init__(self, geodb: GeoDatabase, max_members: int = 32) -> None:
        if max_members < 1:
            raise ValueError(
                f"a client cluster needs at least one member, got "
                f"max_members={max_members}")
        self._geodb = geodb
        self._max_members = max_members
        self._clusters: Dict[int, List[Tuple[Prefix, float]]] = {}

    def observe(self, ldns_ip: int, client_prefix: Prefix,
                weight: float) -> None:
        """Record that clients in ``client_prefix`` use this LDNS."""
        self._clusters.setdefault(ldns_ip, []).append(
            (client_prefix, weight))

    def cluster_for(self, ldns_ip: int) -> Optional[MapTarget]:
        entries = self._clusters.get(ldns_ip)
        if not entries:
            return None
        entries = sorted(entries, key=lambda e: e[1], reverse=True)
        entries = entries[: self._max_members]
        members: List[Tuple[MapTarget, float]] = []
        for prefix, weight in entries:
            record = self._geodb.lookup_prefix(prefix)
            if record is None:
                continue
            members.append(
                (MapTarget(geo=record.geo, asn=record.asn), weight))
        if not members:
            return None
        # Centroid summary for callers that need one point.
        total = sum(w for _, w in members)
        lat = sum(t.geo.lat * w for t, w in members) / total
        lon = sum(t.geo.lon * w for t, w in members) / total
        dominant_asn = max(members, key=lambda m: m[1])[0].asn
        return MapTarget(geo=GeoPoint(lat, lon), asn=dominant_asn,
                         members=tuple(members))

    def __len__(self) -> int:
        return len(self._clusters)


class CANSMappingPolicy:
    """Client-aware NS mapping: optimize for the LDNS's client cluster."""

    name = "cans"

    def __init__(self, geodb: GeoDatabase,
                 clusters: ClientClusterIndex) -> None:
        self._clusters = clusters
        self._fallback = NSMappingPolicy(geodb)

    def decide(self, context: ResolutionContext
               ) -> Tuple[Optional[MapTarget], Optional[int]]:
        # Like NS mapping, the answer is per-LDNS, not per-client.
        aggregate = self._clusters.cluster_for(context.ldns_ip)
        if aggregate is not None:
            return aggregate, 0
        return self._fallback.decide(context)
