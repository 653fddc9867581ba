"""Autonomous systems of the synthetic Internet.

The AS population mirrors the structural facts the paper leans on:

* demand per AS is heavy-tailed (Pareto), so a handful of eyeball ISPs
  carry most traffic while tens of thousands of small ASes carry the
  rest (Figure 10's x-axis spans 2^-10 .. 2^-1 of total demand);
* small ISPs disproportionately outsource DNS to public resolvers;
* enterprise ASes have geographically diverse offices but centralized
  resolver infrastructure, often in another country.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Tuple

from repro.geo.cities import City


class ASKind(enum.Enum):
    """Broad role of an autonomous system."""

    EYEBALL_ISP = "eyeball_isp"
    """Access ISP serving consumer clients in one country."""

    ENTERPRISE = "enterprise"
    """Multi-office corporation with its own AS."""


class ResolverStrategy(enum.Enum):
    """How an AS provides recursive DNS to its clients (paper Section 3.2)."""

    LOCAL = "local"
    """Resolver deployed in every city of presence: LDNS is proximal."""

    ANYCAST_HUBS = "anycast_hubs"
    """Resolvers at a few regional hubs; clients reach the nearest via
    IP anycast (with occasional misrouting, Section 3.2's caveat)."""

    CENTRAL_NATIONAL = "central_national"
    """One resolver site in the country's largest presence city; the
    mechanism behind India/Turkey/Vietnam/Mexico's large distances."""

    CENTRAL_HQ = "central_hq"
    """Enterprise pattern: all offices use resolvers at headquarters,
    possibly across an ocean (the paper's Japan example)."""

    OUTSOURCED_PUBLIC = "outsourced_public"
    """The AS runs no resolvers; every client uses a public provider."""


@dataclass
class AutonomousSystem:
    """One AS: identity, footprint, demand, and DNS strategy."""

    asn: int
    name: str
    kind: ASKind
    country: str
    """Home country (ISO code).  Enterprises: headquarters country."""

    cities: List[City] = field(default_factory=list)
    """Cities of presence.  Element 0 is the primary (largest) city."""

    demand: float = 0.0
    """Client demand originated by this AS, in abstract demand units."""

    strategy: ResolverStrategy = ResolverStrategy.LOCAL
    hub_cities: List[City] = field(default_factory=list)
    """For ANYCAST_HUBS / CENTRAL_*: where the AS's resolvers live."""

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise ValueError(f"ASN must be positive: {self.asn}")

    def resolver_cities(self) -> List[City]:
        """Cities where this AS operates its own resolvers.

        Even a "local" deployment rarely covers *every* city of
        presence (resolver PoPs lag access PoPs); when hub_cities is
        populated it names the covered subset.
        """
        if self.strategy == ResolverStrategy.LOCAL:
            return list(self.hub_cities) if self.hub_cities else list(
                self.cities)
        if self.strategy == ResolverStrategy.OUTSOURCED_PUBLIC:
            return []
        return list(self.hub_cities)

    def __repr__(self) -> str:
        return (f"AS{self.asn}({self.name!r}, {self.kind.value}, "
                f"{self.country}, demand={self.demand:.1f}, "
                f"{self.strategy.value})")


def demand_shares(ases: List[AutonomousSystem]) -> List[Tuple[int, float]]:
    """(asn, share-of-total-demand) pairs, sorted by share descending.

    Figure 10 buckets ASes by this share (powers of two of total
    demand).
    """
    total = sum(a.demand for a in ases)
    if total <= 0:
        raise ValueError("total AS demand must be positive")
    shares = [(a.asn, a.demand / total) for a in ases]
    shares.sort(key=lambda pair: pair[1], reverse=True)
    return shares
