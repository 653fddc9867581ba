"""Recursive resolver (LDNS) deployments and public resolver providers.

Two populations of LDNSes exist in the simulator, matching Section 2 of
the paper:

* **ISP/enterprise resolvers** -- owned by an AS, placed according to
  its :class:`~repro.topology.ases.ResolverStrategy`.
* **Public resolver providers** -- third parties ("Google Public DNS or
  OpenDNS") operating a *globally anycast* fleet.  Clients reach the
  deployment chosen by :func:`anycast_catchment`; the provider talks to
  authoritative name servers from the deployment's *unicast* address,
  which is what lets both Akamai and this simulator geo-locate the LDNS
  (Section 3.2).

Public providers support the EDNS0 client-subnet extension; ISP
resolvers in 2014 generally did not.  Whether a provider actually
*sends* ECS at a given simulated time is controlled by the roll-out
scenario, not here.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.codec import RUNTIME
from repro.geo.cities import City, city_index
from repro.net.geometry import (
    EARTH_RADIUS_MILES,
    GeoPoint,
    central_angle,
    great_circle_miles,
)


class ResolverKind(enum.Enum):
    """Which population a resolver deployment belongs to."""

    ISP = "isp"
    ENTERPRISE = "enterprise"
    PUBLIC = "public"


@dataclass(frozen=True, slots=True)
class Resolver:
    """One LDNS deployment (one unicast-addressable resolver site)."""

    resolver_id: str
    ip: int
    geo: GeoPoint
    city: str
    country: str
    asn: int
    kind: ResolverKind
    provider: str
    """Operator name: AS name for ISP/enterprise, provider for public."""

    @property
    def is_public(self) -> bool:
        return self.kind == ResolverKind.PUBLIC


@dataclass
class PublicProvider:
    """A public DNS provider: a brand plus an anycast deployment fleet."""

    name: str
    asn: int
    deployment_cities: List[str]
    """City names (gazetteer keys) hosting resolver sites."""
    popularity: float
    """Relative probability that a public-resolver user picks this
    provider (market share)."""
    misroute_rate: float = 0.12
    """Probability anycast routes a client past its nearest deployment
    (the paper cites anycast's known limitations, Section 3.2)."""

    deployments: List[Resolver] = field(default_factory=list,
                                        metadata=RUNTIME)
    """Populated by the topology builder once IPs are allocated."""

    def cities(self) -> List[City]:
        index = city_index()
        return [index[name] for name in self.deployment_cities]


#: The default provider fleet.  Deployment footprints follow the 2014
#: reality the paper observes: dense in North America/Europe, present at
#: Asian hubs, and -- critically for Figure 8 -- absent from South
#: America, so Argentine and Brazilian users cross an ocean.
DEFAULT_PUBLIC_PROVIDERS: Tuple[PublicProvider, ...] = (
    PublicProvider(
        name="GloboDNS",
        asn=15169,
        deployment_cities=[
            "Washington", "Dallas", "San Francisco", "Chicago",
            "London", "Frankfurt", "Amsterdam",
            "Singapore", "Taipei", "Tokyo", "Sydney",
        ],
        popularity=0.66,
    ),
    PublicProvider(
        name="OpenFast",
        asn=36692,
        deployment_cities=[
            "San Francisco", "New York", "Chicago", "Miami",
            "London", "Amsterdam",
            "Singapore", "Hong Kong", "Sydney",
        ],
        popularity=0.22,
    ),
    PublicProvider(
        name="UltraLevel",
        asn=3356,
        deployment_cities=[
            "New York", "Dallas", "Los Angeles", "London", "Frankfurt",
        ],
        popularity=0.12,
    ),
)


#: Float headroom on the candidate cut, in miles: far above the
#: nanomile error of a computed distance or block displacement, so it
#: can only admit a PoP, never drop a nearest one.
_CUT_SLACK_MILES = 1e-3


def _radians(geo: GeoPoint) -> Tuple[float, float, float]:
    lat = math.radians(geo.lat)
    return lat, math.radians(geo.lon), math.cos(lat)


class AnycastFleet:
    """A deployment list prepared for many catchment picks.

    Each PoP's radians and latitude cosine are computed once.  For
    clients within ``reach_miles`` of a city centre, :meth:`near` cuts
    the fleet once per city: with ``m`` the centre's distance to its
    nearest PoP, that PoP is within ``m + reach`` of every such client,
    while a PoP farther than ``m + 2 * reach`` from the centre is
    farther than ``m + reach`` from all of them (triangle inequality).
    So the cut holds every client's nearest PoP, ties included.
    """

    __slots__ = ("deployments", "reach_miles", "_points", "_near")

    def __init__(self, deployments: Sequence[Resolver],
                 reach_miles: float = 0.0) -> None:
        self.deployments = tuple(deployments)
        self.reach_miles = reach_miles
        self._points = tuple(_radians(dep.geo) for dep in self.deployments)
        self._near: Dict[str, Sequence[int]] = {}

    def miles(self, geo: GeoPoint,
              indices: Optional[Sequence[int]] = None) -> List[float]:
        """``great_circle_miles(geo, pop)``, bit for bit, for the PoPs at
        ``indices`` (default: all, in fleet order)."""
        client, points = _radians(geo), self._points
        return [central_angle(*client, *points[i]) * EARTH_RADIUS_MILES
                for i in (range(len(points)) if indices is None
                          else indices)]

    def near(self, city: City) -> Sequence[int]:
        """Indices, in fleet order, of the PoPs that can be nearest to a
        client within ``reach_miles`` of ``city``; memoised per city."""
        cut = self._near.get(city.name)
        if cut is None:
            miles = self.miles(city.geo)
            limit = min(miles) + 2.0 * self.reach_miles + _CUT_SLACK_MILES
            cut = self._near[city.name] = tuple(
                i for i, d in enumerate(miles) if d <= limit)
        return cut


def anycast_catchment(
    client_geo: GeoPoint,
    deployments: Union[Sequence[Resolver], AnycastFleet],
    rng: random.Random,
    misroute_rate: float = 0.12,
    home: Optional[City] = None,
) -> Resolver:
    """Pick the anycast deployment a client's packets actually reach.

    With probability ``1 - misroute_rate`` the geographically nearest
    deployment wins (the intended behaviour; ties go to the first in
    fleet order).  Otherwise BGP path selection sends the client
    somewhere else; misroutes prefer nearer alternates but occasionally
    cross continents, reproducing the heavy upper percentiles of
    public-resolver client--LDNS distance.

    ``deployments`` may be a prebuilt :class:`AnycastFleet`.  Given the
    ``home`` city the client lies within the fleet's reach of, a pick
    that is not misrouted measures only that city's cut, and a lone
    candidate no distance at all.
    """
    fleet = (deployments if isinstance(deployments, AnycastFleet)
             else AnycastFleet(deployments))
    pops = fleet.deployments
    if not pops:
        raise ValueError("anycast catchment over an empty deployment list")
    if len(pops) == 1:
        # Single-draw pick parity (the convention topology.traffic
        # follows): consume the misroute draw even when the choice is
        # trivial, so a fleet shrinking to one PoP mid-run keeps the
        # RNG stream aligned with the healthy world's.
        rng.random()
        return pops[0]
    if rng.random() >= misroute_rate:
        cut = range(len(pops)) if home is None else fleet.near(home)
        if len(cut) == 1:
            return pops[cut[0]]
        miles = fleet.miles(client_geo, cut)
        return pops[cut[miles.index(min(miles))]]
    # Misrouted: geometric preference for lower-ranked alternates.
    miles = fleet.miles(client_geo)
    ranked = sorted(range(len(pops)), key=miles.__getitem__)
    alternates = [pops[i] for i in ranked[1:]]
    weights = [math.pow(0.5, i) for i in range(len(alternates))]
    return rng.choices(alternates, weights=weights, k=1)[0]


def providers_by_name(
    providers: Sequence[PublicProvider],
) -> Dict[str, PublicProvider]:
    return {p.name: p for p in providers}


# ---------------------------------------------------------------------------
# The resolver plane: per-provider ECS policy and live anycast PoP fleets


@dataclass(frozen=True, slots=True)
class EcsPolicy:
    """One provider's ECS policy (the RFC 7871 operational knobs).

    Real public resolvers do not send ECS unconditionally: Google-style
    operators keep a *whitelist* of authoritative operators that receive
    the option at all, and independently cap how fine a client prefix
    they are willing to reveal.  Both knobs dominate the resolver/CDN
    interplay Al-Dalky & Rabinovich measure, so both are modeled:

    * ``whitelist_enabled`` -- whether the CDN's name servers are on
      the provider's ECS whitelist.  Off means the provider answers
      from NS-quality (resolver-located) mapping only.
    * ``scope_ceiling`` -- the coarsest-allowed client prefix length
      the provider will put in the option (and accept back as a cache
      scope).  A ceiling below the stub's source length trades mapping
      precision for cache efficiency.

    The defaults are the recursive resolver's own: whitelist on, no
    narrowing below the roll-out's ``ecs_source_len``.
    """

    whitelist_enabled: bool = True
    scope_ceiling: int = 32

    def __post_init__(self) -> None:
        if not 0 < self.scope_ceiling <= 32:
            raise ValueError(
                f"scope_ceiling must be in (0, 32]: {self.scope_ceiling}")


@dataclass(frozen=True)
class ResolverPolicySet:
    """The per-provider ECS policy matrix.

    Pure scenario data (``ScenarioSpec.resolver_policies``): providers
    not named fall back to the default :class:`EcsPolicy`, so the empty
    set -- the default -- means 2014-faithful policies everywhere.
    """

    policies: Tuple[Tuple[str, EcsPolicy], ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.policies))
        names = [name for name, _ in ordered]
        if len(set(names)) != len(names):
            raise ValueError(
                f"duplicate provider in resolver policies: {names}")
        object.__setattr__(self, "policies", ordered)

    def policy_for(self, provider: str) -> EcsPolicy:
        for name, policy in self.policies:
            if name == provider:
                return policy
        return EcsPolicy()


@dataclass
class ResolverPoP:
    """One live anycast PoP: a deployment plus its runtime health.

    The per-PoP *cache* already lives in the deployment's
    :class:`~repro.dnssrv.recursive.RecursiveResolver` (one recursive
    per deployment, keyed by ``resolver_id``), so this object carries
    the remaining fleet state: reachability via anycast (``healthy``,
    i.e. whether the PoP's route is announced) and nominal capacity.
    """

    resolver: Resolver
    healthy: bool = True
    capacity_qps: float = 100_000.0

    @property
    def resolver_id(self) -> str:
        return self.resolver.resolver_id


@dataclass
class ResolverFleets:
    """Live anycast PoP fleets for every public provider.

    Every world carries one as ``world.resolver_fleets``, built from
    ``ScenarioSpec.resolver_policies``.  Build-time catchments are left
    untouched -- a healthy fleet routes every session exactly where the
    static world would -- and :meth:`route` deterministically re-homes
    only the sessions whose intended PoP is withdrawn or flapping.  No
    RNG is drawn, so fault and healthy worlds stay stream-aligned.
    """

    pops: Dict[str, ResolverPoP] = field(default_factory=dict)
    by_provider: Dict[str, List[ResolverPoP]] = field(default_factory=dict)
    policies: ResolverPolicySet = field(default_factory=ResolverPolicySet)
    flapping: set = field(default_factory=set)
    """Provider names whose anycast routes are currently flapping."""

    @classmethod
    def from_providers(
        cls,
        providers: Sequence[PublicProvider],
        policies: Optional[ResolverPolicySet] = None,
    ) -> "ResolverFleets":
        fleets = cls(policies=policies or ResolverPolicySet())
        for provider in providers:
            pops = [ResolverPoP(resolver=dep)
                    for dep in sorted(provider.deployments,
                                      key=lambda d: d.resolver_id)]
            fleets.by_provider[provider.name] = pops
            for pop in pops:
                fleets.pops[pop.resolver_id] = pop
        return fleets

    # -- health ----------------------------------------------------------

    def withdraw(self, resolver_id: str) -> None:
        """BGP-withdraw one PoP: anycast stops routing clients to it."""
        self.pops[resolver_id].healthy = False

    def restore(self, resolver_id: str) -> None:
        self.pops[resolver_id].healthy = True

    def healthy_pops(self, provider: str) -> List[ResolverPoP]:
        return [p for p in self.by_provider.get(provider, ())
                if p.healthy]

    def all_healthy(self) -> bool:
        return (not self.flapping
                and all(p.healthy for p in self.pops.values()))

    @property
    def pops_total(self) -> int:
        return len(self.pops)

    @property
    def pops_down(self) -> int:
        return sum(1 for p in self.pops.values() if not p.healthy)

    # -- routing ---------------------------------------------------------

    def disturbed(self, resolver_id: str) -> bool:
        """Whether anycast may deliver a session meant for this id
        anywhere else: it is a PoP that is withdrawn or whose provider
        flaps.  Every other session goes where it was sent, so only
        these need :meth:`route`."""
        pop = self.pops.get(resolver_id)
        return pop is not None and (
            not pop.healthy or pop.resolver.provider in self.flapping)

    def route(self, resolver_id: str, block) -> Optional[str]:
        """Where anycast delivers a session intended for one PoP.

        ``block`` is the client's block (anything with ``geo`` and
        ``prefix.network``).  Returns the resolver id actually reached,
        or ``None`` when every PoP of the provider is withdrawn (the
        fleet is dark and the stub must burn its timeout).

        Deterministic by construction: a healthy, non-flapping fleet
        returns ``resolver_id`` unchanged (preserving the build-time
        misroute catchments byte-for-byte); a withdrawn PoP re-homes to
        the nearest healthy sibling; a flapping provider oscillates
        half its catchment -- blocks whose third octet is odd -- to the
        next-nearest healthy PoP, modeling the route instability that
        shifts anycast catchments without taking capacity down.
        """
        pop = self.pops.get(resolver_id)
        if pop is None:
            return resolver_id  # not a public PoP: fleets don't apply
        provider = pop.resolver.provider
        flapped = (provider in self.flapping
                   and (block.prefix.network >> 8) & 1 == 1)
        if pop.healthy and not flapped:
            return resolver_id
        ranked = sorted(
            self.healthy_pops(provider),
            key=lambda p: (great_circle_miles(block.geo, p.resolver.geo),
                           p.resolver_id))
        if not ranked:
            return None
        if flapped and pop.healthy:
            alternates = [p for p in ranked
                          if p.resolver_id != resolver_id]
            return (alternates[0] if alternates else ranked[0]).resolver_id
        return ranked[0].resolver_id
