"""The synthetic Internet: configuration, builder, and container.

:func:`build_internet` generates a deterministic miniature Internet from
an :class:`InternetConfig` and a seed: autonomous systems, /24 client
blocks with heavy-tailed demand, the LDNS population (ISP, enterprise,
and anycast public-resolver deployments), a BGP table of routed CIDRs,
and a geolocation database covering everything.

Everything downstream -- the DNS stack, the CDN, the mapping system, and
every experiment -- consumes the :class:`Internet` container built here.
"""

from __future__ import annotations

import bisect
import dataclasses
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geo.cities import City, WORLD_CITIES, cities_by_country, city_index
from repro.geo.database import GeoDatabase, GeoRecord
from repro.net.geometry import GeoPoint, displace, displace_from
from repro.net.ipv4 import Prefix
from repro.topology.addressing import (
    AddressAllocator,
    BGPTable,
    RESOLVER_SPACE_START,
)
from repro.topology.ases import ASKind, AutonomousSystem, ResolverStrategy
from repro.topology.demand import (
    lognormal_weights,
    pareto_weights,
    zipf_weights,
)
from repro.topology.profiles import profile_for
from repro.topology.resolvers import (
    DEFAULT_PUBLIC_PROVIDERS,
    AnycastFleet,
    PublicProvider,
    Resolver,
    ResolverKind,
    anycast_catchment,
)

#: Access-technology last-mile RTT penalties (ms) and their global mix.
_LAST_MILE_CHOICES: Tuple[Tuple[str, float], ...] = (
    ("fiber", 2.0),
    ("cable", 8.0),
    ("dsl", 18.0),
    ("cellular", 45.0),
)
_LAST_MILE_WEIGHTS: Tuple[float, ...] = (0.15, 0.30, 0.35, 0.20)
_TWO_PI = 2 * math.pi
_set_slot = object.__setattr__


@dataclass(frozen=True, slots=True)
class ClientBlock:
    """One /24 client IP block: the finest client granularity we model.

    The paper aggregates clients to /24 blocks throughout (NetSession
    data, ECS queries, mapping units), so a block is also our atom.
    """

    prefix: Prefix
    geo: GeoPoint
    city: str
    country: str
    continent: str
    asn: int
    demand: float
    last_mile_ms: float
    access: str
    ldns: Tuple[Tuple[str, float], ...]
    """(resolver_id, relative frequency) pairs; frequencies sum to 1.
    NetSession observes exactly this set per block (Section 3.1)."""

    @property
    def primary_ldns(self) -> str:
        """The resolver this block uses most of the time."""
        return max(self.ldns, key=lambda pair: pair[1])[0]

    def pick_ldns(self, rng: random.Random) -> str:
        """Sample a resolver for one session, by relative frequency."""
        if len(self.ldns) == 1:
            return self.ldns[0][0]
        ids = [pair[0] for pair in self.ldns]
        weights = [pair[1] for pair in self.ldns]
        return rng.choices(ids, weights=weights, k=1)[0]


@dataclass(frozen=True)
class InternetConfig:
    """Knobs of the topology generator.

    The class methods give the three standard scales: ``tiny`` for unit
    tests, ``small`` for exploration, ``paper`` for the EXPERIMENTS.md runs.
    """

    n_client_blocks: int = 6000
    n_ases: int = 400
    enterprise_fraction: float = 0.12
    pareto_alpha: float = 1.1
    block_jitter_miles: float = 25.0
    block_demand_sigma: float = 1.5
    secondary_ldns_rate: float = 0.25
    """Probability a block's clients spread across two LDNSes."""
    isp_anycast_misroute: float = 0.10
    providers: Tuple[PublicProvider, ...] = DEFAULT_PUBLIC_PROVIDERS
    total_demand: float = 1_000_000.0
    """Total client demand in abstract units (normalization target)."""

    def __post_init__(self) -> None:
        if self.n_client_blocks < self.n_ases:
            raise ValueError("need at least one block per AS")
        if not 0.0 <= self.enterprise_fraction < 1.0:
            raise ValueError("enterprise_fraction must be in [0, 1)")
        if self.n_ases < 50:
            raise ValueError(
                "n_ases < 50 cannot cover the gazetteer's countries")
        # The anycast candidate cut needs blocks within a finite reach
        # of their city.  NaN fails every comparison below.
        if not 0.0 <= self.block_jitter_miles < math.inf:
            raise ValueError(
                f"bad block_jitter_miles: {self.block_jitter_miles}")
        for name in ("secondary_ldns_rate", "isp_anycast_misroute"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"{name} not in [0, 1]: {getattr(self, name)}")
        if not 0.0 < self.total_demand < math.inf:
            raise ValueError(f"bad total_demand: {self.total_demand}")

    @classmethod
    def tiny(cls) -> "InternetConfig":
        """Smallest config that still exercises every mechanism."""
        return cls(n_client_blocks=1000, n_ases=90)

    @classmethod
    def small(cls) -> "InternetConfig":
        """Default experimentation scale (seconds to build)."""
        return cls(n_client_blocks=6000, n_ases=400)

    @classmethod
    def paper(cls) -> "InternetConfig":
        """Scale used for the numbers recorded in EXPERIMENTS.md."""
        return cls(n_client_blocks=40000, n_ases=2200)


@dataclass(frozen=True, slots=True)
class BlockColumns:
    """Columnar (structure-of-arrays) view over the client blocks.

    One row per block, in ``Internet.blocks`` order, for the vectorized
    kernels in :mod:`repro.net.batch`: bulk block->target assignment,
    RTT matrices, demand-weighted reductions.
    """

    lat: np.ndarray
    lon: np.ndarray
    asn: np.ndarray
    demand: np.ndarray
    last_mile_ms: np.ndarray
    cidr: np.ndarray
    """Row in ``Internet.bgp.announcements()`` of the routed CIDR that
    covers the block: the AS x city chunk it was made in."""

    def __len__(self) -> int:
        return int(self.lat.size)


@dataclass
class Internet:
    """Container for one generated Internet."""

    config: InternetConfig
    seed: int
    ases: Dict[int, AutonomousSystem]
    blocks: List[ClientBlock]
    resolvers: Dict[str, Resolver]
    providers: Tuple[PublicProvider, ...]
    bgp: BGPTable
    geodb: GeoDatabase
    block_cidrs: Sequence[int]
    """Per block, in ``blocks`` order: the row in ``bgp.announcements()``
    of its covering CIDR, recorded by the generator as it announced the
    block's chunk (:attr:`BlockColumns.cidr`)."""

    _cum_demand: List[float] = field(default_factory=list, repr=False)
    _columns: Optional[BlockColumns] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        self._cum_demand = list(itertools.accumulate(
            block.demand for block in self.blocks))
        self._columns = None

    # -- lookups ---------------------------------------------------------

    @property
    def total_demand(self) -> float:
        return self._cum_demand[-1] if self._cum_demand else 0.0

    def resolver(self, resolver_id: str) -> Resolver:
        return self.resolvers[resolver_id]

    def pick_block(self, rng: random.Random) -> ClientBlock:
        """Demand-weighted random block (a 'client session arrives')."""
        if not self.blocks:
            raise ValueError("Internet has no client blocks")
        target = rng.random() * self.total_demand
        index = bisect.bisect_right(self._cum_demand, target)
        return self.blocks[min(index, len(self.blocks) - 1)]

    def block_columns(self) -> BlockColumns:
        """Columnar lat/lon/asn/demand/CIDR arrays over ``blocks``.

        Extracted once and cached; blocks are immutable so the view
        never goes stale.  Row ``i`` is ``self.blocks[i]``.
        """
        if self._columns is None:
            blocks = self.blocks

            def column(values: Iterable, dtype: type = float) -> np.ndarray:
                return np.fromiter(values, dtype=dtype, count=len(blocks))
            self._columns = BlockColumns(
                lat=column(b.geo.lat for b in blocks),
                lon=column(b.geo.lon for b in blocks),
                asn=column((b.asn for b in blocks), np.int64),
                demand=column(b.demand for b in blocks),
                last_mile_ms=column(b.last_mile_ms for b in blocks),
                cidr=column(self.block_cidrs, np.int64))
        return self._columns

    # -- aggregate views -------------------------------------------------

    def public_resolver_ids(self) -> set:
        return {rid for rid, res in self.resolvers.items() if res.is_public}

    def public_demand_share(self) -> float:
        """Fraction of global demand served via public resolvers."""
        public = self.public_resolver_ids()
        served = sum(
            block.demand * weight
            for block in self.blocks
            for resolver_id, weight in block.ldns
            if resolver_id in public
        )
        return served / self.total_demand if self.total_demand else 0.0


def build_internet(config: Optional[InternetConfig] = None,
                   seed: int = 2014) -> Internet:
    """Generate a deterministic synthetic Internet."""
    config = config or InternetConfig.small()
    # Providers carry mutable deployment lists; clone them so two
    # Internets built from the same config never share resolver state.
    config = dataclasses.replace(config, providers=tuple(
        dataclasses.replace(p, deployments=[]) for p in config.providers))
    rng = random.Random(seed)

    ases = _generate_ases(config, rng)
    bgp = BGPTable()
    geodb = GeoDatabase()
    resolvers = _deploy_resolvers(
        config.providers, ases.values(),
        AddressAllocator(RESOLVER_SPACE_START), geodb, bgp, rng)
    blocks, block_cidrs = _generate_blocks(
        config, ases, resolvers, AddressAllocator(), geodb, bgp, rng)

    return Internet(
        config=config,
        seed=seed,
        ases=ases,
        blocks=blocks,
        resolvers=resolvers,
        providers=config.providers,
        bgp=bgp,
        geodb=geodb,
        block_cidrs=block_cidrs,
    )


# ---------------------------------------------------------------------------
# AS generation


def _generate_ases(config: InternetConfig,
                   rng: random.Random) -> Dict[int, AutonomousSystem]:
    by_country = cities_by_country()
    # Demand weight per country: population scaled by how much CDN
    # demand that population generated in the paper's era.
    country_weight = {
        code: sum(city.weight for city in cities)
        * profile_for(code).internet_penetration
        for code, cities in by_country.items()
    }
    total_weight = sum(country_weight.values())

    n_enterprise = int(round(config.n_ases * config.enterprise_fraction))
    n_isp = config.n_ases - n_enterprise

    ases: Dict[int, AutonomousSystem] = {}
    next_asn = 100

    # --- eyeball ISPs, apportioned to countries by demand weight ---------
    # National market shares follow a Zipf rank law with mild noise:
    # real access markets are dominated by a handful of carriers (the
    # incumbent telco alone often holds 30-60%), and that concentration
    # is what lets one carrier's resolver strategy set a whole
    # country's Figure 6 signature.
    # AS *counts* follow population, not demand: developing regions
    # have many small ISPs even though their per-capita traffic is low
    # (the paper analyzes 37K ASes spanning shares 2^-10..2^-1).  This
    # is what puts the far-LDNS small-AS population of Figure 10 in
    # countries that outsource DNS.
    population_weight = {
        code: sum(city.weight for city in cities)
        for code, cities in by_country.items()
    }
    total_population = sum(population_weight.values())
    anchors_per_country: Dict[str, List[int]] = {}
    isp_counts: Dict[str, int] = {}
    for code in country_weight:
        isp_counts[code] = max(1, round(
            n_isp * population_weight[code] / total_population))
    for code, count in isp_counts.items():
        cities = by_country[code]
        ranks = zipf_weights(count, exponent=1.8)
        weights = [r * math.exp(rng.gauss(0.0, 0.35)) for r in ranks]
        weights.sort(reverse=True)
        max_w = max(weights)
        country_asns: List[int] = []
        for rank, weight in enumerate(weights):
            asn = next_asn
            next_asn += 1
            presence = _pick_presence_cities(
                cities, cover_fraction=weight / max_w, rng=rng)
            as_obj = AutonomousSystem(
                asn=asn,
                name=f"{code.lower()}-isp-{rank}",
                kind=ASKind.EYEBALL_ISP,
                country=code,
                cities=presence,
                demand=weight / sum(weights) * country_weight[code],
            )
            ases[asn] = as_obj
            country_asns.append(asn)
        anchors_per_country[code] = country_asns[:3]
    _assign_isp_strategies(ases, anchors_per_country, rng)

    # --- enterprises ------------------------------------------------------
    hq_countries = ["US"] * 10 + ["GB", "GB", "DE", "DE", "JP", "FR", "NL",
                                  "CH", "SG", "CA"]
    office_cities, office_weights = _enterprise_office_pool()
    ent_weights = pareto_weights(max(1, n_enterprise), rng,
                                 config.pareto_alpha)
    for rank in range(n_enterprise):
        asn = next_asn
        next_asn += 1
        hq_country = rng.choice(hq_countries)
        hq_city = max(by_country[hq_country], key=lambda c: c.weight)
        n_offices = rng.randint(2, 6)
        offices = [hq_city]
        seen = {hq_city.name}
        for _ in range(n_offices):
            office = rng.choices(office_cities, weights=office_weights,
                                 k=1)[0]
            if office.name not in seen:
                offices.append(office)
                seen.add(office.name)
        ases[asn] = AutonomousSystem(
            asn=asn,
            name=f"ent-{hq_country.lower()}-{rank}",
            kind=ASKind.ENTERPRISE,
            country=hq_country,
            cities=offices,
            demand=ent_weights[rank],
            strategy=ResolverStrategy.CENTRAL_HQ,
            hub_cities=[hq_city],
        )

    # Enterprises carry a small, fixed slice of global demand (their
    # offices matter for the far-LDNS tail, not for aggregate volume).
    isp_total = sum(a.demand for a in ases.values()
                    if a.kind == ASKind.EYEBALL_ISP)
    ent_total = sum(a.demand for a in ases.values()
                    if a.kind == ASKind.ENTERPRISE)
    if ent_total > 0:
        ent_scale = 0.05 * isp_total / ent_total
        for as_obj in ases.values():
            if as_obj.kind == ASKind.ENTERPRISE:
                as_obj.demand *= ent_scale

    # Normalize demand to the configured total.
    raw_total = sum(a.demand for a in ases.values())
    for as_obj in ases.values():
        as_obj.demand = as_obj.demand / raw_total * config.total_demand
    return ases


def _pick_presence_cities(cities: Sequence[City], cover_fraction: float,
                          rng: random.Random) -> List[City]:
    """Cities an ISP serves: biggest first, count scaled to its size.

    Single-city (small) ISPs are biased toward *secondary* markets:
    a small regional ISP exists precisely where the incumbents under-
    serve, which is rarely the capital metro.  This is load-bearing for
    Figure 10 -- it puts small-AS client demand far from the metros
    where public-resolver deployments live, so outsourcing translates
    into distance.
    """
    ranked = sorted(cities, key=lambda c: c.weight, reverse=True)
    count = max(1, round(cover_fraction * len(ranked)))
    if count > 1:
        return ranked[:count]
    secondary = ranked[2:] if len(ranked) > 2 else ranked[1:]
    if secondary and rng.random() < 0.75:
        weights = [c.weight for c in secondary]
        return [rng.choices(secondary, weights=weights, k=1)[0]]
    return [ranked[0]]


def _assign_isp_strategies(
    ases: Dict[int, AutonomousSystem],
    anchors_per_country: Dict[str, List[int]],
    rng: random.Random,
) -> None:
    """Assign resolver strategies after demand is known globally.

    Two variance-reduction rules keep country character stable across
    scales and seeds (a single coin flip must not swing a national
    market's Figure 6/9 numbers):

    * each country's few *largest* ISPs -- the incumbents that carry
      most national demand -- pick their strategy deterministically
      from the profile's dominant probability;
    * "small" (eligible to outsource wholesale) is judged against the
      *global* demand distribution -- the paper's Figure 10 mechanism
      is about absolutely small local ISPs.
    """
    isps = [a for a in ases.values() if a.kind == ASKind.EYEBALL_ISP]
    total_isp_demand = sum(a.demand for a in isps)
    anchors = {asn for asns in anchors_per_country.values()
               for asn in asns}

    for as_obj in isps:
        profile = profile_for(as_obj.country)
        if as_obj.asn in anchors:
            # National flagship: deterministic dominant strategy.
            if profile.local_infra >= 0.5:
                _make_local(as_obj)
            elif profile.central_national >= 0.5:
                _make_central(as_obj,
                              foreign=profile.foreign_hub_rate >= 0.5)
            else:
                _make_anycast_hubs(as_obj, rng)
            continue
        # Outsourcing probability rises as the AS shrinks (the paper's
        # Figure 10 economics: the smaller the ISP, the less a resolver
        # fleet pays for itself).  Tiers are absolute demand shares to
        # line up with the figure's 2^-x buckets at every scale.
        share = as_obj.demand / total_isp_demand
        if share < 2.0 ** -11:
            outsource_p = min(0.9, profile.small_outsource + 0.30)
        elif share < 2.0 ** -9:
            outsource_p = profile.small_outsource
        else:
            outsource_p = 0.0
        if rng.random() < outsource_p:
            as_obj.strategy = ResolverStrategy.OUTSOURCED_PUBLIC
            continue
        roll = rng.random()
        if roll < profile.local_infra:
            _make_local(as_obj)
        elif rng.random() < profile.central_national:
            _make_central(as_obj,
                          foreign=rng.random() < profile.foreign_hub_rate)
        else:
            _make_anycast_hubs(as_obj, rng)


def _make_local(as_obj: AutonomousSystem) -> None:
    """Local deployment: resolvers in most -- not all -- served cities.

    Covering ~60% of presence cities (largest first) reproduces the
    paper's overall picture: the typical client is within metro range
    of its LDNS, but a second mode sits at regional distance (the
    200-300 mile bump in Figure 5 comes from clients in uncovered
    cities reaching the nearest covered one).
    """
    as_obj.strategy = ResolverStrategy.LOCAL
    if len(as_obj.cities) > 1:
        covered = max(1, math.ceil(len(as_obj.cities) * 0.6))
        as_obj.hub_cities = sorted(
            as_obj.cities, key=lambda c: c.weight,
            reverse=True)[:covered]


def _make_central(as_obj: AutonomousSystem, foreign: bool) -> None:
    """Centralize the AS's resolvers: domestically, or at the regional
    DNS hub abroad (paper Section 3.2's 'outsource ... to other
    providers' / backhaul pattern)."""
    as_obj.strategy = ResolverStrategy.CENTRAL_NATIONAL
    profile = profile_for(as_obj.country)
    if foreign and profile.foreign_hub:
        hub = city_index().get(profile.foreign_hub)
        if hub is None:
            raise ValueError(
                f"unknown foreign hub city {profile.foreign_hub!r} for "
                f"{as_obj.country}")
        as_obj.hub_cities = [hub]
        return
    national_hub = max(cities_by_country()[as_obj.country],
                       key=lambda c: c.weight)
    as_obj.hub_cities = [national_hub]


def _make_anycast_hubs(as_obj: AutonomousSystem,
                       rng: random.Random) -> None:
    as_obj.strategy = ResolverStrategy.ANYCAST_HUBS
    n_hubs = min(len(as_obj.cities), rng.randint(2, 3))
    as_obj.hub_cities = sorted(as_obj.cities, key=lambda c: c.weight,
                               reverse=True)[:n_hubs]


def _enterprise_office_pool() -> Tuple[List[City], List[float]]:
    """Global office-city pool, weighted so that countries whose firms
    commonly backhaul DNS abroad (profile.enterprise_abroad) attract
    more foreign-enterprise offices -- the paper's Japan mechanism."""
    cities: List[City] = []
    weights: List[float] = []
    for city in WORLD_CITIES:
        profile = profile_for(city.country)
        cities.append(city)
        weights.append(city.weight * (0.3 + profile.enterprise_abroad))
    return cities, weights


# ---------------------------------------------------------------------------
# Resolver deployment


def _deploy_resolvers(
    providers: Iterable[PublicProvider],
    ases: Iterable[AutonomousSystem],
    alloc: AddressAllocator,
    geodb: GeoDatabase,
    bgp: BGPTable,
    rng: random.Random,
) -> Dict[str, Resolver]:
    """Every LDNS site: public PoPs within 5 miles of their cities (each
    joins its provider's ``deployments``), then AS resolvers within 8."""
    sites = [(f"pub-{p.name}", p.asn, ResolverKind.PUBLIC, p.name, 5,
              p.deployments, city)
             for p in providers for city in p.cities()]
    for as_obj in ases:
        kind = (ResolverKind.ENTERPRISE if as_obj.kind == ASKind.ENTERPRISE
                else ResolverKind.ISP)
        tag = "ent" if kind == ResolverKind.ENTERPRISE else "isp"
        sites += [(f"{tag}-{as_obj.asn}", as_obj.asn, kind, as_obj.name, 8,
                   [], city) for city in as_obj.resolver_cities()]
    resolvers: Dict[str, Resolver] = {}
    for tag, asn, kind, operator, radius, fleet, city in sites:
        geo = displace(city.geo, rng.uniform(0, radius),
                       rng.uniform(0, 2 * math.pi))
        resolver = Resolver(
            resolver_id=f"{tag}-{_slug(city.name)}", ip=alloc.allocate_host(),
            geo=geo,
            city=city.name, country=city.country, asn=asn, kind=kind,
            provider=operator)
        fleet.append(resolver)
        resolvers[resolver.resolver_id] = resolver
        block = Prefix(resolver.ip & 0xFFFFFF00, 24)
        geodb.register(block, GeoRecord(geo, city.name, city.country,
                                        city.continent, asn))
        bgp.announce(block, asn)
    return resolvers


def _slug(name: str) -> str:
    return name.lower().replace(" ", "-").replace(".", "")


# ---------------------------------------------------------------------------
# Client block generation


def _generate_blocks(
    config: InternetConfig,
    ases: Dict[int, AutonomousSystem],
    resolvers: Dict[str, Resolver],
    alloc: AddressAllocator,
    geodb: GeoDatabase,
    bgp: BGPTable,
    rng: random.Random,
) -> Tuple[List[ClientBlock], List[int]]:
    """Client /24 blocks, AS by AS in ASN order, with their LDNSes, and
    each block's row in ``bgp.announcements()``.

    The draw order is a contract (DESIGN.md section 10): per AS, one
    city draw per block and the demand split, then per city (by name)
    and block the jitter, bearing, access and LDNS draws.  Each
    ``random.choices``/``random.uniform`` draw is inlined as the library
    makes it, from cumulative weights built once.

    Public-resolver adoption uses a per-country demand quota rather
    than an independent coin per block, so every country converges to
    its profile's adoption share regardless of how few blocks it has
    (Figure 9's per-country percentages are calibration targets).
    """
    as_list = sorted(ases.values(), key=lambda a: a.asn)
    total_demand = sum(a.demand for a in as_list)
    # Each AS's own resolver deployments, in resolver-id order.
    own_resolvers: Dict[int, List[Resolver]] = {}
    for resolver in sorted(resolvers.values(), key=lambda r: r.resolver_id):
        if resolver.kind != ResolverKind.PUBLIC:
            own_resolvers.setdefault(resolver.asn, []).append(resolver)

    random_ = rng.random
    jitter = config.block_jitter_miles
    providers = config.providers
    provider_cum, provider_total = _cumulative(p.popularity for p in providers)
    # Blocks lie within ``jitter`` of their city: every fleet's reach.
    public_fleets = [AnycastFleet(p.deployments, jitter) for p in providers]
    last_mile_cum, last_mile_total = _cumulative(_LAST_MILE_WEIGHTS)

    def public_ldns(geo: GeoPoint, city: City) -> str:
        """A provider drawn by market share, then its catchment."""
        if not providers:
            raise ValueError("no public providers configured")
        i = bisect.bisect(provider_cum, random_() * provider_total,
                          0, len(providers) - 1)
        return anycast_catchment(geo, public_fleets[i], rng,
                                 providers[i].misroute_rate,
                                 home=city).resolver_id

    # Per city, once: the centre's radians and trig, and the country's
    # public-resolver adoption target.
    places: Dict[str, Tuple[float, float, float, float, float]] = {}
    blocks: List[ClientBlock] = []
    block_cidrs: List[int] = []
    # Per country: [total demand seen, demand assigned to public LDNS].
    country_acc: Dict[str, List[float]] = {}
    for as_obj in as_list:
        asn, as_demand, city_pool = as_obj.asn, as_obj.demand, as_obj.cities
        # Apportion the block budget by demand, one block minimum, and
        # distribute the blocks across presence cities by weight.
        n_blocks = max(1, round(
            config.n_client_blocks * as_demand / total_demand))
        city_cum, city_total = _cumulative(c.weight for c in city_pool)
        per_city: Dict[str, int] = {}
        for _ in range(n_blocks):
            city = city_pool[bisect.bisect(
                city_cum, random_() * city_total, 0, len(city_pool) - 1)]
            per_city[city.name] = per_city.get(city.name, 0) + 1
        by_name = {c.name: c for c in city_pool}
        split = lognormal_weights(n_blocks, rng, config.block_demand_sigma)
        split_total = sum(split)
        shares = iter(split)
        outsourced = as_obj.strategy == ResolverStrategy.OUTSOURCED_PUBLIC
        own = own_resolvers.get(asn, [])
        own_fleet = AnycastFleet(own, jitter) if len(own) > 1 else None

        for city_name, count in sorted(per_city.items()):
            city = by_name[city_name]
            country, continent = city.country, city.continent
            if city_name not in places:
                lat = math.radians(city.geo.lat)
                places[city_name] = (
                    lat, math.radians(city.geo.lon), math.sin(lat),
                    math.cos(lat), profile_for(country).public_adoption)
            lat, lon, sin_lat, cos_lat, adoption = places[city_name]
            acc = country_acc.setdefault(country, [0.0, 0.0])
            # Pad every allocation to at least 16 x /24 (a /20): RIR
            # allocations leave growth room, so distinct cities rarely
            # share fine prefixes.  This is what makes coarse /x
            # mapping units geographically coherent (Figure 22: 87.3%
            # of /20 clusters have radius <= 100 miles).
            chunk = alloc.allocate_chunk(max(count, 16))
            block_cidrs += [len(bgp)] * count
            bgp.announce(chunk, asn)
            for network in range(chunk.network,
                                 chunk.network + (count << 8), 256):
                # The chunk is aligned: its /24s need no validation.
                prefix = object.__new__(Prefix)
                _set_slot(prefix, "network", network)
                _set_slot(prefix, "length", 24)
                demand = as_demand * (next(shares) / split_total)
                geo = displace_from(lat, lon, sin_lat, cos_lat,
                                    0 + jitter * random_(),
                                    _TWO_PI * random_())
                access, last_mile = _LAST_MILE_CHOICES[bisect.bisect(
                    last_mile_cum, random_() * last_mile_total, 0, 3)]

                # The LDNS(es): public while the country's quota allows
                # it (quota from below, so a tiny country's lone block
                # does not go public first), else the AS's own.
                acc[0] += demand
                use_public = (outsourced
                              or acc[1] + demand <= adoption * acc[0])
                if use_public:
                    acc[1] += demand
                    primary = public_ldns(geo, city)
                elif own_fleet is not None:
                    primary = anycast_catchment(
                        geo, own_fleet, rng, config.isp_anycast_misroute,
                        home=city).resolver_id
                elif own:
                    primary = own[0].resolver_id
                else:
                    # Strategy said self-hosted but no deployment exists.
                    primary = public_ldns(geo, city)
                secondary = None
                if random_() < config.secondary_ldns_rate:
                    # Most secondaries are another resolver of the same
                    # operator; users configure a public fallback only
                    # while the country's adoption quota allows it (so
                    # low-adoption countries like Korea stay low,
                    # Figure 9).
                    if own_fleet is not None and random_() < 0.7:
                        secondary = rng.choice(
                            [r for r in own if r.resolver_id != primary]
                        ).resolver_id
                    elif use_public or (acc[1] + 0.15 * demand
                                        <= adoption * acc[0]):
                        secondary = public_ldns(geo, city)
                        if not use_public:
                            acc[1] += 0.15 * demand
                if secondary is None or secondary == primary:
                    ldns: Tuple[Tuple[str, float], ...] = ((primary, 1.0),)
                else:
                    ldns = ((primary, 0.85), (secondary, 0.15))
                # Positional: keyword binding costs a block 1.6 us.
                blocks.append(ClientBlock(
                    prefix, geo, city_name, country, continent, asn,
                    demand, last_mile, access, ldns))
                geodb.register(prefix, GeoRecord(
                    geo, city_name, country, continent, asn))
    return blocks, block_cidrs


def _cumulative(weights: Iterable[float]) -> Tuple[List[float], float]:
    """``random.choices``' table: cumulative weights and float total."""
    cum = list(itertools.accumulate(weights))
    return cum, (cum[-1] if cum else 0) + 0.0
