"""Differential oracle for the client-block generator.

The generator in :mod:`repro.topology.internet` is compiled: cumulative
weight tables built once, ``random.choices``/``random.uniform`` draws
inlined, city trig hoisted, and an anycast catchment that measures only
the PoPs that can be nearest to some block of the city.  This module
keeps the straightforward generator it replaced -- one
``random.choices`` call per draw, ``displace`` per block and a
full-fleet sort per catchment -- as the reference, and requires the
two to build the same :class:`Internet`, float for float.

Run as a script it compares one scale and seed::

    PYTHONPATH=src python -m tests.test_internet_oracle paper 2014
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import sys
from typing import Dict, List, Tuple

import pytest

import repro.topology.internet as internet_mod
import repro.topology.resolvers as resolvers_mod
from repro.geo.cities import City
from repro.geo.database import GeoRecord
from repro.net.geometry import GeoPoint, displace, great_circle_miles
from repro.topology.ases import ResolverStrategy
from repro.topology.demand import lognormal_weights
from repro.topology.internet import (
    _LAST_MILE_CHOICES,
    _LAST_MILE_WEIGHTS,
    ClientBlock,
    Internet,
    InternetConfig,
    build_internet,
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

# ---------------------------------------------------------------------------
# The reference generator


class _Counter:
    """Great-circle distances the reference evaluates."""

    distances = 0


def _oracle_miles(a: GeoPoint, b: GeoPoint) -> float:
    _Counter.distances += 1
    return great_circle_miles(a, b)


def oracle_catchment(client_geo, deployments, rng, misroute_rate=0.12):
    if not deployments:
        raise ValueError("anycast catchment over an empty deployment list")
    if len(deployments) == 1:
        rng.random()
        return deployments[0]
    ranked = sorted(deployments,
                    key=lambda dep: _oracle_miles(client_geo, dep.geo))
    if rng.random() >= misroute_rate:
        return ranked[0]
    alternates = ranked[1:]
    weights = [math.pow(0.5, i) for i in range(len(alternates))]
    return rng.choices(alternates, weights=weights, k=1)[0]


def _oracle_blocks(config, ases, resolvers, alloc, geodb, bgp, rng):
    as_list = sorted(ases.values(), key=lambda a: a.asn)
    total_demand = sum(a.demand for a in as_list)
    own_resolvers: Dict[int, List[Resolver]] = {}
    for resolver in resolvers.values():
        if resolver.kind != ResolverKind.PUBLIC:
            own_resolvers.setdefault(resolver.asn, []).append(resolver)
    for deployments in own_resolvers.values():
        deployments.sort(key=lambda r: r.resolver_id)
    budgets = {as_obj.asn: max(1, round(
        config.n_client_blocks * as_obj.demand / total_demand))
        for as_obj in as_list}

    blocks: List[ClientBlock] = []
    block_cidrs: List[int] = []
    country_acc: Dict[str, List[float]] = {}
    for as_obj in as_list:
        n_blocks = budgets[as_obj.asn]
        city_pool = as_obj.cities
        city_weights = [c.weight for c in city_pool]
        per_city: Dict[str, int] = {}
        for _ in range(n_blocks):
            city = rng.choices(city_pool, weights=city_weights, k=1)[0]
            per_city[city.name] = per_city.get(city.name, 0) + 1
        city_index = {c.name: c for c in city_pool}
        demand_split = lognormal_weights(n_blocks, rng,
                                         config.block_demand_sigma)
        split_total = sum(demand_split)
        split_iter = iter(demand_split)
        for city_name, count in sorted(per_city.items()):
            city = city_index[city_name]
            chunk = alloc.allocate_chunk(max(count, 16))
            bgp.announce(chunk, as_obj.asn)
            for i, block_prefix in enumerate(chunk.subnets(24)):
                if i >= count:
                    break
                block_cidrs.append(len(bgp) - 1)
                share = next(split_iter) / split_total
                geo = displace(city.geo,
                               rng.uniform(0, config.block_jitter_miles),
                               rng.uniform(0, 2 * math.pi))
                access, last_mile = rng.choices(
                    _LAST_MILE_CHOICES, weights=_LAST_MILE_WEIGHTS, k=1)[0]
                ldns = _oracle_assign_ldns(
                    as_obj, geo, own_resolvers.get(as_obj.asn, []),
                    as_obj.demand * share, city.country, country_acc,
                    config, rng)
                blocks.append(ClientBlock(
                    prefix=block_prefix, geo=geo, city=city.name,
                    country=city.country, continent=city.continent,
                    asn=as_obj.asn, demand=as_obj.demand * share,
                    last_mile_ms=last_mile, access=access, ldns=ldns))
                geodb.register(block_prefix, GeoRecord(
                    geo=geo, city=city.name, country=city.country,
                    continent=city.continent, asn=as_obj.asn))
    return blocks, block_cidrs


def _oracle_assign_ldns(as_obj, block_geo, own_resolvers, block_demand,
                        block_country, country_acc, config, rng):
    profile = profile_for(block_country)
    acc = country_acc.setdefault(block_country, [0.0, 0.0])
    acc[0] += block_demand
    outsourced = as_obj.strategy == ResolverStrategy.OUTSOURCED_PUBLIC
    below_quota = (acc[1] + block_demand
                   <= profile.public_adoption * acc[0])
    use_public = outsourced or below_quota
    if use_public:
        acc[1] += block_demand
        primary = _oracle_public_ldns(block_geo, config, rng)
    else:
        primary = _oracle_isp_ldns(block_geo, own_resolvers, config, rng)
    if rng.random() >= config.secondary_ldns_rate:
        return ((primary, 1.0),)
    secondary = None
    if own_resolvers and len(own_resolvers) > 1 and rng.random() < 0.7:
        alternates = [r for r in own_resolvers
                      if r.resolver_id != primary]
        secondary = rng.choice(alternates).resolver_id
    elif use_public or (acc[1] + 0.15 * block_demand
                        <= profile.public_adoption * acc[0]):
        secondary = _oracle_public_ldns(block_geo, config, rng)
        if not use_public:
            acc[1] += 0.15 * block_demand
    if secondary is None or secondary == primary:
        return ((primary, 1.0),)
    return ((primary, 0.85), (secondary, 0.15))


def _oracle_public_ldns(block_geo, config, rng):
    providers = list(config.providers)
    provider = rng.choices(providers,
                           weights=[p.popularity for p in providers])[0]
    return oracle_catchment(block_geo, provider.deployments, rng,
                            provider.misroute_rate).resolver_id


def _oracle_isp_ldns(block_geo, own_resolvers, config, rng):
    if not own_resolvers:
        return _oracle_public_ldns(block_geo, config, rng)
    if len(own_resolvers) == 1:
        return own_resolvers[0].resolver_id
    return oracle_catchment(block_geo, own_resolvers, rng,
                            config.isp_anycast_misroute).resolver_id


def oracle_build_internet(config: InternetConfig, seed: int) -> Internet:
    """``build_internet`` with the reference block generator."""
    compiled = internet_mod._generate_blocks
    internet_mod._generate_blocks = _oracle_blocks
    try:
        return build_internet(config, seed)
    finally:
        internet_mod._generate_blocks = compiled


# ---------------------------------------------------------------------------
# Fingerprint and work counts


def _geo(point: GeoPoint) -> str:
    return f"{point.lat.hex()},{point.lon.hex()}"


def fingerprint(net: Internet) -> str:
    """SHA-256 over everything the generator decides, floats by
    ``.hex()``: every client block field, every geo-DB record, every BGP
    announcement, the resolvers, the provider fleets, the ASes and the
    cumulative demand."""
    lines: List[str] = []
    for b in net.blocks:
        ldns = ";".join(f"{rid}={w.hex()}" for rid, w in b.ldns)
        lines.append(
            f"B {b.prefix.network}/{b.prefix.length} {_geo(b.geo)} "
            f"{b.city}|{b.country}|{b.continent} {b.asn} "
            f"{b.demand.hex()} {b.last_mile_ms.hex()} {b.access} {ldns}")
    for prefix, rec in sorted(net.geodb.items(),
                              key=lambda item: item[0]):
        lines.append(f"G {prefix} {_geo(rec.geo)} {rec.city}|{rec.country}"
                     f"|{rec.continent} {rec.asn}")
    for ann in net.bgp.announcements():
        lines.append(f"A {ann.cidr} {ann.asn}")
    for rid, res in net.resolvers.items():
        lines.append(f"R {rid} {res.ip} {_geo(res.geo)} {res.city}|"
                     f"{res.country} {res.asn} {res.kind.value} "
                     f"{res.provider}")
    for provider in net.providers:
        lines.append(f"P {provider.name} " + ",".join(
            dep.resolver_id for dep in provider.deployments))
    for asn, as_obj in net.ases.items():
        lines.append(f"S {asn} {as_obj.name} {as_obj.strategy.value} "
                     f"{as_obj.demand.hex()} "
                     + ",".join(c.name for c in as_obj.cities) + " "
                     + ",".join(c.name for c in as_obj.hub_cities))
    lines.append("D " + ",".join(v.hex() for v in net._cum_demand))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def counted_builds(config: InternetConfig,
                   seed: int) -> Tuple[Internet, int, Internet, int]:
    """Both generators on one config and seed, each with the number of
    great-circle distances it evaluated."""
    _Counter.distances = 0
    reference = oracle_build_internet(config, seed)
    reference_count = _Counter.distances

    calls = [0]
    original = resolvers_mod.central_angle

    def counting(*args):
        calls[0] += 1
        return original(*args)

    resolvers_mod.central_angle = counting
    try:
        compiled = build_internet(config, seed)
    finally:
        resolvers_mod.central_angle = original
    return reference, reference_count, compiled, calls[0]


SCALES = {"tiny": InternetConfig.tiny, "small": InternetConfig.small,
          "paper": InternetConfig.paper}

#: The fingerprint of the generator as it was before it was compiled;
#: the reference above must keep reproducing it.
PINNED = {
    ("tiny", 2014):
        "d71821e5631ce6da28d0297722e6cc7b9327f420c2f701443f7354173f159300",
    ("small", 99):
        "9af5b092470fb4ef964824624512e60339ee79447a222935c407891cdf2c48e7",
}


# ---------------------------------------------------------------------------
# Tests


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("seed", [2014, 7, 99])
def test_same_internet_at_standard_scales(scale, seed):
    reference, _, compiled, _ = counted_builds(SCALES[scale](), seed)
    assert fingerprint(compiled) == fingerprint(reference)
    assert compiled.block_cidrs == reference.block_cidrs
    if (scale, seed) in PINNED:
        assert fingerprint(reference) == PINNED[scale, seed]


def test_distance_evaluations_are_pinned():
    """A work count, not a timing: the per-city candidate cut measures
    far fewer distances than a full-fleet sort per catchment."""
    counts = {}
    for scale in ("tiny", "small"):
        _, before, _, after = counted_builds(SCALES[scale](), 2014)
        counts[scale] = (before, after)
    assert counts == {"tiny": (6332, 3148), "small": (39742, 9554)}


_SOLO = PublicProvider(name="Solo", asn=64500,
                       deployment_cities=["Sao Paulo"], popularity=0.3)


def _synthetic(**overrides) -> InternetConfig:
    base = dict(n_client_blocks=1200, n_ases=90)
    base.update(overrides)
    return InternetConfig(**base)


SYNTHETIC = {
    "jitter_zero": _synthetic(block_jitter_miles=0.0),
    "wide_jitter": _synthetic(block_jitter_miles=400.0),
    "single_pop_provider": _synthetic(
        providers=DEFAULT_PUBLIC_PROVIDERS + (_SOLO,),
        secondary_ldns_rate=0.9),
    "misroute_zero": _synthetic(
        providers=tuple(dataclasses.replace(p, misroute_rate=0.0)
                        for p in DEFAULT_PUBLIC_PROVIDERS),
        isp_anycast_misroute=0.0),
    "misroute_full_ranking": _synthetic(
        providers=tuple(dataclasses.replace(p, misroute_rate=0.99)
                        for p in DEFAULT_PUBLIC_PROVIDERS),
        isp_anycast_misroute=0.99, secondary_ldns_rate=0.9),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC))
def test_same_internet_on_synthetic_configs(name):
    reference, _, compiled, _ = counted_builds(SYNTHETIC[name], 5)
    assert fingerprint(compiled) == fingerprint(reference)


def test_synthetic_worlds_reach_every_fleet_shape():
    """ASes with zero, one and two or more own resolvers all occur, so
    the comparisons above cover the public fallback, the single-site
    shortcut and the own-fleet catchment; the one-PoP provider is
    picked too."""
    net = build_internet(SYNTHETIC["misroute_full_ranking"], 5)
    own: Dict[int, int] = {asn: 0 for asn in net.ases}
    for res in net.resolvers.values():
        if not res.is_public:
            own[res.asn] += 1
    assert {0, 1, 2} <= set(own.values())
    solo = build_internet(SYNTHETIC["single_pop_provider"], 5)
    assert any(rid == "pub-Solo-sao-paulo"
               for b in solo.blocks for rid, _ in b.ldns)


def _resolver(rid: str, geo: GeoPoint) -> Resolver:
    return Resolver(resolver_id=rid, ip=1, geo=geo, city="X", country="US",
                    asn=1, kind=ResolverKind.PUBLIC, provider="P")


@pytest.mark.parametrize("misroute", [0.0, 0.5, 0.99])
def test_catchment_ties_go_to_the_first_pop_in_fleet_order(misroute):
    """Co-located PoPs tie exactly; the reference's stable sort picks
    the first in fleet order, and so must the compiled rule."""
    here = GeoPoint(40.0, -75.0)
    fleet = [_resolver("far", GeoPoint(10.0, 10.0)),
             _resolver("a", here), _resolver("b", here),
             _resolver("c", GeoPoint(40.0, -75.0))]
    home = City("Here", "US", here, 1.0, "NA")
    client = GeoPoint(40.1, -75.2)  # about 13 miles from home
    table = AnycastFleet(fleet, reach_miles=50.0)
    assert table.near(home) == (1, 2, 3)
    for seed in range(40):
        expected = oracle_catchment(client, fleet, random.Random(seed),
                                    misroute).resolver_id
        for deployments, city in ((table, home), (table, None),
                                  (fleet, None)):
            got = anycast_catchment(client, deployments, random.Random(seed),
                                    misroute, home=city)
            assert got.resolver_id == expected


def _main(argv: List[str]) -> int:
    scale, seed = argv[0], int(argv[1])
    reference, before, compiled, after = counted_builds(
        SCALES[scale](), seed)
    want, got = fingerprint(reference), fingerprint(compiled)
    print(f"{scale} seed {seed}: reference {want} ({before} distances), "
          f"compiled {got} ({after} distances)")
    if want != got:
        print("fingerprints differ")
        return 1
    if compiled.block_cidrs != reference.block_cidrs:
        print("block CIDR rows differ")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
