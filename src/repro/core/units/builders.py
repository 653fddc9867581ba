"""The pluggable unit-construction layer: builders and their registry.

Every way of carving the client population into mapping units is a
:class:`UnitBuilder` strategy registered under a scheme name:

========================  ==================================================
``ldns``                  one unit per LDNS (NS-style granularity)
``block``                 /x client blocks (``prefix_len`` sweeps Figure 22)
``bgp_merged``            /x blocks merged by covering BGP CIDR
``geo_as``                per-/24 geo+AS units -- the scheme the map
                          maker compiles over when none is named
``routing_aware``         k-medoids-style clustering of announced CIDRs
                          over batched RTT columns (accepts
                          ``routing_aware:<k>`` for an explicit unit
                          count)
========================  ==================================================

A builder produces :class:`~repro.core.units.base.MapUnit` lists whose
units record the network address of each client /24 they hold, so the
published-map read path can index them
(:func:`~repro.core.units.base.block_index`) and resolve an ECS prefix
to its ``eu:<unit key>`` entry.  Scheme
strings parse through :func:`parse_unit_scheme`; only
``routing_aware`` takes a ``:<k>`` parameter.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Protocol, Tuple

from repro.core.units.base import MapUnit, MapUnitScheme

#: ``routing_aware:<k>``'s count: ASCII digits only (``int()`` would
#: also take a sign, spaces, ``_`` separators and non-ASCII digits).
_UNIT_COUNT = re.compile(r"[1-9][0-9]*")


class UnitBuilder(Protocol):
    """Strategy interface for one unit-construction scheme."""

    scheme: str

    def build(self, internet, **params) -> List[MapUnit]:
        """Construct the unit set for one generated Internet, each
        client /24 recorded (``MapUnit.networks``) in the one unit the
        read path should find it in."""
        ...


class LdnsUnitBuilder:
    """One unit per LDNS: the NS-based mapping granularity.

    A block splitting its queries across two LDNSes is a member of
    both units but recorded only in its primary LDNS's, the one it
    uses most.
    """

    scheme = "ldns"

    def build(self, internet) -> List[MapUnit]:
        units: Dict[str, MapUnit] = {}
        demand_by_asn: Dict[str, Dict[int, float]] = {}
        for block in internet.blocks:
            for resolver_id, weight in block.ldns:
                unit = units.get(resolver_id)
                if unit is None:
                    unit = MapUnit(key=resolver_id,
                                   scheme=MapUnitScheme.LDNS)
                    units[resolver_id] = unit
                    demand_by_asn[resolver_id] = {}
                unit.add(block.geo, block.demand * weight,
                         network=(block.prefix.network
                                  if resolver_id == block.primary_ldns
                                  else None))
                by_asn = demand_by_asn[resolver_id]
                by_asn[block.asn] = by_asn.get(block.asn, 0.0) + (
                    block.demand * weight)
        for resolver_id, unit in units.items():
            unit.asn = _dominant_asn(demand_by_asn[resolver_id])
        return list(units.values())


class BlockUnitBuilder:
    """/x client-block units: the end-user mapping granularity.

    ``prefix_len`` sweeps the Figure 22 trade-off: smaller x -> fewer,
    geographically larger units.
    """

    scheme = "block"

    def build(self, internet, prefix_len: int = 24) -> List[MapUnit]:
        if not 1 <= prefix_len <= 24:
            raise ValueError(f"prefix length out of range: {prefix_len}")
        units: Dict[object, MapUnit] = {}
        for block in internet.blocks:
            super_prefix = block.prefix.supernet(prefix_len)
            unit = units.get(super_prefix)
            if unit is None:
                unit = MapUnit(key=str(super_prefix),
                               scheme=MapUnitScheme.BLOCK)
                units[super_prefix] = unit
            unit.add(block.geo, block.demand,
                     network=block.prefix.network)
        return list(units.values())


class BgpMergedUnitBuilder:
    """Merge /x units that fall inside one routed BGP CIDR.

    Blocks inside the same announced CIDR "are likely proximal in the
    network sense" and can share one mapping decision.  Each block's
    CIDR is the generator's record (``block_columns().cidr``); a block
    whose CIDR is longer than /x stays in its own /x unit.
    """

    scheme = "bgp_merged"

    def build(self, internet, prefix_len: int = 24) -> List[MapUnit]:
        announcements = list(internet.bgp.announcements())
        rows = internet.block_columns().cidr.tolist()
        cidr_keys = {row: f"cidr:{announcements[row].cidr}"
                     for row in set(rows)
                     if announcements[row].cidr.length <= prefix_len}
        units: Dict[str, MapUnit] = {}
        for block, row in zip(internet.blocks, rows):
            key = cidr_keys.get(row)
            if key is None:
                key = f"block:{block.prefix.supernet(min(prefix_len, 24))}"
            unit = units.get(key)
            if unit is None:
                unit = MapUnit(key=key, scheme=MapUnitScheme.BGP_MERGED)
                units[key] = unit
            unit.add(block.geo, block.demand,
                     network=block.prefix.network)
        return list(units.values())


class GeoAsUnitBuilder:
    """Per-/24 geo+AS units: the default map-maker scheme.

    One unit per client /24, carrying the block's geolocation and AS
    as its (geo, asn) scoring target; the unit key is the /24 itself,
    so the published map addresses it as ``eu:<prefix>``.
    """

    scheme = "geo_as"

    def build(self, internet) -> List[MapUnit]:
        units: List[MapUnit] = []
        for block in internet.blocks:
            unit = MapUnit(key=str(block.prefix),
                           scheme=MapUnitScheme.GEO_AS, asn=block.asn)
            unit.add(block.geo, block.demand,
                     network=block.prefix.network)
            units.append(unit)
        return units


def _dominant_asn(demand_by_asn: Dict[int, float]) -> Optional[int]:
    """The AS carrying the most demand; ties break on the lower ASN."""
    if not demand_by_asn:
        return None
    return min(demand_by_asn,
               key=lambda asn: (-demand_by_asn[asn], asn))


# -- the registry ------------------------------------------------------------

_BUILDERS: Dict[str, UnitBuilder] = {}


def register_builder(builder: UnitBuilder) -> None:
    """Register a unit-construction strategy under its scheme name."""
    if not getattr(builder, "scheme", None):
        raise ValueError("a unit builder must declare a scheme name")
    _BUILDERS[builder.scheme] = builder


def get_builder(scheme: str) -> UnitBuilder:
    try:
        return _BUILDERS[scheme]
    except KeyError:
        raise KeyError(
            f"unknown unit scheme {scheme!r}; known: "
            f"{sorted(_BUILDERS)}") from None


def available_schemes() -> List[str]:
    return sorted(_BUILDERS)


def parse_unit_scheme(spec: str) -> Tuple[str, Dict]:
    """Parse a scheme spec string into (scheme name, builder params).

    The grammar is ``<scheme>`` or ``routing_aware:<k>`` (an explicit
    unit count, spelled ``[1-9][0-9]*`` so one count has one spelling);
    anything else raises ``ValueError`` so CLI surfaces can map it to
    the exit-code-2 usage contract before a world is built.
    """
    if not isinstance(spec, str) or not spec:
        raise ValueError(f"bad unit scheme: {spec!r}")
    name, colon, param = spec.partition(":")
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown unit scheme {name!r}; known: "
            f"{available_schemes()}")
    if not colon:
        return name, {}
    if name != "routing_aware":
        raise ValueError(
            f"unit scheme {name!r} takes no parameter "
            f"(got {spec!r}); only routing_aware:<k> does")
    if not _UNIT_COUNT.fullmatch(param):
        raise ValueError(
            f"bad unit count in {spec!r}: expected a positive integer "
            f"in plain ASCII digits, no sign, spaces or leading zero")
    return name, {"n_units": int(param)}


def build_units(scheme: str, internet, **params) -> List[MapUnit]:
    """Construct one unit set by scheme name (registry convenience)."""
    merged = dict(params)
    if ":" in scheme:
        scheme, parsed = parse_unit_scheme(scheme)
        merged.update(parsed)
    return get_builder(scheme).build(internet, **merged)


def _register_defaults() -> None:
    from repro.core.units.routing import RoutingAwareUnitBuilder

    register_builder(LdnsUnitBuilder())
    register_builder(BlockUnitBuilder())
    register_builder(BgpMergedUnitBuilder())
    register_builder(GeoAsUnitBuilder())
    register_builder(RoutingAwareUnitBuilder())
