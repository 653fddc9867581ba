"""Pluggable mapping-unit construction.

The unit *data model* and coverage analysis live in
:mod:`repro.core.units.base`; construction strategies are
:class:`~repro.core.units.builders.UnitBuilder` implementations
registered by scheme name in :mod:`repro.core.units.builders`, with
the routing-aware clustering scheme in
:mod:`repro.core.units.routing`.
"""

from repro.core.units.base import (
    MapUnit,
    MapUnitScheme,
    block_index,
    cohesion_stats,
    demand_coverage_curve,
    unit_key_in,
    units_needed_for_share,
)
from repro.core.units.builders import (
    BgpMergedUnitBuilder,
    BlockUnitBuilder,
    GeoAsUnitBuilder,
    LdnsUnitBuilder,
    UnitBuilder,
    available_schemes,
    build_units,
    get_builder,
    parse_unit_scheme,
    register_builder,
    _register_defaults,
)
from repro.core.units.routing import RoutingAwareUnitBuilder

_register_defaults()

__all__ = [
    "MapUnit",
    "MapUnitScheme",
    "UnitBuilder",
    "LdnsUnitBuilder",
    "BlockUnitBuilder",
    "BgpMergedUnitBuilder",
    "GeoAsUnitBuilder",
    "RoutingAwareUnitBuilder",
    "available_schemes",
    "block_index",
    "build_units",
    "cohesion_stats",
    "demand_coverage_curve",
    "get_builder",
    "parse_unit_scheme",
    "register_builder",
    "unit_key_in",
    "units_needed_for_share",
]
