"""Mapping units: the granularity of server-assignment decisions.

Paper Section 5.1: "a mapping unit is the finest-grain set of client
IPs for which server assignment decisions are made".  NS-based mapping
uses one unit per LDNS; end-user mapping uses /x client blocks, with
x <= 24; BGP CIDR merging collapses /24 blocks that share a routed
CIDR into one unit (3.76M -> 444K in the paper's data).

This module holds the unit *data model*, the client-/24 index the
published-map read path finds units by, and the demand-coverage
analysis (Figures 21/22); the pluggable construction strategies live
in :mod:`repro.core.units.builders` and
:mod:`repro.core.units.routing`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.net import batch
from repro.net.geometry import GeoPoint


class MapUnitScheme(enum.Enum):
    LDNS = "ldns"
    BLOCK = "block"
    BGP_MERGED = "bgp_merged"
    GEO_AS = "geo_as"
    ROUTING_AWARE = "routing_aware"


@dataclass
class MapUnit:
    """One mapping unit: key, demand, and member client locations."""

    key: str
    scheme: MapUnitScheme
    demand: float = 0.0
    members: List[Tuple[GeoPoint, float]] = field(default_factory=list)
    asn: Optional[int] = None
    """Demand-dominant member AS: the AS half of the unit's scoring
    target (builders that compile into published maps set this)."""
    networks: List[int] = field(default_factory=list)
    """Network addresses of the client /24s this unit holds for the
    published-map read path (:func:`block_index`)."""
    cohesion_rtt_ms: Optional[float] = None
    """Routing-aware cohesion: demand-weighted mean RMS RTT-feature
    gap of the unit's CIDRs to its medoid CIDR (ms).  None for purely
    geographic constructions."""

    def add(self, geo: GeoPoint, demand: float,
            network: Optional[int] = None) -> None:
        self.members.append((geo, demand))
        self.demand += demand
        if network is not None:
            self.networks.append(network)
        self._centroid = self._radius = None

    def radius_miles(self) -> float:
        """Demand-weighted cluster radius (paper Section 3.3 metric).
        Memoized; ``add`` invalidates."""
        if self._radius is None:
            if not self.members:
                raise ValueError(f"unit {self.key} has no members")
            if len(self.members) == 1:
                return 0.0
            center = self.centroid()
            lats, lons = batch.geo_columns(
                [geo for geo, _ in self.members])
            weights = np.fromiter((w for _, w in self.members),
                                  dtype=float, count=len(self.members))
            self._radius = batch.mean_distance_miles_arrays(
                center.lat, center.lon, lats, lons, weights)
        return self._radius

    # A builder that computes every unit's geometry in one pass may set
    # both memos after its last ``add``.
    _centroid: Optional[GeoPoint] = field(default=None, repr=False,
                                          compare=False)
    _radius: Optional[float] = field(default=None, repr=False,
                                     compare=False)

    def centroid(self) -> GeoPoint:
        """Demand-weighted member centroid: the geo half of the unit's
        scoring target.  Memoized; ``add`` invalidates.  A one-member
        unit's centroid is its member's geo, bit for bit."""
        if self._centroid is None:
            if not self.members:
                raise ValueError(f"unit {self.key} has no members")
            if len(self.members) == 1:
                self._centroid = self.members[0][0]
                return self._centroid
            lats, lons = batch.geo_columns(
                [geo for geo, _ in self.members])
            weights = np.fromiter(
                (w for _, w in self.members), dtype=float,
                count=len(self.members))
            lat, lon = batch.weighted_centroid_arrays(lats, lons, weights)
            self._centroid = GeoPoint(lat, lon)
        return self._centroid


def block_index(units: List[MapUnit]) -> Dict[int, str]:
    """Client /24 network address -> key of the unit holding it.

    Built from the networks the builders recorded; a /24 two units
    record belongs to the later one.  :func:`unit_key_in` is its one
    reader.
    """
    return {network: unit.key
            for unit in units for network in unit.networks}


def unit_key_in(index: Dict[int, str], prefix) -> Optional[str]:
    """Key of the unit in ``index`` holding one client prefix, or None.

    Units hold client /24s, so a prefix of any other length is in none.
    """
    return index.get(prefix.network) if prefix.length == 24 else None


def demand_coverage_curve(units: List[MapUnit]) -> List[Tuple[int, float]]:
    """(units used, cumulative demand share) sorted by demand descending.

    Figure 21 plots exactly this: how many units must be measured and
    analyzed to cover a given fraction of global demand.
    """
    total = sum(unit.demand for unit in units)
    if total <= 0:
        raise ValueError("units carry no demand")
    ranked = sorted(units, key=lambda u: u.demand, reverse=True)
    curve = []
    acc = 0.0
    for index, unit in enumerate(ranked, start=1):
        acc += unit.demand
        curve.append((index, acc / total))
    return curve


def units_needed_for_share(units: List[MapUnit], share: float) -> int:
    """Smallest number of top-demand units covering ``share`` demand."""
    if not 0 < share <= 1:
        raise ValueError(f"share must be in (0, 1]: {share}")
    for count, covered in demand_coverage_curve(units):
        if covered >= share:
            return count
    return len(units)


def cohesion_stats(units: List[MapUnit]) -> dict:
    """Aggregate per-unit cohesion over one unit set.

    Returns demand-weighted means so one hot incoherent unit cannot
    hide behind a long tail of tight singletons: ``radius_miles`` (the
    Section 3.3 geographic radius) always, ``rtt_ms`` only when the
    builder recorded RTT-feature cohesion (routing-aware units).
    """
    stats = {"units": len(units), "radius_miles": 0.0}
    total = sum(unit.demand for unit in units)
    if total <= 0:
        return stats
    stats["radius_miles"] = sum(
        unit.demand * unit.radius_miles() for unit in units) / total
    rtt_units = [u for u in units if u.cohesion_rtt_ms is not None]
    if rtt_units:
        rtt_total = sum(u.demand for u in rtt_units)
        if rtt_total > 0:
            stats["rtt_ms"] = sum(
                u.demand * u.cohesion_rtt_ms for u in rtt_units
            ) / rtt_total
    return stats
