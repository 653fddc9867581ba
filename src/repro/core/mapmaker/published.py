"""Published map artifacts: the control-plane/data-plane contract.

A :class:`PublishedMap` is what the map-making pipeline hands to the
name servers: a versioned, timestamped, checksummed table from mapping
unit to ranked cluster ids.  The name-server path never scores anything
at query time -- it looks the unit up in the latest accepted map (paper
Section 5: the real-time component "uses the map" the periodic
component produced).  The checksum makes corrupt publications
detectable, so a poisoned map is *rejected* (the previous map stays in
force and simply ages) rather than served.

Mapping-unit keys:

* ``eu:<client /24 prefix>`` -- end-user units, usable when the query
  carries an EDNS0 client-subnet option;
* ``ns:<ldns ip>`` -- resolver units, the traditional fallback.

:class:`StaticGeoMap` is the bottom rung of the degradation ladder: a
purely geometric great-circle ranking that needs no measurement data at
all, standing in for the static geo/anycast map CDNs keep for the day
every dynamic input is stale (cf. Kernan et al.'s unmapped-resolver
fallback).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.net.geometry import GeoPoint, great_circle_miles

#: Map entries: mapping-unit key -> cluster ids, best first.
MapEntries = Dict[str, Tuple[str, ...]]


def entries_checksum(version: int, published_day: int,
                     entries: MapEntries) -> str:
    """Canonical SHA-256 over the full publication payload."""
    doc = {
        "version": version,
        "published_day": published_day,
        "entries": {key: list(ids) for key, ids in sorted(entries.items())},
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class PublishedMap:
    """One immutable publication of the map-making pipeline."""

    version: int
    published_day: int
    entries: MapEntries
    checksum: str

    @classmethod
    def build(cls, version: int, published_day: int,
              entries: MapEntries) -> "PublishedMap":
        return cls(version=version, published_day=published_day,
                   entries=dict(entries),
                   checksum=entries_checksum(version, published_day,
                                             entries))

    def verify(self) -> bool:
        """True iff the checksum matches the payload (accept gate)."""
        return self.checksum == entries_checksum(
            self.version, self.published_day, self.entries)

    def age(self, day: int) -> int:
        return max(0, day - self.published_day)

    def lookup(self, key: str) -> Tuple[str, ...]:
        return self.entries.get(key, ())

    def __len__(self) -> int:
        return len(self.entries)


class StaticGeoMap:
    """Great-circle cluster ranking: the map of last resort.

    Needs only deployment coordinates -- no measurements, no pipeline,
    no freshness.  Rankings are recomputed against the *live* cluster
    set on every call (it is only consulted when everything else has
    already gone wrong, so staleness here would defeat the point) and
    memoised per geo while the live set stays the same, so repeated
    queries from one location stay cheap.
    """

    def __init__(self, deployments: DeploymentPlan,
                 limit: int = 12) -> None:
        self._deployments = deployments
        self._limit = limit
        self._memo: Dict[Tuple[float, float], List[Cluster]] = {}
        self._live_ids: Tuple = ()

    def rank(self, geo: GeoPoint) -> List[Cluster]:
        """Live clusters by distance from ``geo``, nearest first."""
        live = [c for c in self._deployments.clusters.values() if c.alive]
        live_ids = tuple(c.cluster_id for c in live)
        if live_ids != self._live_ids:
            # The live set changed; distances are still valid but
            # membership is not, so drop the memo wholesale.
            self._memo.clear()
            self._live_ids = live_ids
        key = (geo.lat, geo.lon)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        ranked = sorted(
            live,
            key=lambda c: (great_circle_miles(geo, c.geo), c.cluster_id))
        ranked = ranked[: self._limit]
        self._memo[key] = ranked
        return ranked
