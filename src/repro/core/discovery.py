"""Topology discovery: candidate clusters per region of the Internet.

Paper Section 2.2: the server-assignment pipeline first builds "a
real-time topological map of the Internet that captures how well the
different parts of the Internet connect with each other" (*topology
discovery*), and scoring then evaluates *candidate* clusters -- not
every cluster on the planet -- for each mapping unit.

:class:`CandidateIndex` is that pre-cut: a spatial index over
deployment clusters that returns the ``k`` geographically nearest
clusters (plus every same-AS in-network cluster, which may be the
network-topologically best choice regardless of distance).  The global
load balancer scores only these candidates, turning each mapping
decision from O(#clusters) into O(k).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.core.policies import MapTarget
from repro.net.geometry import GeoPoint, great_circle_miles

_CELL_DEG = 10.0
_LON_CELLS = int(360 // _CELL_DEG)
_MAX_RINGS = int(180 // _CELL_DEG) + 1

Cell = Tuple[int, int]


def _wrap_column(column: int) -> int:
    """Longitude column folded into ``-_LON_CELLS/2 .. _LON_CELLS/2 - 1``:
    lon 180.0 is the same meridian as lon -180.0, and a ring that walks
    off one edge of the grid comes back on the other."""
    return (column + _LON_CELLS // 2) % _LON_CELLS - _LON_CELLS // 2


class CandidateIndex:
    """Spatial pre-cut over clusters for candidate selection.

    Discovery is compiled, not re-run per query: which clusters a ring
    search reaches depends only on the target's home grid cell, so each
    home cell's list is built once, on first use, and a decision only
    distance-sorts that list.  The index is static after construction
    (clusters do not move or change AS), so finished candidate tuples
    are memoised per ``(geo, asn)`` without invalidation.
    """

    def __init__(self, deployments: DeploymentPlan,
                 k_nearest: int = 16) -> None:
        if k_nearest < 1:
            raise ValueError("k_nearest must be positive")
        self.deployments = deployments
        self.k_nearest = k_nearest
        self._cells: Dict[Cell, List[Cluster]] = {}
        self._by_asn: Dict[int, List[Cluster]] = {}
        for cluster in deployments.clusters.values():
            self._cells.setdefault(self._cell(cluster.geo),
                                   []).append(cluster)
            self._by_asn.setdefault(cluster.asn, []).append(cluster)
        self._all = list(deployments.clusters.values())
        self._reach: Dict[Cell, Tuple[Cluster, ...]] = {}
        self._memo: Dict[Tuple[GeoPoint, int], Tuple[Cluster, ...]] = {}

    @staticmethod
    def _cell(geo: GeoPoint) -> Cell:
        return (int(geo.lat // _CELL_DEG),
                _wrap_column(int(geo.lon // _CELL_DEG)))

    def candidates(self, target: MapTarget) -> List[Cluster]:
        """Candidate clusters for a mapping target, as a fresh list.

        The clusters a ring search around the target's home cell
        reaches (:meth:`_ring_search`), cut to the ``k_nearest``
        closest by great-circle distance (ties by cluster id), then
        every cluster deployed inside the target's AS that the cut
        dropped.  Deployments of at most ``k_nearest`` clusters are
        returned whole.  ``k_nearest`` is a ceiling on the cut, not a
        floor: on a sparse deployment the ring search gives up before
        it has reached that many clusters and fewer come back (12 of
        16 on average on the 40-cluster tiny world).  There is no
        fall-back to the full cluster list.
        """
        if len(self._all) <= self.k_nearest:
            return list(self._all)
        key = (target.geo, target.asn)
        memo = self._memo.get(key)
        if memo is None:
            memo = self._memo[key] = self._discover(target)
        return list(memo)

    def _discover(self, target: MapTarget) -> Tuple[Cluster, ...]:
        home = self._cell(target.geo)
        reach = self._reach.get(home)
        if reach is None:
            reach = self._reach[home] = self._ring_search(home)
        geo = target.geo
        found = sorted(
            (great_circle_miles(geo, cluster.geo), cluster.cluster_id,
             cluster) for cluster in reach)
        out = [cluster for _d, _id, cluster in found[: self.k_nearest]]
        out_ids = {c.cluster_id for c in out}
        for cluster in self._by_asn.get(target.asn, ()):
            if cluster.cluster_id not in out_ids:
                out.append(cluster)
        return tuple(out)

    def _ring_search(self, home: Cell) -> Tuple[Cluster, ...]:
        """Clusters in the grid rings around ``home``, innermost first.

        Stops one ring beyond the first ring that filled the
        ``k_nearest`` budget (the extra ring guards the cell-boundary
        case), or at the first empty ring past ring 4 once anything
        was found.
        """
        found: List[Cluster] = []
        visited: Set[Cell] = set()
        for ring in range(_MAX_RINGS):
            before = len(found)
            for dy, dx in _ring_offsets(ring):
                cell = (home[0] + dy, _wrap_column(home[1] + dx))
                # Rings wider than the grid wrap onto themselves.
                if cell in visited:
                    continue
                visited.add(cell)
                found.extend(self._cells.get(cell, ()))
            if len(found) >= self.k_nearest and ring >= 1:
                break
            if len(found) == before and ring > 4 and found:
                break
        return tuple(found)

    def coverage_report(self) -> Dict[str, float]:
        """Index statistics (cells used, clusters per cell)."""
        sizes = [len(v) for v in self._cells.values()]
        return {
            "cells": float(len(self._cells)),
            "clusters": float(len(self._all)),
            "max_cell": float(max(sizes) if sizes else 0),
            "mean_cell": (sum(sizes) / len(sizes)) if sizes else 0.0,
        }


def _ring_offsets(ring: int) -> Iterator[Cell]:
    """``(dy, dx)`` offsets at Chebyshev distance ``ring``: the
    perimeter of the ``(2*ring + 1)``-cell square, not its interior."""
    if ring == 0:
        yield (0, 0)
        return
    for dx in range(-ring, ring + 1):
        yield (-ring, dx)
        yield (ring, dx)
    for dy in range(-ring + 1, ring):
        yield (dy, -ring)
        yield (dy, ring)


def nearest_cluster(deployments: DeploymentPlan,
                    geo: GeoPoint) -> Cluster:
    """Geographically nearest cluster (diagnostics helper)."""
    clusters = list(deployments.clusters.values())
    if not clusters:
        raise ValueError("no deployments")
    return min(clusters,
               key=lambda c: great_circle_miles(geo, c.geo))
