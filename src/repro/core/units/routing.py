"""Routing-aware mapping units: cluster the address space by latency.

The paper's Section 5 names unit explosion as end-user mapping's
central scaling cost: units are static geo+AS groupings of /24s, so
unit count, measurement load, and DNS query-rate inflation grow
together.  Gursun's routing-aware partitioning (arXiv:1810.08938)
shows that clustering the address space by *path/latency similarity*
lets one server ranking generalize across a whole partition.

This builder is that idea over the vectorized kernels, starting, as
Gursun's partition does, from routed prefixes: every announced CIDR
that holds client blocks gets an RTT *feature column* (noise-free RTT
from its heaviest block to a small deterministic landmark set, via
:func:`repro.net.batch.rtt_matrix`), and a k-medoids-style
demand-weighted Lloyd iteration groups CIDRs whose columns are close
-- prefixes the network treats alike, even when geography or AS
numbering does not.  Every unit is a union of routed CIDRs.  The
partition is a pure function of the generated Internet (landmarks
seed off ``internet.seed``; no step depends on block order): features
are whole microseconds, so every distance is an exact integer, the
same under any BLAS, thread count or chunk shape.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.units.base import MapUnit, MapUnitScheme
from repro.core.units.builders import _dominant_asn
from repro.net import batch
from repro.net.geometry import GeoPoint

#: Landmark columns per row: enough to separate continental routing
#: regimes without turning the feature pass into the hotspot.
DEFAULT_LANDMARKS = 24

#: Lloyd iteration budget; assignments usually fix after 3-4 rounds.
MAX_ROUNDS = 8

#: Distances per block chunk (512 KiB of float64, cache-sized): a
#: memory bound only, since exact distances make no tie shape-bound.
ASSIGN_CHUNK = 1 << 16


class _NearestMedoids:
    """Each feature row's nearest medoid by exact squared distance,
    ``|a|^2 + |b|^2 - 2ab`` with one BLAS product per chunk of rows
    ("blocks" below), kept across one build's Lloyd rounds: while a
    block's medoid stays, the block meets only medoids that moved in;
    once it leaves, all of them.  Ties go to the lower row, the lower
    slot (rows are sorted).
    """

    def __init__(self, features: np.ndarray) -> None:
        n_blocks, n_columns = features.shape
        # No partial sum exceeds the sum of the terms' magnitudes.
        largest = float(np.abs(features).max(initial=0.0))
        if 4.0 * n_columns * largest ** 2 >= 2.0 ** 53:
            raise ValueError(f"features up to {largest} over {n_columns} "
                             "columns make distances past 2^53")
        self.features = features
        self.block_norms = np.einsum("ij,ij->i", features, features)
        # Medoid rows as a table; the extra entry answers for the -1
        # of a block with no medoid yet.
        self.present = np.zeros(n_blocks + 1, dtype=bool)
        self.best_dist = np.full(n_blocks, np.inf)
        self.best_row = np.full(n_blocks, -1, dtype=np.int64)

    def __call__(self, medoid_rows: np.ndarray) -> np.ndarray:
        """Index into the sorted ``medoid_rows`` of each block's nearest
        medoid."""
        present = np.zeros_like(self.present)
        present[medoid_rows] = True
        left = ~present[self.best_row]
        self.best_dist[left] = np.inf
        self._scan(np.flatnonzero(left), medoid_rows)
        self._scan(np.flatnonzero(~left),
                   medoid_rows[~self.present[medoid_rows]])
        self.present = present
        return np.searchsorted(medoid_rows, self.best_row)

    def _scan(self, blocks: np.ndarray, rows: np.ndarray) -> None:
        """Fold the medoids at ascending ``rows`` into ``blocks``'
        best distance and row."""
        if not rows.size:
            return
        centers = -2.0 * self.features[rows].T
        step = max(1, ASSIGN_CHUNK // rows.size)
        buffer = np.empty(min(step, blocks.size) * rows.size)
        for start in range(0, blocks.size, step):
            chunk = blocks[start:start + step]
            dists = buffer[:chunk.size * rows.size].reshape(chunk.size, -1)
            np.matmul(self.features[chunk], centers, out=dists)
            dists += self.block_norms[rows]
            # The first minimum is the lowest row; the block's own
            # |f|^2 shifts its whole row, so it is added after.
            local = np.argmin(dists, axis=1)
            dist = dists[np.arange(chunk.size), local]
            dist += self.block_norms[chunk]
            row, best = rows[local], self.best_dist[chunk]
            better = (dist < best) | (dist == best) & (
                row < self.best_row[chunk])
            won = chunk[better]
            self.best_dist[won], self.best_row[won] = dist[better], row[better]


def _update_medoids(features: np.ndarray, demand: np.ndarray,
                    assignment: np.ndarray, medoid_rows: np.ndarray,
                    dirty: np.ndarray) -> np.ndarray:
    """Each slot's next medoid row, in slot order: for a ``dirty`` slot,
    the member nearest its cluster's demand-weighted feature centroid
    (cheap, and the representative stays a real row); members with
    no demand at all weigh alike.  An empty slot keeps its row, and so
    does a clean one: its member set chose that row last round."""
    members = np.flatnonzero(dirty[assignment])
    order = members[np.argsort(assignment[members], kind="stable")]
    slots = assignment[order]
    live, starts, sizes = np.unique(slots, return_index=True,
                                    return_counts=True)
    weights = demand[order]
    # One pairwise sum per cluster, as numpy sums a 1-D array.
    totals = np.array([weights[lo:hi].sum() for lo, hi in zip(
        starts.tolist(), (starts + sizes).tolist())], dtype=float)
    unweighted = totals <= 0.0
    weights[np.repeat(unweighted, sizes)] = 1.0
    totals[unweighted] = sizes[unweighted]
    points = features[order]
    # reduceat adds each cluster's rows in order, as .sum(axis=0) does.
    centroids = np.add.reduceat(weights[:, None] * points, starts,
                                axis=0) / totals[:, None]
    offsets = points - np.repeat(centroids, sizes, axis=0)
    gaps = np.einsum("ij,ij->i", offsets, offsets)
    # The first member at its cluster's smallest gap: a stable sort by
    # (slot, gap) leaves it at the cluster's first position.
    updated = medoid_rows.copy()
    updated[live] = order[np.lexsort((gaps, slots))[starts]]
    return updated


def _lloyd_rounds(features: np.ndarray, demand: np.ndarray,
                  medoid_rows: np.ndarray
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(medoid_rows, assignment)`` for the seed medoids and
    after every round that moved one; the last pair is the partition.

    Medoid rows stay distinct (a cluster moves to its own member; an
    empty slot's row sits in a lower twin's cluster, which keeps the
    tie), so a row names a cluster, and one whose members stayed put
    is not updated."""
    nearest = _NearestMedoids(features)
    assignment = nearest(medoid_rows)
    yield medoid_rows, assignment
    dirty = np.ones(medoid_rows.size, dtype=bool)
    for _ in range(MAX_ROUNDS):
        updated = _update_medoids(features, demand, assignment,
                                  medoid_rows, dirty)
        medoid_rows, previous = np.sort(updated), medoid_rows
        if np.array_equal(medoid_rows, previous):
            return
        expected = updated[assignment]
        assignment = nearest(medoid_rows)
        rows = medoid_rows[assignment]
        moved = rows != expected
        touched = np.zeros(features.shape[0], dtype=bool)
        touched[rows[moved]] = touched[expected[moved]] = True
        dirty = touched[medoid_rows]
        yield medoid_rows, assignment


class _Cidrs:
    """The routed CIDRs that hold client blocks: one row each, in
    ``bgp.announcements()`` order, whatever order the blocks come in.

    A CIDR is one AS x city chunk of the generator, so it is coherent
    in geography and AS alike; its feature point is its heaviest member
    block (ties to the lower network), a real block as a medoid is.
    """

    def __init__(self, internet) -> None:
        cols = internet.block_columns()
        networks = np.fromiter(
            (block.prefix.network for block in internet.blocks),
            dtype=np.int64, count=len(cols))
        #: Block rows by (CIDR, network): CIDR row ``i`` holds
        #: ``blocks[bounds[i]:bounds[i + 1]]``.
        self.blocks = np.lexsort((networks, cols.cidr))
        cidr = cols.cidr[self.blocks]
        starts = np.flatnonzero(np.diff(cidr, prepend=-1))
        self.bounds = np.append(starts, cidr.size)
        #: Row in ``internet.bgp.announcements()`` per CIDR row.
        self.announcement = cidr[starts]
        #: Summed over the blocks in network order.
        self.demand = np.add.reduceat(cols.demand[self.blocks], starts)
        heaviest = np.lexsort((networks, -cols.demand, cols.cidr))
        self.representative = heaviest[starts]

    def __len__(self) -> int:
        return int(self.announcement.size)


class RoutingAwareUnitBuilder:
    """k-medoids-style clustering of routed CIDRs over RTT columns."""

    scheme = "routing_aware"

    def default_units(self, internet) -> int:
        """Unit budget when ``:<k>`` is not given: the LDNS population
        size -- the NS-style unit count the paper treats as the
        scalable baseline -- capped by the CIDR count."""
        n_cidrs = np.count_nonzero(np.bincount(
            internet.block_columns().cidr))
        return max(1, min(n_cidrs, max(len(internet.resolvers), 1)))

    def build(self, internet,
              n_units: Optional[int] = None) -> List[MapUnit]:
        if not internet.blocks:
            return []
        if n_units is None:
            n_units = self.default_units(internet)
        cidrs = _Cidrs(internet)
        n_units = max(1, min(n_units, len(cidrs)))

        features = self._features(internet, cidrs.representative)
        medoid_rows = self._initial_medoids(cidrs.demand, n_units)
        for medoid_rows, assignment in _lloyd_rounds(
                features, cidrs.demand, medoid_rows):
            pass  # the last round is the partition
        return self._materialize(internet, cidrs, features, medoid_rows,
                                 assignment)

    # -- internals -------------------------------------------------------

    @staticmethod
    def _features(internet, points: np.ndarray) -> np.ndarray:
        """len(points) x landmarks noise-free RTT features from the
        blocks at rows ``points``, in whole µs; the landmarks are a
        seeded sample of those points."""
        cols = internet.block_columns()
        count = min(DEFAULT_LANDMARKS, points.size)
        rng = random.Random(f"{internet.seed}:routing_aware:landmarks")
        landmarks = points[sorted(rng.sample(range(points.size), count))]
        # landmark x point RTT, transposed into per-point columns; the
        # point's own last-mile penalty applies to every column alike,
        # so it shifts (never reshapes) the feature vector.
        matrix = batch.rtt_matrix(
            cols.lat[landmarks], cols.lon[landmarks],
            cols.asn[landmarks],
            cols.lat[points], cols.lon[points], cols.asn[points],
            last_mile_ms=cols.last_mile_ms[points])
        return np.rint(matrix * 1000.0).T.copy()

    @staticmethod
    def _initial_medoids(demand: np.ndarray, n_units: int) -> np.ndarray:
        """Demand-stratified seeds: stride the demand-ranked row order
        so medoids start spread across the demand distribution (heavy
        metros and the long tail both get seats).  Equal demand ranks
        by row."""
        order = np.argsort(-demand, kind="stable")
        # A stride of at least 1 picks distinct rows.
        picks = np.arange(n_units) * (len(order) / n_units)
        return np.sort(order[picks.astype(int)])

    @staticmethod
    def _materialize(internet, cidrs: _Cidrs, features: np.ndarray,
                     medoid_rows: np.ndarray,
                     assignment: np.ndarray) -> List[MapUnit]:
        """One unit per occupied slot, keyed by its medoid CIDR's prefix
        text, holding every /24 of its member CIDRs; each unit's
        centroid and radius come from one pass over all members."""
        blocks = internet.blocks
        cols = internet.block_columns()
        announcements = list(internet.bgp.announcements())
        asns = cols.asn[cidrs.representative].tolist()
        demand = cidrs.demand.tolist()
        # Every CIDR's RMS feature gap to its medoid, in ms.
        offsets = features - features[medoid_rows[assignment]]
        rms_gaps = (np.sqrt(np.mean(offsets ** 2, axis=1)) / 1e3).tolist()
        order = np.argsort(assignment, kind="stable")
        # Occupied slots only: an empty slot makes no unit.
        slots, starts = np.unique(assignment[order], return_index=True)
        # Every unit's blocks in one array: its CIDRs in row order, each
        # CIDR's blocks by network.
        block_slots = np.repeat(assignment, np.diff(cidrs.bounds))
        by_slot = np.argsort(block_slots, kind="stable")
        member_rows = cidrs.blocks[by_slot]
        block_starts = np.searchsorted(block_slots[by_slot], slots).tolist()
        rows, members = order.tolist(), member_rows.tolist()
        units: List[MapUnit] = []
        for slot, lo, hi, first, last in zip(
                slots.tolist(), starts.tolist(),
                [*starts[1:].tolist(), len(rows)], block_starts,
                [*block_starts[1:], len(members)]):
            medoid = cidrs.announcement[medoid_rows[slot]]
            unit = MapUnit(key=str(announcements[medoid].cidr),
                           scheme=MapUnitScheme.ROUTING_AWARE)
            for row in members[first:last]:
                block = blocks[row]
                unit.add(block.geo, block.demand,
                         network=block.prefix.network)
            demand_by_asn: Dict[int, float] = {}
            weighted = 0.0
            for row in rows[lo:hi]:
                demand_by_asn[asns[row]] = demand_by_asn.get(
                    asns[row], 0.0) + demand[row]
                weighted += rms_gaps[row] * demand[row]
            unit.cohesion_rtt_ms = (weighted / unit.demand
                                    if unit.demand > 0 else 0.0)
            unit.asn = _dominant_asn(demand_by_asn)
            units.append(unit)

        # A one-member unit keeps its member's geo exactly, and one with
        # no demand has no centroid: both stay with the lazy path.
        counts = np.diff(np.append(block_starts, len(members)))
        spread = (counts > 1) & np.asarray([unit.demand > 0.0
                                            for unit in units])
        if spread.any():
            kept = member_rows[np.repeat(spread, counts)]
            lat, lon, radius = batch.segment_centroids_and_radii(
                cols.lat[kept], cols.lon[kept], cols.demand[kept],
                np.cumsum(counts[spread]) - counts[spread])
            for index, c_lat, c_lon, miles in zip(
                    np.flatnonzero(spread).tolist(), lat.tolist(),
                    lon.tolist(), radius.tolist()):
                units[index]._centroid = GeoPoint(c_lat, c_lon)
                units[index]._radius = miles
        return units
