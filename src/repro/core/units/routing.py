"""Routing-aware mapping units: cluster the address space by latency.

The paper's Section 5 names unit explosion as end-user mapping's
central scaling cost: units are static geo+AS groupings of /24s, so
unit count, measurement load, and DNS query-rate inflation grow
together.  Gursun's routing-aware partitioning (arXiv:1810.08938)
shows that clustering the address space by *path/latency similarity*
lets one server ranking generalize across a whole partition.

This builder is that idea over the PR 1 vectorized kernels: every
client block gets an RTT *feature column* (noise-free RTT to a small
deterministic landmark set, via :func:`repro.net.batch.rtt_matrix`),
and a k-medoids-style demand-weighted Lloyd iteration groups blocks
whose columns are close -- blocks the network treats alike, even when
geography or AS numbering does not.  The partition is a pure function
of the generated Internet (landmarks seed off ``internet.seed``):
features are whole microseconds, so every distance is an exact
integer, the same under any BLAS, thread count or chunk shape.
"""

from __future__ import annotations

import random
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.units.base import MapUnit, MapUnitScheme
from repro.net import batch

#: Landmark columns per block: enough to separate continental routing
#: regimes without turning the feature pass into the hotspot.
DEFAULT_LANDMARKS = 24

#: Lloyd iteration budget; assignments usually fix after 3-4 rounds.
MAX_ROUNDS = 8

#: Distances per block chunk (512 KiB of float64, cache-sized): a
#: memory bound only, since exact distances make no tie shape-bound.
ASSIGN_CHUNK = 1 << 16


class _NearestMedoids:
    """Each block's nearest medoid by exact squared distance, ``|a|^2 +
    |b|^2 - 2ab`` with one BLAS product per chunk of blocks, kept
    across one build's Lloyd rounds: while a block's medoid stays, the
    block meets only medoids that moved in; once it leaves, all of
    them.  Ties go to the lower row, the lower slot (rows are sorted).
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
    (cheap, and the representative stays a real block); members with
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


class RoutingAwareUnitBuilder:
    """k-medoids-style clustering of client blocks over RTT columns."""

    scheme = "routing_aware"

    def default_units(self, internet) -> int:
        """Unit budget when ``:<k>`` is not given: the LDNS population
        size -- the NS-style unit count the paper treats as the
        scalable baseline -- capped by the block count."""
        return max(1, min(len(internet.blocks),
                          max(len(internet.resolvers), 1)))

    def build(self, internet,
              n_units: Optional[int] = None) -> List[MapUnit]:
        blocks = internet.blocks
        if not blocks:
            return []
        if n_units is None:
            n_units = self.default_units(internet)
        n_units = max(1, min(n_units, len(blocks)))

        demand = internet.block_columns().demand
        features = self._features(internet)
        medoid_rows = self._initial_medoids(blocks, demand, n_units)
        for medoid_rows, assignment in _lloyd_rounds(
                features, demand, medoid_rows):
            pass  # the last round is the partition
        return self._materialize(blocks, features, medoid_rows,
                                 assignment)

    # -- internals -------------------------------------------------------

    def _features(self, internet) -> np.ndarray:
        """n_blocks x landmarks noise-free RTT features, in whole µs."""
        cols = internet.block_columns()
        count = min(DEFAULT_LANDMARKS, len(internet.blocks))
        rng = random.Random(f"{internet.seed}:routing_aware:landmarks")
        rows = sorted(rng.sample(range(len(internet.blocks)), count))
        landmarks = np.asarray(rows, dtype=np.int64)
        # landmark x block RTT, transposed into per-block columns; the
        # block's own last-mile penalty applies to every column alike,
        # so it shifts (never reshapes) the feature vector.
        matrix = batch.rtt_matrix(
            cols.lat[landmarks], cols.lon[landmarks],
            cols.asn[landmarks],
            cols.lat, cols.lon, cols.asn,
            last_mile_ms=cols.last_mile_ms)
        return np.rint(matrix * 1000.0).T.copy()

    @staticmethod
    def _initial_medoids(blocks, demand: np.ndarray,
                         n_units: int) -> np.ndarray:
        """Demand-stratified seeds: stride the demand-ranked block
        order so medoids start spread across the demand distribution
        (heavy metros and the long tail both get seats).  Equal demand
        ranks by prefix text, formatted for tied blocks only."""
        order = np.argsort(-demand, kind="stable")
        _, starts, counts = np.unique(demand[order], return_index=True,
                                      return_counts=True)
        for lo, hi in zip(starts.tolist(), (starts + counts).tolist()):
            if hi - lo > 1:
                order[lo:hi] = sorted(order[lo:hi].tolist(), key=lambda
                                      row: str(blocks[row].prefix))
        picks = np.arange(n_units) * (len(order) / n_units)
        return np.asarray(sorted(set(order[picks.astype(int)].tolist())))

    @staticmethod
    def _materialize(blocks, features: np.ndarray,
                     medoid_rows: np.ndarray,
                     assignment: np.ndarray) -> List[MapUnit]:
        order = np.argsort(assignment, kind="stable")
        # Occupied slots only: an empty slot makes no unit.
        slots, starts = np.unique(assignment[order], return_index=True)
        # Every member's RMS feature gap to its medoid, in ms.
        offsets = features[order] - features[medoid_rows[assignment[order]]]
        rms_gaps = (np.sqrt(np.mean(offsets ** 2, axis=1)) / 1e3).tolist()
        rows = order.tolist()
        units: List[MapUnit] = []
        for slot, lo, hi in zip(slots.tolist(), starts.tolist(),
                                [*starts[1:].tolist(), len(rows)]):
            unit = MapUnit(key=str(blocks[int(medoid_rows[slot])].prefix),
                           scheme=MapUnitScheme.ROUTING_AWARE)
            members = [blocks[row] for row in rows[lo:hi]]
            demand_by_asn: Dict[int, float] = {}
            for block in members:
                unit.add(block.geo, block.demand,
                         network=block.prefix.network)
                demand_by_asn[block.asn] = demand_by_asn.get(
                    block.asn, 0.0) + block.demand
            weighted = sum(gap * block.demand for gap, block
                           in zip(rms_gaps[lo:hi], members))
            unit.cohesion_rtt_ms = (weighted / unit.demand
                                    if unit.demand > 0 else 0.0)
            unit.asn = min(demand_by_asn,
                           key=lambda asn: (-demand_by_asn[asn], asn))
            units.append(unit)
        return units
