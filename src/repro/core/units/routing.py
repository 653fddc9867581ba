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
geography or AS numbering does not.

The partition is a pure function of the generated Internet (landmark
choice seeds off ``internet.seed``) *and of the host's BLAS*: the
medoid-to-block distances come from one matrix product per
:data:`ASSIGN_CHUNK` medoids, whose last-bit rounding is the BLAS
build's.  Every process on one host (shard workers rebuilding the
world included) builds the identical partition, so sharded runs stay
byte-identical across worker counts; two hosts with different BLAS
builds can break a near-tie differently and disagree.
"""

from __future__ import annotations

import mmap
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

#: Medoid rows per distance product.  Part of the partition's
#: definition, not only a memory bound (one chunk x n_blocks float
#: matrix): the product's rounding depends on its shape, so another
#: chunk size can break a near-tie the other way.
ASSIGN_CHUNK = 256


class _NearestMedoids:
    """Each block's nearest medoid, over one feature matrix.

    Squared-Euclidean over RTT columns via the ``|a-b|^2 =
    |a|^2+|b|^2-2ab`` expansion, one BLAS product per
    :data:`ASSIGN_CHUNK` medoids written into one chunk x n_blocks
    buffer that every Lloyd round of one build reuses.  Ties break
    toward the lower medoid index, which the fixed medoid ordering
    makes deterministic.
    """

    def __init__(self, features: np.ndarray, n_medoids: int) -> None:
        self.features = features
        self.block_norms = np.einsum("ij,ij->i", features, features)
        shape = (min(ASSIGN_CHUNK, n_medoids), features.shape[0])
        # An anonymous mapping, not the malloc heap: freed with the
        # build, it goes back to the OS instead of staying resident.
        self.dists = np.frombuffer(
            mmap.mmap(-1, shape[0] * shape[1] * 8)).reshape(shape)

    def __call__(self, medoid_rows: np.ndarray) -> np.ndarray:
        """Index into ``medoid_rows`` of each block's nearest medoid."""
        features = self.features
        n_blocks = features.shape[0]
        best_dist = np.full(n_blocks, np.inf)
        best_index = np.zeros(n_blocks, dtype=np.int64)
        local_min = np.empty(n_blocks)
        local = np.empty(n_blocks, dtype=np.int64)
        mask = np.empty(n_blocks, dtype=bool)
        for start in range(0, medoid_rows.size, ASSIGN_CHUNK):
            centers = features[medoid_rows[start:start + ASSIGN_CHUNK]]
            dists = self.dists[:centers.shape[0]]
            # |c|^2 - (2c) @ f.T + |f|^2, in the one evaluation order
            # the partition is defined by.
            np.matmul(2.0 * centers, features.T, out=dists)
            np.subtract(np.einsum("ij,ij->i", centers, centers)[:, None],
                        dists, out=dists)
            np.add(dists, self.block_norms, out=dists)
            # First minimum per block: scan rows last to first, so the
            # lowest row equal to the column minimum writes last.
            np.min(dists, axis=0, out=local_min)
            for row in range(dists.shape[0] - 1, -1, -1):
                np.equal(dists[row], local_min, out=mask)
                np.copyto(local, row, where=mask)
            # An earlier chunk keeps a tie.
            np.less(local_min, best_dist, out=mask)
            np.copyto(best_dist, local_min, where=mask)
            np.copyto(best_index, local + start, where=mask)
        return best_index


def _groups(assignment: np.ndarray,
            n_slots: int) -> Tuple[np.ndarray, np.ndarray]:
    """Blocks grouped by medoid slot: ``order`` lists block rows slot
    by slot, ascending within a slot (the sort is stable), and slot
    ``s``'s members are ``order[bounds[s]:bounds[s + 1]]``."""
    order = np.argsort(assignment, kind="stable")
    bounds = np.searchsorted(assignment[order], np.arange(n_slots + 1))
    return order, bounds


def _update_medoids(features: np.ndarray, demand: np.ndarray,
                    assignment: np.ndarray,
                    medoid_rows: np.ndarray) -> np.ndarray:
    """Move each medoid to the member nearest its cluster's
    demand-weighted feature centroid (the k-medoids-style step: cheap,
    and the representative stays a real block).

    A cluster whose members carry no demand weighs them alike.  A slot
    with no members keeps its medoid.
    """
    order, bounds = _groups(assignment, medoid_rows.size)
    sizes = np.diff(bounds)
    live = np.flatnonzero(sizes)
    starts = bounds[live]
    weights = demand[order]
    totals = np.empty(live.size)
    for group, (lo, hi) in enumerate(zip(starts.tolist(),
                                         bounds[live + 1].tolist())):
        # One pairwise sum per cluster, as numpy sums a 1-D array.
        total = float(weights[lo:hi].sum())
        if total <= 0.0:
            weights[lo:hi] = 1.0
            total = float(hi - lo)
        totals[group] = total
    members = features[order]
    # reduceat adds each cluster's rows in order, as .sum(axis=0) does.
    centroids = np.add.reduceat(weights[:, None] * members, starts,
                                axis=0) / totals[:, None]
    offsets = members - np.repeat(centroids, sizes[live], axis=0)
    gaps = np.einsum("ij,ij->i", offsets, offsets)
    # The first member at its cluster's smallest gap: a stable sort by
    # (slot, gap) leaves it at the cluster's first position.
    nearest = np.lexsort((gaps, assignment[order]))[starts]
    updated = medoid_rows.copy()
    updated[live] = order[nearest]
    return np.sort(updated)


def _lloyd_rounds(features: np.ndarray, demand: np.ndarray,
                  medoid_rows: np.ndarray
                  ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(medoid_rows, assignment)`` for the seed medoids and
    after every round that moved one; the last pair is the partition."""
    nearest = _NearestMedoids(features, medoid_rows.size)
    assignment = nearest(medoid_rows)
    yield medoid_rows, assignment
    for _ in range(MAX_ROUNDS):
        updated = _update_medoids(features, demand, assignment,
                                  medoid_rows)
        if np.array_equal(updated, medoid_rows):
            return
        medoid_rows = updated
        assignment = nearest(medoid_rows)
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

        prefixes = [str(block.prefix) for block in blocks]
        features = self._features(internet)
        medoid_rows = self._initial_medoids(blocks, prefixes, n_units)
        for medoid_rows, assignment in _lloyd_rounds(
                features, internet.block_columns().demand, medoid_rows):
            pass  # the last round is the partition
        return self._materialize(blocks, prefixes, features,
                                 medoid_rows, assignment)

    # -- internals -------------------------------------------------------

    def _features(self, internet) -> np.ndarray:
        """n_blocks x landmarks noise-free RTT feature matrix."""
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
        return matrix.T.copy()

    @staticmethod
    def _initial_medoids(blocks, prefixes: List[str],
                         n_units: int) -> np.ndarray:
        """Demand-stratified seeds: stride the demand-ranked block
        order so medoids start spread across the demand distribution
        (heavy metros and the long tail both get seats)."""
        order = sorted(range(len(blocks)),
                       key=lambda i: (-blocks[i].demand, prefixes[i]))
        stride = len(order) / n_units
        rows = sorted({order[int(k * stride)] for k in range(n_units)})
        return np.asarray(rows, dtype=np.int64)

    @staticmethod
    def _materialize(blocks, prefixes: List[str], features: np.ndarray,
                     medoid_rows: np.ndarray,
                     assignment: np.ndarray) -> List[MapUnit]:
        order, bounds = _groups(assignment, medoid_rows.size)
        # Every member's RMS feature gap to its medoid, in one pass.
        offsets = features[order] - features[medoid_rows[assignment[order]]]
        rms_gaps = np.sqrt(np.mean(offsets ** 2, axis=1)).tolist()
        rows = order.tolist()
        units: List[MapUnit] = []
        for slot, (lo, hi) in enumerate(zip(bounds[:-1].tolist(),
                                            bounds[1:].tolist())):
            if lo == hi:
                continue  # twin medoid lost the argmin tie everywhere
            unit = MapUnit(key=prefixes[int(medoid_rows[slot])],
                           scheme=MapUnitScheme.ROUTING_AWARE)
            demand_by_asn: Dict[int, float] = {}
            weights: List[float] = []
            for row in rows[lo:hi]:
                block = blocks[row]
                unit.add(block.geo, block.demand,
                         network=block.prefix.network)
                demand_by_asn[block.asn] = demand_by_asn.get(
                    block.asn, 0.0) + block.demand
                weights.append(block.demand)
            total = sum(weights)
            if total > 0:
                unit.cohesion_rtt_ms = sum(
                    gap * weight for gap, weight
                    in zip(rms_gaps[lo:hi], weights)) / total
            else:
                unit.cohesion_rtt_ms = 0.0
            unit.asn = min(demand_by_asn,
                           key=lambda asn: (-demand_by_asn[asn], asn))
            units.append(unit)
        return units
