"""Network measurement: the mapping system's eyes.

The real system runs BGP collectors, geolocation, name-server logs, and
a global ping mesh (paper Section 2.2).  Here the measurement service
wraps the simulator's latency model behind the same *interface* the
rest of the mapping system would use in production: "what RTT should
we expect between this deployment and this mapping target?".  Liveness
and load are read off the clusters themselves, at answer time, by the
load balancer.

Ping targets (Section 6's simulation methodology) are also built here:
the paper clusters ~20K top /24 blocks into 8K representative targets
and uses the nearest target as a latency proxy for any client or LDNS.

RTTs are measured in batches on the vectorized kernels in
:mod:`repro.net.batch` (cluster x target RTT matrices, bulk
nearest-target assignment).  The scalar references the equivalence
tests pin them against live with the model they implement:
:meth:`repro.net.latency.LatencyModel.base_rtt_ms` for RTTs and
:func:`nearest_target_id` for the nearest-target scan.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cdn.deployments import Cluster
from repro.net import batch
from repro.net.geometry import GeoPoint, great_circle_miles
from repro.net.latency import LatencyModel
from repro.net.ipv4 import Prefix
from repro.topology.internet import Internet


@dataclass(frozen=True, slots=True)
class PingTarget:
    """A representative measurement point (usually a router near
    clients) standing in for every client block mapped to it."""

    target_id: int
    geo: GeoPoint
    asn: int
    demand: float


class MeasurementService:
    """Latency measurements for server assignment."""

    def __init__(
        self,
        latency_model: Optional[LatencyModel] = None,
        measurement_noise: float = 0.0,
        seed: int = 17,
    ) -> None:
        if not math.isfinite(measurement_noise) or measurement_noise < 0:
            raise ValueError(
                f"measurement noise must be finite and >= 0, got "
                f"{measurement_noise!r}")
        self._latency = latency_model or LatencyModel()
        self._noise = measurement_noise
        self._rng = random.Random(seed)
        self._cache: Dict[Tuple[str, float, float, int], float] = {}
        # Observability: plain ints the snapshot-time collectors read
        # (see repro.obs.collect); hot paths pay one increment.
        self.rtt_lookups = 0
        self.rtt_memo_hits = 0
        self.epoch = 0
        """Bumped by :meth:`flush`: memos built over these measurements
        (the balancer's rankings) compare it to know they are current."""

    # -- batch latency ----------------------------------------------------

    def rtt_cluster_to_points(self, cluster: Cluster, lats, lons,
                              asns) -> np.ndarray:
        """RTT (ms) from one cluster to many targets, vectorized.

        Noise-free measurements are pure functions of the endpoints, so
        no cache is needed.  Optional multiplicative noise models
        measurement error and is frozen at first measurement per
        (cluster, target) -- the production system smooths over
        windows: cached entries win, new entries draw their noise
        factor and are frozen into the cache.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        asns = np.asarray(asns)
        rtt = batch.rtt_point_to_many(
            cluster.geo.lat, cluster.geo.lon, cluster.asn,
            lats, lons, asns, params=self._latency.params)
        self.rtt_lookups += int(rtt.size)
        if self._noise <= 0:
            return rtt
        cache = self._cache
        cid = cluster.cluster_id
        for i in range(rtt.size):
            key = (cid, float(lats[i]), float(lons[i]), int(asns[i]))
            cached = cache.get(key)
            if cached is None:
                value = float(rtt[i]) * math.exp(
                    self._rng.gauss(0.0, self._noise))
                cache[key] = value
                rtt[i] = value
            else:
                self.rtt_memo_hits += 1
                rtt[i] = cached
        return rtt

    def rtt_matrix(self, clusters: Sequence[Cluster], lats, lons,
                   asns) -> np.ndarray:
        """Cluster x target RTT matrix: shape (len(clusters), n_targets).

        The precomputed form the scoring kernel consumes; rows obey
        the memoized-noise semantics of :meth:`rtt_cluster_to_points`.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        asns = np.asarray(asns)
        if self._noise <= 0:
            cluster_lats = np.fromiter((c.geo.lat for c in clusters),
                                       dtype=float, count=len(clusters))
            cluster_lons = np.fromiter((c.geo.lon for c in clusters),
                                       dtype=float, count=len(clusters))
            cluster_asns = np.fromiter((c.asn for c in clusters),
                                       dtype=np.int64, count=len(clusters))
            self.rtt_lookups += len(clusters) * int(lats.size)
            return batch.rtt_matrix(
                cluster_lats, cluster_lons, cluster_asns,
                lats, lons, asns, params=self._latency.params)
        return np.stack([
            self.rtt_cluster_to_points(cluster, lats, lons, asns)
            for cluster in clusters
        ]) if clusters else np.empty((0, lats.size))

    def rtt_matrix_to_targets(self, clusters: Sequence[Cluster],
                              targets: Sequence) -> np.ndarray:
        """Cluster x target matrix for objects exposing ``geo``/``asn``
        (``PingTarget``, ``MapTarget``, resolvers, blocks...)."""
        lats, lons = batch.geo_columns([t.geo for t in targets])
        asns = np.fromiter((t.asn for t in targets), dtype=np.int64,
                           count=len(targets))
        return self.rtt_matrix(clusters, lats, lons, asns)

    def flush(self) -> None:
        """Forget memoized measurements (topology changed)."""
        self._cache.clear()
        self.epoch += 1


def build_ping_targets(
    internet: Internet,
    n_targets: int,
) -> Tuple[List[PingTarget], Dict[Prefix, int]]:
    """Cluster client blocks into representative ping targets.

    Follows the paper's methodology (Section 6): take the blocks that
    generate the most load, pick a demand-weighted subset as targets
    "so as to cover all major geographical areas and networks", and map
    every block to its nearest target.  Returns the target list and the
    block->target assignment.

    Selection is deterministic (demand order with a spacing
    constraint).  The block->target assignment runs as one vectorized
    bulk pass over the Internet's columnar block arrays.
    """
    if n_targets < 1:
        raise ValueError("need at least one ping target")
    blocks = sorted(internet.blocks, key=lambda b: b.demand, reverse=True)
    if not blocks:
        raise ValueError("internet has no client blocks")
    n_targets = min(n_targets, len(blocks))

    # Greedy demand-first selection with a spacing constraint keeps the
    # target set geographically diverse instead of 50 targets in Tokyo.
    # The constraint only ever compares same-AS candidates, so chosen
    # targets are bucketed per ASN and checked with one vector op.
    targets: List[PingTarget] = []
    min_spacing = 30.0  # miles
    chosen_by_asn: Dict[int, List[Tuple[float, float]]] = {}
    for block in blocks:
        if len(targets) >= n_targets:
            break
        same_as = chosen_by_asn.get(block.asn)
        if same_as:
            lats, lons = zip(*same_as)
            spacing = batch.haversine_miles(
                np.array(lats), np.array(lons),
                block.geo.lat, block.geo.lon)
            if bool(np.any(spacing < min_spacing)):
                continue
        targets.append(PingTarget(
            target_id=len(targets), geo=block.geo, asn=block.asn,
            demand=block.demand))
        chosen_by_asn.setdefault(block.asn, []).append(
            (block.geo.lat, block.geo.lon))
    # Relax spacing if the constraint starved the target budget.
    taken = {(t.geo.lat, t.geo.lon, t.asn) for t in targets}
    index = 0
    while len(targets) < n_targets and index < len(blocks):
        block = blocks[index]
        index += 1
        key = (block.geo.lat, block.geo.lon, block.asn)
        if key in taken:
            continue
        taken.add(key)
        targets.append(PingTarget(
            target_id=len(targets), geo=block.geo, asn=block.asn,
            demand=block.demand))

    grid = TargetGrid(targets)
    columns = internet.block_columns()
    nearest = grid.nearest_bulk(columns.lat, columns.lon, columns.asn)
    assignment: Dict[Prefix, int] = {
        block.prefix: int(target_id)
        for block, target_id in zip(internet.blocks, nearest)
    }
    return targets, assignment


def nearest_target_id(geo: GeoPoint, asn: int,
                      targets: Sequence[PingTarget]) -> int:
    """Nearest ping target to an arbitrary point (LDNS proxy lookup).

    Scalar reference implementation: linear scan with the same-AS
    preference metric.  :class:`TargetGrid` computes the identical
    result vectorized; the equivalence tests use this scan as the
    oracle.  Prefer building one :class:`TargetGrid` when issuing many
    lookups against the same target set.
    """
    if not targets:
        raise ValueError("no ping targets")
    best_id = targets[0].target_id
    best = math.inf
    for target in targets:
        distance = great_circle_miles(geo, target.geo)
        if target.asn != asn:
            distance += 25.0
        if distance < best:
            best = distance
            best_id = target.target_id
    return best_id


class TargetGrid:
    """Columnar index over ping targets for nearest-target queries.

    Holds the target set as lat/lon/asn arrays and answers
    nearest-target queries with the vectorized haversine kernel --
    exact over the full target set (the scalar scan in
    :func:`nearest_target_id` is the reference oracle; results are
    identical, including the +25 mile off-AS penalty and the
    lowest-target-id tie break).

    Used for both the bulk block->target assignment in
    :func:`build_ping_targets` and single-point LDNS proxy lookups.
    """

    OFF_AS_PENALTY_MILES = 25.0

    def __init__(self, targets: Sequence[PingTarget]) -> None:
        if not targets:
            raise ValueError("no ping targets")
        self._targets = list(targets)
        self._lat, self._lon = batch.geo_columns(
            [t.geo for t in self._targets])
        self._asn = np.fromiter((t.asn for t in self._targets),
                                dtype=np.int64, count=len(self._targets))
        self._ids = np.fromiter((t.target_id for t in self._targets),
                                dtype=np.int64, count=len(self._targets))

    def __len__(self) -> int:
        return len(self._targets)

    def nearest(self, geo: GeoPoint, asn: int) -> int:
        """Nearest target id to one point (same-AS preference metric)."""
        distance = batch.haversine_miles(self._lat, self._lon,
                                         geo.lat, geo.lon)
        distance = distance + np.where(self._asn != asn,
                                       self.OFF_AS_PENALTY_MILES, 0.0)
        return int(self._ids[int(np.argmin(distance))])

    def nearest_bulk(self, lats, lons, asns,
                     chunk_rows: int = 2048) -> np.ndarray:
        """Nearest target ids for many points in one matrix pass.

        Chunked over query rows so the query x target distance matrix
        stays within a bounded memory footprint at ``paper`` scale.
        """
        lats = np.asarray(lats, dtype=float)
        lons = np.asarray(lons, dtype=float)
        asns = np.asarray(asns)
        out = np.empty(lats.size, dtype=np.int64)
        for start in range(0, lats.size, chunk_rows):
            stop = min(start + chunk_rows, lats.size)
            distance = batch.haversine_matrix_miles(
                lats[start:stop], lons[start:stop], self._lat, self._lon)
            distance += np.where(
                asns[start:stop, None] != self._asn[None, :],
                self.OFF_AS_PENALTY_MILES, 0.0)
            out[start:stop] = self._ids[np.argmin(distance, axis=1)]
        return out
