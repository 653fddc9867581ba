"""Scoring: predicting client performance per candidate cluster.

The scoring stage (paper Section 2.2, "Server Assignment") evaluates
what performance the clients of each mapping unit would see from each
candidate cluster.  Different traffic classes weight the components
differently: interactive web traffic is latency-dominated, video is
throughput-dominated, applications sit in between.

Score is *lower-is-better*, expressed in equivalent milliseconds.
Every cluster ranking -- the load balancer's per-query one and the map
maker's compiled table -- comes from one kernel, :meth:`Scorer.rank`,
so the two cannot order a tie differently.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.cdn.deployments import Cluster
from repro.core.measurement import MeasurementService
from repro.core.policies import MapTarget


class TrafficClass(enum.Enum):
    """Content classes with different performance sensitivities."""

    WEB = "web"
    VIDEO = "video"
    APPLICATION = "application"


@dataclass(frozen=True, slots=True)
class ScoringWeights:
    """Component weights for one traffic class."""

    latency: float = 1.0
    loss_penalty_ms: float = 80.0
    """Extra equivalent-ms charged per percent of expected loss."""
    throughput_sensitivity: float = 0.0
    """Extra equivalent-ms per ms of RTT (long fat pipes hurt
    throughput-bound transfers beyond raw latency)."""

    @classmethod
    def for_class(cls, traffic: TrafficClass) -> "ScoringWeights":
        if traffic == TrafficClass.WEB:
            return cls(latency=1.0, loss_penalty_ms=80.0,
                       throughput_sensitivity=0.15)
        if traffic == TrafficClass.VIDEO:
            return cls(latency=0.4, loss_penalty_ms=150.0,
                       throughput_sensitivity=0.8)
        return cls(latency=1.0, loss_penalty_ms=60.0,
                   throughput_sensitivity=0.05)


class Scorer:
    """Scores (mapping target, cluster) pairs."""

    def __init__(
        self,
        measurement: MeasurementService,
        traffic: TrafficClass = TrafficClass.WEB,
    ) -> None:
        self.measurement = measurement
        self.weights = ScoringWeights.for_class(traffic)
        self.traffic = traffic
        self.load_tracker = None
        """Optional :class:`repro.core.loadfeedback.ClusterLoadTracker`.
        When attached, every score grows that cluster's load penalty
        (equivalent-ms), making both the per-query ranking and the
        map-maker's batch compile pass load-aware.  None (the default)
        keeps the pure distance/peering scoring path bit-for-bit."""

    @property
    def epoch(self) -> tuple:
        """Moves whenever a score could: on a measurement flush and on
        each load-tracker observation.  Everything else a score reads
        -- cluster and target geography, the frozen RTT memo, the
        weights -- is fixed for the scorer's life."""
        tracker = self.load_tracker
        return (self.measurement.epoch,
                None if tracker is None else tracker.epoch)

    def scores_from_rtt(self, rtt_ms: np.ndarray) -> np.ndarray:
        """Vectorized score from precomputed RTTs (any array shape).

        Latency, a distance-correlated loss proxy and a throughput
        term.  The simulator does not model per-link loss; the
        production system measures it, and longer paths cross more AS
        boundaries and cable links (paper Section 4.4), so expected
        loss grows with the square root of the RTT.
        """
        rtt = np.asarray(rtt_ms, dtype=float)
        loss = 0.05 + 0.004 * np.sqrt(np.maximum(rtt, 0.0))
        weights = self.weights
        return (
            weights.latency * rtt
            + weights.loss_penalty_ms * loss
            + weights.throughput_sensitivity * rtt
        )

    def score_targets(self, clusters: Sequence[Cluster],
                      targets: Sequence[MapTarget]) -> np.ndarray:
        """Score matrix, shape (len(clusters), len(targets)).

        One RTT-matrix pass through the measurement service's batch API
        plus one vectorized scoring pass.  With measurement noise on,
        the noise draws go through the measurement memo, so a pair
        scores the same in every pass.  Point targets only: rank
        aggregates with :meth:`rank`.
        """
        for target in targets:
            if target.is_aggregate:
                raise ValueError(
                    "score_targets handles point targets only; use "
                    "rank for aggregate targets")
        if not clusters or not targets:
            return np.empty((len(clusters), len(targets)))
        rtt = self.measurement.rtt_matrix_to_targets(clusters, targets)
        scores = self.scores_from_rtt(rtt)
        if self.load_tracker is not None:
            # One penalty per cluster row.
            penalties = np.array(
                [self.load_tracker.penalty_ms(c.cluster_id)
                 for c in clusters], dtype=float)
            scores = scores + penalties[:, None]
        return scores

    def rank(self, clusters: Sequence[Cluster],
             targets: Sequence[MapTarget]) -> np.ndarray:
        """Every cluster ranking, from one :meth:`score_targets` pass.

        Row ``j`` holds indices into ``clusters``, best for
        ``targets[j]`` first, ordered by ``(score, cluster_id)``:
        shape (len(targets), len(clusters)).  An aggregate (CANS)
        target scores as the demand-weighted mean of its members'
        columns, summed in member order.
        """
        points: List[MapTarget] = []
        for target in targets:
            if not target.is_aggregate:
                points.append(target)
                continue
            if sum(weight for _, weight in target.members) <= 0:
                raise ValueError(
                    "weighted scoring needs positive total weight")
            points.extend(member for member, _ in target.members)
        by_id = sorted(range(len(clusters)),
                       key=lambda i: clusters[i].cluster_id)
        scores = self.score_targets([clusters[i] for i in by_id], points)
        if any(target.is_aggregate for target in targets):
            scores = _merge_members(scores, targets)
        # Clusters sit in id order and the sort is stable: ties go to
        # the lower cluster id.
        order = np.argsort(scores, axis=0, kind="stable")
        return np.asarray(by_id, dtype=np.intp)[order.T]


def _merge_members(scores: np.ndarray,
                   targets: Sequence[MapTarget]) -> np.ndarray:
    """One column per target from one column per point: an aggregate's
    member columns weight-summed in member order over the total."""
    merged = np.empty((scores.shape[0], len(targets)))
    column = 0
    for j, target in enumerate(targets):
        if not target.is_aggregate:
            merged[:, j] = scores[:, column]
            column += 1
            continue
        summed = 0.0
        total = 0.0
        for _, weight in target.members:
            summed = summed + weight * scores[:, column]
            total += weight
            column += 1
        merged[:, j] = summed / total
    return merged
