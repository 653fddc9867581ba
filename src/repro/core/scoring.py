"""Scoring: predicting client performance per candidate cluster.

The scoring stage (paper Section 2.2, "Server Assignment") evaluates
what performance the clients of each mapping unit would see from each
candidate cluster.  Different traffic classes weight the components
differently: interactive web traffic is latency-dominated, video is
throughput-dominated, applications sit in between.

Score is *lower-is-better*, expressed in equivalent milliseconds.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

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

    def expected_loss_pct(self, rtt_ms: float) -> float:
        """Loss proxy: longer paths cross more peering points.

        The simulator does not model per-link loss; the production
        system measures it.  Distance-correlated loss is the documented
        stand-in (paper Section 4.4: longer paths cross more AS
        boundaries and cable links, raising congestion odds).
        """
        return 0.05 + 0.004 * math.sqrt(max(rtt_ms, 0.0))

    def score(self, cluster: Cluster, target: MapTarget) -> float:
        """Lower-is-better score in equivalent milliseconds."""
        rtt = self.measurement.rtt_cluster_to_point(
            cluster, target.geo, target.asn)
        loss = self.expected_loss_pct(rtt)
        weights = self.weights
        base = (
            weights.latency * rtt
            + weights.loss_penalty_ms * loss
            + weights.throughput_sensitivity * rtt
        )
        if self.load_tracker is not None:
            base += self.load_tracker.penalty_ms(cluster.cluster_id)
        return base

    def scores_from_rtt(self, rtt_ms: np.ndarray) -> np.ndarray:
        """Vectorized score from precomputed RTTs (any array shape).

        Same component order as :meth:`score`, so noise-free batch
        scores are bit-identical to the scalar path.
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
        plus one vectorized scoring pass; ``scores[i, j]`` equals
        ``self.score(clusters[i], targets[j])`` (exactly when
        measurement noise is off -- noise draws still go through the
        memo cache, so the two paths agree entry-by-entry either way).
        Aggregate targets are not supported here; score those via
        :meth:`score_weighted`.
        """
        for target in targets:
            if target.is_aggregate:
                raise ValueError(
                    "score_targets handles point targets only; use "
                    "score_weighted for aggregate targets")
        if not clusters or not targets:
            return np.empty((len(clusters), len(targets)))
        rtt = self.measurement.rtt_matrix_to_targets(clusters, targets)
        scores = self.scores_from_rtt(rtt)
        if self.load_tracker is not None:
            # One penalty per cluster row; elementwise float64 adds
            # keep the batch path bit-identical to the scalar one.
            penalties = np.array(
                [self.load_tracker.penalty_ms(c.cluster_id)
                 for c in clusters], dtype=float)
            scores = scores + penalties[:, None]
        return scores

    def score_weighted(self, cluster: Cluster,
                       targets: list[tuple[MapTarget, float]]) -> float:
        """Demand-weighted score over a set of targets (CANS mapping)."""
        total_weight = sum(weight for _, weight in targets)
        if total_weight <= 0:
            raise ValueError("weighted scoring needs positive total weight")
        return sum(
            weight * self.score(cluster, target)
            for target, weight in targets
        ) / total_weight
