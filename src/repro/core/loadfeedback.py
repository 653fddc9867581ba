"""Load feedback: cluster utilization reports feeding the scorer.

The paper's mapping system scores clusters almost purely on
distance/peering (Section 2.2); server load is consulted only at
spillover time, when the global load balancer walks down the ranking
past clusters over their utilization ceiling.  This module closes the
loop the way the load-aware edge-selection literature does: clusters
*report* their utilization into the scoring pass itself, so hot
clusters are demoted before the first query ever spills.

The loop, end to end:

1. **Report** -- once per simulated day (before the day's load decays)
   :meth:`ClusterLoadTracker.observe_day` reads every cluster's
   assigned load against its capacity and folds it into a per-cluster
   EWMA, the smoothed utilization signal a real feedback channel would
   carry.
2. **Compile / score** -- a :class:`~repro.core.scoring.Scorer` with
   the tracker attached adds ``load_penalty_ms * utilization``
   equivalent-milliseconds to every cluster's score, plus a large
   ``demotion_penalty_ms`` once utilization crosses
   ``overload_threshold``.  Both the per-query ranking path and the
   map-maker's batch compile pass go through the scorer, so published
   maps become load-aware with no compile-path changes.
3. **Demote ladder** -- the threshold term pushes overloaded clusters
   to the bottom of every ranking (still reachable: a demoted cluster
   beats a dead one), while the proportional term trades distance
   against load continuously below the threshold.

Everything is opt-in: a world built without a
:class:`LoadFeedbackConfig` has no tracker, the scorer adds nothing,
and every byte of the legacy outputs is preserved.

Sharding: each shard observes only its own sessions' load, so the
tracker scales observations by ``load_scale`` (the shard count) to
approximate the global signal; the exported gauges merge by ``max``
across shards (replicated-state style -- the hottest shard's view).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional


@dataclass(frozen=True)
class LoadFeedbackConfig:
    """Knobs of the load-feedback loop (all opt-in via ScenarioSpec)."""

    load_penalty_ms: float = 50.0
    """Equivalent-ms charged per unit of smoothed utilization -- the
    continuous distance-vs-load trade (a cluster at 60% utilization
    costs like 30 extra ms of RTT at the default)."""
    overload_threshold: float = 0.7
    """Smoothed utilization above which a cluster is demoted outright
    (below the balancer's 0.85 spillover ceiling by design: demotion
    acts *before* spillover would)."""
    demotion_penalty_ms: float = 10_000.0
    """Score penalty for clusters over the threshold: large enough to
    rank them below every healthy candidate, finite so they still beat
    dead clusters when everything is hot."""
    ewma_alpha: float = 0.5
    """Weight of the newest daily observation in the smoothed signal."""

    def __post_init__(self) -> None:
        for name in ("load_penalty_ms", "overload_threshold",
                     "demotion_penalty_ms", "ewma_alpha"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.load_penalty_ms < 0:
            raise ValueError(
                f"load_penalty_ms must be >= 0: {self.load_penalty_ms}")
        if self.overload_threshold <= 0:
            raise ValueError(
                f"overload_threshold must be > 0: "
                f"{self.overload_threshold}")
        if self.demotion_penalty_ms < 0:
            raise ValueError(
                f"demotion_penalty_ms must be >= 0: "
                f"{self.demotion_penalty_ms}")
        if not 0 < self.ewma_alpha <= 1:
            raise ValueError(
                f"ewma_alpha must be in (0, 1]: {self.ewma_alpha}")


class ClusterLoadTracker:
    """Per-cluster smoothed-utilization state (the report channel).

    Holds one EWMA per cluster id, updated once per simulated day from
    the deployment plan's accumulated load, and answers the scorer's
    penalty queries.  Day 0 observes zero load everywhere, so the
    bootstrap map publication is penalty-free.
    """

    def __init__(self, config: Optional[LoadFeedbackConfig] = None,
                 load_scale: float = 1.0) -> None:
        if load_scale <= 0:
            raise ValueError(f"load_scale must be > 0: {load_scale}")
        self.config = config or LoadFeedbackConfig()
        self.load_scale = load_scale
        self._smoothed: Dict[str, float] = {}
        self.epoch = 0
        """Bumped by every :meth:`observe_day`: the penalties changed."""

    def utilization(self, cluster_id: str) -> float:
        """Smoothed utilization of one cluster (0 until observed)."""
        return self._smoothed.get(cluster_id, 0.0)

    def penalty_ms(self, cluster_id: str) -> float:
        """Equivalent-ms the scorer adds for this cluster's load."""
        utilization = self._smoothed.get(cluster_id, 0.0)
        penalty = self.config.load_penalty_ms * utilization
        if utilization > self.config.overload_threshold:
            penalty += self.config.demotion_penalty_ms
        return penalty

    def demoted_share(self, deployments) -> float:
        """Share of live clusters currently over the threshold."""
        live = [c for c in deployments.clusters.values() if c.alive]
        if not live:
            return 0.0
        demoted = sum(
            1 for cluster in live
            if self.utilization(cluster.cluster_id)
            > self.config.overload_threshold)
        return demoted / len(live)

    def observe_day(self, deployments, registry=None) -> None:
        """Fold one day's assigned load into the smoothed signal.

        Reads each cluster's accumulated ``load_rps`` against its live
        capacity (scaled by ``load_scale`` for sharded runs), in
        sorted cluster-id order for determinism.  Clusters with no
        live capacity keep their last smoothed value -- a dead
        cluster's stale heat resumes decaying via the EWMA once it
        recovers, rather than resetting to cold.

        With a ``registry``, exports ``cluster.load.p95`` and
        ``mapping.load_demoted_share`` gauges (merge mode ``max``:
        replicated-state style across shards).
        """
        self.epoch += 1
        alpha = self.config.ewma_alpha
        smoothed = []
        demoted = 0
        for cluster_id in sorted(deployments.clusters):
            cluster = deployments.clusters[cluster_id]
            capacity = cluster.capacity_rps
            if capacity <= 0:
                continue
            utilization = cluster.load_rps * self.load_scale / capacity
            value = (alpha * utilization
                     + (1.0 - alpha) * self._smoothed.get(cluster_id, 0.0))
            self._smoothed[cluster_id] = value
            smoothed.append(value)
            if value > self.config.overload_threshold:
                demoted += 1
        if registry is not None and smoothed:
            ordered = sorted(smoothed)
            rank = min(len(ordered) - 1,
                       int(round(0.95 * (len(ordered) - 1))))
            registry.gauge("cluster.load.p95", merge="max").set(
                ordered[rank])
            registry.gauge("mapping.load_demoted_share",
                           merge="max").set(demoted / len(smoothed))
