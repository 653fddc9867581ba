"""Hierarchical load balancing: global (cluster) then local (servers).

Paper Section 2.2: "the load balancing module assigns servers to each
client request in two hierarchical steps: first it assigns a server
cluster for each client (global load balancing); next it assigns
server(s) within the chosen cluster (local load balancing)".

* The **global** balancer ranks candidate clusters by score and picks
  the best one that is live and under its utilization ceiling,
  spilling over to the next-best when the proximal cluster is full.
  Ranking is the periodic half of the paper's split and liveness and
  headroom the real-time half: a target's ranking is scored once per
  score epoch (:attr:`repro.core.scoring.Scorer.epoch`) and memoised
  with its dead clusters in place, and every pick walks it afresh.
  The ranking itself is :meth:`~repro.core.scoring.Scorer.rank`, the
  kernel the map maker compiles published maps with.
* The **local** balancer picks two or more servers inside the cluster
  ("more than one server is returned as an additional precaution
  against transient failures", paper footnote 2) using rendezvous
  hashing keyed by content provider, so requests for one provider's
  content concentrate on few servers per cluster -- the cache-affinity
  consideration of Section 1.  Each (cluster, provider) is ranked
  once; a pick filters that order by liveness and load.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.cdn.server import EdgeServer
from repro.core.policies import MapTarget
from repro.core.scoring import Scorer
from repro.obs import NOOP, Observability


class CandidateIndexLike(Protocol):
    """Topology-discovery interface the balancer consumes.

    Implemented by :class:`repro.core.discovery.CandidateIndex`; typed
    as a protocol to keep this module free of a discovery dependency.
    """

    def candidates(self, target: MapTarget) -> List[Cluster]: ...


@dataclass(frozen=True, slots=True)
class LoadBalancerConfig:
    utilization_ceiling: float = 0.85
    """Clusters above this utilization stop receiving new traffic."""
    servers_per_answer: int = 2
    candidate_limit: int = 12
    """Clusters fully scored per decision after the geometric pre-cut.
    (Topology discovery in production similarly prunes candidates.)"""

    def __post_init__(self) -> None:
        if not 0 < self.utilization_ceiling <= 1.0:
            raise ValueError("utilization ceiling must be in (0, 1]")
        if self.servers_per_answer < 1:
            raise ValueError("must return at least one server")
        if self.candidate_limit < 1:
            raise ValueError("must score at least one candidate")


class GlobalLoadBalancer:
    """Chooses the serving cluster for a mapping target."""

    def __init__(
        self,
        deployments: DeploymentPlan,
        scorer: Scorer,
        config: Optional[LoadBalancerConfig] = None,
        candidate_index: Optional["CandidateIndexLike"] = None,
        obs: Optional[Observability] = None,
    ) -> None:
        self.deployments = deployments
        self.scorer = scorer
        self.config = config or LoadBalancerConfig()
        self.candidate_index = candidate_index
        self.obs = obs if obs is not None else NOOP
        self.spillovers = 0
        self.decisions = 0
        self.ranking_hits = 0
        """Picks answered from a memoised ranking; ``ranking_misses``
        counts the picks that had to score.  Together they are
        ``decisions``."""
        self.ranking_misses = 0
        self._ranked: Dict[MapTarget, Tuple[Cluster, ...]] = {}
        self._epoch = scorer.epoch
        # Created on first use, like the instrument itself.
        self._overloaded_picks = None

    def ranking(self, target: MapTarget) -> Tuple[Cluster, ...]:
        """Every candidate cluster of ``target``, dead ones included,
        best score first.

        With a topology-discovery candidate index attached, only the
        pre-cut candidates are scored (paper Section 2.2: scoring
        evaluates candidates produced by topology discovery); without
        one, every cluster is.  Memoised per target until the scorer's
        epoch moves.  Liveness is no score input -- a pick skips the
        dead where they stand, which keeps the order of the rest -- so
        outages and their reverts invalidate nothing.
        """
        return self._lookup(target)[0]

    def _lookup(self, target: MapTarget
                ) -> Tuple[Tuple[Cluster, ...], bool]:
        """``(ranking(target), whether the memo held it)``."""
        epoch = self.scorer.epoch
        if epoch != self._epoch:
            self._ranked.clear()
            self._epoch = epoch
        ranked = self._ranked.get(target)
        if ranked is not None:
            return ranked, True
        ranked = self._ranked[target] = self._rank(
            target, self._candidates(target))
        return ranked, False

    def stale_rankings(self) -> List[MapTarget]:
        """Memoised targets a fresh scoring ranks differently: empty
        while the invalidation rule holds (the chaos soak's audit)."""
        if self.scorer.epoch != self._epoch:
            return []  # the whole memo goes on its next read
        return [target for target, ranked in self._ranked.items()
                if ranked != self._rank(target, self._candidates(target))]

    def _candidates(self, target: MapTarget) -> Iterable[Cluster]:
        if self.candidate_index is not None:
            return self.candidate_index.candidates(target)
        return self.deployments.clusters.values()

    def _rank(self, target: MapTarget,
              clusters: Iterable[Cluster]) -> Tuple[Cluster, ...]:
        """``clusters`` ranked for ``target`` by :meth:`Scorer.rank`."""
        clusters = list(clusters)
        order = self.scorer.rank(clusters, (target,))[0]
        return tuple(clusters[i] for i in order.tolist())

    def pick_cluster(self, target: MapTarget) -> Optional[Cluster]:
        """Best-scoring live cluster with capacity headroom."""
        self.decisions += 1
        spills_before = self.spillovers
        ranked, memoised = self._lookup(target)
        cluster = self.walk(ranked)
        if cluster is None:
            # Every candidate is dead: score every live cluster.
            memoised = False
            ranked = self._rank(target, self.deployments.live_clusters())
            cluster = self.walk(ranked)
        if memoised:
            self.ranking_hits += 1
        else:
            self.ranking_misses += 1
        tracer = self.obs.tracer
        if tracer.active:
            tracer.event(
                "lb.pick",
                candidates=sum(1 for c in ranked if c.alive),
                cluster=cluster.cluster_id if cluster else None,
                spillover=self.spillovers > spills_before)
        return cluster

    def walk(self, ranked: Iterable[Cluster]) -> Optional[Cluster]:
        """The headroom walk over a ranking that may name dead clusters.

        The first live cluster under the utilization ceiling among the
        first ``candidate_limit`` live ones; when all of those are over
        it, the least loaded of them.  None when nothing is alive.
        """
        ceiling = self.config.utilization_ceiling
        limit = self.config.candidate_limit
        considered: List[Cluster] = []
        utilizations: List[float] = []
        for cluster in ranked:
            utilization = cluster.live_utilization()
            if utilization is None:
                continue
            if utilization < ceiling:
                if considered:
                    self.spillovers += 1
                return cluster
            considered.append(cluster)
            utilizations.append(utilization)
            if len(considered) == limit:
                break
        if not considered:
            return None
        # Everything over the ceiling: degrade gracefully to the
        # least-loaded candidate (the first of equals) rather than
        # failing the resolution.
        fallback = considered[min(range(len(utilizations)),
                                  key=utilizations.__getitem__)]
        self.spillovers += 1
        counter = self._overloaded_picks
        if counter is None:
            # Created lazily: fault-free runs at fixture scale never
            # saturate every candidate, so snapshots there are
            # unchanged.
            counter = self._overloaded_picks = self.obs.registry.counter(
                "lb.overloaded_picks")
        counter.inc()
        return fallback


class LocalLoadBalancer:
    """Chooses servers within the cluster via rendezvous hashing.

    Rendezvous (highest-random-weight) hashing keyed by content
    provider gives each provider a stable, cache-friendly server subset
    that rebalances minimally when servers fail, with load spread by
    each server's remaining capacity.
    """

    def __init__(self, config: Optional[LoadBalancerConfig] = None) -> None:
        self.config = config or LoadBalancerConfig()
        # Per cluster and provider, the indices of the cluster's servers
        # by rendezvous weight, a pure function of (provider, server
        # addresses); bounded by clusters x providers.  Each weight is
        # hashed once, when its order is built.  Tuples of ints hold no
        # references, so the cyclic collector stops tracking them.
        self._orders: Dict[Cluster, Dict[str, Tuple[int, ...]]] = {}

    @staticmethod
    def _weight(provider_key: str, server: EdgeServer) -> float:
        digest = hashlib.blake2b(f"{provider_key}|{server.ip}".encode(),
                                 digest_size=8).digest()
        return int.from_bytes(digest, "big") / float(1 << 64)

    def pick_servers(self, cluster: Cluster,
                     provider_key: str) -> List[EdgeServer]:
        """Two (configurable) live servers for this provider: the
        heaviest not overloaded, or when every live one is, the
        heaviest live ones.

        The sort is stable, so filtering the cluster's one weight order
        picks what sorting the filtered servers would.
        """
        servers = cluster.servers
        orders = self._orders.get(cluster)
        if orders is None:
            orders = self._orders[cluster] = {}
        order = orders.get(provider_key)
        if order is None:
            order = orders[provider_key] = tuple(sorted(
                range(len(servers)),
                key=lambda i: self._weight(provider_key, servers[i]),
                reverse=True))
        wanted = self.config.servers_per_answer
        picks = []
        for i in order:
            server = servers[i]
            if server.alive and not server.overloaded:
                picks.append(server)
                if len(picks) == wanted:
                    return picks
        if picks:
            return picks
        return [servers[i] for i in order if servers[i].alive][:wanted]


def spread_load(servers: Sequence[EdgeServer], rps: float) -> None:
    """Account new request load evenly across the returned servers."""
    if not servers:
        return
    share = rps / len(servers)
    for server in servers:
        server.add_load(share)
