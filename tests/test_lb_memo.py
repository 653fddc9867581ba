"""The global load balancer's per-target ranking memo.

A target's candidates are scored once per score epoch and the ranking
kept, dead clusters included; every pick walks it for liveness and
headroom.  Pinned here:

* **differential** -- on a roll-out's world, for every target it can
  map (each client block, each resolver, CANS aggregates), the
  memoised pick and ranking equal a from-scratch oracle built here
  from ``LatencyModel.base_rtt_ms`` and ``Scorer.scores_from_rtt``,
  through a cluster outage and its revert, a target whose every
  candidate is dead, a load-tracker day that reorders rankings and a
  measurement flush;
* **work count** -- on the ``rollout_serial`` benchmark spec each
  (cluster, target) pair is measured once: 4 296 RTT lookups for 7 952
  decisions, 362 of them scored and 7 590 read from the memo;
* **audit** -- ``faults.chaos.stale_rankings`` is clean after a faulted,
  surged, load-feedback roll-out and names a memo that missed an
  epoch;
* **ECS scope** -- an answer for a client subnet the geo database
  cannot place is the LDNS's answer and carries scope 0.
"""

import dataclasses
import datetime

import pytest

from repro.api import ScenarioSpec, build_world, run
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.policies import (
    EUMappingPolicy,
    NSMappingPolicy,
    ResolutionContext,
)
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.types import QType
from repro.faults import FaultEvent, FaultInjector, FaultSchedule
from repro.faults.chaos import stale_rankings
from repro.net.ipv4 import Prefix
from repro.net.latency import LatencyModel
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig
from repro.topology.traffic import TrafficSchedule, TrafficShape

START = datetime.date(2014, 3, 1)


def _spec(**planes) -> ScenarioSpec:
    return ScenarioSpec(
        world=dataclasses.replace(WorldConfig.tiny(),
                                  server_capacity_rps=0.2),
        rollout=RolloutConfig(
            start_date=START, end_date=START + datetime.timedelta(days=6),
            rollout_start=START + datetime.timedelta(days=1),
            rollout_end=START + datetime.timedelta(days=3),
            sessions_per_day=120, seed=3),
        load_feedback=LoadFeedbackConfig(), monitor=False, **planes)


def _oracle_score(scorer, cluster, target):
    """One score from the scalar latency model: the target's members
    (a point target is its own one member) weight-averaged."""
    members = target.members or ((target, 1.0),)
    total = 0.0
    for point, weight in members:
        rtt = LatencyModel().base_rtt_ms(cluster.geo, cluster.asn,
                                         point.geo, point.asn)
        score = float(scorer.scores_from_rtt(rtt))
        if scorer.load_tracker is not None:
            score += scorer.load_tracker.penalty_ms(cluster.cluster_id)
        total += weight * score
    return total / sum(weight for _, weight in members)


def _reference_ranking(lb, target):
    """The from-scratch ranking: live candidates scored now, or every
    live cluster when every candidate is dead."""
    live = [c for c in lb.candidate_index.candidates(target) if c.alive]
    live = live or lb.deployments.live_clusters()
    return sorted(live, key=lambda c: (
        _oracle_score(lb.scorer, c, target), c.cluster_id))


def _live_ranking(lb, target):
    """The live part of the memoised ranking, or, when every candidate
    is dead, every live cluster ranked."""
    live = [cluster for cluster in lb.ranking(target) if cluster.alive]
    if live:
        return live
    clusters = lb.deployments.live_clusters()
    return [clusters[i] for i in lb.scorer.rank(clusters, [target])[0]]


def _reference_pick(lb, target):
    considered = _reference_ranking(lb, target)[: lb.config.candidate_limit]
    for cluster in considered:
        if cluster.utilization < lb.config.utilization_ceiling:
            return cluster
    return min(considered, key=lambda c: c.utilization, default=None)


def _targets(world):
    eu = EUMappingPolicy(world.internet.geodb)
    ns = NSMappingPolicy(world.internet.geodb)
    cans = world.cans_policy()
    targets = [eu.decide(ResolutionContext(
        "x", 0, ClientSubnetOption(block.prefix)))[0]
        for block in world.internet.blocks]
    for resolver in world.internet.resolvers.values():
        context = ResolutionContext("x", resolver.ip, None)
        targets.append(ns.decide(context)[0])
        targets.append(cans.decide(context)[0])
    targets = list(dict.fromkeys(t for t in targets if t is not None))
    assert any(t.is_aggregate for t in targets)
    return targets


def _assert_memo_matches_scratch(world, targets):
    lb = world.mapping.global_lb
    for target in targets:
        assert _live_ranking(lb, target) == _reference_ranking(lb, target)
        assert lb.pick_cluster(target) is _reference_pick(lb, target)


class TestDifferential:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run(_spec())

    def test_memo_equals_scratch_through_outages_and_load(self, outcome):
        world = outcome.world
        lb = world.mapping.global_lb
        targets = _targets(world)
        _assert_memo_matches_scratch(world, targets)

        # The memo is what answers: a second pass measures nothing.
        lookups = world.measurement.rtt_lookups
        for target in targets:
            lb.pick_cluster(target)
        assert world.measurement.rtt_lookups == lookups

        # A cluster outage (the fault kind) and its revert: the dead
        # cluster stays in the memo and is skipped at pick time.
        victim = lb.pick_cluster(targets[0]).cluster_id
        injector = FaultInjector(world, FaultSchedule((FaultEvent(
            0, 1, victim, "cluster_outage"),)).validate())
        injector.step(0)
        assert not world.deployments.clusters[victim].alive
        _assert_memo_matches_scratch(world, targets)
        injector.step(1)
        assert world.deployments.clusters[victim].alive
        _assert_memo_matches_scratch(world, targets)

        # Every candidate of one target dead: every live cluster is
        # scored instead.
        doomed = lb.candidate_index.candidates(targets[0])
        for cluster in doomed:
            for server in cluster.servers:
                server.fail()
        _assert_memo_matches_scratch(world, targets[:5])
        assert lb.pick_cluster(targets[0]) not in doomed
        for cluster in doomed:
            for server in cluster.servers:
                server.recover()

        # A load-tracker day moves every penalty: the memo starts over.
        for cluster in list(world.deployments.clusters.values())[::3]:
            for server in cluster.servers:
                server.add_load(server.capacity_rps * 0.9)
        rankings = {t: _live_ranking(lb, t) for t in targets}
        world.load_tracker.observe_day(world.deployments)
        _assert_memo_matches_scratch(world, targets)
        assert any(_live_ranking(lb, t) != rankings[t] for t in targets)
        assert stale_rankings(world) == []

        # A measurement flush forgets every RTT: the memo starts over.
        world.measurement.flush()
        lookups = world.measurement.rtt_lookups
        lb.pick_cluster(targets[0])
        assert world.measurement.rtt_lookups > lookups
        _assert_memo_matches_scratch(world, targets)


class TestWorkCount:
    def test_each_cluster_target_pair_is_measured_once(self):
        from perfbench.workloads import WORKLOADS

        world = run(WORKLOADS["rollout_serial"].spec(99, False)).world
        gauges = world.obs.registry.snapshot()["gauges"]
        assert gauges["mapping.decision_cache.misses"] == 362
        assert gauges["mapping.decision_cache.hits"] == 7590
        assert gauges["lb.decisions"] == 7590 + 362
        assert gauges["measurement.rtt_lookups"] == 4296
        assert gauges["measurement.memo_hits"] == 0


class TestStaleRankingAudit:
    def test_clean_after_faulted_surged_rollout(self):
        spec = _spec(
            faults=FaultSchedule((
                FaultEvent(1, 2, "cluster:0", "cluster_outage"),
                FaultEvent(2, 2, "cluster:3", "cluster_outage"),
            )).validate(),
            traffic=TrafficSchedule((
                TrafficShape(1, 3, "continent:NA", "flash_crowd", 4.0),
            )).validate())
        world = run(spec).world
        assert world.load_tracker.epoch == spec.rollout.n_days
        assert world.mapping.global_lb._ranked
        assert stale_rankings(world) == []

    def test_names_a_memo_that_missed_an_epoch(self):
        world = run(_spec()).world
        lb = world.mapping.global_lb
        for cluster in world.deployments.clusters.values():
            for server in cluster.servers:
                server.add_load(server.capacity_rps * 5)
        world.load_tracker.observe_day(world.deployments)
        # The seeded mutant: a memo that believes it is current.
        lb._epoch = lb.scorer.epoch
        problems = stale_rankings(world)
        assert problems and all(
            p.startswith("stale memoised ranking") for p in problems)


class TestEcsScopeAfterGeolocationMiss:
    UNPLACED = Prefix.parse("203.0.113.0/24")

    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig.tiny())

    def test_answer_is_the_ldns_answer_at_scope_zero(self, world):
        assert world.internet.geodb.lookup_prefix(self.UNPLACED) is None
        qname = world.catalog.providers[0].cdn_hostname
        ldns_ip = world.ldns_registry[world.public_ldns_ids()[0]].ip
        unplaced = world.mapping.answer(
            qname, QType.A, ClientSubnetOption(self.UNPLACED), ldns_ip,
            now=0.0)
        plain = world.mapping.answer(qname, QType.A, None, ldns_ip,
                                     now=0.0)
        assert unplaced.scope_prefix_len == 0
        assert unplaced.records == plain.records

    def test_policy_decides_once(self, world):
        policy = EUMappingPolicy(world.internet.geodb)
        ldns_ip = next(iter(world.internet.resolvers.values())).ip
        context = ResolutionContext(
            "x", ldns_ip, ClientSubnetOption(self.UNPLACED))
        assert policy.decide(context) == NSMappingPolicy(
            world.internet.geodb).decide(
            ResolutionContext("x", ldns_ip, None))
        assert policy.decide(context)[1] == 0
