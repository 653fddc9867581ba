"""Tests for the mapping system core: measurement, scoring, LB, policies."""

import math

import numpy as np
import pytest

from repro.cdn import build_catalog, build_deployments
from repro.core import (
    CANSMappingPolicy,
    ClientClusterIndex,
    EUMappingPolicy,
    GlobalLoadBalancer,
    LoadBalancerConfig,
    LocalLoadBalancer,
    MappingSystem,
    MeasurementService,
    NSMappingPolicy,
    Scorer,
    ScoringWeights,
    TrafficClass,
    build_ping_targets,
    build_units,
)
from repro.core.units import demand_coverage_curve, units_needed_for_share
from repro.core.policies import MapTarget, ResolutionContext
from repro.core.loadbalancer import spread_load
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.types import QType, Rcode
from repro.net.geometry import great_circle_miles
from repro.topology import InternetConfig, build_internet


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=5)


@pytest.fixture(scope="module")
def plan(net):
    return build_deployments(50, net.geodb, seed=2,
                             host_ases=list(net.ases.values()))


@pytest.fixture(scope="module")
def measurement():
    return MeasurementService()


@pytest.fixture(scope="module")
def scorer(measurement):
    return Scorer(measurement)


@pytest.fixture(scope="module")
def catalog():
    return build_catalog(10, seed=3)


def target_for_block(net, block):
    return MapTarget(geo=block.geo, asn=block.asn)


class TestMeasurementService:
    def test_rtt_memoized_and_deterministic(self, net, plan, measurement):
        cluster = next(iter(plan.clusters.values()))
        block = net.blocks[0]
        a = measurement.rtt_matrix_to_targets([cluster], [block])[0, 0]
        b = measurement.rtt_matrix_to_targets([cluster], [block])[0, 0]
        assert a == b and a > 0

    def test_noise_frozen_per_pair(self, net, plan):
        noisy = MeasurementService(measurement_noise=0.3, seed=1)
        cluster = next(iter(plan.clusters.values()))
        block = net.blocks[0]
        first = noisy.rtt_matrix_to_targets([cluster], [block])
        assert np.array_equal(
            noisy.rtt_matrix_to_targets([cluster], [block]), first)
        assert noisy.rtt_memo_hits == 1

    def test_flush_clears_cache(self, net, plan):
        noisy = MeasurementService(measurement_noise=0.3, seed=1)
        cluster = next(iter(plan.clusters.values()))
        block = net.blocks[0]
        noisy.rtt_matrix_to_targets([cluster], [block])
        noisy.flush()
        assert noisy.epoch == 1
        noisy.rtt_matrix_to_targets([cluster], [block])
        assert noisy.rtt_memo_hits == 0  # the pair was drawn afresh

    @pytest.mark.parametrize("noise", [-0.1, math.nan, math.inf])
    def test_rejects_noise_that_is_negative_or_not_finite(self, net, noise):
        with pytest.raises(ValueError):
            MeasurementService(measurement_noise=noise)


class TestPingTargets:
    def test_target_count_and_assignment(self, net):
        targets, assignment = build_ping_targets(net, 100)
        assert len(targets) == 100
        assert len(assignment) == len(net.blocks)
        assert set(assignment.values()) <= {t.target_id for t in targets}

    def test_blocks_map_to_nearby_target(self, net):
        targets, assignment = build_ping_targets(net, 200)
        by_id = {t.target_id: t for t in targets}
        # Spot-check: assigned target must be within a plausible radius
        # of the block (not across the planet).
        for block in net.blocks[:100]:
            target = by_id[assignment[block.prefix]]
            assert great_circle_miles(block.geo, target.geo) < 2000

    def test_targets_prefer_high_demand(self, net):
        targets, _ = build_ping_targets(net, 50)
        mean_target_demand = sum(t.demand for t in targets) / len(targets)
        mean_block_demand = sum(b.demand for b in net.blocks) / len(
            net.blocks)
        assert mean_target_demand > mean_block_demand

    def test_rejects_zero_targets(self, net):
        with pytest.raises(ValueError):
            build_ping_targets(net, 0)


class TestScoring:
    def test_closer_cluster_scores_better(self, net, plan, scorer):
        block = max(net.blocks, key=lambda b: b.demand)
        target = target_for_block(net, block)
        clusters = list(plan.clusters.values())
        near = min(clusters,
                   key=lambda c: great_circle_miles(c.geo, block.geo))
        far = max(clusters,
                  key=lambda c: great_circle_miles(c.geo, block.geo))
        scores = scorer.score_targets([near, far], [target])
        assert scores[0, 0] < scores[1, 0]

    def test_traffic_classes_differ(self, measurement):
        web = ScoringWeights.for_class(TrafficClass.WEB)
        video = ScoringWeights.for_class(TrafficClass.VIDEO)
        assert video.throughput_sensitivity > web.throughput_sensitivity

    def test_loss_grows_with_rtt(self, scorer):
        weights = scorer.weights
        rtt = np.array([10.0, 200.0])
        loss = (scorer.scores_from_rtt(rtt) - (
            weights.latency + weights.throughput_sensitivity) * rtt)
        assert loss[1] > loss[0] > 0

    def test_weighted_score_between_extremes(self, net, plan, scorer):
        """An aggregate (CANS) target ranks by the demand-weighted mean
        of its members' scores, so its ranking moves from one member's
        to the other's as the weight shifts."""
        t1, t2 = (target_for_block(net, b) for b in (
            min(net.blocks, key=lambda b: b.geo.lon),
            max(net.blocks, key=lambda b: b.geo.lon)))
        clusters = list(plan.clusters.values())
        member_scores = scorer.score_targets(clusters, [t1, t2])
        for w1, w2 in ((1000.0, 1.0), (1.0, 1.0), (1.0, 1000.0)):
            aggregate = MapTarget(geo=t1.geo, asn=t1.asn,
                                  members=((t1, w1), (t2, w2)))
            weighted = (w1 * member_scores[:, 0]
                        + w2 * member_scores[:, 1]) / (w1 + w2)
            assert np.all(weighted >= member_scores.min(axis=1))
            assert np.all(weighted <= member_scores.max(axis=1))
            oracle = sorted(range(len(clusters)), key=lambda i: (
                weighted[i], clusters[i].cluster_id))
            assert scorer.rank(clusters, [aggregate])[0].tolist() == oracle
        best = [clusters[int(np.argmin(member_scores[:, j]))]
                for j in (0, 1)]
        assert best[0] is not best[1]
        for (w1, w2), winner in (((1e6, 1.0), best[0]),
                                 ((1.0, 1e6), best[1])):
            aggregate = MapTarget(geo=t1.geo, asn=t1.asn,
                                  members=((t1, w1), (t2, w2)))
            assert clusters[scorer.rank(clusters, [aggregate])[0, 0]] is (
                winner)

    def test_weighted_score_rejects_zero_weight(self, net, plan, scorer):
        clusters = list(plan.clusters.values())
        point = target_for_block(net, net.blocks[0])
        for weights in ((0.0,), (1.0, -1.0), (-2.0,)):
            aggregate = MapTarget(geo=point.geo, asn=point.asn,
                                  members=tuple((point, weight)
                                                for weight in weights))
            with pytest.raises(ValueError):
                scorer.rank(clusters, [point, aggregate])


class TestGlobalLoadBalancer:
    def test_picks_nearby_cluster(self, net, plan, scorer):
        glb = GlobalLoadBalancer(plan, scorer)
        block = max(net.blocks, key=lambda b: b.demand)
        cluster = glb.pick_cluster(target_for_block(net, block))
        assert cluster is not None
        distance = great_circle_miles(cluster.geo, block.geo)
        nearest = min(great_circle_miles(c.geo, block.geo)
                      for c in plan.clusters.values())
        # Chosen cluster should be near-optimal geographically (peering
        # penalties can justify a modest detour).
        assert distance <= nearest + 1500

    def test_spillover_on_overload(self, net, plan, scorer):
        glb = GlobalLoadBalancer(plan, scorer)
        block = net.blocks[0]
        target = target_for_block(net, block)
        first = glb.pick_cluster(target)
        for server in first.servers:
            server.add_load(server.capacity_rps * 2)
        second = glb.pick_cluster(target)
        assert second is not first
        assert glb.spillovers >= 1
        for server in first.servers:
            server.reset_load()

    def test_dead_cluster_skipped(self, net, plan, scorer):
        glb = GlobalLoadBalancer(plan, scorer)
        block = net.blocks[1]
        target = target_for_block(net, block)
        first = glb.pick_cluster(target)
        for server in first.servers:
            server.fail()
        second = glb.pick_cluster(target)
        assert second is not first and second.alive
        for server in first.servers:
            server.recover()

    def test_all_overloaded_degrades_gracefully(self, net, plan, scorer):
        glb = GlobalLoadBalancer(plan, scorer,
                                 LoadBalancerConfig(candidate_limit=3))
        target = target_for_block(net, net.blocks[2])
        for cluster in plan.clusters.values():
            for server in cluster.servers:
                server.add_load(server.capacity_rps * 2)
        cluster = glb.pick_cluster(target)
        assert cluster is not None
        for c in plan.clusters.values():
            c.reset_load()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LoadBalancerConfig(utilization_ceiling=0)
        with pytest.raises(ValueError):
            LoadBalancerConfig(servers_per_answer=0)
        # candidate_limit=0 used to pass construction and then raise
        # "min() arg is an empty sequence" from the all-over-ceiling
        # fallback on a saturated world.
        with pytest.raises(ValueError):
            LoadBalancerConfig(candidate_limit=0)
        assert LoadBalancerConfig(candidate_limit=1).candidate_limit == 1


class TestLocalLoadBalancer:
    def test_returns_requested_count(self, plan):
        llb = LocalLoadBalancer(LoadBalancerConfig(servers_per_answer=2))
        cluster = next(iter(plan.clusters.values()))
        servers = llb.pick_servers(cluster, "provider0")
        assert len(servers) == 2

    def test_stable_per_provider(self, plan):
        llb = LocalLoadBalancer()
        cluster = next(iter(plan.clusters.values()))
        a = [s.ip for s in llb.pick_servers(cluster, "provider0")]
        b = [s.ip for s in llb.pick_servers(cluster, "provider0")]
        assert a == b

    def test_order_memo_keeps_the_fresh_balancers_order(self, plan):
        # A cluster's servers are ordered once per provider and per
        # instance; a warmed balancer must answer like a fresh one.
        warmed = LocalLoadBalancer(LoadBalancerConfig(servers_per_answer=4))
        cluster = next(c for c in plan.clusters.values()
                       if len(c.servers) >= 4)
        for provider in ("provider0", "provider1", "provider0"):
            fresh = LocalLoadBalancer(
                LoadBalancerConfig(servers_per_answer=4))
            assert ([s.ip for s in warmed.pick_servers(cluster, provider)]
                    == [s.ip for s in fresh.pick_servers(cluster, provider)])
        orders = warmed._orders[cluster]
        assert sorted(orders) == ["provider0", "provider1"]
        assert all(sorted(order) == list(range(len(cluster.servers)))
                   for order in orders.values())
        assert not LocalLoadBalancer()._orders

    def test_different_providers_spread(self, plan):
        llb = LocalLoadBalancer(LoadBalancerConfig(servers_per_answer=1))
        cluster = next(c for c in plan.clusters.values()
                       if len(c.servers) >= 4)
        picks = {llb.pick_servers(cluster, f"provider{i}")[0].ip
                 for i in range(30)}
        assert len(picks) >= 2  # load spread across servers

    def test_dead_server_excluded_with_minimal_reshuffle(self, plan):
        llb = LocalLoadBalancer(LoadBalancerConfig(servers_per_answer=2))
        cluster = next(c for c in plan.clusters.values()
                       if len(c.servers) >= 4)
        before = llb.pick_servers(cluster, "providerX")
        before[0].fail()
        after = llb.pick_servers(cluster, "providerX")
        assert before[0] not in after
        assert before[1] in after  # survivor keeps its assignment
        before[0].recover()

    def test_empty_cluster_returns_nothing(self, plan):
        llb = LocalLoadBalancer()
        cluster = next(iter(plan.clusters.values()))
        for server in cluster.servers:
            server.fail()
        assert llb.pick_servers(cluster, "p") == []
        for server in cluster.servers:
            server.recover()

    def test_spread_load(self, plan):
        cluster = next(iter(plan.clusters.values()))
        servers = cluster.servers[:2]
        spread_load(servers, 10)
        assert all(s.load_rps == pytest.approx(5) for s in servers)
        for s in servers:
            s.reset_load()


class TestPolicies:
    def test_ns_policy_targets_ldns(self, net):
        policy = NSMappingPolicy(net.geodb)
        resolver = next(iter(net.resolvers.values()))
        context = ResolutionContext("e1.cdn.example", resolver.ip, None)
        target, scope = policy.decide(context)
        assert great_circle_miles(target.geo, resolver.geo) < 1
        assert scope == 0

    def test_eu_policy_targets_client_block(self, net):
        policy = EUMappingPolicy(net.geodb)
        block = net.blocks[0]
        resolver = next(iter(net.resolvers.values()))
        ecs = ClientSubnetOption(block.prefix)
        context = ResolutionContext("e1.cdn.example", resolver.ip, ecs)
        target, scope = policy.decide(context)
        assert great_circle_miles(target.geo, block.geo) < 1
        assert scope == 24

    def test_eu_policy_falls_back_without_ecs(self, net):
        policy = EUMappingPolicy(net.geodb)
        resolver = next(iter(net.resolvers.values()))
        context = ResolutionContext("e1.cdn.example", resolver.ip, None)
        target, scope = policy.decide(context)
        assert great_circle_miles(target.geo, resolver.geo) < 1
        assert scope == 0

    def test_eu_scope_clamped_to_source(self, net):
        policy = EUMappingPolicy(net.geodb, scope_prefix_len=24)
        block = net.blocks[0]
        ecs = ClientSubnetOption(block.prefix.supernet(20))
        context = ResolutionContext("x", 1, ecs)
        assert policy.decide(context)[1] == 20

    def test_eu_rejects_bad_scope(self, net):
        with pytest.raises(ValueError):
            EUMappingPolicy(net.geodb, scope_prefix_len=0)

    def test_cans_policy_uses_cluster(self, net):
        index = ClientClusterIndex(net.geodb)
        resolver = next(iter(net.resolvers.values()))
        for block in net.blocks[:5]:
            index.observe(resolver.ip, block.prefix, block.demand)
        policy = CANSMappingPolicy(net.geodb, index)
        context = ResolutionContext("x", resolver.ip, None)
        target, scope = policy.decide(context)
        assert target.is_aggregate
        assert len(target.members) == 5
        assert scope == 0

    def test_cans_falls_back_without_data(self, net):
        index = ClientClusterIndex(net.geodb)
        policy = CANSMappingPolicy(net.geodb, index)
        resolver = next(iter(net.resolvers.values()))
        target, scope = policy.decide(
            ResolutionContext("x", resolver.ip, None))
        assert target is not None and not target.is_aggregate
        assert scope == 0

    def test_cluster_index_truncates(self, net):
        index = ClientClusterIndex(net.geodb, max_members=3)
        resolver = next(iter(net.resolvers.values()))
        for block in net.blocks[:10]:
            index.observe(resolver.ip, block.prefix, block.demand)
        target = index.cluster_for(resolver.ip)
        assert len(target.members) == 3

    @pytest.mark.parametrize("max_members", [0, -1])
    def test_cluster_index_rejects_an_empty_member_budget(self, net,
                                                          max_members):
        with pytest.raises(ValueError):
            ClientClusterIndex(net.geodb, max_members=max_members)


class TestMapUnits:
    def test_ldns_units_match_resolver_population(self, net):
        units = build_units("ldns", net)
        used = {rid for b in net.blocks for rid, _ in b.ldns}
        assert {u.key for u in units} == used

    def test_block_units_partition_demand(self, net):
        units = build_units("block", net, prefix_len=24)
        assert sum(u.demand for u in units) == pytest.approx(
            net.total_demand)
        assert len(units) == len(net.blocks)

    def test_fewer_units_at_coarser_prefix(self, net):
        counts = [len(build_units("block", net, prefix_len=x)) for x in (24, 20, 16, 12)]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < counts[0]

    def test_radius_grows_with_coarseness(self, net):
        def mean_radius(units):
            big = [u for u in units if len(u.members) >= 1]
            return sum(u.radius_miles() * u.demand for u in big) / sum(
                u.demand for u in big)
        fine = mean_radius(build_units("block", net, prefix_len=24))
        coarse = mean_radius(build_units("block", net, prefix_len=10))
        assert coarse > fine

    def test_bgp_merge_reduces_units(self, net):
        fine = build_units("block", net, prefix_len=24)
        merged = build_units("bgp_merged", net, prefix_len=24)
        assert len(merged) < len(fine)
        assert sum(u.demand for u in merged) == pytest.approx(
            net.total_demand)

    def test_coverage_curve_monotone(self, net):
        units = build_units("ldns", net)
        curve = demand_coverage_curve(units)
        shares = [share for _, share in curve]
        assert shares == sorted(shares)
        assert shares[-1] == pytest.approx(1.0)

    def test_units_needed_concentration(self, net):
        """Top units cover demand disproportionately (Figure 21)."""
        units = build_units("ldns", net)
        n50 = units_needed_for_share(units, 0.5)
        n95 = units_needed_for_share(units, 0.95)
        assert n50 < n95 <= len(units)
        assert n50 < 0.25 * len(units)

    def test_rejects_bad_params(self, net):
        with pytest.raises(ValueError):
            build_units("block", net, prefix_len=0)
        with pytest.raises(ValueError):
            units_needed_for_share(build_units("ldns", net), 0)


class TestMappingSystem:
    @pytest.fixture()
    def system(self, net, plan, scorer, catalog):
        return MappingSystem(plan, catalog, EUMappingPolicy(net.geodb),
                             scorer)

    def test_answers_a_queries(self, net, catalog, system):
        provider = catalog.providers[0]
        resolver = next(iter(net.resolvers.values()))
        answer = system.answer(provider.cdn_hostname, QType.A, None,
                               resolver.ip, now=0)
        assert answer.rcode == Rcode.NOERROR
        assert len(answer.records) == 2  # footnote 2: >= 2 servers
        assert answer.scope_prefix_len == 0

    def test_ecs_answer_has_scope(self, net, catalog, system):
        provider = catalog.providers[0]
        resolver = next(iter(net.resolvers.values()))
        ecs = ClientSubnetOption(net.blocks[0].prefix)
        answer = system.answer(provider.cdn_hostname, QType.A, ecs,
                               resolver.ip, now=0)
        assert answer.scope_prefix_len == 24
        assert system.stats.ecs_resolutions == 1

    def test_unknown_hostname_nxdomain(self, net, system):
        resolver = next(iter(net.resolvers.values()))
        answer = system.answer("nope.cdn.example", QType.A, None,
                               resolver.ip, now=0)
        assert answer.rcode == Rcode.NXDOMAIN

    def test_non_a_type_nodata(self, net, catalog, system):
        provider = catalog.providers[0]
        resolver = next(iter(net.resolvers.values()))
        answer = system.answer(provider.cdn_hostname, QType.TXT, None,
                               resolver.ip, now=0)
        assert answer.rcode == Rcode.NOERROR
        assert answer.records == ()

    def test_eu_maps_closer_than_ns_for_far_ldns(self, net, plan, scorer,
                                                 catalog):
        """The paper's core claim at unit level: for a client whose
        LDNS is far away, EU mapping picks a closer cluster."""
        ns = MappingSystem(plan, catalog, NSMappingPolicy(net.geodb),
                           scorer)
        eu = MappingSystem(plan, catalog, EUMappingPolicy(net.geodb),
                           scorer)
        pub = net.public_resolver_ids()
        candidates = [
            (b, net.resolvers[rid])
            for b in net.blocks
            for rid, _ in b.ldns if rid in pub
        ]
        block, resolver = max(
            candidates,
            key=lambda pair: great_circle_miles(pair[0].geo, pair[1].geo))
        provider = catalog.providers[0]
        ecs = ClientSubnetOption(block.prefix)
        ns_answer = ns.answer(provider.cdn_hostname, QType.A, ecs,
                              resolver.ip, 0)
        eu_answer = eu.answer(provider.cdn_hostname, QType.A, ecs,
                              resolver.ip, 0)
        def mapping_distance(answer):
            server_ip = answer.records[0].rdata.address
            cluster = plan.cluster_of_server(server_ip)
            return great_circle_miles(cluster.geo, block.geo)
        assert mapping_distance(eu_answer) < mapping_distance(ns_answer)

    def test_set_policy_applies_to_the_next_answer(self, net, plan, scorer,
                                                   catalog, system):
        provider = catalog.providers[0]
        resolver = next(iter(net.resolvers.values()))
        ecs = ClientSubnetOption(net.blocks[0].prefix)
        eu_answer = system.answer(provider.cdn_hostname, QType.A, ecs,
                                  resolver.ip, 0)
        assert eu_answer.scope_prefix_len == 24
        system.set_policy(NSMappingPolicy(net.geodb))
        answer = system.answer(provider.cdn_hostname, QType.A, ecs,
                               resolver.ip, 1)
        ns = MappingSystem(plan, catalog, NSMappingPolicy(net.geodb),
                           scorer)
        assert answer == ns.answer(provider.cdn_hostname, QType.A, ecs,
                                   resolver.ip, 1)
        assert answer.scope_prefix_len == 0

    def test_assign_direct_api(self, net, plan, scorer, catalog, system):
        """Experiments that bypass DNS assign through the two balancers
        the answer path uses."""
        block = net.blocks[0]
        cluster = system.global_lb.pick_cluster(
            MapTarget(geo=block.geo, asn=block.asn))
        assert cluster is not None
        servers = system.local_lb.pick_servers(cluster, "provider0")
        assert len(servers) == 2
        assert all(plan.cluster_of_server(server.ip) is cluster
                   for server in servers)
