"""World-level policy tests: NS vs EU vs CANS through the full stack."""

import pytest

from repro.core.policies import EUMappingPolicy, NSMappingPolicy
from repro.dnsproto.types import QType
from repro.net.geometry import great_circle_miles
from repro.api import build_world
from repro.simulation import WorldConfig


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


def far_public_block(world):
    public = world.internet.public_resolver_ids()
    candidates = [b for b in world.internet.blocks
                  if b.primary_ldns in public]
    return max(candidates, key=lambda b: great_circle_miles(
        b.geo, world.internet.resolvers[b.primary_ldns].geo))


def mapping_distance(world, block, now):
    ldns = world.ldns_registry[block.primary_ldns]
    outcome = ldns.resolve(world.catalog.providers[0].domain, QType.A,
                           block.prefix.network | 3, now)
    assert outcome.addresses
    cluster = world.deployments.cluster_of_server(outcome.addresses[0])
    return great_circle_miles(block.geo, cluster.geo)


class TestPolicySwap:
    def test_cans_beats_pure_ns_for_cohesive_far_cluster(self, world):
        """CANS should improve on NS for clients whose LDNS is far but
        whose sibling clients cluster together (paper Section 6)."""
        world.enable_ecs([])
        ttl_gap = world.config.dns_ttl + 60

        # Find an LDNS whose observed client cluster is cohesive but
        # far from the LDNS itself: a public deployment serving one
        # region across an ocean.
        from repro.analysis.clusters import ldns_cluster_stats
        stats = ldns_cluster_stats(world.internet)
        candidates = [
            s for s in stats
            if s.is_public and s.n_blocks >= 3
            and s.mean_client_distance_miles > 3 * max(s.radius_miles, 1)
            and s.mean_client_distance_miles > 1500
        ]
        if not candidates:
            pytest.skip("no cohesive far cluster in this tiny world")
        target_stat = max(candidates, key=lambda s: s.demand)
        block = max(
            (b for b in world.internet.blocks
             if b.primary_ldns == target_stat.resolver_id),
            key=lambda b: b.demand)

        world.set_policy(NSMappingPolicy(world.internet.geodb))
        ns_distance = mapping_distance(world, block, now=0)

        world.set_policy(world.cans_policy())
        cans_distance = mapping_distance(world, block, now=ttl_gap)

        world.set_policy(EUMappingPolicy(world.internet.geodb))
        assert cans_distance < ns_distance

    def test_eu_without_ecs_behaves_like_ns(self, world):
        """EU policy falls back to the LDNS when no ECS arrives, so
        with ECS globally off the two policies map identically."""
        world.enable_ecs([])
        block = far_public_block(world)
        ttl_gap = world.config.dns_ttl + 60

        world.set_policy(NSMappingPolicy(world.internet.geodb))
        ns_distance = mapping_distance(world, block, now=10 * ttl_gap)

        world.set_policy(EUMappingPolicy(world.internet.geodb))
        eu_distance = mapping_distance(world, block, now=11 * ttl_gap)
        assert eu_distance == pytest.approx(ns_distance, rel=1e-9)

    def test_eu_with_ecs_improves_far_public_client(self, world):
        block = far_public_block(world)
        ttl_gap = world.config.dns_ttl + 60
        world.set_policy(EUMappingPolicy(world.internet.geodb))

        world.enable_ecs([])
        before = mapping_distance(world, block, now=20 * ttl_gap)
        world.enable_ecs(world.public_ldns_ids())
        after = mapping_distance(world, block, now=21 * ttl_gap)
        world.enable_ecs([])
        assert after < 0.5 * before
