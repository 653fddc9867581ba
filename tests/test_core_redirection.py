"""Tests for the pre-ECS redirection mapping mechanisms (Section 7)."""

import math

import pytest

from repro.core import GlobalLoadBalancer, LocalLoadBalancer, \
    MeasurementService, Scorer
from repro.core.redirection import (
    RedirectionKind,
    RedirectionMapper,
    breakeven_transfer_bytes,
)
from repro.net.geometry import great_circle_miles
from repro.api import build_world
from repro.simulation import WorldConfig


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


@pytest.fixture(scope="module")
def mapper_pair(world):
    measurement = MeasurementService()
    scorer = Scorer(measurement)
    glb = GlobalLoadBalancer(world.deployments, scorer)
    llb = LocalLoadBalancer()
    http = RedirectionMapper(world.deployments, glb, llb,
                             world.internet.geodb,
                             RedirectionKind.HTTP)
    metafile = RedirectionMapper(world.deployments, glb, llb,
                                 world.internet.geodb,
                                 RedirectionKind.METAFILE)
    return http, metafile


def far_public_client(world):
    public = world.internet.public_resolver_ids()
    block = max(
        (b for b in world.internet.blocks if b.primary_ldns in public),
        key=lambda b: great_circle_miles(
            b.geo, world.internet.resolvers[b.primary_ldns].geo))
    resolver = world.internet.resolvers[block.primary_ldns]
    return block, resolver


class TestHttpRedirection:
    def test_final_cluster_is_client_optimal(self, world, mapper_pair):
        http, _ = mapper_pair
        block, resolver = far_public_client(world)
        out = http.assign(block.prefix.network | 4, resolver.ip,
                          "provider0", world.network.rtt_ms)
        assert out is not None
        final_distance = great_circle_miles(block.geo,
                                            out.final_cluster.geo)
        first_distance = great_circle_miles(block.geo,
                                            out.first_cluster.geo)
        # The redirect lands the client much closer than the NS hop.
        assert final_distance < 0.5 * first_distance

    def test_penalty_reflects_bad_first_hop(self, world, mapper_pair):
        http, _ = mapper_pair
        block, resolver = far_public_client(world)
        out = http.assign(block.prefix.network | 4, resolver.ip,
                          "provider0", world.network.rtt_ms)
        # Penalty = 2 RTTs to the (distant) first server: tens of ms.
        assert out.penalty_ms > 10

    def test_unknown_client_returns_none(self, world, mapper_pair):
        http, _ = mapper_pair
        out = http.assign(0xF0000001, 0xF0000002, "provider0",
                          world.network.rtt_ms)
        assert out is None


class TestMetafileRedirection:
    def test_no_first_cluster(self, world, mapper_pair):
        _, metafile = mapper_pair
        block, resolver = far_public_client(world)
        out = metafile.assign(block.prefix.network | 4, resolver.ip,
                              "provider0", world.network.rtt_ms)
        assert out.first_cluster is None
        assert out.server_ips

    def test_penalty_cheaper_than_http_for_far_client(self, world,
                                                      mapper_pair):
        http, metafile = mapper_pair
        block, resolver = far_public_client(world)
        client_ip = block.prefix.network | 4
        h = http.assign(client_ip, resolver.ip, "provider0",
                        world.network.rtt_ms)
        m = metafile.assign(client_ip, resolver.ip, "provider0",
                            world.network.rtt_ms)
        # The metafile fetch goes to the *good* server; HTTP redirect
        # pays two RTTs to the bad one.
        assert m.penalty_ms <= h.penalty_ms


class TestBreakeven:
    def test_redirection_wins_for_large_transfers(self):
        size = breakeven_transfer_bytes(
            penalty_ms=200, direct_rtt_ms=150, redirected_rtt_ms=30)
        # Above the break-even size, redirect + fast path is faster.
        assert 0 < size < math.inf
        window = 64 * 1024
        direct_time = size / (window / 150)
        redirected_time = 200 + size / (window / 30)
        assert direct_time == pytest.approx(redirected_time, rel=1e-6)

    def test_never_wins_when_already_proximal(self):
        assert breakeven_transfer_bytes(50, 30, 30) == math.inf
        assert breakeven_transfer_bytes(50, 20, 30) == math.inf

    def test_small_web_pages_do_not_justify_redirect(self):
        """Paper: the penalty 'is acceptable only for larger downloads
        such as media files and software downloads'."""
        size = breakeven_transfer_bytes(
            penalty_ms=120, direct_rtt_ms=90, redirected_rtt_ms=35)
        assert size > 100_000  # typical base page is tens of KB
