"""Tests for the ops status report and the ``python -m repro sim`` CLI."""

import random

import pytest

from repro.core.reporting import build_status_report, cluster_health
from repro.api import build_world
from repro.simulation import WorldConfig, simulate_session
from repro.simulation.cli import main as sim_main


@pytest.fixture(scope="module")
def exercised_world():
    world = build_world(WorldConfig.tiny())
    world.enable_ecs(world.public_ldns_ids())
    rng = random.Random(3)
    for index in range(40):
        block = world.internet.pick_block(rng)
        simulate_session(world, block, now=index * 3.0, rng=rng)
    return world


class TestStatusReport:
    def test_counters_populated(self, exercised_world):
        report = build_status_report(exercised_world)
        assert report.mapping_resolutions > 0
        assert report.lb_decisions > 0
        assert report.clusters_alive == report.clusters_total
        assert report.authoritative_queries > 0
        assert 0 <= report.ldns_cache_hit_rate <= 1
        assert 0 <= report.decision_cache_hit_rate <= 1

    def test_ecs_share_visible(self, exercised_world):
        report = build_status_report(exercised_world)
        assert 0 < report.mapping_ecs_share <= 1

    def test_lines_render(self, exercised_world):
        lines = build_status_report(exercised_world).lines()
        text = "\n".join(lines)
        assert "mapping system status" in text
        assert "clusters" in text

    def test_cluster_health_ordering(self, exercised_world):
        rows = cluster_health(exercised_world.deployments, top=10)
        utils = [r.utilization for r in rows if r.alive]
        assert utils == sorted(utils, reverse=True)

    def test_dead_cluster_reported(self, exercised_world):
        cluster = next(iter(
            exercised_world.deployments.clusters.values()))
        for server in cluster.servers:
            server.fail()
        report = build_status_report(exercised_world)
        assert report.clusters_alive == report.clusters_total - 1
        for server in cluster.servers:
            server.recover()


class TestSimCli:
    def test_world_info(self, capsys):
        assert sim_main(["world-info", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "client /24 blocks" in out
        assert "CDN locations" in out

    def test_dnsload(self, capsys):
        assert sim_main(["dnsload", "--scale", "tiny",
                         "--lookups", "300", "--days", "1"]) == 0
        out = capsys.readouterr().out
        assert "lookups" in out and "authoritative qps" in out

    def test_dnsload_with_ecs(self, capsys):
        assert sim_main(["dnsload", "--scale", "tiny",
                         "--lookups", "300", "--ecs"]) == 0
        out = capsys.readouterr().out
        assert "ECS queries" in out

    def test_status(self, capsys):
        assert sim_main(["status", "--scale", "tiny",
                         "--sessions", "20"]) == 0
        out = capsys.readouterr().out
        assert "mapping system status" in out

    def test_rollout(self, capsys):
        assert sim_main(["rollout", "--scale", "tiny", "--days", "9",
                         "--sessions", "30"]) == 0
        out = capsys.readouterr().out
        assert "RUM beacons" in out
        assert "mapping_distance_miles" in out

    def test_bad_scale(self):
        with pytest.raises(SystemExit):
            sim_main(["world-info", "--scale", "nope"])
