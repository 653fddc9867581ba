"""One ranking: the per-query balancer and the map compiler agree.

Both rank clusters through ``Scorer.rank``, ordered by ``(score,
cluster_id)``.  Pinned here:

* **exact ties** -- deployments whose geometry ties exactly (two
  clusters mirror-symmetric about the target: same latitude and AS,
  longitude +-d; clusters on a shared latitude seen from a pole): the
  balancer's memoised ranking, the compiled map entry for the same
  target and the cluster-id tie rule all agree;
* **every target of a world** -- on the tiny world, every compiled
  ``eu:`` unit entry and ``ns:`` resolver entry is the prefix of the
  ranking the balancer computes for that target.
"""

import types

import pytest

from repro.api import build_world
from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.cdn.server import EdgeServer
from repro.core.loadbalancer import GlobalLoadBalancer
from repro.core.mapmaker import MapMakerConfig
from repro.core.mapmaker.maker import compile_entries, eu_key, ns_key
from repro.core.measurement import MeasurementService
from repro.core.policies import MapTarget
from repro.core.scoring import Scorer
from repro.core.units import MapUnit, MapUnitScheme
from repro.geo.database import GeoDatabase
from repro.net.geometry import GeoPoint
from repro.simulation.world import WorldConfig

CLUSTER_ASN = 20940
TARGET_ASN = 64500


def _plan(sites) -> DeploymentPlan:
    """Clusters at ``(cluster_id, lat, lon)`` sites, one AS, inserted in
    the order given (not id order, so the tie rule has work to do)."""
    clusters = {}
    for index, (cluster_id, lat, lon) in enumerate(sites):
        cluster = Cluster(cluster_id=cluster_id, city="x", country="XX",
                          geo=GeoPoint(lat, lon), asn=CLUSTER_ASN)
        cluster.servers.append(EdgeServer(ip=(10 << 24) | (index + 1),
                                          cluster_id=cluster_id))
        clusters[cluster_id] = cluster
    return DeploymentPlan(clusters)


def _mirror_sites(lat, lon, d):
    # Ids sort opposite to insertion and to longitude order.
    return [("cl-e", lat, lon + d), ("cl-w", lat, lon - d),
            ("cl-d", lat, lon + d), ("cl-a", lat, lon - d),
            ("cl-far", -lat / 2 - 10.0, 0.0)]


def _pole_sites(ring_lat):
    return [(f"cl-{9 - k}", ring_lat, -180.0 + 45.0 * k) for k in range(8)]


CASES = {
    "mirror-mid-latitude": (40.25, -3.5, _mirror_sites(40.25, -3.5, 7.0)),
    "mirror-equator": (0.0, 100.0, _mirror_sites(0.0, 100.0, 45.0)),
    "mirror-south": (-33.9, 151.2, _mirror_sites(-33.9, 151.2, 1.5)),
    "north-pole-ring": (90.0, 0.0, _pole_sites(60.0)),
    "south-pole-ring": (-90.0, 0.0, _pole_sites(-75.5)),
}


@pytest.fixture(params=sorted(CASES), ids=sorted(CASES))
def case(request):
    lat, lon, sites = CASES[request.param]
    plan = _plan(sites)
    scorer = Scorer(MeasurementService())
    return plan, scorer, MapTarget(geo=GeoPoint(lat, lon), asn=TARGET_ASN)


class TestExactTies:
    def test_balancer_compiler_and_tie_rule_agree(self, case):
        plan, scorer, target = case
        clusters = list(plan.clusters.values())
        scores = scorer.score_targets(clusters, [target])[:, 0]
        tie_rule = [cluster.cluster_id for _, cluster in sorted(
            zip(scores, clusters), key=lambda pair: (
                pair[0], pair[1].cluster_id))]
        tied = [a.cluster_id for i, a in enumerate(clusters)
                for j, b in enumerate(clusters) if i < j
                and scores[i] == scores[j]]
        assert tied, "the case has no exact tie to break"

        ranking = GlobalLoadBalancer(plan, scorer).ranking(target)
        unit = MapUnit(key="u0", scheme=MapUnitScheme.GEO_AS,
                       asn=target.asn)
        unit.add(target.geo, 1.0)
        internet = types.SimpleNamespace(geodb=GeoDatabase(), resolvers={})
        entries = compile_entries(plan, scorer, internet, [unit],
                                  top_clusters=len(clusters))

        assert [c.cluster_id for c in ranking] == tie_rule
        assert list(entries[eu_key("u0")]) == tie_rule


class TestCompiledEntriesArePerQueryPrefixes:
    def test_every_unit_and_resolver_entry(self):
        world = build_world(WorldConfig.tiny(),
                            control_plane=MapMakerConfig())
        service = world.control_plane
        top = service.config.top_clusters
        entries = compile_entries(service.deployments, service.scorer,
                                  service.internet, service.units,
                                  top_clusters=top)
        # No candidate pre-cut: the compiler ranks every live cluster.
        balancer = GlobalLoadBalancer(world.deployments, service.scorer)
        targets = {}
        for unit in service.units:
            asn = unit.asn if unit.asn is not None else -1
            targets[eu_key(unit.key)] = MapTarget(unit.centroid(), asn)
        for meta in world.internet.resolvers.values():
            record = world.internet.geodb.lookup(meta.ip)
            if record is not None:
                targets[ns_key(meta.ip)] = MapTarget(record.geo, record.asn)
        assert set(entries) == set(targets)
        assert any(key.startswith("ns:") for key in entries)
        for key, target in targets.items():
            prefix = balancer.ranking(target)[:top]
            assert entries[key] == tuple(c.cluster_id for c in prefix), key
