"""Tests for topology discovery (candidate index) and its LB wiring."""

import random

import pytest

import repro.core.discovery as discovery
from repro.api import WorldConfig, build_world
from repro.cdn import build_deployments
from repro.cdn.deployments import Cluster, DeploymentPlan
from repro.cdn.server import EdgeServer
from repro.core import (
    CandidateIndex,
    GlobalLoadBalancer,
    MeasurementService,
    Scorer,
    nearest_cluster,
)
from repro.core.policies import MapTarget
from repro.net.geometry import GeoPoint, great_circle_miles
from repro.topology import InternetConfig, build_internet


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=9)


@pytest.fixture(scope="module")
def plan(net):
    return build_deployments(80, net.geodb, seed=4,
                             host_ases=list(net.ases.values()))


@pytest.fixture(scope="module")
def index(plan):
    return CandidateIndex(plan, k_nearest=8)


def target_for(block):
    return MapTarget(geo=block.geo, asn=block.asn)


class TestCandidateIndex:
    def test_returns_at_least_k(self, net, plan, index):
        for block in net.blocks[:50]:
            candidates = index.candidates(target_for(block))
            assert len(candidates) >= min(8, len(plan))

    def test_candidates_include_true_nearest(self, net, plan, index):
        for block in net.blocks[:50]:
            target = target_for(block)
            best = nearest_cluster(plan, target.geo)
            ids = {c.cluster_id for c in index.candidates(target)}
            assert best.cluster_id in ids

    def test_candidates_are_nearby(self, net, plan, index):
        block = max(net.blocks, key=lambda b: b.demand)
        target = target_for(block)
        candidates = index.candidates(target)[:8]
        worst = max(great_circle_miles(target.geo, c.geo)
                    for c in candidates)
        all_sorted = sorted(
            great_circle_miles(target.geo, c.geo)
            for c in plan.clusters.values())
        # The 8 returned must be within a small factor of the true
        # 8-nearest radius.
        assert worst <= 3 * all_sorted[7] + 50

    def test_same_as_clusters_appended(self, net, plan, index):
        in_network = [c for c in plan.clusters.values()
                      if c.asn != 20940]
        if not in_network:
            pytest.skip("no in-ISP clusters in this plan")
        cluster = in_network[0]
        target = MapTarget(geo=cluster.geo, asn=cluster.asn)
        ids = {c.cluster_id for c in index.candidates(target)}
        same_as = {c.cluster_id for c in plan.clusters.values()
                   if c.asn == cluster.asn}
        assert same_as <= ids

    def test_small_universe_returns_all(self, net):
        small_plan = build_deployments(5, net.geodb, seed=6)
        small_index = CandidateIndex(small_plan, k_nearest=16)
        target = MapTarget(geo=net.blocks[0].geo, asn=net.blocks[0].asn)
        assert len(small_index.candidates(target)) == 5

    def test_sparse_deployment_returns_fewer_than_k(self):
        # The ring search gives up at the first empty ring past ring 4,
        # so on the 40-cluster tiny world the default k of 16 is a
        # ceiling, not a promise.  Pinned: goldens depend on it.
        world = build_world(WorldConfig.tiny())
        sparse_index = CandidateIndex(world.deployments, k_nearest=16)
        assert len(world.deployments) > 16
        short = 0
        for block in world.internet.blocks:
            target = target_for(block)
            candidates = sparse_index.candidates(target)
            best = nearest_cluster(world.deployments, target.geo)
            assert best in candidates
            short += len(candidates) < 16
        assert short > 0

    def test_rejects_bad_k(self, plan):
        with pytest.raises(ValueError):
            CandidateIndex(plan, k_nearest=0)

    def test_coverage_report(self, index, plan):
        report = index.coverage_report()
        assert report["clusters"] == len(plan)
        assert report["cells"] >= 1


class TestLoadBalancerWithIndex:
    def test_same_choice_as_full_scan_for_typical_targets(self, net,
                                                          plan, index):
        measurement = MeasurementService()
        scorer = Scorer(measurement)
        full = GlobalLoadBalancer(plan, scorer)
        pruned = GlobalLoadBalancer(plan, scorer, candidate_index=index)
        agreements = 0
        checked = 0
        for block in net.blocks[:60]:
            target = target_for(block)
            a = full.pick_cluster(target)
            b = pruned.pick_cluster(target)
            checked += 1
            if a is b:
                agreements += 1
        # The pre-cut may miss a marginally better distant candidate,
        # but must agree for the overwhelming majority of clients.
        assert agreements >= 0.85 * checked

    def test_index_fallback_when_candidates_dead(self, net, plan,
                                                 index):
        measurement = MeasurementService()
        scorer = Scorer(measurement)
        pruned = GlobalLoadBalancer(plan, scorer, candidate_index=index)
        block = net.blocks[0]
        target = target_for(block)
        candidates = index.candidates(target)
        for cluster in candidates:
            for server in cluster.servers:
                server.fail()
        chosen = pruned.pick_cluster(target)
        assert chosen is not None and chosen.alive
        for cluster in candidates:
            for server in cluster.servers:
                server.recover()


# -- compiled discovery against the ring walk it replaced ------------------


class RingWalkOracle:
    """The per-query ring walk ``CandidateIndex`` ran before discovery
    was compiled per home cell: every cell of every ring square is
    visited and the interior discarded.  Test-local reference only."""

    def __init__(self, plan, k_nearest):
        self.k_nearest = k_nearest
        self.cells = {}
        self.by_asn = {}
        for cluster in plan.clusters.values():
            self.cells.setdefault(self.cell_of(cluster.geo),
                                  []).append(cluster)
            self.by_asn.setdefault(cluster.asn, []).append(cluster)
        self.all = list(plan.clusters.values())

    @staticmethod
    def cell_of(geo):
        # Column wrapped like the walk below wraps it: lon 180.0 is
        # column -18, not a 37th column the walk never visits.
        return (int(geo.lat // 10.0),
                int((geo.lon // 10.0 + 18) % 36 - 18))

    def candidates(self, target):
        if len(self.all) <= self.k_nearest:
            return list(self.all)
        found = []
        seen = set()
        home = self.cell_of(target.geo)
        for ring in range(19):
            added = False
            for dy in range(-ring, ring + 1):
                for dx in range(-ring, ring + 1):
                    if max(abs(dy), abs(dx)) != ring:
                        continue
                    cell = (home[0] + dy,
                            int((home[1] + dx + 18) % 36 - 18))
                    for cluster in self.cells.get(cell, ()):
                        if cluster.cluster_id in seen:
                            continue
                        seen.add(cluster.cluster_id)
                        found.append((great_circle_miles(
                            target.geo, cluster.geo), cluster))
                        added = True
            if len(found) >= self.k_nearest and ring >= 1:
                break
            if not added and ring > 4 and found:
                break
        found.sort(key=lambda pair: (pair[0], pair[1].cluster_id))
        out = [cluster for _d, cluster in found[: self.k_nearest]]
        out_ids = {c.cluster_id for c in out}
        for cluster in self.by_asn.get(target.asn, ()):
            if cluster.cluster_id not in out_ids:
                out.append(cluster)
                out_ids.add(cluster.cluster_id)
        return out


_ASNS = (20940, 64501, 64502, 64503)


def _plan_from(points, rng):
    clusters = {}
    for number, (lat, lon) in enumerate(points):
        cluster_id = f"c{number:04d}"
        clusters[cluster_id] = Cluster(
            cluster_id=cluster_id, city="x", country="XX",
            geo=GeoPoint(lat, lon), asn=rng.choice(_ASNS),
            servers=[EdgeServer(ip=number + 1, cluster_id=cluster_id)])
    return DeploymentPlan(clusters)


def _anywhere(rng):
    return (rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 180.0))


def _scattered(count):
    def build(rng):
        return [_anywhere(rng) for _ in range(count)], []
    return build


def _one_region(rng):
    # Everything within a few cells: far targets search many empty
    # rings, near ones fill the budget on ring 1.
    lat, lon = rng.uniform(-60.0, 60.0), rng.uniform(-150.0, 150.0)
    return [(lat + rng.uniform(-15.0, 15.0), lon + rng.uniform(-15.0, 15.0))
            for _ in range(30)], []


def _crowded_cell(rng):
    # The home cell alone fills the budget; the search must still take
    # ring 1, where a neighbour across the cell edge can be nearer.
    inside = [(rng.uniform(40.1, 49.9), rng.uniform(10.1, 19.9))
              for _ in range(12)]
    next_door = [(rng.uniform(40.1, 49.9), rng.uniform(20.1, 29.9))
                 for _ in range(12)]
    targets = [(rng.uniform(40.1, 49.9), rng.uniform(19.0, 19.9))
               for _ in range(4)]
    return inside + next_door, targets


def _far_side(rng):
    # Every cluster half a world away in longitude: nothing is found
    # before ring 18, whose 37 columns wrap onto the grid's 36.
    clusters = [(rng.uniform(-89.0, 89.0), rng.uniform(-179.9, -170.1))
                for _ in range(12)]
    targets = [(rng.uniform(-9.9, 9.9), rng.uniform(0.1, 9.9))
               for _ in range(4)]
    return clusters, targets


def _one_per_cell(rng):
    cells = [(row, col) for row in range(-9, 9) for col in range(-18, 18)]
    # Off-centre on purpose: a mirror-symmetric grid makes exact
    # distance ties, and tie order is not what these cases test.
    return [(row * 10.0 + rng.uniform(0.5, 9.5),
             col * 10.0 + rng.uniform(0.5, 9.5))
            for row, col in rng.sample(cells, 200)], []


def _antimeridian(rng):
    edge = [(rng.uniform(-70.0, 70.0), rng.choice((-179.9, 179.9, 180.0,
                                                    -180.0, 175.0, -175.0)))
            for _ in range(24)]
    targets = [(rng.uniform(-70.0, 70.0), lon)
               for lon in (-179.9, 179.9, 180.0, -180.0)]
    return edge + [_anywhere(rng) for _ in range(6)], targets


def _polar(rng):
    # One cluster on each pole and the rest at distinct latitudes near
    # them: clusters sharing a latitude are equidistant from a polar
    # target, the exact-tie case described in _one_per_cell.
    caps = [(90.0, 0.0), (-90.0, 0.0)] + [
        (rng.choice((-1.0, 1.0)) * rng.uniform(80.0, 89.99),
         rng.uniform(-180.0, 180.0)) for _ in range(18)]
    targets = [(lat, rng.uniform(-180.0, 180.0))
               for lat in (89.9, -89.9, 90.0, -90.0)]
    return caps + [_anywhere(rng) for _ in range(10)], targets


#: name -> (k_nearest, builder returning (cluster points, extra targets))
_DEPLOYMENTS = {
    "dense": (16, _scattered(400)),
    "sparse": (16, _scattered(20)),
    "sparse-small-k": (3, _scattered(12)),
    "one-region": (8, _one_region),
    "crowded-cell": (8, _crowded_cell),
    "far-side": (8, _far_side),
    "one-per-cell": (16, _one_per_cell),
    "antimeridian": (8, _antimeridian),
    "polar": (8, _polar),
    "all-within-k": (16, _scattered(16)),
}


def _case(kind, seed):
    """Seeded deployment, its index and oracle, and the targets."""
    rng = random.Random(f"{kind}/{seed}")
    k_nearest, build = _DEPLOYMENTS[kind]
    points, extra = build(rng)
    plan = _plan_from(points, rng)
    spots = extra + [_anywhere(rng) for _ in range(25)]
    # Cell corners: floor division puts these on a bucket boundary.
    spots += [(float(rng.randrange(-9, 10)) * 10.0,
               float(rng.randrange(-18, 19)) * 10.0) for _ in range(5)]
    targets = [MapTarget(geo=GeoPoint(lat, lon), asn=rng.choice(_ASNS))
               for lat, lon in spots]
    # The same place seen from another AS must not share a memo entry.
    targets += [MapTarget(geo=t.geo, asn=rng.choice(_ASNS))
                for t in targets[:5]]
    return (plan, CandidateIndex(plan, k_nearest=k_nearest),
            RingWalkOracle(plan, k_nearest), targets)


def _ids(clusters):
    return [c.cluster_id for c in clusters]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("kind", sorted(_DEPLOYMENTS))
class TestCompiledDiscoveryMatchesRingWalk:
    """Reproduce one failure with
    ``pytest tests/test_core_discovery.py -k "<kind>-<seed>"``."""

    def test_candidates_identical_and_ordered(self, kind, seed):
        _plan, index, oracle, targets = _case(kind, seed)
        # Twice: the first call compiles and memoises, the second is
        # served from the memo.
        for attempt in ("cold", "memoised"):
            for target in targets:
                assert (_ids(index.candidates(target))
                        == _ids(oracle.candidates(target))), (
                    f"kind={kind} seed={seed} {attempt} {target}")

    def test_rank_covers_oracle(self, kind, seed):
        plan, index, oracle, targets = _case(kind, seed)
        lb = GlobalLoadBalancer(
            plan, Scorer(MeasurementService()),
            candidate_index=index)
        for target in targets:
            assert sorted(_ids(lb.ranking(target))) == sorted(
                _ids(oracle.candidates(target))), (
                f"kind={kind} seed={seed} {target}")

    def test_returned_list_is_the_callers(self, kind, seed):
        _plan, index, oracle, targets = _case(kind, seed)
        for target in targets[:8]:
            first = index.candidates(target)
            first.reverse()
            first.clear()
            assert (_ids(index.candidates(target))
                    == _ids(oracle.candidates(target))), (
                f"kind={kind} seed={seed} {target}")


class TestDifferentialCasesCoverTheirEdges:
    """The seeded cases above must actually reach the edges they are
    named for, or the differential passes vacuously."""

    def _seen(self, kind, predicate):
        for seed in range(6):
            _plan, index, oracle, targets = _case(kind, seed)
            if any(predicate(index, oracle, t) for t in targets):
                return True
        return False

    def test_empty_home_cell(self):
        assert self._seen("sparse", lambda index, oracle, t: (
            index._cell(t.geo) not in oracle.cells))

    def test_fewer_than_k_returned(self):
        assert self._seen("sparse", lambda index, oracle, t: (
            len(oracle.candidates(t)) < index.k_nearest))

    def test_same_as_cluster_outside_the_cut(self):
        assert self._seen("dense", lambda index, oracle, t: (
            len(oracle.candidates(t)) > index.k_nearest))

    def test_whole_deployment_short_circuit(self):
        _plan, index, oracle, targets = _case("all-within-k", 0)
        assert len(oracle.all) <= index.k_nearest
        assert _ids(index.candidates(targets[0])) == _ids(oracle.all)

    def test_search_crosses_the_antimeridian(self):
        def crosses(index, oracle, t):
            return any(abs(c.geo.lon - t.geo.lon) > 180.0
                       for c in oracle.candidates(t)[: index.k_nearest])
        assert self._seen("antimeridian", crosses)

    def test_cluster_on_the_antimeridian_is_found(self):
        # lon exactly 180.0 used to land in a 37th grid column that no
        # ring search visits, so the cluster was nobody's candidate.
        rng = random.Random("lon-180")
        points = [(10.0, 180.0)] + [
            (rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0))
            for _ in range(20)]
        plan = _plan_from(points, rng)
        index = CandidateIndex(plan, k_nearest=4)
        target = MapTarget(geo=GeoPoint(10.0, -179.9), asn=_ASNS[0])
        assert _ids(index.candidates(target))[0] == "c0000"
        assert (_ids(index.candidates(target))
                == _ids(RingWalkOracle(plan, 4).candidates(target)))


class TestDiscoveryWorkCounts:
    """What a decision costs, counted rather than timed."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"distance": 0, "searches": []}
        real_distance = discovery.great_circle_miles
        real_search = CandidateIndex._ring_search

        def counting_distance(a, b):
            counts["distance"] += 1
            return real_distance(a, b)

        def counting_search(self, home):
            reach = real_search(self, home)
            counts["searches"].append(len(reach))
            return reach

        monkeypatch.setattr(discovery, "great_circle_miles",
                            counting_distance)
        monkeypatch.setattr(CandidateIndex, "_ring_search",
                            counting_search)
        return counts

    def test_construction_searches_nothing(self, plan, counts):
        CandidateIndex(plan, k_nearest=8)
        assert counts == {"distance": 0, "searches": []}

    def test_repeat_target_costs_no_distance(self, plan, counts):
        index = CandidateIndex(plan, k_nearest=8)
        target = MapTarget(geo=GeoPoint(48.2, 11.3), asn=64500)
        first = index.candidates(target)
        assert len(counts["searches"]) == 1
        assert counts["distance"] == counts["searches"][0]
        again = index.candidates(
            MapTarget(geo=GeoPoint(48.2, 11.3), asn=64500))
        assert _ids(again) == _ids(first)
        assert len(counts["searches"]) == 1
        assert counts["distance"] == counts["searches"][0]

    def test_new_target_in_compiled_cell_sorts_only(self, plan, counts):
        index = CandidateIndex(plan, k_nearest=8)
        index.candidates(MapTarget(geo=GeoPoint(48.2, 11.3), asn=64500))
        reach = counts["searches"][0]
        counts["distance"] = 0
        # Same 10-degree cell, different place; then the same place
        # from another AS.
        index.candidates(MapTarget(geo=GeoPoint(41.0, 19.9), asn=64500))
        assert counts["distance"] == reach
        index.candidates(MapTarget(geo=GeoPoint(41.0, 19.9), asn=20940))
        assert counts["distance"] == 2 * reach
        assert counts["searches"] == [reach]
