"""Batch mapping pipeline vs scalar references.

Covers the vectorized hot paths wired in on top of the
:mod:`repro.net.batch` kernels: TargetGrid nearest-target lookups
(scalar scan as oracle), MeasurementService batch RTTs
(``LatencyModel.base_rtt_ms`` as oracle) and noise-memo coherence,
Scorer.score_targets, and the canonical weighted-quantile
implementation.
"""

import random

import numpy as np
import pytest

from repro.analysis.stats import (
    weighted_cdf,
    weighted_quantile,
    weighted_quantiles,
)
from repro.cdn.deployments import build_deployments
from repro.core.measurement import (
    MeasurementService,
    TargetGrid,
    build_ping_targets,
    nearest_target_id,
)
from repro.core.policies import MapTarget
from repro.core.scoring import Scorer
from repro.net import batch
from repro.net.latency import LatencyModel
from repro.topology.internet import InternetConfig, build_internet

pytestmark = pytest.mark.filterwarnings("error")


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=2014)


@pytest.fixture(scope="module")
def targets(net):
    targets, _ = build_ping_targets(net, 120)
    return targets


@pytest.fixture(scope="module")
def deployments(net):
    return build_deployments(24, net.geodb, seed=31,
                             host_ases=list(net.ases.values()))


class TestTargetGrid:
    def test_nearest_matches_scalar_oracle(self, net, targets):
        grid = TargetGrid(targets)
        rng = random.Random(9)
        for block in rng.sample(net.blocks, 200):
            assert grid.nearest(block.geo, block.asn) == nearest_target_id(
                block.geo, block.asn, targets)

    def test_nearest_matches_oracle_for_resolvers(self, net, targets):
        grid = TargetGrid(targets)
        for resolver in list(net.resolvers.values())[:100]:
            assert grid.nearest(resolver.geo, resolver.asn) == (
                nearest_target_id(resolver.geo, resolver.asn, targets))

    def test_bulk_matches_single(self, net, targets):
        grid = TargetGrid(targets)
        columns = net.block_columns()
        bulk = grid.nearest_bulk(columns.lat, columns.lon, columns.asn,
                                 chunk_rows=97)
        for row in (0, 13, 500, len(net.blocks) - 1):
            block = net.blocks[row]
            assert bulk[row] == grid.nearest(block.geo, block.asn)

    def test_assignment_uses_exact_nearest(self, net):
        targets, assignment = build_ping_targets(net, 80)
        rng = random.Random(4)
        for block in rng.sample(net.blocks, 100):
            assert assignment[block.prefix] == nearest_target_id(
                block.geo, block.asn, targets)

    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError):
            TargetGrid([])


class TestMeasurementBatch:
    def test_points_match_scalar_noise_free(self, net, deployments,
                                            targets):
        service = MeasurementService()
        cluster = next(iter(deployments.clusters.values()))
        lats, lons = batch.geo_columns([t.geo for t in targets])
        asns = [t.asn for t in targets]
        got = service.rtt_cluster_to_points(cluster, lats, lons, asns)
        # numpy's vectorized trig differs from libm by <= 1 ulp, so the
        # two paths agree to machine precision, not bit-for-bit.
        model = LatencyModel()
        for i, target in enumerate(targets):
            assert got[i] == pytest.approx(
                model.base_rtt_ms(cluster.geo, cluster.asn, target.geo,
                                  target.asn), rel=1e-12)

    def test_matrix_matches_scalar_noise_free(self, net, deployments,
                                              targets):
        service = MeasurementService()
        clusters = list(deployments.clusters.values())[:6]
        matrix = service.rtt_matrix_to_targets(clusters, targets[:40])
        assert matrix.shape == (6, 40)
        model = LatencyModel()
        for i, cluster in enumerate(clusters):
            for j, target in enumerate(targets[:40]):
                assert matrix[i, j] == pytest.approx(
                    model.base_rtt_ms(cluster.geo, cluster.asn,
                                      target.geo, target.asn), rel=1e-12)

    def test_noisy_batch_respects_frozen_cache(self, net, deployments,
                                               targets):
        cluster = next(iter(deployments.clusters.values()))
        subset = targets[:30]
        lats, lons = batch.geo_columns([t.geo for t in subset])
        asns = [t.asn for t in subset]

        # A narrower measurement first: its frozen draws must win in a
        # wider one, and only the new pairs draw.
        service = MeasurementService(measurement_noise=0.2,
                                     seed=5)
        narrow = service.rtt_cluster_to_points(
            cluster, lats[:10], lons[:10], asns[:10])
        got = service.rtt_cluster_to_points(cluster, lats, lons, asns)
        np.testing.assert_array_equal(got[:10], narrow)
        assert service.rtt_memo_hits == 10
        noise_free = MeasurementService().rtt_cluster_to_points(
            cluster, lats, lons, asns)
        assert not np.array_equal(got, noise_free)

        # Every later read of a pair, by row or by matrix, is frozen.
        again = service.rtt_cluster_to_points(cluster, lats, lons, asns)
        np.testing.assert_array_equal(got, again)
        matrix = service.rtt_matrix_to_targets([cluster], subset)
        np.testing.assert_array_equal(matrix[0], got)


class TestBatchScoring:
    def test_score_targets_matches_scalar(self, net, deployments,
                                          targets):
        scorer = Scorer(MeasurementService())
        clusters = list(deployments.clusters.values())[:8]
        map_targets = [MapTarget(geo=t.geo, asn=t.asn)
                       for t in targets[:50]]
        matrix = scorer.score_targets(clusters, map_targets)
        assert matrix.shape == (8, 50)
        model = LatencyModel()
        for i, cluster in enumerate(clusters):
            for j, target in enumerate(map_targets):
                rtt = model.base_rtt_ms(cluster.geo, cluster.asn,
                                        target.geo, target.asn)
                assert matrix[i, j] == pytest.approx(
                    float(scorer.scores_from_rtt(rtt)), rel=1e-12)

    def test_rejects_aggregate_targets(self, net, deployments, targets):
        scorer = Scorer(MeasurementService())
        point = MapTarget(geo=targets[0].geo, asn=targets[0].asn)
        aggregate = MapTarget(geo=targets[0].geo, asn=targets[0].asn,
                              members=((point, 1.0),))
        with pytest.raises(ValueError):
            scorer.score_targets(list(deployments.clusters.values()),
                                 [aggregate])


class TestWeightedQuantiles:
    def test_matches_single_quantile(self):
        rng = random.Random(6)
        values = [rng.uniform(0, 100) for _ in range(500)]
        weights = [rng.uniform(0.01, 5.0) for _ in range(500)]
        qs = (0.0, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0)
        got = weighted_quantiles(values, weights, qs)
        for q, g in zip(qs, got):
            assert g == weighted_quantile(values, weights, q)

    def test_zero_total_weight_raises(self):
        with pytest.raises(ValueError):
            weighted_quantiles([1.0, 2.0], [0.0, 0.0], [0.5])

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            weighted_quantiles([1.0], [1.0], [1.5])

    def test_weighted_cdf_vectorized_semantics(self):
        cdf = weighted_cdf([10, 20, 30], [1, 1, 1],
                           grid=[5, 10, 15, 25, 35])
        assert cdf == [(5.0, 0.0), (10.0, pytest.approx(1 / 3)),
                       (15.0, pytest.approx(1 / 3)),
                       (25.0, pytest.approx(2 / 3)), (35.0, 1.0)]
