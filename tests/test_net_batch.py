"""Equivalence tests: repro.net.batch kernels vs the scalar reference.

The scalar implementations in :mod:`repro.net.geometry` and
:mod:`repro.net.latency` are the reference semantics; every kernel in
:mod:`repro.net.batch` must reproduce them to <= 1e-9 relative error
over randomized seeded samples (the peering kernel exactly), including
the antimeridian and same-AS-floor edge cases.
"""

import math
import random

import numpy as np
import pytest

from repro.core.units import MapUnit, MapUnitScheme
from repro.net import batch
from repro.net.geometry import (
    GeoPoint,
    cluster_radius_miles,
    great_circle_miles,
    mean_distance_miles,
    weighted_centroid,
)
from repro.net.latency import LatencyModel, LatencyParams, _pair_unit, _mix64

REL_TOL = 1e-9


def _random_points(rng, n):
    return [GeoPoint(rng.uniform(-89.0, 89.0), rng.uniform(-180.0, 179.999))
            for _ in range(n)]


class TestHaversineKernel:
    def test_matches_scalar_on_random_points(self):
        rng = random.Random(101)
        a = _random_points(rng, 40)
        b = _random_points(rng, 60)
        lat_a, lon_a = batch.geo_columns(a)
        lat_b, lon_b = batch.geo_columns(b)
        matrix = batch.haversine_matrix_miles(lat_a, lon_a, lat_b, lon_b)
        assert matrix.shape == (40, 60)
        for i in (0, 7, 39):
            for j in (0, 13, 59):
                assert matrix[i, j] == pytest.approx(
                    great_circle_miles(a[i], b[j]), rel=REL_TOL)

    def test_full_matrix_equivalence(self):
        rng = random.Random(7)
        a = _random_points(rng, 15)
        b = _random_points(rng, 15)
        lat_a, lon_a = batch.geo_columns(a)
        lat_b, lon_b = batch.geo_columns(b)
        matrix = batch.haversine_matrix_miles(lat_a, lon_a, lat_b, lon_b)
        scalar = np.array([[great_circle_miles(pa, pb) for pb in b]
                           for pa in a])
        np.testing.assert_allclose(matrix, scalar, rtol=REL_TOL, atol=1e-12)

    def test_antimeridian_pairs(self):
        # Points straddling the +/-180 meridian: the formula must take
        # the short way around, exactly as the scalar code does.
        east = GeoPoint(10.0, 179.5)
        west = GeoPoint(10.0, -179.5)
        got = float(batch.haversine_miles(east.lat, east.lon,
                                          west.lat, west.lon))
        assert got == pytest.approx(great_circle_miles(east, west),
                                    rel=REL_TOL)
        assert got < 100.0  # short way, not 24,000 miles around

    def test_identical_points_are_zero(self):
        assert float(batch.haversine_miles(51.5, -0.1, 51.5, -0.1)) == 0.0

    def test_elementwise_broadcasting(self):
        lats = np.array([0.0, 45.0, -30.0])
        lons = np.array([0.0, 90.0, -120.0])
        out = batch.haversine_miles(lats, lons, 10.0, 20.0)
        assert out.shape == (3,)
        for i in range(3):
            assert out[i] == pytest.approx(
                great_circle_miles(GeoPoint(lats[i], lons[i]),
                                   GeoPoint(10.0, 20.0)), rel=REL_TOL)


class TestInflationKernel:
    def test_matches_scalar_over_regimes(self):
        model = LatencyModel()
        rng = random.Random(23)
        distances = ([0.0, 1.0, 49.999, 50.0, 50.001, 3999.9, 4000.0,
                      4001.0, 12000.0]
                     + [rng.uniform(0.0, 13000.0) for _ in range(200)])
        got = batch.inflation(np.array(distances), model.params)
        for d, g in zip(distances, got):
            assert g == pytest.approx(model.inflation(d), rel=REL_TOL)

    def test_custom_params(self):
        params = LatencyParams(short_inflation=3.0, long_inflation=1.1,
                               short_miles=10.0, long_miles=1000.0)
        model = LatencyModel(params)
        for d in (5.0, 10.0, 99.0, 500.0, 1000.0, 5000.0):
            assert float(batch.inflation(d, params)) == pytest.approx(
                model.inflation(d), rel=REL_TOL)


class TestPeeringKernel:
    def test_mix64_bit_identical(self):
        rng = random.Random(5)
        values = [0, 1, 2**63, 2**64 - 1] + [rng.getrandbits(64)
                                             for _ in range(500)]
        got = batch.mix64(np.array(values, dtype=np.uint64))
        for v, g in zip(values, got):
            assert int(g) == _mix64(v)

    def test_pair_unit_bit_identical(self):
        rng = random.Random(11)
        pairs = [(rng.randrange(1, 2**32), rng.randrange(1, 2**32))
                 for _ in range(500)]
        a = np.array([p[0] for p in pairs], dtype=np.uint64)
        b = np.array([p[1] for p in pairs], dtype=np.uint64)
        got = batch.pair_unit(a, b, 0x5EED0001)
        for (x, y), g in zip(pairs, got):
            assert float(g) == _pair_unit(x, y, 0x5EED0001)

    def test_pair_unit_unordered(self):
        a = np.array([100, 200], dtype=np.uint64)
        b = np.array([200, 100], dtype=np.uint64)
        got = batch.pair_unit(a, b, 1)
        assert got[0] == got[1]

    def test_penalty_matrix_bit_identical(self):
        model = LatencyModel()
        rng = random.Random(31)
        asns_a = [rng.randrange(100, 40000) for _ in range(25)]
        asns_b = [rng.randrange(100, 40000) for _ in range(30)]
        matrix = batch.peering_penalty_matrix(asns_a, asns_b, model.params)
        for i, a in enumerate(asns_a):
            for j, b in enumerate(asns_b):
                assert matrix[i, j] == model.peering_penalty_ms(a, b)

    def test_same_as_is_exactly_zero(self):
        matrix = batch.peering_penalty_matrix([7018, 3356], [7018, 3356])
        assert matrix[0, 0] == 0.0
        assert matrix[1, 1] == 0.0
        assert matrix[0, 1] > 0.0


class TestRttKernel:
    def test_matrix_matches_scalar(self):
        model = LatencyModel()
        rng = random.Random(77)
        a = _random_points(rng, 12)
        b = _random_points(rng, 18)
        asns_a = [rng.randrange(100, 5000) for _ in range(12)]
        asns_b = [rng.randrange(100, 5000) for _ in range(18)]
        lat_a, lon_a = batch.geo_columns(a)
        lat_b, lon_b = batch.geo_columns(b)
        matrix = batch.rtt_matrix(lat_a, lon_a, asns_a,
                                  lat_b, lon_b, asns_b,
                                  params=model.params)
        scalar = np.array([
            [model.base_rtt_ms(pa, aa, pb, ab)
             for pb, ab in zip(b, asns_b)]
            for pa, aa in zip(a, asns_a)
        ])
        np.testing.assert_allclose(matrix, scalar, rtol=REL_TOL, atol=0)

    def test_same_as_floor_edge(self):
        # Two endpoints in the same AS a few hundred feet apart: both
        # paths must clamp to the same_as_floor_ms minimum.
        model = LatencyModel()
        near_a = GeoPoint(40.7128, -74.0060)
        near_b = GeoPoint(40.7129, -74.0061)
        got = float(batch.rtt_matrix(
            [near_a.lat], [near_a.lon], [100],
            [near_b.lat], [near_b.lon], [100], params=model.params)[0, 0])
        want = model.base_rtt_ms(near_a, 100, near_b, 100)
        assert got == want == model.params.same_as_floor_ms

    def test_last_mile_penalty(self):
        model = LatencyModel()
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(20.0, 30.0)
        got = float(batch.rtt_matrix(
            [a.lat], [a.lon], [100], [b.lat], [b.lon], [200],
            params=model.params, last_mile_ms=45.0)[0, 0])
        assert got == pytest.approx(
            model.base_rtt_ms(a, 100, b, 200, last_mile_ms=45.0),
            rel=REL_TOL)

    def test_point_to_many(self):
        model = LatencyModel()
        rng = random.Random(3)
        b = _random_points(rng, 10)
        asns_b = [rng.randrange(100, 900) for _ in range(10)]
        lat_b, lon_b = batch.geo_columns(b)
        got = batch.rtt_point_to_many(48.85, 2.35, 400,
                                      lat_b, lon_b, asns_b)
        assert got.shape == (10,)
        origin = GeoPoint(48.85, 2.35)
        for i in range(10):
            assert got[i] == pytest.approx(
                model.base_rtt_ms(origin, 400, b[i], asns_b[i]),
                rel=REL_TOL)


class TestClusterGeometryKernels:
    def test_centroid_matches_scalar(self):
        rng = random.Random(41)
        points = _random_points(rng, 30)
        weights = [rng.uniform(0.1, 10.0) for _ in range(30)]
        lats, lons = batch.geo_columns(points)
        c_lat, c_lon = batch.weighted_centroid_arrays(
            lats, lons, np.array(weights))
        want = weighted_centroid(points, weights)
        assert c_lat == pytest.approx(want.lat, abs=1e-9)
        assert c_lon == pytest.approx(want.lon, abs=1e-9)

    def test_radius_matches_scalar(self):
        """A unit's radius: the mean-distance kernel from its memoized
        centroid, against the scalar cluster radius."""
        rng = random.Random(43)
        points = _random_points(rng, 25)
        weights = [rng.uniform(0.1, 5.0) for _ in range(25)]
        unit = MapUnit(key="u", scheme=MapUnitScheme.BLOCK)
        for point, weight in zip(points, weights):
            unit.add(point, weight)
        assert unit.radius_miles() == pytest.approx(
            cluster_radius_miles(points, weights), rel=REL_TOL)

    def test_mean_distance_matches_scalar(self):
        rng = random.Random(47)
        points = _random_points(rng, 20)
        weights = [rng.uniform(0.1, 5.0) for _ in range(20)]
        origin = GeoPoint(35.68, 139.69)
        lats, lons = batch.geo_columns(points)
        got = batch.mean_distance_miles_arrays(
            origin.lat, origin.lon, lats, lons, np.array(weights))
        assert got == pytest.approx(
            mean_distance_miles(origin, zip(points, weights)),
            rel=REL_TOL)

    def test_segments_match_the_one_unit_kernels(self):
        """Each segment's centroid and radius against the per-unit
        kernels, with an antipodal pair that falls back to its first
        point."""
        rng = random.Random(53)
        sizes = [2, 7, 1, 12, 2]
        lats, lons, weights, starts = [], [], [], []
        for size in sizes:
            starts.append(len(lats))
            points = _random_points(rng, size)
            lats += [p.lat for p in points]
            lons += [p.lon for p in points]
            weights += [rng.uniform(0.1, 5.0) for _ in points]
        lats[-2:], lons[-2:], weights[-2:] = [10.0, -10.0], [20.0, -160.0], [
            1.0, 1.0]
        c_lat, c_lon, radius = batch.segment_centroids_and_radii(
            lats, lons, weights, np.asarray(starts))
        for index, lo in enumerate(starts):
            hi = lo + sizes[index]
            want_lat, want_lon = batch.weighted_centroid_arrays(
                lats[lo:hi], lons[lo:hi], weights[lo:hi])
            assert c_lat[index] == pytest.approx(want_lat, abs=1e-9)
            assert c_lon[index] == pytest.approx(want_lon, abs=1e-9)
            assert radius[index] == pytest.approx(
                batch.mean_distance_miles_arrays(
                    want_lat, want_lon, lats[lo:hi], lons[lo:hi],
                    weights[lo:hi]), rel=REL_TOL)
        assert (c_lat[-1], c_lon[-1]) == (10.0, 20.0)
        with pytest.raises(ValueError, match="positive"):
            batch.segment_centroids_and_radii(
                [1.0, 2.0], [1.0, 2.0], [1.0, 0.0], np.asarray([0, 1]))

    def test_centroid_rejects_bad_input(self):
        with pytest.raises(ValueError):
            batch.weighted_centroid_arrays([], [], [])
        with pytest.raises(ValueError):
            batch.weighted_centroid_arrays([1.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            batch.weighted_centroid_arrays([1.0, 2.0], [1.0, 2.0], [1.0])
