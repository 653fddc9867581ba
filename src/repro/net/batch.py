"""Vectorized geometry/latency kernels (numpy batch layer).

The scalar implementations in :mod:`repro.net.geometry` and
:mod:`repro.net.latency` are the *reference semantics*: readable,
per-pair, and exercised directly by the unit tests.  Every experiment
that sweeps clusters x targets, blocks x targets, or resolver
populations bottoms out in millions of those per-pair calls, so this
module provides the same math as numpy array kernels:

* :func:`haversine_matrix_miles` / :func:`haversine_miles` -- great-
  circle distance, point-set x point-set or elementwise;
* :func:`inflation` -- the routing-inflation interpolation of
  :meth:`repro.net.latency.LatencyModel.inflation`;
* :func:`mix64` / :func:`pair_unit` / :func:`peering_penalty_matrix` --
  the SplitMix64 peering-penalty kernel, **bit-identical** to the
  scalar ``_mix64`` / ``_pair_unit`` path (uint64 wrap-around equals
  the scalar code's explicit masking);
* :func:`rtt_matrix` -- the full noise-free RTT of
  :meth:`LatencyModel.base_rtt_ms` as one cluster x target matrix;
* :func:`weighted_centroid_arrays` / :func:`mean_distance_miles_arrays`
  -- the Section 3.3 cluster geometry as numpy reductions.

Equivalence with the scalar path is pinned by
``tests/test_net_batch.py`` (<= 1e-9 relative error over randomized
seeded samples, including the antimeridian and same-AS floor edges;
the peering kernel is compared for exact equality).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.net.geometry import EARTH_RADIUS_MILES, GeoPoint
from repro.net.latency import FIBER_MILES_PER_MS, LatencyParams

_U64 = np.uint64
_MIX_MUL_1 = _U64(0xBF58476D1CE4E5B9)
_MIX_MUL_2 = _U64(0x94D049BB133111EB)
_PAIR_MUL = _U64(0x9E3779B97F4A7C15)


def geo_columns(points: Sequence[GeoPoint]) -> Tuple[np.ndarray, np.ndarray]:
    """Latitude/longitude columns (degrees) from a GeoPoint sequence."""
    lat = np.fromiter((p.lat for p in points), dtype=float,
                      count=len(points))
    lon = np.fromiter((p.lon for p in points), dtype=float,
                      count=len(points))
    return lat, lon


def haversine_miles(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Elementwise (broadcasting) great-circle miles between points.

    Inputs are latitudes/longitudes in degrees; any numpy-broadcastable
    shapes.  Same formula and clamping as the scalar
    :func:`repro.net.geometry.great_circle_miles`.
    """
    lat_a = np.radians(np.asarray(lat_a, dtype=float))
    lon_a = np.radians(np.asarray(lon_a, dtype=float))
    lat_b = np.radians(np.asarray(lat_b, dtype=float))
    lon_b = np.radians(np.asarray(lon_b, dtype=float))
    h = (np.sin((lat_b - lat_a) / 2.0) ** 2
         + np.cos(lat_a) * np.cos(lat_b)
         * np.sin((lon_b - lon_a) / 2.0) ** 2)
    h = np.clip(h, 0.0, 1.0)
    return 2.0 * np.arcsin(np.sqrt(h)) * EARTH_RADIUS_MILES


def haversine_matrix_miles(lat_a, lon_a, lat_b, lon_b) -> np.ndarray:
    """Great-circle miles between every pair: shape (len(a), len(b))."""
    lat_a = np.asarray(lat_a, dtype=float)[:, None]
    lon_a = np.asarray(lon_a, dtype=float)[:, None]
    lat_b = np.asarray(lat_b, dtype=float)[None, :]
    lon_b = np.asarray(lon_b, dtype=float)[None, :]
    return haversine_miles(lat_a, lon_a, lat_b, lon_b)


def inflation(distance_miles, params: Optional[LatencyParams] = None
              ) -> np.ndarray:
    """Vectorized routing-inflation factor (log-linear interpolation).

    Matches :meth:`repro.net.latency.LatencyModel.inflation`: constant
    ``short_inflation`` below ``short_miles``, ``long_inflation`` above
    ``long_miles``, log-linear in between.
    """
    p = params or LatencyParams()
    d = np.asarray(distance_miles, dtype=float)
    span = np.log(p.long_miles / p.short_miles)
    # Clamp into the interpolation domain before the log; the clip on
    # frac then reproduces the piecewise-constant regimes exactly.
    clamped = np.clip(d, p.short_miles, p.long_miles)
    frac = np.log(clamped / p.short_miles) / span
    return p.short_inflation + frac * (p.long_inflation - p.short_inflation)


def mix64(values: np.ndarray) -> np.ndarray:
    """Vectorized SplitMix64 finalizer, bit-identical to scalar ``_mix64``.

    uint64 arithmetic wraps modulo 2**64, which is exactly the scalar
    implementation's ``& 0xFFFFFFFFFFFFFFFF`` masking.
    """
    v = np.asarray(values, dtype=_U64)
    with np.errstate(over="ignore"):  # modular wrap-around is the point
        v = (v ^ (v >> _U64(30))) * _MIX_MUL_1
        v = (v ^ (v >> _U64(27))) * _MIX_MUL_2
        return v ^ (v >> _U64(31))


def pair_unit(a, b, salt: int) -> np.ndarray:
    """Deterministic uniform(0,1) per unordered integer pair, vectorized.

    Bit-identical to :func:`repro.net.latency._pair_unit` for inputs in
    [0, 2**64): ordering, mixing, and the 53-bit mantissa extraction
    all match.
    """
    a = np.asarray(a, dtype=_U64)
    b = np.asarray(b, dtype=_U64)
    low = np.minimum(a, b)
    high = np.maximum(a, b)
    with np.errstate(over="ignore"):  # modular wrap-around is the point
        mixed = mix64(mix64(low * _PAIR_MUL + high) ^ _U64(salt))
    return (mixed >> _U64(11)).astype(float) / float(1 << 53)


def peering_penalty_matrix(asns_a, asns_b,
                           params: Optional[LatencyParams] = None
                           ) -> np.ndarray:
    """Peering penalty (ms) for every AS pair: shape (len(a), len(b)).

    Zero on the diagonal pairs (same AS); otherwise
    ``peering_penalty_max_ms * unit**2`` exactly as
    :meth:`LatencyModel.peering_penalty_ms`.
    """
    p = params or LatencyParams()
    a = np.asarray(asns_a, dtype=_U64)[:, None]
    b = np.asarray(asns_b, dtype=_U64)[None, :]
    unit = pair_unit(a, b, p.peering_salt)
    penalty = p.peering_penalty_max_ms * unit * unit
    return np.where(a == b, 0.0, penalty)


def rtt_matrix(
    lat_a, lon_a, asns_a,
    lat_b, lon_b, asns_b,
    params: Optional[LatencyParams] = None,
    last_mile_ms=0.0,
) -> np.ndarray:
    """Noise-free RTT (ms) between every (a_i, b_j) endpoint pair.

    The batch equivalent of :meth:`LatencyModel.base_rtt_ms`:
    propagation at fiber speed with routing inflation, plus the
    deterministic peering penalty, plus an optional per-b-endpoint
    last-mile penalty, floored at ``same_as_floor_ms``.

    ``last_mile_ms`` may be a scalar or an array broadcastable against
    the (len(a), len(b)) result (e.g. one value per b endpoint).
    """
    p = params or LatencyParams()
    dist = haversine_matrix_miles(lat_a, lon_a, lat_b, lon_b)
    propagation = 2.0 * dist * inflation(dist, p) / FIBER_MILES_PER_MS
    rtt = propagation + peering_penalty_matrix(asns_a, asns_b, p)
    rtt = rtt + np.asarray(last_mile_ms, dtype=float)
    return np.maximum(rtt, p.same_as_floor_ms)


def rtt_point_to_many(
    lat: float, lon: float, asn: int,
    lats, lons, asns,
    params: Optional[LatencyParams] = None,
    last_mile_ms=0.0,
) -> np.ndarray:
    """RTT (ms) from one endpoint to many: 1-D convenience wrapper."""
    return rtt_matrix([lat], [lon], [asn], lats, lons, asns,
                      params=params, last_mile_ms=last_mile_ms)[0]


# ---------------------------------------------------------------------------
# Cluster geometry (Section 3.3) as numpy reductions


def weighted_centroid_arrays(lats, lons, weights) -> Tuple[float, float]:
    """Demand-weighted spherical centroid; returns (lat, lon) degrees.

    Numpy reduction form of :func:`repro.net.geometry.weighted_centroid`
    (3-D Cartesian mean projected back to the sphere, antimeridian-
    safe), with the same degenerate-input fallbacks.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    w = np.asarray(weights, dtype=float)
    if lats.size == 0:
        raise ValueError("centroid of an empty point set")
    if lats.shape != w.shape or lons.shape != w.shape:
        raise ValueError("points and weights must have equal length")
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    lat_r = np.radians(lats)
    lon_r = np.radians(lons)
    cos_lat = np.cos(lat_r)
    share = w / total
    x = float(np.dot(share, cos_lat * np.cos(lon_r)))
    y = float(np.dot(share, cos_lat * np.sin(lon_r)))
    z = float(np.dot(share, np.sin(lat_r)))
    norm = np.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        # Degenerate (antipodal cancellation); fall back to first point.
        return float(lats[0]), float(lons[0])
    z_unit = min(1.0, max(-1.0, z / norm))
    return (float(np.degrees(np.arcsin(z_unit))),
            float(np.degrees(np.arctan2(y, x))))


def segment_centroids_and_radii(lats, lons, weights, starts
                                ) -> Tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """Per segment ``[starts[i], starts[i + 1])`` of the points (the
    last runs to the end): the weighted spherical centroid's latitude
    and longitude and the weighted mean distance to it, in one pass.

    The segmented form of :func:`weighted_centroid_arrays` and
    :func:`mean_distance_miles_arrays`, same formulas and fallback;
    its sums run in another order, so the last bits may differ.  Every
    segment's total weight must be positive.
    """
    lats = np.asarray(lats, dtype=float)
    lons = np.asarray(lons, dtype=float)
    w = np.asarray(weights, dtype=float)
    sizes = np.diff(np.append(starts, lats.size))
    total = np.add.reduceat(w, starts)
    if not (total > 0.0).all():
        raise ValueError("total weight must be positive")
    lat_r = np.radians(lats)
    lon_r = np.radians(lons)
    cos_lat = np.cos(lat_r)
    share = w / np.repeat(total, sizes)
    x = np.add.reduceat(share * (cos_lat * np.cos(lon_r)), starts)
    y = np.add.reduceat(share * (cos_lat * np.sin(lon_r)), starts)
    z = np.add.reduceat(share * np.sin(lat_r), starts)
    norm = np.sqrt(x * x + y * y + z * z)
    z_unit = np.clip(z / np.where(norm > 0.0, norm, 1.0), -1.0, 1.0)
    c_lat = np.degrees(np.arcsin(z_unit))
    c_lon = np.degrees(np.arctan2(y, x))
    # Degenerate (antipodal cancellation): the segment's first point.
    degenerate = norm < 1e-12
    c_lat[degenerate] = lats[starts][degenerate]
    c_lon[degenerate] = lons[starts][degenerate]
    miles = haversine_miles(lats, lons, np.repeat(c_lat, sizes),
                            np.repeat(c_lon, sizes))
    return c_lat, c_lon, np.add.reduceat(w * miles, starts) / total


def mean_distance_miles_arrays(lat: float, lon: float,
                               lats, lons, weights) -> float:
    """Weighted mean distance from one point to many (numpy reduction)."""
    w = np.asarray(weights, dtype=float)
    total = float(w.sum())
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    return float(np.dot(w, haversine_miles(lats, lons, lat, lon)) / total)
