"""Great-circle geometry on a spherical Earth.

The paper's distance metrics (client--LDNS distance, mapping distance,
cluster radius) are all great-circle distances computed from the
latitude/longitude supplied by the geolocation database, expressed in
miles.  We use the haversine formula on a sphere of mean Earth radius;
the sub-0.5% error versus an ellipsoid is irrelevant at the resolution
of the paper's analysis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

EARTH_RADIUS_MILES = 3958.7613
EARTH_RADIUS_KM = 6371.0088


@dataclass(frozen=True, slots=True)
class GeoPoint:
    """A point on the Earth's surface, in decimal degrees."""

    lat: float
    lon: float

    def __post_init__(self) -> None:
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude out of range: {self.lon}")


def great_circle_miles(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in miles (haversine)."""
    return _haversine(a, b) * EARTH_RADIUS_MILES


def great_circle_km(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points, in kilometres."""
    return _haversine(a, b) * EARTH_RADIUS_KM


def _haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Central angle between two points, in radians."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    return central_angle(lat1, math.radians(a.lon), math.cos(lat1),
                         lat2, math.radians(b.lon), math.cos(lat2))


def central_angle(lat1: float, lon1: float, cos_lat1: float,
                  lat2: float, lon2: float, cos_lat2: float) -> float:
    """Haversine central angle, in radians, between two points given in
    radians with their latitudes' cosines precomputed.

    The one home of the formula: callers that measure many distances
    from one point (the topology generator's anycast catchments) keep
    its radians and cosine instead of recomputing them per distance,
    and get the float :func:`great_circle_miles` would, bit for bit.
    """
    h = (
        math.sin((lat2 - lat1) / 2.0) ** 2
        + cos_lat1 * cos_lat2 * math.sin((lon2 - lon1) / 2.0) ** 2
    )
    # Clamp against floating-point drift before the asin.
    h = min(1.0, max(0.0, h))
    return 2.0 * math.asin(math.sqrt(h))


def weighted_centroid(
    points: Sequence[GeoPoint], weights: Sequence[float]
) -> GeoPoint:
    """Demand-weighted centroid of a set of points.

    Computed in 3-D Cartesian space and projected back to the sphere,
    which behaves correctly across the antimeridian (a simple lat/lon
    average does not).  Used for the paper's *client cluster centroid*
    (Section 3.3): the reference point for the cluster radius.
    """
    if not points:
        raise ValueError("centroid of an empty point set")
    if len(points) != len(weights):
        raise ValueError("points and weights must have equal length")
    total = float(sum(weights))
    if total <= 0.0:
        raise ValueError("total weight must be positive")
    x = y = z = 0.0
    for point, weight in zip(points, weights):
        lat = math.radians(point.lat)
        lon = math.radians(point.lon)
        w = weight / total
        x += w * math.cos(lat) * math.cos(lon)
        y += w * math.cos(lat) * math.sin(lon)
        z += w * math.sin(lat)
    norm = math.sqrt(x * x + y * y + z * z)
    if norm < 1e-12:
        # Degenerate (antipodal cancellation); fall back to first point.
        return points[0]
    return GeoPoint(
        lat=math.degrees(math.asin(max(-1.0, min(1.0, z / norm)))),
        lon=math.degrees(math.atan2(y, x)),
    )


def cluster_radius_miles(
    points: Sequence[GeoPoint], weights: Sequence[float]
) -> float:
    """Demand-weighted mean distance of points to their weighted centroid.

    This is exactly the paper's definition of the *radius of a client
    cluster* (Section 3.3, footnote 7).
    """
    centroid = weighted_centroid(points, weights)
    total = float(sum(weights))
    return sum(
        w / total * great_circle_miles(p, centroid)
        for p, w in zip(points, weights)
    )


def displace(origin: GeoPoint, distance_miles: float,
             bearing_rad: float) -> GeoPoint:
    """Move ``origin`` by a distance along an initial bearing (spherical).

    Used to jitter client blocks and resolver deployments around their
    host city so that co-located entities are not all at one exact point.
    """
    lat1 = math.radians(origin.lat)
    return displace_from(lat1, math.radians(origin.lon), math.sin(lat1),
                         math.cos(lat1), distance_miles, bearing_rad)


def displace_from(lat1: float, lon1: float, sin_lat1: float,
                  cos_lat1: float, distance_miles: float,
                  bearing_rad: float) -> GeoPoint:
    """:func:`displace` from an origin given in radians with its
    latitude's sine and cosine precomputed: the one home of the
    formula, for callers that jitter many points around one city."""
    angular = distance_miles / EARTH_RADIUS_MILES
    lat2 = math.asin(
        sin_lat1 * math.cos(angular)
        + cos_lat1 * math.sin(angular) * math.cos(bearing_rad)
    )
    lon2 = lon1 + math.atan2(
        math.sin(bearing_rad) * math.sin(angular) * cos_lat1,
        math.cos(angular) - sin_lat1 * math.sin(lat2),
    )
    lon_deg = math.degrees(lon2)
    lon_deg = ((lon_deg + 180.0) % 360.0) - 180.0
    return GeoPoint(math.degrees(lat2), lon_deg)


def mean_distance_miles(
    origin: GeoPoint, points: Iterable[Tuple[GeoPoint, float]]
) -> float:
    """Weighted mean distance from ``origin`` to each (point, weight)."""
    total_weight = 0.0
    total = 0.0
    for point, weight in points:
        total += weight * great_circle_miles(origin, point)
        total_weight += weight
    if total_weight <= 0.0:
        raise ValueError("total weight must be positive")
    return total / total_weight
