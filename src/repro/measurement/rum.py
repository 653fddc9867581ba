"""Real User Measurement (RUM) analog.

The paper's RUM system injects JavaScript into delivered pages and
collects navigation-timing milestones from inside the client's browser
(Section 4.2).  Our session model emits the same milestones per page
download; this module is the beacon format plus the aggregation
queries the Section 4 figures need: daily means, before/after CDFs, and
monthly measurement volumes, split by expectation group.
"""

from __future__ import annotations

import bisect
import datetime
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.net.ipv4 import Prefix

#: Metric accessor names usable with the aggregation helpers.
METRICS = ("mapping_distance_miles", "rtt_ms", "ttfb_ms", "download_ms",
           "dns_ms")


@dataclass(slots=True)
class RumBeacon:
    """One page-download measurement from one client.

    Written once, when the session that measured it ends, and never
    after; not frozen, because a frozen constructor pays a call per
    field."""

    day: int
    """Simulated day index (0 = first day of the timeline)."""
    block: Prefix
    country: str
    domain: str
    high_expectation: bool
    """Country group per Section 4.1.1 (median public-resolver
    client--LDNS distance above 1000 miles)."""
    via_public_resolver: bool
    dns_ms: float
    rtt_ms: float
    ttfb_ms: float
    download_ms: float
    mapping_distance_miles: float
    server_ip: int
    ecs_used: bool

    def metric(self, name: str) -> float:
        if name not in METRICS:
            raise KeyError(f"unknown RUM metric {name!r}")
        return float(getattr(self, name))


@dataclass
class RumCollector:
    """Beacon store with the aggregation queries the figures use."""

    beacons: List[RumBeacon] = field(default_factory=list)

    def record(self, beacon: RumBeacon) -> None:
        self.beacons.append(beacon)

    def merge(self, other: "RumCollector") -> "RumCollector":
        """Fold another collector's beacons into this one, re-ordered.

        Beacons concatenate then stable-sort by day, so merging shard
        collectors in fixed shard order yields one deterministic
        ``(day, shard, arrival)`` ordering -- the order merged day
        records hand the monitor its beacons in.  Returns ``self`` for
        chaining.
        """
        self.beacons.extend(other.beacons)
        self.beacons.sort(key=lambda beacon: beacon.day)
        return self

    def __len__(self) -> int:
        return len(self.beacons)

    # -- filters -----------------------------------------------------------

    def subset(
        self,
        high_expectation: Optional[bool] = None,
        via_public: Optional[bool] = None,
        day_range: Optional[Tuple[int, int]] = None,
    ) -> List[RumBeacon]:
        """Beacons matching the filters (day_range is [lo, hi))."""
        out = []
        for beacon in self.beacons:
            if (high_expectation is not None
                    and beacon.high_expectation != high_expectation):
                continue
            if (via_public is not None
                    and beacon.via_public_resolver != via_public):
                continue
            if day_range is not None and not (
                    day_range[0] <= beacon.day < day_range[1]):
                continue
            out.append(beacon)
        return out

    # -- aggregations ------------------------------------------------------

    def daily_mean(
        self,
        metric: str,
        high_expectation: Optional[bool] = None,
        via_public: Optional[bool] = True,
    ) -> List[Tuple[int, float]]:
        """(day, mean metric) series -- the Figure 13/15/17/19 shape."""
        sums: Dict[int, float] = {}
        counts: Dict[int, int] = {}
        for beacon in self.subset(high_expectation, via_public):
            sums[beacon.day] = sums.get(beacon.day, 0.0) + beacon.metric(
                metric)
            counts[beacon.day] = counts.get(beacon.day, 0) + 1
        return [(day, sums[day] / counts[day]) for day in sorted(sums)]

    def metric_values(
        self,
        metric: str,
        high_expectation: Optional[bool] = None,
        via_public: Optional[bool] = True,
        day_range: Optional[Tuple[int, int]] = None,
    ) -> List[float]:
        return [b.metric(metric)
                for b in self.subset(high_expectation, via_public,
                                     day_range)]

    def monthly_counts(
        self,
        start_date: datetime.date,
        via_public: Optional[bool] = True,
    ) -> Dict[Tuple[str, bool], int]:
        """Measurements per (month, expectation group) -- Figure 12."""
        out: Dict[Tuple[str, bool], int] = {}
        for beacon in self.subset(via_public=via_public):
            date = start_date + datetime.timedelta(days=beacon.day)
            key = (f"{date.year}-{date.month:02d}", beacon.high_expectation)
            out[key] = out.get(key, 0) + 1
        return out

    def percentile(
        self,
        metric: str,
        q: float,
        high_expectation: Optional[bool] = None,
        via_public: Optional[bool] = True,
        day_range: Optional[Tuple[int, int]] = None,
    ) -> float:
        """Unweighted percentile over beacons (RUM counts measurements,
        not demand -- each beacon IS one real download)."""
        values = sorted(self.metric_values(metric, high_expectation,
                                           via_public, day_range))
        if not values:
            raise ValueError("no beacons match the filters")
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        index = min(int(q * len(values)), len(values) - 1)
        return values[index]

    def cdf(
        self,
        metric: str,
        grid: Sequence[float],
        high_expectation: Optional[bool] = None,
        via_public: Optional[bool] = True,
        day_range: Optional[Tuple[int, int]] = None,
    ) -> List[Tuple[float, float]]:
        """Empirical CDF of a metric on a grid -- the Figure 14/16/18/20
        shape ('cumulative percent of RUM measurements')."""
        values = sorted(self.metric_values(metric, high_expectation,
                                           via_public, day_range))
        if not values:
            raise ValueError("no beacons match the filters")
        n = len(values)
        return [(float(x), bisect.bisect_right(values, x) / n)
                for x in grid]


def expectation_splitter(
    median_public_distance_by_country: Dict[str, float],
    threshold_miles: float = 1000.0,
) -> Callable[[str], bool]:
    """Country -> high/low expectation classifier (Section 4.1.1).

    High expectation = median client--public-resolver distance above
    the threshold.  Countries without public-resolver data default to
    low expectation.
    """
    def is_high(country: str) -> bool:
        return median_public_distance_by_country.get(
            country, 0.0) > threshold_miles
    return is_high
