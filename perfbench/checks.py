"""Output checks: result digests, conservation laws, the paper's shape.

No golden digest is pinned here -- ROADMAP item 1 will legitimately
re-seed the serial stream.  A digest only has to *agree*: across the
passes and reps of one seed, between traced and untraced passes, and
between ``workers=1`` and ``workers=2``.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List

#: Figure 13: public-resolver clients are mapped far closer once the
#: roll-out completes.  The prototype measured 3.6-5.7x over three
#: seeds, so "under half" holds with room on any seed.
PAPER_SHAPE_MAX_RATIO = 0.5


def digest(document) -> str:
    """sha256 of the canonical JSON of ``document``."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _by_day(series: Dict[int, int]) -> Dict[str, int]:
    return {str(day): int(count) for day, count in series.items()}


def rollout_document(result, snapshot: Dict) -> Dict:
    """What a roll-out's digest covers: the per-day tallies, the beacon
    count, and the registry's counters and gauges."""
    return {
        "sessions": _by_day(result.sessions_per_day),
        "requests": _by_day(result.requests_per_day),
        "failed": _by_day(result.failed_sessions_per_day),
        "degraded": _by_day(result.degraded_sessions_per_day),
        "catchment_shifted": _by_day(result.catchment_shifted_per_day),
        "ecs_resolvers": _by_day(result.ecs_resolvers_per_day),
        "beacons": len(result.rum.beacons),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
    }


def cache_conservation(gauges: Dict[str, float]) -> List[str]:
    """Every LDNS cache lookup is a hit or a miss."""
    hits = gauges["ldns.cache.hits"]
    misses = gauges["ldns.cache.misses"]
    lookups = gauges["ldns.cache.lookups"]
    if hits + misses != lookups:
        return [f"cache hits {hits:.0f} + misses {misses:.0f} "
                f"!= lookups {lookups:.0f}"]
    return []


def rollout_conservation(result) -> List[str]:
    """Every session of a day either beaconed or failed."""
    beacons: Dict[int, int] = {}
    for beacon in result.rum.beacons:
        beacons[beacon.day] = beacons.get(beacon.day, 0) + 1
    problems = []
    for day, sessions in result.sessions_per_day.items():
        failed = result.failed_sessions_per_day.get(day, 0)
        if sessions != beacons.get(day, 0) + failed:
            problems.append(
                f"day {day}: {sessions} sessions != "
                f"{beacons.get(day, 0)} beacons + {failed} failed")
    return problems


def paper_shape(result) -> List[str]:
    """Mean mapping distance of via-public sessions after the roll-out
    is under half of what it was before (paper Figure 13)."""
    def mean_distance(window) -> float:
        first, last = window
        miles = [beacon.mapping_distance_miles
                 for beacon in result.rum.beacons
                 if beacon.via_public_resolver
                 and first <= beacon.day < last]
        if not miles:
            raise ValueError(f"no via-public beacons in days {window}")
        return sum(miles) / len(miles)

    try:
        before = mean_distance(result.before_window)
        after = mean_distance(result.after_window)
    except ValueError as error:
        return [f"paper shape: {error}"]
    if not after < PAPER_SHAPE_MAX_RATIO * before:
        return [f"paper shape: via-public mapping distance went "
                f"{before:.0f} -> {after:.0f} mi, not under "
                f"{PAPER_SHAPE_MAX_RATIO:g}x"]
    return []
