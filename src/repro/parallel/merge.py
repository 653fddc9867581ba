"""The merge algebra: shard outputs -> one global result.

Everything a shard produces is mergeable without raw coordination,
each through its own algebra, always folding in fixed shard order
(0, 1, ..., n_shards-1) so float accumulation order -- and therefore
every exported byte -- is identical no matter how many processes ran:

* **registries** -- :meth:`repro.obs.metrics.MetricsRegistry.merge`
  (counters/gauges per their ``sum``/``max`` merge mode, histograms
  via moment accumulators);
* **RUM beacons** -- concatenate in shard order, stable-sort by day:
  the ``(day, shard, arrival)`` ordering incremental consumers need;
* **query logs** -- :meth:`repro.measurement.querylog.QueryLog.merge`
  (totals and per-bucket counts add, pair rows concatenate);
* **traces** -- span trees concatenate in shard order (each tree is
  already internally ordered by its per-trace span ids);
* **per-day tallies** -- plain integer sums;
* **day records** -- one day's shard records fold into the global
  record the monitor reads, through the algebras above.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.measurement.querylog import QueryLog
from repro.measurement.rum import RumCollector
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor.driver import DayRecord

#: The :class:`DayRecord` fields that are plain counts.
_DAY_COUNTS = ("sessions", "failed", "degraded", "shifted", "queries",
               "queries_public", "queries_total", "ecs_queries")


def merge_registries(
        registries: Sequence[MetricsRegistry]) -> MetricsRegistry:
    """Fold shard registries, in order, into a fresh one."""
    merged = MetricsRegistry()
    for registry in registries:
        merged.merge(registry)
    return merged


def merge_rum(collectors: Sequence[RumCollector]) -> RumCollector:
    """Fold shard beacon collectors into one, day-ordered."""
    merged = RumCollector()
    for collector in collectors:
        merged.merge(collector)
    return merged


def merge_query_logs(logs: Sequence[QueryLog]) -> QueryLog:
    """Fold shard query logs into a fresh one.

    Every shard watches the same authoritative/public endpoint sets
    (shards replicate the full infrastructure), so the merged log
    copies them from the first shard.
    """
    if not logs:
        return QueryLog(authoritative_ips=set())
    first = logs[0]
    merged = QueryLog(
        authoritative_ips=set(first.authoritative_ips),
        public_resolver_ips=set(first.public_resolver_ips),
        bucket_seconds=first.bucket_seconds,
    )
    if first._track_pairs:
        merged.track_pairs()
    for log in logs:
        merged.merge(log)
    return merged


def merge_traces(exports: Sequence[List[Dict]]) -> List[Dict]:
    """Concatenate shard trace exports in shard order."""
    merged: List[Dict] = []
    for export in exports:
        merged.extend(export)
    return merged


def merge_day_records(records: Sequence[DayRecord]) -> DayRecord:
    """Fold one day's shard records, in shard order, into one.

    Registries go through :func:`merge_registries`; beacons concatenate
    in shard order (the ``(day, shard, arrival)`` order
    :func:`merge_rum` gives the whole run); every count sums.
    """
    return DayRecord(
        day=records[0].day,
        registry=merge_registries([record.registry for record in records]),
        beacons=tuple(beacon for record in records
                      for beacon in record.beacons),
        **{name: sum(getattr(record, name) for record in records)
           for name in _DAY_COUNTS})


def sum_day_dicts(dicts: Iterable[Dict[int, int]]) -> Dict[int, int]:
    """Per-day integer tallies, summed across shards, day-sorted."""
    totals: Dict[int, int] = {}
    for per_day in dicts:
        for day, value in per_day.items():
            totals[day] = totals.get(day, 0) + value
    return {day: totals[day] for day in sorted(totals)}
