"""Authoritative-side DNS query accounting.

The mapping system's name servers log every query they receive; the
paper aggregates those logs into queries-per-second series (Figures 2
and 23) and per-(domain, LDNS) query counts used to compute the
query-rate inflation factor after the ECS roll-out (Figure 24).

This module implements :class:`repro.dnssrv.transport.QuerySink` and is
attached to the simulated network, so it sees exactly the queries the
authoritative servers see.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.dnsproto.message import Message


@dataclass(frozen=True, slots=True)
class PairKey:
    """A (domain name, LDNS address) pair -- Figure 24's unit."""

    qname: str
    ldns_ip: int


@dataclass
class QueryLog:
    """Aggregating sink for queries at the CDN's authoritative servers."""

    authoritative_ips: Set[int]
    """Only queries addressed to these endpoints are counted."""
    public_resolver_ips: Set[int] = field(default_factory=set)
    bucket_seconds: float = 86400.0
    """Aggregation bucket (one simulated day by default)."""

    total_queries: int = 0
    ecs_queries: int = 0
    _buckets_total: Dict[int, int] = field(default_factory=dict)
    _buckets_public: Dict[int, int] = field(default_factory=dict)
    _pair_counts: List[Tuple[float, PairKey]] = field(default_factory=list)
    _track_pairs: bool = False

    # -- QuerySink interface ------------------------------------------------

    def record_query(self, now: float, dst_ip: int, src_ip: int,
                     message: Message) -> None:
        if dst_ip not in self.authoritative_ips:
            return
        if not message.questions:
            return
        self.total_queries += 1
        if message.client_subnet is not None:
            self.ecs_queries += 1
        bucket = int(now // self.bucket_seconds)
        self._buckets_total[bucket] = self._buckets_total.get(bucket, 0) + 1
        if src_ip in self.public_resolver_ips:
            self._buckets_public[bucket] = self._buckets_public.get(
                bucket, 0) + 1
        if self._track_pairs:
            self._pair_counts.append(
                (now, PairKey(message.question.name, src_ip)))

    # -- pair tracking (Figure 24) -----------------------------------------

    def track_pairs(self) -> None:
        self._track_pairs = True

    def pair_counts(self, t_lo: float,
                    t_hi: float) -> Dict[PairKey, int]:
        """Queries per (domain, LDNS) pair within [t_lo, t_hi)."""
        out: Dict[PairKey, int] = {}
        for when, key in self._pair_counts:
            if t_lo <= when < t_hi:
                out[key] = out.get(key, 0) + 1
        return out

    # -- series accessors ----------------------------------------------------

    def buckets(self) -> List[int]:
        return sorted(self._buckets_total)

    def bucket_count(self, bucket: int, public_only: bool = False) -> int:
        """Queries in one bucket -- O(1), unlike :meth:`rate_in` which
        scans every bucket (per-day monitors poll this per step)."""
        source = self._buckets_public if public_only else (
            self._buckets_total)
        return source.get(bucket, 0)

    def ecs_share(self) -> float:
        """Fraction of all counted queries that carried client-subnet."""
        return (self.ecs_queries / self.total_queries
                if self.total_queries else 0.0)

    def series(
        self, public_only: bool = False
    ) -> List[Tuple[int, float]]:
        """(bucket index, queries per second) time series."""
        source = self._buckets_public if public_only else (
            self._buckets_total)
        return [(bucket, count / self.bucket_seconds)
                for bucket, count in sorted(source.items())]

    def rate_in(self, t_lo: float, t_hi: float,
                public_only: bool = False) -> float:
        """Mean queries/second over the buckets ``[t_lo, t_hi)`` spans,
        from the one holding ``t_lo`` to the one before ``t_hi``'s: a
        bucket that logged no query counts as a silent one."""
        if t_hi <= t_lo:
            raise ValueError("empty interval")
        source = self._buckets_public if public_only else (
            self._buckets_total)
        lo_bucket = int(t_lo // self.bucket_seconds)
        hi_bucket = int(t_hi // self.bucket_seconds)
        if hi_bucket <= lo_bucket:
            return 0.0
        total = sum(count for bucket, count in source.items()
                    if lo_bucket <= bucket < hi_bucket)
        return total / ((hi_bucket - lo_bucket) * self.bucket_seconds)

    def merge(self, other: "QueryLog") -> "QueryLog":
        """Fold another log's accounting into this one.

        The sharded engine gives every worker its own sink over its own
        sub-population, then merges in fixed shard order: totals and
        per-bucket counts add; pair rows concatenate in merge order
        (every consumer aggregates them into per-pair counts, so the
        row order never surfaces).  Merging an empty log is the
        identity.  Returns ``self`` for chaining.
        """
        self.total_queries += other.total_queries
        self.ecs_queries += other.ecs_queries
        for bucket, count in sorted(other._buckets_total.items()):
            self._buckets_total[bucket] = (
                self._buckets_total.get(bucket, 0) + count)
        for bucket, count in sorted(other._buckets_public.items()):
            self._buckets_public[bucket] = (
                self._buckets_public.get(bucket, 0) + count)
        self._pair_counts.extend(other._pair_counts)
        return self

    def reset(self) -> None:
        self.total_queries = 0
        self.ecs_queries = 0
        self._buckets_total.clear()
        self._buckets_public.clear()
        self._pair_counts.clear()


def inflation_by_popularity(
    before: Dict[PairKey, int],
    after: Dict[PairKey, int],
    queries_per_ttl_before: Optional[Dict[PairKey, float]] = None,
    n_buckets: int = 10,
) -> List[Tuple[float, float, int]]:
    """Figure 24's aggregation: query-rate inflation vs popularity.

    Buckets pairs by their pre-roll-out popularity (queries per TTL,
    capped at 1.0 since a non-ECS LDNS asks at most once per TTL) and
    returns (bucket upper edge, mean inflation factor, pairs in
    bucket).  Pairs absent after the roll-out contribute factor 0 and
    pairs absent before are skipped (no baseline).
    """
    if n_buckets < 1:
        raise ValueError("need at least one bucket")
    buckets: Dict[int, List[float]] = {}
    for key, count_before in before.items():
        if count_before <= 0:
            continue
        popularity = 1.0
        if queries_per_ttl_before is not None:
            popularity = min(1.0, queries_per_ttl_before.get(key, 0.0))
        factor = after.get(key, 0) / count_before
        index = min(int(popularity * n_buckets), n_buckets - 1)
        buckets.setdefault(index, []).append(factor)
    out = []
    for index in range(n_buckets):
        factors = buckets.get(index, [])
        edge = (index + 1) / n_buckets
        mean = sum(factors) / len(factors) if factors else 0.0
        out.append((edge, mean, len(factors)))
    return out
