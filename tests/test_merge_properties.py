"""Property tests for the shard merge algebra, under seeded fuzzing.

``tests/test_metrics_merge.py`` pins the merge semantics on
hand-written cases; this suite drives the same algebra with hundreds
of seeded-random registries, histograms, and query logs and checks the
laws the sharded engine's determinism contract rests on:

* **commutativity** -- merging two shard outputs in either order
  exports the same snapshot (scalar sum/max commute; histogram
  exports depend only on the sample multiset, since both quantiles
  and compaction sort first);
* **associativity** -- grouping does not matter, so a merge tree and
  a left fold agree (all generated values are integral, keeping float
  accumulation exact regardless of grouping);
* **identity** -- an empty registry/log is a two-sided unit;
* **shard split == union** -- a stream of observations split
  round-robin across shards and merged back equals the registry that
  saw the whole stream.

Every test is parametrized over enough seeds that the file runs well
over two hundred generated cases while staying fast (no world builds,
pure in-memory instruments).
"""

import random

import pytest

from repro.measurement.querylog import QueryLog
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.parallel.merge import merge_query_logs, merge_registries

#: Name pools with the instrument kind and merge mode fixed per name,
#: as in production: a metric's kind/mode never varies across shards.
_COUNTERS = [("ctr.sum.%d" % i, "sum") for i in range(3)] + [
    ("ctr.max.%d" % i, "max") for i in range(2)]
_GAUGES = [("gauge.sum.%d" % i, "sum") for i in range(3)] + [
    ("gauge.max.%d" % i, "max") for i in range(2)]
_HISTOGRAMS = ["hist.%d" % i for i in range(3)]


def _random_registry(rng: random.Random) -> MetricsRegistry:
    """One shard's worth of instruments; integral values keep float
    accumulation exact under any merge grouping."""
    registry = MetricsRegistry()
    for name, mode in _COUNTERS:
        if rng.random() < 0.7:
            registry.counter(name, merge=mode).inc(rng.randint(0, 1000))
    for name, mode in _GAUGES:
        if rng.random() < 0.7:
            # Max-mode gauges stay non-negative: a missing instrument
            # merges as the zero instrument, so max-merge is only an
            # identity above zero (all replicated gauges -- map
            # version, roll-out day, load shares -- are counts).
            low = 0 if mode == "max" else -50
            registry.gauge(name, merge=mode).set(rng.randint(low, 50))
    for name in _HISTOGRAMS:
        if rng.random() < 0.7:
            hist = registry.histogram(name)
            for _ in range(rng.randint(1, 30)):
                hist.observe(rng.randint(0, 1000), rng.randint(1, 5))
    return registry


@pytest.mark.parametrize("seed", range(60))
def test_merge_commutes(seed):
    rng = random.Random(seed)
    a, b = _random_registry(rng), _random_registry(rng)
    ab = merge_registries([a, b]).snapshot()
    ba = merge_registries([b, a]).snapshot()
    assert ab == ba


@pytest.mark.parametrize("seed", range(60))
def test_merge_associates(seed):
    rng = random.Random(1000 + seed)
    a, b, c = (_random_registry(rng) for _ in range(3))
    left_fold = merge_registries([a, b, c]).snapshot()
    right_tree = MetricsRegistry().merge(a).merge(
        merge_registries([b, c])).snapshot()
    assert left_fold == right_tree


@pytest.mark.parametrize("seed", range(40))
def test_empty_registry_is_two_sided_identity(seed):
    rng = random.Random(2000 + seed)
    registry = _random_registry(rng)
    plain = registry.snapshot()
    assert merge_registries([registry, MetricsRegistry()]
                            ).snapshot() == plain
    assert merge_registries([MetricsRegistry(), registry]
                            ).snapshot() == plain


@pytest.mark.parametrize("seed", range(40))
def test_shard_split_equals_union(seed):
    """The headline determinism property, fuzzed: a stream split
    round-robin across shards then merged equals the union run."""
    rng = random.Random(3000 + seed)
    n_shards = rng.randint(2, 5)
    stream = []
    for _ in range(rng.randint(20, 120)):
        kind = rng.randrange(3)
        if kind == 0:
            # Split activity only makes sense for sum-mode counters;
            # max-mode models state replicated in *every* shard, so
            # those events land on all shards below.
            name = "ctr.sum.%d" % rng.randrange(3)
            stream.append(("counter", name, rng.randint(0, 100)))
        elif kind == 1:
            name = rng.choice(_HISTOGRAMS)
            stream.append(("hist", name, rng.randint(0, 1000),
                           rng.randint(1, 5)))
        else:
            stream.append(("replicated", "gauge.max.0",
                           rng.randint(0, 50)))

    shards = [MetricsRegistry() for _ in range(n_shards)]
    union = MetricsRegistry()
    for index, event in enumerate(stream):
        if event[0] == "replicated":
            _, name, value = event
            targets = shards + [union]
        else:
            targets = [shards[index % n_shards], union]
        for registry in targets:
            if event[0] == "counter":
                _, name, amount = event
                registry.counter(name, merge="sum").inc(amount)
            elif event[0] == "hist":
                _, name, value, weight = event
                registry.histogram(name).observe(value, weight)
            else:
                gauge = registry.gauge(name, merge="max")
                gauge.set(max(gauge.value, value))
    assert merge_registries(shards).snapshot() == union.snapshot()


@pytest.mark.parametrize("seed", range(20))
def test_histogram_compaction_is_order_insensitive(seed):
    """Past ``max_samples`` the retained sample compacts, but the
    compaction sorts first, so the merged export still depends only
    on the observation multiset, not the merge order."""
    rng = random.Random(4000 + seed)
    observations = [(rng.randint(0, 500), rng.randint(1, 3))
                    for _ in range(64)]
    split = rng.randint(1, 63)

    def _merged(first, second):
        a, b = Histogram("h", max_samples=16), Histogram(
            "h", max_samples=16)
        for value, weight in first:
            a.observe(value, weight)
        for value, weight in second:
            b.observe(value, weight)
        a.merge(b)
        return a

    ab = _merged(observations[:split], observations[split:])
    ba = _merged(observations[split:], observations[:split])
    assert len(ab._values) <= 16
    assert ab.snapshot() == ba.snapshot()


def _random_query_log(rng: random.Random,
                      events: int) -> QueryLog:
    log = QueryLog(authoritative_ips={1}, public_resolver_ips={2})
    log.track_pairs()
    _replay_queries(log, rng, events)
    return log


class _Question:
    def __init__(self, name):
        self.name = name


class _Message:
    """The three attributes ``QueryLog.record_query`` reads."""

    def __init__(self, qname, subnet):
        self.questions = [qname]
        self.question = _Question(qname)
        self.client_subnet = subnet


def _replay_queries(log: QueryLog, rng: random.Random,
                    events: int) -> None:
    for _ in range(events):
        now = rng.randint(0, 9) * 86400.0 + rng.randint(0, 86399)
        src = rng.choice((2, 3))
        subnet = ("10.0.0.0/24",) if rng.random() < 0.5 else None
        log.record_query(now, dst_ip=1, src_ip=src,
                         message=_Message("www.example.com.", subnet))


@pytest.mark.parametrize("seed", range(30))
def test_query_log_merge_commutes_and_sums(seed):
    rng = random.Random(5000 + seed)
    a = _random_query_log(rng, rng.randint(5, 60))
    b = _random_query_log(rng, rng.randint(5, 60))
    ab = merge_query_logs([a, b])
    ba = merge_query_logs([b, a])
    assert ab.total_queries == a.total_queries + b.total_queries
    assert ab.ecs_queries == a.ecs_queries + b.ecs_queries
    assert ab.series() == ba.series()
    assert ab.series(public_only=True) == ba.series(public_only=True)
    for bucket in ab.buckets():
        assert ab.bucket_count(bucket) == (a.bucket_count(bucket)
                                           + b.bucket_count(bucket))
    # Pair rows concatenate; consumers only see per-pair counts.
    window = (0.0, 10 * 86400.0)
    assert ab.pair_counts(*window) == ba.pair_counts(*window)


@pytest.mark.parametrize("seed", range(10))
def test_query_log_empty_is_identity(seed):
    rng = random.Random(6000 + seed)
    log = _random_query_log(rng, rng.randint(5, 40))
    empty = QueryLog(authoritative_ips={1}, public_resolver_ips={2})
    empty.track_pairs()
    merged = merge_query_logs([log, empty])
    assert merged.total_queries == log.total_queries
    assert merged.series() == log.series()
    assert merge_query_logs([empty, log]).series() == log.series()


@pytest.mark.parametrize("seed", range(10))
def test_query_log_shard_split_equals_union(seed):
    rng = random.Random(7000 + seed)
    n_shards = rng.randint(2, 4)
    events = []
    for _ in range(rng.randint(10, 80)):
        now = rng.randint(0, 9) * 86400.0 + rng.randint(0, 86399)
        src = rng.choice((2, 3))
        subnet = ("10.0.0.0/24",) if rng.random() < 0.5 else None
        events.append((now, src, subnet))

    def _fresh():
        log = QueryLog(authoritative_ips={1}, public_resolver_ips={2})
        log.track_pairs()
        return log

    shards = [_fresh() for _ in range(n_shards)]
    union = _fresh()
    for index, (now, src, subnet) in enumerate(events):
        for log in (shards[index % n_shards], union):
            log.record_query(now, dst_ip=1, src_ip=src,
                             message=_Message("www.example.com.",
                                              subnet))
    merged = merge_query_logs(shards)
    assert merged.total_queries == union.total_queries
    assert merged.ecs_queries == union.ecs_queries
    assert merged.series() == union.series()
    assert merged.series(public_only=True) == union.series(
        public_only=True)
