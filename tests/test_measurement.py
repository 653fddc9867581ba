"""Tests for NetSession, RUM, and query-log measurement systems."""

import datetime

import pytest

from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import make_query
from repro.measurement import (
    NetSessionCollector,
    PairKey,
    QueryLog,
    RumBeacon,
    RumCollector,
)
from repro.measurement.querylog import inflation_by_popularity
from repro.measurement.rum import expectation_splitter
from repro.net.ipv4 import Prefix
from repro.api import build_world
from repro.simulation import WorldConfig
from repro.topology import InternetConfig, build_internet


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=21)


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


class TestNetSessionGroundTruth:
    def test_covers_all_blocks(self, net):
        dataset = NetSessionCollector(net).collect_ground_truth()
        assert dataset.blocks_covered() == len(net.blocks)
        assert dataset.total_demand() == pytest.approx(net.total_demand)

    def test_frequencies_normalized_per_block(self, net):
        dataset = NetSessionCollector(net).collect_ground_truth()
        per_block = {}
        for obs in dataset.observations:
            per_block[obs.block] = per_block.get(obs.block, 0) + (
                obs.frequency)
        assert all(total == pytest.approx(1.0)
                   for total in per_block.values())

    def test_sampling_reduces_coverage(self, net):
        full = NetSessionCollector(net).collect_ground_truth()
        half = NetSessionCollector(net).collect_ground_truth(
            sample_fraction=0.5)
        assert 0 < half.blocks_covered() < full.blocks_covered()

    def test_filter_by_resolver_population(self, net):
        dataset = NetSessionCollector(net).collect_ground_truth()
        public = net.public_resolver_ids()
        pub_ds = dataset.filtered(public, keep=True)
        isp_ds = dataset.filtered(public, keep=False)
        assert len(pub_ds) + len(isp_ds) == len(dataset)
        assert all(o.resolver_id in public for o in pub_ds.observations)

    def test_distance_samples_parallel(self, net):
        dataset = NetSessionCollector(net).collect_ground_truth()
        distances, weights = dataset.distance_samples()
        assert len(distances) == len(weights) == len(dataset)

    def test_rejects_bad_fraction(self, net):
        with pytest.raises(ValueError):
            NetSessionCollector(net).collect_ground_truth(0)


class TestNetSessionViaDns:
    def test_dns_collection_matches_ground_truth(self, world):
        """The whoami-dig pipeline must discover the same pairings the
        topology assigned (modulo sampling of secondary LDNSes)."""
        collector = NetSessionCollector(world.internet)
        blocks = world.internet.blocks[:20]
        dataset = collector.collect_via_dns(
            world.network, world.ldns_registry, blocks=blocks,
            digs_per_block=6)
        assert dataset.blocks_covered() == len(blocks)
        truth = {b.prefix: {rid for rid, _ in b.ldns} for b in blocks}
        for obs in dataset.observations:
            assert obs.resolver_id in truth[obs.block]

    def test_dns_collection_distances_positive(self, world):
        collector = NetSessionCollector(world.internet)
        dataset = collector.collect_via_dns(
            world.network, world.ldns_registry,
            blocks=world.internet.blocks[:5], digs_per_block=3)
        assert all(o.distance_miles >= 0 for o in dataset.observations)


def beacon(day=0, high=True, public=True, rtt=100.0, distance=1000.0,
           ttfb=800.0, download=200.0):
    return RumBeacon(
        day=day, block=Prefix.parse("1.2.3.0/24"), country="IN",
        domain="www.p.example", high_expectation=high,
        via_public_resolver=public, dns_ms=30.0, rtt_ms=rtt,
        ttfb_ms=ttfb, download_ms=download,
        mapping_distance_miles=distance, server_ip=1, ecs_used=False)


class TestRumCollector:
    def test_daily_mean_series(self):
        rum = RumCollector()
        rum.record(beacon(day=0, rtt=100))
        rum.record(beacon(day=0, rtt=200))
        rum.record(beacon(day=1, rtt=50))
        series = rum.daily_mean("rtt_ms", high_expectation=True)
        assert series == [(0, 150.0), (1, 50.0)]

    def test_subset_filters(self):
        rum = RumCollector()
        rum.record(beacon(high=True, public=True))
        rum.record(beacon(high=False, public=True))
        rum.record(beacon(high=True, public=False))
        assert len(rum.subset(high_expectation=True, via_public=True)) == 1
        assert len(rum.subset(via_public=True)) == 2
        assert len(rum.subset()) == 3

    def test_day_range_half_open(self):
        rum = RumCollector()
        for day in range(5):
            rum.record(beacon(day=day))
        assert len(rum.subset(day_range=(1, 3))) == 2

    def test_percentile_and_cdf(self):
        rum = RumCollector()
        for rtt in (10, 20, 30, 40):
            rum.record(beacon(rtt=rtt))
        assert rum.percentile("rtt_ms", 0.5) in (20, 30)
        cdf = rum.cdf("rtt_ms", grid=[15, 45])
        assert cdf[0][1] == pytest.approx(0.25)
        assert cdf[1][1] == pytest.approx(1.0)

    def test_monthly_counts(self):
        rum = RumCollector()
        rum.record(beacon(day=0))
        rum.record(beacon(day=40, high=False))
        counts = rum.monthly_counts(datetime.date(2014, 1, 1))
        assert counts[("2014-01", True)] == 1
        assert counts[("2014-02", False)] == 1

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            RumCollector().percentile("rtt_ms", 0.5)

    def test_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            beacon().metric("bogus")

    def test_expectation_splitter(self):
        is_high = expectation_splitter({"IN": 2500.0, "KR": 30.0})
        assert is_high("IN") and not is_high("KR")
        assert not is_high("ZZ")  # unknown defaults to low


class TestQueryLog:
    def make_log(self):
        return QueryLog(authoritative_ips={100}, public_resolver_ips={50},
                        bucket_seconds=10.0)

    def test_counts_only_authoritative_destinations(self):
        log = self.make_log()
        query = make_query("a.cdn.example")
        log.record_query(0.0, 100, 50, query)
        log.record_query(0.0, 999, 50, query)
        assert log.total_queries == 1

    def test_public_split(self):
        log = self.make_log()
        query = make_query("a.cdn.example")
        log.record_query(0.0, 100, 50, query)   # public resolver
        log.record_query(0.0, 100, 60, query)   # other
        assert log.rate_in(0, 10) == pytest.approx(0.2)
        assert log.rate_in(0, 10, public_only=True) == pytest.approx(0.1)

    def test_ecs_counted(self):
        log = self.make_log()
        plain = make_query("a.cdn.example")
        with_ecs = make_query("a.cdn.example", ecs=ClientSubnetOption(
            Prefix.parse("9.9.9.0/24")))
        log.record_query(0.0, 100, 50, plain)
        log.record_query(0.0, 100, 50, with_ecs)
        assert log.ecs_queries == 1

    def test_series_buckets(self):
        log = self.make_log()
        query = make_query("a.cdn.example")
        log.record_query(5.0, 100, 50, query)
        log.record_query(15.0, 100, 50, query)
        log.record_query(16.0, 100, 50, query)
        assert log.series() == [(0, 0.1), (1, 0.2)]

    def test_pair_counts_in_window(self):
        log = self.make_log()
        log.track_pairs()
        query = make_query("a.cdn.example")
        log.record_query(1.0, 100, 50, query)
        log.record_query(2.0, 100, 50, query)
        log.record_query(99.0, 100, 50, query)
        pairs = log.pair_counts(0, 10)
        assert pairs == {PairKey("a.cdn.example", 50): 2}

    def test_rate_in_counts_silent_buckets(self):
        # One busy bucket, then silence: the rate falls as the window
        # spans more buckets.
        log = self.make_log()
        query = make_query("a.cdn.example")
        for _ in range(3):
            log.record_query(4.0, 100, 50, query)
        assert log.rate_in(0, 10) == pytest.approx(0.3)
        assert log.rate_in(0, 20) == pytest.approx(0.15)
        assert log.rate_in(0, 100) == pytest.approx(0.03)
        assert log.rate_in(0, 100, public_only=True) == pytest.approx(0.03)
        assert log.rate_in(10, 30) == 0.0
        # A window inside one bucket spans no whole bucket.
        assert log.rate_in(0, 5) == 0.0

    def test_rate_in_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            self.make_log().rate_in(5, 5)

    def test_reset(self):
        log = self.make_log()
        log.record_query(0.0, 100, 50, make_query("a.cdn.example"))
        log.reset()
        assert log.total_queries == 0
        assert log.series() == []


class TestInflationByPopularity:
    def test_basic_factors(self):
        key_hot = PairKey("hot.cdn.example", 1)
        key_cold = PairKey("cold.cdn.example", 1)
        before = {key_hot: 10, key_cold: 10}
        after = {key_hot: 80, key_cold: 12}
        rows = inflation_by_popularity(
            before, after,
            queries_per_ttl_before={key_hot: 0.95, key_cold: 0.05},
            n_buckets=10)
        assert len(rows) == 10
        top_bucket = rows[-1]
        bottom_bucket = rows[0]
        assert top_bucket[1] == pytest.approx(8.0)
        assert bottom_bucket[1] == pytest.approx(1.2)

    def test_missing_after_counts_as_zero(self):
        key = PairKey("gone.cdn.example", 1)
        rows = inflation_by_popularity({key: 5}, {},
                                       queries_per_ttl_before={key: 1.0})
        assert rows[-1][1] == 0.0

    def test_rejects_zero_buckets(self):
        with pytest.raises(ValueError):
            inflation_by_popularity({}, {}, n_buckets=0)
