"""Tests for the ECS-aware cache (RFC 7871 scope semantics)."""

import pytest

import repro.dnssrv.cache as cache_module
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType
from repro.dnssrv.cache import EcsAwareCache, client_subnet_of
from repro.net.ipv4 import Prefix, parse_ipv4


def a_records(addr="1.2.3.4", ttl=60, name="foo.net"):
    return (ResourceRecord(name, QType.A, ttl, ARdata(parse_ipv4(addr))),)


CLIENT_A = parse_ipv4("9.9.9.10")       # 9.9.9.0/24
CLIENT_B = parse_ipv4("9.9.9.200")      # same /24
CLIENT_C = parse_ipv4("9.9.42.1")       # different /24, same /16
CLIENT_D = parse_ipv4("99.0.0.1")       # different /8


class TestScopedLookup:
    def test_global_entry_matches_everyone(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(), 60, now=0)
        for client in (CLIENT_A, CLIENT_C, CLIENT_D, None):
            assert cache.lookup("foo.net", QType.A, client, 1) is not None

    def test_scoped_entry_matches_only_its_block(self):
        cache = EcsAwareCache()
        scope = Prefix.parse("9.9.9.0/24")
        cache.store("foo.net", QType.A, scope, a_records(), 60, now=0)
        assert cache.lookup("foo.net", QType.A, CLIENT_A, 1) is not None
        assert cache.lookup("foo.net", QType.A, CLIENT_B, 1) is not None
        assert cache.lookup("foo.net", QType.A, CLIENT_C, 1) is None
        assert cache.lookup("foo.net", QType.A, CLIENT_D, 1) is None

    def test_scoped_entry_never_matches_clientless_lookup(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, Prefix.parse("9.9.9.0/24"),
                    a_records(), 60, now=0)
        assert cache.lookup("foo.net", QType.A, None, 1) is None

    def test_longest_scope_wins(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records("1.1.1.1"), 60, 0)
        cache.store("foo.net", QType.A, Prefix.parse("9.9.0.0/16"),
                    a_records("2.2.2.2"), 60, 0)
        cache.store("foo.net", QType.A, Prefix.parse("9.9.9.0/24"),
                    a_records("3.3.3.3"), 60, 0)
        entry = cache.lookup("foo.net", QType.A, CLIENT_A, 1)
        assert str(entry.records[0].rdata) == "3.3.3.3"
        entry = cache.lookup("foo.net", QType.A, CLIENT_C, 1)
        assert str(entry.records[0].rdata) == "2.2.2.2"
        entry = cache.lookup("foo.net", QType.A, CLIENT_D, 1)
        assert str(entry.records[0].rdata) == "1.1.1.1"

    def test_distinct_names_isolated(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(), 60, 0)
        assert cache.lookup("bar.net", QType.A, CLIENT_A, 1) is None

    def test_distinct_types_isolated(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(), 60, 0)
        assert cache.lookup("foo.net", QType.CNAME, CLIENT_A, 1) is None


class TestExpiry:
    def test_entry_expires_at_ttl(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(ttl=60), 60, now=0)
        assert cache.lookup("foo.net", QType.A, CLIENT_A, 59.9) is not None
        assert cache.lookup("foo.net", QType.A, CLIENT_A, 60.0) is None

    def test_aged_records_ttl_decreases(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(ttl=60), 60, now=0)
        entry = cache.lookup("foo.net", QType.A, CLIENT_A, 42)
        assert entry.aged_records(42)[0].ttl == 18

    def test_expired_entries_counted(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(), 10, now=0)
        cache.lookup("foo.net", QType.A, CLIENT_A, 100)
        assert cache.stats.expirations == 1
        assert len(cache) == 0

    def test_rejects_negative_ttl(self):
        with pytest.raises(ValueError):
            EcsAwareCache().store("x", QType.A, None, (), -1, 0)


class TestStoreSemantics:
    def test_same_scope_replaces(self):
        cache = EcsAwareCache()
        scope = Prefix.parse("9.9.9.0/24")
        cache.store("foo.net", QType.A, scope, a_records("1.1.1.1"), 60, 0)
        cache.store("foo.net", QType.A, scope, a_records("2.2.2.2"), 60, 5)
        assert len(cache) == 1
        entry = cache.lookup("foo.net", QType.A, CLIENT_A, 6)
        assert str(entry.records[0].rdata) == "2.2.2.2"

    def test_different_scopes_accumulate(self):
        """The paper's query-inflation driver: one name, many entries."""
        cache = EcsAwareCache()
        for third_octet in range(10):
            scope = Prefix.parse(f"9.9.{third_octet}.0/24")
            cache.store("foo.net", QType.A, scope, a_records(), 60, 0)
        assert len(cache) == 10
        assert cache.scope_count("foo.net", QType.A, now=1) == 10

    def test_scope_count_ignores_dead_entries(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, Prefix.parse("9.9.9.0/24"),
                    a_records(), 10, 0)
        cache.store("foo.net", QType.A, Prefix.parse("9.9.8.0/24"),
                    a_records(), 100, 0)
        assert cache.scope_count("foo.net", QType.A, now=50) == 1

    def test_eviction_bounds_size(self):
        cache = EcsAwareCache(max_entries=10)
        for i in range(25):
            cache.store(f"name{i}.net", QType.A, None, a_records(),
                        60 + i, now=0)
        assert len(cache) <= 10
        assert cache.stats.evictions >= 15

    def test_eviction_prefers_earliest_expiry(self):
        cache = EcsAwareCache(max_entries=2)
        cache.store("short.net", QType.A, None, a_records(), 10, 0)
        cache.store("long.net", QType.A, None, a_records(), 1000, 0)
        cache.store("mid.net", QType.A, None, a_records(), 100, 0)
        assert cache.lookup("short.net", QType.A, None, 1) is None
        assert cache.lookup("long.net", QType.A, None, 1) is not None

    def test_a_store_to_a_held_name_builds_no_slot(self, monkeypatch):
        """One ``_NameSlot`` per (name, type) the cache holds: a store
        to a held name builds none, and counting the slots changes no
        stat and no eviction choice."""
        built = []
        original = cache_module._NameSlot.__init__

        def counting(slot):
            built.append(slot)
            original(slot)

        monkeypatch.setattr(cache_module._NameSlot, "__init__", counting)
        cache = EcsAwareCache(max_entries=3)
        for third_octet, ttl in ((1, 50), (2, 10), (3, 30)):
            cache.store("foo.net", QType.A,
                        Prefix.parse(f"9.9.{third_octet}.0/24"),
                        a_records(), ttl, 0)
        assert len(built) == 1
        cache.store("foo.net", QType.A, None, a_records(), 40, 0)
        assert len(built) == 1
        cache.store("bar.net", QType.A, None, a_records(), 20, 0)
        assert len(built) == 2
        # Over the bound twice, each time the earliest expiry went:
        # foo's 9.9.2.0/24 (10 s), then bar.net itself (20 s).
        assert cache.stats.as_dict() == {
            "hits": 0, "misses": 0, "lookups": 0, "insertions": 5,
            "evictions": 2, "expirations": 0, "stale_hits": 0}
        held = sorted((str(entry.scope), entry.expires_at)
                      for entry in cache.entries_for("foo.net", QType.A))
        assert held == [("9.9.1.0/24", 50), ("9.9.3.0/24", 30),
                        ("None", 40)]
        assert cache.entries_for("bar.net", QType.A) == []

    def test_flush(self):
        cache = EcsAwareCache()
        cache.store("foo.net", QType.A, None, a_records(), 60, 0)
        cache.flush()
        assert len(cache) == 0
        assert cache.lookup("foo.net", QType.A, None, 1) is None


class TestStats:
    def test_hit_and_miss_accounting(self):
        cache = EcsAwareCache()
        cache.lookup("foo.net", QType.A, CLIENT_A, 0)
        cache.store("foo.net", QType.A, None, a_records(), 60, 0)
        cache.lookup("foo.net", QType.A, CLIENT_A, 1)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_hit_rate_empty(self):
        assert EcsAwareCache().stats.hit_rate == 0.0


class TestClientSubnetOf:
    def test_default_slash24(self):
        assert client_subnet_of(parse_ipv4("1.2.3.77")) == Prefix.parse(
            "1.2.3.0/24")

    def test_custom_length(self):
        assert client_subnet_of(parse_ipv4("1.2.3.77"), 20) == Prefix.parse(
            "1.2.0.0/20")
