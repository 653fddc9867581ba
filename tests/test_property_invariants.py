"""Property-based invariants on core data structures.

Hypothesis drives randomized workloads at the invariants the mapping
system relies on: LRU cache accounting, rendezvous-hash stability, ECS
cache scope exclusivity and counters against a brute-force model, and
deferred record aging against the eager spelling.
"""

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cdn.server import EdgeServer, LruCache
from repro.core.loadbalancer import LoadBalancerConfig, LocalLoadBalancer
from repro.cdn.deployments import Cluster
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType
from repro.dnssrv.cache import EcsAwareCache
from repro.dnssrv.recursive import RecursiveResolver
from repro.net.geometry import GeoPoint
from repro.net.ipv4 import prefix_of

keys = st.text(alphabet="abcdef", min_size=1, max_size=4)
sizes = st.integers(min_value=1, max_value=64)


class TestLruInvariants:
    @given(st.lists(st.tuples(keys, sizes), max_size=120))
    @settings(max_examples=150)
    def test_used_bytes_never_exceeds_capacity(self, operations):
        cache = LruCache(128)
        for key, size in operations:
            cache.access(key, size)
            assert 0 <= cache.used_bytes <= cache.capacity_bytes
            assert len(cache) <= cache.capacity_bytes

    @given(st.lists(st.tuples(keys, sizes), max_size=120))
    @settings(max_examples=100)
    def test_accounting_matches_contents(self, operations):
        cache = LruCache(256)
        sizes_seen = {}
        for key, size in operations:
            cache.access(key, size)
            sizes_seen[key] = size
        # used_bytes equals the sum of sizes of the keys still present
        # (each key was always inserted at one fixed size here... sizes
        # may differ across accesses, so recompute from the cache view).
        total = sum(size for key, size in cache._entries.items())
        assert total == cache.used_bytes

    @given(st.lists(st.tuples(keys, sizes), min_size=1, max_size=120))
    @settings(max_examples=100)
    def test_hits_plus_misses_equals_accesses(self, operations):
        cache = LruCache(128)
        for key, size in operations:
            cache.access(key, size)
        assert cache.stats.requests == len(operations)


class TestRendezvousInvariants:
    def make_cluster(self, n_servers):
        cluster = Cluster(cluster_id="c", city="X", country="US",
                          geo=GeoPoint(0, 0), asn=1)
        for i in range(n_servers):
            cluster.servers.append(
                EdgeServer(ip=1000 + i, cluster_id="c"))
        return cluster

    @given(st.integers(min_value=2, max_value=12),
           st.text(alphabet="xyz", min_size=1, max_size=6))
    @settings(max_examples=100)
    def test_choice_subset_of_live(self, n_servers, provider):
        cluster = self.make_cluster(n_servers)
        llb = LocalLoadBalancer(LoadBalancerConfig(servers_per_answer=2))
        chosen = llb.pick_servers(cluster, provider)
        assert len(chosen) == min(2, n_servers)
        assert all(s in cluster.servers for s in chosen)

    @given(st.integers(min_value=3, max_value=12),
           st.text(alphabet="xyz", min_size=1, max_size=6),
           st.integers(min_value=0, max_value=11))
    @settings(max_examples=100)
    def test_minimal_disruption(self, n_servers, provider, kill_index):
        """Killing one server changes at most the slot it occupied."""
        cluster = self.make_cluster(n_servers)
        llb = LocalLoadBalancer(LoadBalancerConfig(servers_per_answer=2))
        before = llb.pick_servers(cluster, provider)
        victim = cluster.servers[kill_index % n_servers]
        victim.fail()
        after = llb.pick_servers(cluster, provider)
        survivors_before = [s for s in before if s is not victim]
        for survivor in survivors_before:
            assert survivor in after
        victim.recover()


class TestEcsCacheInvariants:
    addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)

    @given(st.lists(st.tuples(addresses,
                              st.sampled_from([16, 20, 24])),
                    min_size=1, max_size=60))
    @settings(max_examples=100)
    def test_scoped_lookup_never_crosses_scopes(self, inserts):
        """A lookup for address A must never return an entry whose
        scope does not contain A."""
        cache = EcsAwareCache()
        record = ResourceRecord("x.example", QType.A, 60, ARdata(1))
        for addr, scope_len in inserts:
            cache.store("x.example", QType.A,
                        prefix_of(addr, scope_len), (record,), 60, 0)
        rng = random.Random(1)
        for _ in range(30):
            probe = rng.randrange(1 << 32)
            entry = cache.lookup("x.example", QType.A, probe, now=1)
            if entry is not None and entry.scope is not None:
                assert entry.scope.contains(probe)

    @given(st.lists(st.tuples(addresses,
                              st.sampled_from([16, 20, 24])),
                    min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_size_counts_distinct_scopes(self, inserts):
        cache = EcsAwareCache()
        record = ResourceRecord("x.example", QType.A, 60, ARdata(1))
        scopes = set()
        for addr, scope_len in inserts:
            scope = prefix_of(addr, scope_len)
            scopes.add(scope)
            cache.store("x.example", QType.A, scope, (record,), 60, 0)
        assert len(cache) == len(scopes)

    # Clients that share a /24, only a /20, only a /16, and nothing.
    pool = [0x0A010203, 0x0A0102C8, 0x0A010301, 0x0A014D01, 0x0A020001,
            0x63000001, None]
    cache_ops = st.lists(st.one_of(
        st.tuples(st.just("store"), st.sampled_from(pool[:-1]),
                  st.sampled_from([0, 16, 20, 24]),
                  st.sampled_from([0, 5, 30, 100]), st.booleans()),
        st.tuples(st.just("lookup"), st.sampled_from(pool)),
        st.tuples(st.just("lookup_stale"), st.sampled_from(pool)),
        st.tuples(st.just("tick"), st.sampled_from([0.5, 7, 40, 130])),
    ), max_size=80)

    @given(cache_ops, st.sampled_from([0.0, 120.0]))
    @settings(max_examples=300, deadline=None)
    def test_cache_agrees_with_a_brute_force_scan(self, ops, window):
        """Any interleaving of stores, lookups and stale lookups over an
        advancing clock returns the entry, and leaves the counters and
        the size, that a scan over every stored entry arrives at:
        longest live containing scope wins, the expired ones walked
        past on the way are pruned unless the stale window keeps them."""
        cache = EcsAwareCache(serve_stale_window=window)
        record = ResourceRecord("x.example", QType.A, 60, ARdata(1))
        model = {}  # scope (None = global) -> the stored entry
        expected = dict(hits=0, misses=0, expirations=0, stale_hits=0)
        now = 0.0

        def containing(addr):
            """Entries whose scope holds ``addr``, longest first."""
            found = [entry for scope, entry in model.items()
                     if scope is None
                     or (addr is not None and scope.contains(addr))]
            return sorted(found, reverse=True,
                          key=lambda e: e.scope.length if e.scope else -1)

        for op in ops:
            if op[0] == "tick":
                now += op[1]
            elif op[0] == "store":
                _, addr, length, ttl, negative = op
                scope = prefix_of(addr, length) if length else None
                model[scope] = cache.store(
                    "x.example", QType.A, scope,
                    () if negative else (record,), ttl, now)
            elif op[0] == "lookup":
                want = None
                for entry in containing(op[1]):
                    if now < entry.expires_at:
                        want = entry
                        break
                    if not now < entry.expires_at + window:
                        del model[entry.scope]
                        expected["expirations"] += 1
                expected["hits" if want else "misses"] += 1
                assert cache.lookup("x.example", QType.A, op[1],
                                    now) is want
            else:
                want = next(
                    (entry for entry in containing(op[1])
                     if entry.records and entry.expires_at <= now
                     < entry.expires_at + window), None)
                expected["stale_hits"] += want is not None
                assert cache.lookup_stale("x.example", QType.A, op[1],
                                          now) is want
            stats = cache.stats.as_dict()
            assert {key: stats[key] for key in expected} == expected
            assert len(cache) == len(model)
            assert set(map(id, cache.entries_for(
                "x.example", QType.A))) == set(map(id, model.values()))


class TestDeferredAging:
    ttls = st.lists(st.integers(min_value=0, max_value=400), min_size=1,
                    max_size=4)
    moments = st.floats(min_value=0, max_value=500, allow_nan=False)
    fractions = st.floats(min_value=0, max_value=1, exclude_max=True)

    @given(ttls, st.integers(min_value=1, max_value=400), moments,
           fractions)
    @settings(max_examples=300, deadline=None)
    def test_records_read_late_equal_records_aged_eagerly(
            self, ttls, entry_ttl, stored_at, fraction):
        """What ``RecursionResult.records`` materialises on first read
        is what ``CacheEntry.aged_records(now)`` computes on the spot,
        for a reader before the store's clock, within the TTLs and
        past some of them."""
        now = stored_at - 3 + fraction * (entry_ttl + 3)
        assume(now < stored_at + entry_ttl)  # else the entry is dead
        ldns = RecursiveResolver(1, network=None, directory=None)
        records = tuple(
            ResourceRecord("x.example", QType.A, ttl, ARdata(index))
            for index, ttl in enumerate(ttls))
        entry = ldns.cache.store("x.example", QType.A, None, records,
                                 entry_ttl, stored_at)
        result = ldns.resolve("x.example", QType.A, 7, now)
        assert result.cache_hit
        elapsed = max(0, int(now - stored_at))
        assert result.records == entry.aged_records(now) == tuple(
            ResourceRecord("x.example", QType.A, max(0, ttl - elapsed),
                           ARdata(index))
            for index, ttl in enumerate(ttls))
        assert result.addresses == list(range(len(ttls)))
