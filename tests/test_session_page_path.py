"""Differential test: the compiled page path against the per-object loop.

``repro.simulation.session._serve_page`` serves a page through its
:class:`~repro.cdn.content.PagePlan` with one edge-cache call.  Its
oracle is the per-object loop it replaced, copied here verbatim: one
``LruCache.access`` per cacheable request, a bare miss per
non-cacheable one, and the same float arithmetic.  Every page of the
``tiny`` catalog is served by both, on twin edge servers, through cold,
warm, evicting and undersized caches; the milestones must be
bit-identical and the caches (stats and LRU order) equal.
"""

import random

import pytest

from repro.api import build_world
from repro.cdn.content import (
    PARALLEL_CONNECTIONS,
    ContentProvider,
    EmbeddedObject,
    WebPage,
)
from repro.cdn.origin import OriginServer
from repro.cdn.server import EdgeServer
from repro.net.geometry import GeoPoint
from repro.simulation import session as session_module
from repro.simulation.session import (
    EDGE_PROCESS_MS,
    TCP_WINDOW_BYTES,
    simulate_session,
)
from repro.simulation.world import WorldConfig


def oracle_serve_page(server, origin, edge_origin_rtt, rtt, provider, page):
    """The per-object page loop as it was before the page plan."""
    base_key = f"{provider.name}{page.url}#base"
    cache_hits = 0
    if page.dynamic:
        server_time = origin.fetch_time_ms(edge_origin_rtt,
                                           page.origin_think_ms)
    else:
        hit = server.serve(base_key, page.base_size_bytes)
        if hit:
            cache_hits += 1
            server_time = EDGE_PROCESS_MS
        else:
            server_time = origin.fetch_time_ms(edge_origin_rtt,
                                               page.origin_think_ms)
    ttfb_ms = rtt + server_time
    per_connection = [0.0] * PARALLEL_CONNECTIONS
    throughput_bytes_per_ms = TCP_WINDOW_BYTES / max(rtt, 1.0)
    for index, obj in enumerate(page.objects):
        key = obj.name
        if obj.cacheable:
            hit = server.serve(key, obj.size_bytes)
        else:
            hit = False
            server.cache.stats.misses += 1
        object_ms = rtt + obj.size_bytes / throughput_bytes_per_ms
        if hit:
            cache_hits += 1
            object_ms += EDGE_PROCESS_MS
        else:
            object_ms += origin.fetch_time_ms(edge_origin_rtt,
                                              think_ms=8.0)
        connection = index % PARALLEL_CONNECTIONS
        per_connection[connection] += object_ms
    download_ms = max(per_connection) if page.objects else 0.0
    return ttfb_ms, download_ms, cache_hits


def cache_state(server):
    cache = server.cache
    return cache.stats, cache.used_bytes, list(cache._entries.items())


def bits(values):
    return [value.hex() if isinstance(value, float) else value
            for value in values]


ORIGIN = OriginServer(ip=9, provider_name="p", city="x", country="XX",
                      geo=GeoPoint(0.0, 0.0), asn=1)


@pytest.fixture(scope="module")
def tiny_world():
    return build_world(WorldConfig.tiny())


def all_pages(catalog):
    return [(provider, page) for provider in catalog.providers
            for page in provider.pages]


class Coverage:
    """Which cache states a run actually reached."""

    def __init__(self):
        self.seen = set()

    def note(self, server, provider, page, before_keys):
        cache = server.cache
        if not page.dynamic:
            base = f"{provider.name}{page.url}#base"
            self.seen.add("static_hit" if base in before_keys
                          else "static_miss")
        if any(not obj.cacheable for obj in page.objects):
            self.seen.add("non_cacheable")
        if any(obj.size_bytes > cache.capacity_bytes
               for obj in page.objects):
            self.seen.add("oversized")
        if cache.stats.evictions:
            self.seen.add("evictions")


def serve_both(new, old, provider, page, rtt, edge_origin_rtt, coverage):
    before_keys = set(new.cache._entries)
    got = session_module._serve_page(new, ORIGIN, edge_origin_rtt, rtt,
                                     provider, page)
    want = oracle_serve_page(old, ORIGIN, edge_origin_rtt, rtt, provider,
                             page)
    assert bits(got) == bits(want), (provider.name, page.url)
    assert cache_state(new) == cache_state(old), (provider.name, page.url)
    coverage.note(new, provider, page, before_keys)


@pytest.mark.parametrize("cache_bytes, expect", [
    # Room for the whole catalog: a cold pass, then a warm one.
    (512 * 1024 * 1024, {"static_miss", "static_hit", "non_cacheable"}),
    # A few objects wide: every page evicts.
    (200_000, {"static_miss", "evictions", "non_cacheable"}),
    # Smaller than a static page's media objects: served, never stored.
    (90_000, {"static_miss", "oversized", "evictions"}),
])
def test_every_tiny_page_matches_the_per_object_loop(tiny_world,
                                                     cache_bytes, expect):
    new = EdgeServer(ip=1, cluster_id="c", cache_bytes=cache_bytes)
    old = EdgeServer(ip=1, cluster_id="c", cache_bytes=cache_bytes)
    rng = random.Random(cache_bytes)
    coverage = Coverage()
    pages = all_pages(tiny_world.catalog)
    for _pass in range(2):
        for provider, page in pages:
            # RTTs below 1 ms exercise the throughput floor.
            rtt = rng.choice([0.4, rng.uniform(1.0, 250.0)])
            serve_both(new, old, provider, page, rtt,
                       rng.uniform(0.0, 150.0), coverage)
    assert expect <= coverage.seen, coverage.seen


def test_synthetic_pages_cover_the_corners():
    """Pages the generator rarely makes: all non-cacheable, an empty
    object list, an object larger than the cache, duplicate keys."""
    provider = ContentProvider(name="px", domain="www.px.example",
                               cdn_hostname="e1.cdn.example",
                               origin_city=None)
    objects = (EmbeddedObject("px/a", 5_000, cacheable=False),
               EmbeddedObject("px/b", 70_000),
               EmbeddedObject("px/c", 5_000),
               EmbeddedObject("px/c", 5_000),
               EmbeddedObject("px/d", 0, cacheable=False))
    pages = [
        WebPage("/px/static", 8_000, False, 10.0, objects),
        WebPage("/px/dynamic", 8_000, True, 50.0, objects),
        WebPage("/px/empty-static", 3_000, False, 5.0, ()),
        WebPage("/px/empty-dynamic", 3_000, True, 5.0, ()),
        WebPage("/px/uncached", 4_000, False, 5.0,
                tuple(EmbeddedObject(f"px/u{i}", 1_000 * i,
                                     cacheable=False)
                      for i in range(8))),
    ]
    coverage = Coverage()
    for cache_bytes in (10_000, 60_000, 1 << 20):
        new = EdgeServer(ip=1, cluster_id="c", cache_bytes=cache_bytes)
        old = EdgeServer(ip=1, cluster_id="c", cache_bytes=cache_bytes)
        for rtt in (0.5, 12.5, 80.0, 12.5):
            for page in pages:
                serve_both(new, old, provider, page, rtt, 33.3, coverage)
    assert {"static_hit", "static_miss", "oversized", "evictions",
            "non_cacheable"} <= coverage.seen


def test_a_dead_server_refuses_the_page():
    server = EdgeServer(ip=1, cluster_id="c")
    server.fail()
    page = WebPage("/p/x", 1_000, False, 5.0, ())
    with pytest.raises(RuntimeError):
        server.serve_page(page.plan("p"))


def test_plan_is_compiled_once_per_page(tiny_world):
    provider = tiny_world.catalog.providers[0]
    page = provider.pages[0]
    assert page.plan(provider.name) is page.plan(provider.name)


def test_sessions_match_the_per_object_loop(monkeypatch):
    """Whole sessions on twin worlds: every SessionResult field, edge
    cache and server load equal when the oracle serves the pages."""

    def run(world):
        rng = random.Random(7)
        results = [simulate_session(world, world.internet.pick_block(rng),
                                    now=index * 5.0, rng=rng)
                   for index in range(300)]
        servers = [(server.ip, server.load_rps.hex(), cache_state(server))
                   for server in world.deployments.server_index.values()]
        return results, servers

    new_results, new_servers = run(build_world(WorldConfig.tiny()))
    monkeypatch.setattr(session_module, "_serve_page", oracle_serve_page)
    old_results, old_servers = run(build_world(WorldConfig.tiny()))
    assert new_results == old_results
    for new, old in zip(new_results, old_results):
        assert bits([new.ttfb_ms, new.download_ms, new.rtt_ms,
                     new.page_load_ms]) == bits(
            [old.ttfb_ms, old.download_ms, old.rtt_ms, old.page_load_ms])
    assert new_servers == old_servers
    assert sum(result.edge_cache_hits for result in new_results) > 0
