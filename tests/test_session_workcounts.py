"""Work counts on the session path, after a world's first session.

A session asks the metrics registry for nothing (its instruments are
bound once per world), makes one edge-cache call per page, and leaves
nothing behind once its world is dropped: page plans live on the pages
and instruments on the world, never in a module-level memo.
"""

import gc
import random
import weakref

import pytest

from repro.api import build_world
from repro.cdn.server import LruCache
from repro.obs.metrics import MetricsRegistry
from repro.simulation.session import simulate_session
from repro.simulation.world import WorldConfig

FAULT_PATH_COUNTERS = ("sessions.failed", "sessions.degraded",
                       "sessions.stale", "resolver.pop_failovers",
                       "resolver.cold_cache_misses")


def run_sessions(world, count, seed=5):
    rng = random.Random(seed)
    return [simulate_session(world, world.internet.pick_block(rng),
                             now=index * 3.0, rng=rng)
            for index in range(count)]


@pytest.fixture
def counting(monkeypatch):
    """Count registry get-or-create calls and edge-cache calls."""
    calls = {"registry": 0, "access": 0, "access_page": 0}

    def counted(kind, method):
        def wrapper(self, *args, **kwargs):
            calls[kind] += 1
            return method(self, *args, **kwargs)
        return wrapper

    for name in ("counter", "gauge", "histogram"):
        monkeypatch.setattr(MetricsRegistry, name,
                            counted("registry", getattr(MetricsRegistry,
                                                        name)))
    for name in ("access", "access_page"):
        monkeypatch.setattr(LruCache, name,
                            counted(name, getattr(LruCache, name)))
    return calls


def test_steady_state_session_work(counting):
    world = build_world(WorldConfig.tiny())
    run_sessions(world, 1, seed=1)
    for key in counting:
        counting[key] = 0
    results = run_sessions(world, 200)
    assert not any(result.failed for result in results)
    assert counting["registry"] == 0
    assert counting["access"] == 0
    assert counting["access_page"] == len(results)


def test_healthy_snapshot_has_no_fault_path_counters():
    world = build_world(WorldConfig.tiny())
    results = run_sessions(world, 200)
    counters = world.obs.registry.snapshot()["counters"]
    assert counters["sessions.completed"] == len(results)
    assert counters["sessions.requests"] == sum(r.requests for r in results)
    for name in FAULT_PATH_COUNTERS:
        assert name not in counters, name


def test_a_finished_world_is_collectable():
    world = build_world(WorldConfig.tiny())
    run_sessions(world, 50)
    registry = weakref.ref(world.obs.registry)
    catalog = weakref.ref(world.catalog)
    del world
    gc.collect()
    assert registry() is None
    assert catalog() is None
