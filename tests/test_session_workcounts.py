"""Work counts on the session path, after a world's first session.

A session asks the metrics registry for nothing (its instruments are
bound once per world), makes one edge-cache call per page, and leaves
nothing behind once its world is dropped: page plans live on the pages
and instruments on the world, never in a module-level memo.

It also builds only the records somebody keeps or the wire needs:
per upstream exchange four messages (a query and a reply, each built
at one end and decoded at the other), one hop result, one zone answer
and one step result; per lookup one result, shared by the LDNS and the
stub, and no stub object; per mapping answer one context and no
target once the answer's geolocation record has one; per session one
``SessionResult``, and per completed roll-out session one beacon; and
a cache name slot only for a name the cache did not hold.
"""

import datetime
import gc
import random
import weakref

import pytest

from repro.api import ScenarioSpec, build_world, run
from repro.cdn.server import LruCache
from repro.core.policies import MapTarget, ResolutionContext
from repro.dnsproto.message import Message
from repro.dnssrv import cache as cache_module
from repro.dnssrv.authoritative import ZoneAnswer
from repro.dnssrv.cache import EcsAwareCache
from repro.dnssrv.recursive import RecursionResult, _StepResult
from repro.dnssrv.stub import StubResolver
from repro.dnssrv.transport import HopResult
from repro.measurement.rum import RumBeacon
from repro.obs.metrics import MetricsRegistry
from repro.simulation.rollout import RolloutConfig
from repro.simulation.session import SessionResult, simulate_session
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


RECORDS = (Message, HopResult, ZoneAnswer, _StepResult,
           cache_module._NameSlot, StubResolver, RecursionResult,
           SessionResult, ResolutionContext, MapTarget)


@pytest.fixture
def built(monkeypatch):
    """Constructions of each per-session record, plus the stores that
    found their (name, type) missing from the cache."""
    counts = {cls.__name__: 0 for cls in RECORDS}
    counts["new_names"] = 0

    def counted(cls):
        original = cls.__init__

        def wrapper(self, *args, **kwargs):
            counts[cls.__name__] += 1
            original(self, *args, **kwargs)
        return wrapper

    for cls in RECORDS:
        monkeypatch.setattr(cls, "__init__", counted(cls))
    store = EcsAwareCache.store

    def counted_store(self, qname, qtype, *args, **kwargs):
        if (qname, qtype) not in self._store:
            counts["new_names"] += 1
        return store(self, qname, qtype, *args, **kwargs)

    monkeypatch.setattr(EcsAwareCache, "store", counted_store)
    return counts


def test_steady_state_session_records(built):
    world = build_world(WorldConfig.tiny())
    world.enable_ecs(world.public_ldns_ids())
    run_sessions(world, 1, seed=1)
    hops_before = world.network.queries_sent
    answers_before = world.mapping.stats.resolutions
    for key in built:
        built[key] = 0
    results = run_sessions(world, 200)
    assert not any(result.failed for result in results)
    hops = world.network.queries_sent - hops_before
    assert 0 < hops < 2 * len(results)
    assert built["Message"] == 4 * hops
    assert built["HopResult"] == hops
    assert built["ZoneAnswer"] == hops
    assert built["_StepResult"] == hops
    assert built["_NameSlot"] == built["new_names"] < hops
    assert built["StubResolver"] == 0
    assert built["RecursionResult"] == len(results)
    assert built["SessionResult"] == len(results)
    answers = world.mapping.stats.resolutions - answers_before
    assert built["ResolutionContext"] == answers > 0
    assert built["MapTarget"] < answers
    # The same sessions again: every record they land on has its
    # target, so no answer builds one.
    built["MapTarget"] = 0
    run_sessions(world, 200)
    assert built["MapTarget"] == 0


def test_a_rollout_builds_one_beacon_per_completed_session(monkeypatch):
    built = []
    original = RumBeacon.__init__

    def counted(self, *args):
        built.append(self)
        original(self, *args)

    monkeypatch.setattr(RumBeacon, "__init__", counted)
    day = datetime.date(2014, 3, 1)
    result = run(ScenarioSpec(
        world=WorldConfig.tiny(), monitor=False,
        rollout=RolloutConfig(
            start_date=day, end_date=day + datetime.timedelta(days=2),
            rollout_start=day + datetime.timedelta(days=1),
            rollout_end=day + datetime.timedelta(days=1),
            sessions_per_day=40, monthly_growth=0.0))).result
    completed = (sum(result.sessions_per_day.values())
                 - sum(result.failed_sessions_per_day.values()))
    assert len(built) == len(result.rum) == completed > 0


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
