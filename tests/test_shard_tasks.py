"""Shard tasks: one static ecosystem per task, one live world per shard.

A sharded run deals its shards into ``min(workers, n_shards)`` tasks;
each task builds the Internet, catalog, expectation medians and shard
plan once and wires a fresh world over them per shard.  Pinned here:

* **read-only ecosystem** -- with every plane on and a fault of every
  kind open, running shards leaves the shared Internet and catalog
  exactly as one world build leaves a fresh pair, and uneven batches
  (3 workers over 8 shards) still merge byte-identically;
* **work counts** -- the ecosystem is built once per task, worlds once
  per shard, and a serial run builds each piece once;
* **release** -- a finished shard's output pins nothing of its world;
* **failure** -- an error inside a worker process surfaces in the
  parent.
"""

import dataclasses
import datetime
import gc
import hashlib
import multiprocessing
import weakref

import pytest

import repro.api
import repro.simulation.world as world_module
from repro.api import ScenarioSpec, run
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.faults import FaultEvent, FaultSchedule
from repro.faults.injector import FaultInjector
from repro.faults.kinds import KINDS
from repro.measurement.netsession import NetSessionCollector
from repro.parallel import engine, run_sharded
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig, _build_world
from repro.topology.resolvers import EcsPolicy, ResolverPolicySet
from repro.topology.traffic import TrafficSchedule, TrafficShape

from tests.test_parallel_shard import ROLLOUT_SPEC, _frozen

START = datetime.date(2014, 3, 1)
N_DAYS = 6


def _every_plane_spec() -> ScenarioSpec:
    """Every plane on, and one fault of every kind opened on day 2 and
    still open when the timeline ends (no mid-run revert can hide a
    write)."""
    world = dataclasses.replace(WorldConfig.tiny(),
                                serve_stale_window=900.0,
                                server_capacity_rps=0.5)
    return ScenarioSpec(
        world=world,
        rollout=RolloutConfig(
            start_date=START,
            end_date=START + datetime.timedelta(days=N_DAYS - 1),
            rollout_start=START + datetime.timedelta(days=1),
            rollout_end=START + datetime.timedelta(days=3),
            sessions_per_day=24,
            seed=11),
        control_plane=MapMakerConfig(),
        unit_scheme="routing_aware",
        load_feedback=LoadFeedbackConfig(),
        resolver_policies=ResolverPolicySet(tuple(
            (provider.name,
             EcsPolicy(whitelist_enabled=True, scope_ceiling=22))
            for provider in world.internet.providers)),
        faults=FaultSchedule(tuple(
            FaultEvent(2, N_DAYS, row.soak_targets[0], row.name)
            for row in KINDS.values())).validate(),
        traffic=TrafficSchedule((
            TrafficShape(1, 3, "continent:EU", "flash_crowd", 3.0),
        )).validate(),
        monitor=True)


EVERY_PLANE_SPEC = _every_plane_spec()


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _internet_print(internet) -> str:
    """The Internet by value: geo and BGP tables, blocks, resolvers,
    ASes, and the public providers with their deployment ids."""
    return _digest(
        list(internet.geodb.items()),
        list(internet.bgp.announcements()),
        internet.blocks,
        sorted(internet.resolvers.items()),
        sorted(internet.ases.items()),
        internet.providers,
        [[resolver.resolver_id for resolver in provider.deployments]
         for provider in internet.providers])


def _catalog_print(catalog) -> str:
    return _digest(catalog.providers)


class TestReadOnlyEcosystem:
    def test_shards_leave_the_shared_ecosystem_untouched(self,
                                                         monkeypatch):
        prints = []
        finish = FaultInjector.finish

        def fingerprint_then_finish(injector):
            # Every fault is still applied here, so a write into the
            # ecosystem has not been reverted yet.
            prints.append((_internet_print(injector.world.internet),
                           _catalog_print(injector.world.catalog)))
            finish(injector)

        monkeypatch.setattr(FaultInjector, "finish",
                            fingerprint_then_finish)
        context = engine.ShardContext.build(EVERY_PLANE_SPEC, 4)
        catalog_before = _catalog_print(context.ecosystem.catalog)
        outputs = [engine._shard_worker(context, shard)
                   for shard in range(3)]
        assert all(sum(out.result.sessions_per_day.values())
                   for out in outputs)

        # One world build re-registers its cluster and origin /24s into
        # the geo DB, identically every time: the shared Internet ends
        # exactly as a fresh world's own does.
        fresh = _build_world(EVERY_PLANE_SPEC)
        expected = (_internet_print(fresh.internet),
                    _catalog_print(fresh.catalog))
        assert catalog_before == expected[1]
        assert prints == [expected] * 3
        assert (_internet_print(context.ecosystem.internet),
                _catalog_print(context.ecosystem.catalog)) == expected

    def test_uneven_batches_are_byte_identical(self):
        runs = {workers: run_sharded(EVERY_PLANE_SPEC, workers=workers,
                                     n_shards=8)
                for workers in (1, 2, 3)}
        assert _frozen(runs[2]) == _frozen(runs[1])
        assert _frozen(runs[3]) == _frozen(runs[1])

    def test_ecosystem_of_another_config_is_refused(self):
        ecosystem = world_module.build_ecosystem(WorldConfig.tiny())
        other = dataclasses.replace(
            ROLLOUT_SPEC,
            world=dataclasses.replace(WorldConfig.tiny(), seed=7))
        with pytest.raises(ValueError, match="WorldConfig"):
            _build_world(other, ecosystem=ecosystem)


def _count(monkeypatch, owner, name: str, counts: dict) -> None:
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


class TestWorkCounts:
    def _install(self, monkeypatch, world_builder_owner) -> dict:
        counts: dict = {}
        _count(monkeypatch, world_module, "build_internet", counts)
        _count(monkeypatch, world_module, "build_catalog", counts)
        _count(monkeypatch, NetSessionCollector, "collect_ground_truth",
               counts)
        _count(monkeypatch, engine, "plan_shards", counts)
        _count(monkeypatch, world_builder_owner, "_build_world", counts)
        return counts

    def test_sharded_run_builds_the_ecosystem_once(self, monkeypatch):
        counts = self._install(monkeypatch, engine)
        run_sharded(ROLLOUT_SPEC, workers=1, n_shards=8)
        assert counts == {"build_internet": 1, "build_catalog": 1,
                          "collect_ground_truth": 1, "plan_shards": 1,
                          "_build_world": 8}

    def test_serial_run_builds_each_piece_once(self, monkeypatch):
        counts = self._install(monkeypatch, repro.api)
        run(ROLLOUT_SPEC)
        assert counts == {"build_internet": 1, "build_catalog": 1,
                          "collect_ground_truth": 1, "_build_world": 1}


class TestShardRelease:
    def test_finished_shard_pins_no_world(self, monkeypatch):
        worlds = []
        build = engine._build_world

        def tracked(*args, **kwargs):
            world = build(*args, **kwargs)
            worlds.append(weakref.ref(world))
            return world

        monkeypatch.setattr(engine, "_build_world", tracked)
        context = engine.ShardContext.build(EVERY_PLANE_SPEC, 4)
        outputs = [engine._shard_worker(context, shard)
                   for shard in range(3)]
        gc.collect()
        assert len(worlds) == 3
        assert [ref() for ref in worlds] == [None] * 3
        # The outputs are still alive, and still readable: the detached
        # registry kept the values its last collect() left.
        gauges = outputs[0].registry.snapshot()["gauges"]
        assert gauges["ldns.cache.lookups"] > 0


class TestWorkerFailure:
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched worker must reach the "
                               "child through fork")
    def test_worker_error_surfaces_in_the_parent(self, monkeypatch):
        worker = engine._shard_worker

        def failing(context, shard):
            if shard == 5:
                raise KeyError("shard 5 broke")
            return worker(context, shard)

        monkeypatch.setattr(engine, "_shard_worker", failing)
        with pytest.raises(KeyError, match="shard 5 broke"):
            run_sharded(ROLLOUT_SPEC, workers=2, n_shards=8)

