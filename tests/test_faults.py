"""Fault-injection subsystem: schedule data model, injector
apply/revert exactness, serve-stale boundaries, and the end-to-end
acceptance scenario (auth outage + ECS strip over one monitored
roll-out).

The scenario tests pin the PR's acceptance criteria: the run completes
with zero unhandled failures, availability stays above 99%, degraded
mapping is confined to the fault window, the outage alert fires and
resolves, and two same-seed runs emit byte-identical monitor reports
(plus a golden fixture, regenerated with ``REGEN_GOLDEN=1``).
"""

import datetime
import json
from dataclasses import replace

import pytest

from repro.api import ScenarioSpec, build_world, run
from repro.codec import decode, encode
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv.cache import EcsAwareCache
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.net.ipv4 import parse_ipv4, prefix_of
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

from tests.golden import DATA_DIR, check_golden

GOLDEN_PATH = DATA_DIR / "golden_faults.json"


def _event(**overrides):
    base = dict(start_day=2, duration_days=3, target="ns:0",
                kind=FaultKind.AUTH_OUTAGE)
    base.update(overrides)
    return FaultEvent(**base)


class TestFaultEvent:
    def test_validation(self):
        with pytest.raises(ValueError):
            _event(start_day=-1)
        with pytest.raises(ValueError):
            _event(duration_days=0)
        with pytest.raises(ValueError):
            _event(kind="meteor_strike")

    def test_window_semantics(self):
        event = _event(start_day=2, duration_days=3)
        assert event.end_day == 5
        assert not event.active(1)
        assert event.active(2)
        assert event.active(4)
        assert not event.active(5)

    def test_params_sorted_and_looked_up(self):
        event = _event(kind=FaultKind.LINK_DEGRADATION, target="isp:*",
                       params=(("loss_rate", 0.2),
                               ("latency_factor", 2.0)))
        assert event.params == (("latency_factor", 2.0),
                                ("loss_rate", 0.2))
        assert event.param("loss_rate") == 0.2
        assert event.param("absent", 7.0) == 7.0

    def test_dict_roundtrip(self):
        event = _event(kind=FaultKind.LINK_DEGRADATION, target="isp:1",
                       params=(("loss_rate", 0.1),))
        assert decode(FaultEvent, encode(event)) == event


class TestFaultSchedule:
    def test_canonical_order_and_queries(self):
        late = _event(start_day=9)
        early = _event(start_day=1, target="ns:1")
        strip = _event(start_day=1, kind=FaultKind.ECS_STRIP,
                       target="public:*")
        schedule = FaultSchedule((late, strip, early))
        assert schedule.events == (early, strip, late)
        assert len(schedule) == 3 and bool(schedule)
        assert schedule.active(0) == ()
        assert schedule.active(1) == (early, strip)
        assert schedule.window(FaultKind.AUTH_OUTAGE) == (1, 12)
        assert schedule.window(FaultKind.CLUSTER_OUTAGE) is None
        assert not FaultSchedule()

    def test_json_roundtrip(self):
        schedule = FaultSchedule((
            _event(), _event(start_day=5, kind=FaultKind.LINK_DEGRADATION,
                             target="isp:*", params=(("loss_rate", 0.3),))))
        text = json.dumps(encode(schedule))
        assert decode(FaultSchedule, json.loads(text)) == schedule


class TestScheduleValidation:
    """Parse-time hardening: decoding a schedule rejects bad
    grammar and overlapping same-target events with a clear
    ``ValueError`` instead of surfacing deep inside injector replay."""

    def _json(self, *rows):
        return json.dumps([dict(start_day=1, duration_days=2, **row)
                           for row in rows])

    @pytest.mark.parametrize("kind,target,hint", [
        (FaultKind.AUTH_OUTAGE, "cluster:0", "unknown prefix"),
        (FaultKind.AUTH_OUTAGE, "bogus", "expected one of"),
        (FaultKind.CLUSTER_OUTAGE, "cluster:x", "takes an index"),
        # cluster: is the one indexed group without a wildcard; the
        # parser must say so, not a KeyError inside injector.step.
        (FaultKind.CLUSTER_OUTAGE, "cluster:*",
         r"takes an index \(expected <bare id>, cluster:\)"),
        (FaultKind.AUTH_OUTAGE, "ns:x", r"takes an index or '\*'"),
        (FaultKind.ECS_STRIP, "mapmaker:primary", "unknown prefix"),
        (FaultKind.LDNS_BLACKOUT, "public:", "empty suffix"),
        (FaultKind.LINK_DEGRADATION, "isp:one", "takes an index"),
        (FaultKind.MAPMAKER_CRASH, "ns:0", "unknown prefix"),
        (FaultKind.MAPMAKER_CRASH, "mapmaker:boss",
         "'primary', 'standby'"),
        (FaultKind.MAP_CORRUPTION, "mapmaker-0", "expected one of"),
    ])
    def test_bad_target_grammar_rejected(self, kind, target, hint):
        text = self._json(dict(kind=kind, target=target))
        with pytest.raises(ValueError, match=hint):
            decode(FaultSchedule, json.loads(text))

    def test_good_grammar_across_kinds_accepted(self):
        text = self._json(
            dict(kind=FaultKind.AUTH_OUTAGE, target="ns:*"),
            dict(kind=FaultKind.CLUSTER_OUTAGE, target="us-east-1"),
            dict(kind=FaultKind.ECS_STRIP, target="resolver:r-9"),
            dict(kind=FaultKind.LDNS_BLACKOUT, target="*"),
            dict(kind=FaultKind.MAPMAKER_HANG, target="mapmaker:1"),
            dict(kind=FaultKind.MAPMAKER_CRASH, target="mapmaker:standby"),
        )
        assert len(decode(FaultSchedule, json.loads(text))) == 6

    @pytest.mark.parametrize("field,value,hint", [
        ("duration_days", 0, "duration_days"),
        ("duration_days", -3, "duration_days"),
        ("start_day", -1, "start_day"),
    ])
    def test_bad_numbers_rejected(self, field, value, hint):
        doc = [dict(start_day=1, duration_days=2, target="ns:0",
                    kind=FaultKind.AUTH_OUTAGE)]
        doc[0][field] = value
        with pytest.raises(ValueError, match=hint):
            decode(FaultSchedule, doc)

    def test_overlapping_same_target_rejected(self):
        text = json.dumps([
            dict(start_day=1, duration_days=5, target="ns:0",
                 kind=FaultKind.AUTH_OUTAGE),
            dict(start_day=4, duration_days=2, target="ns:0",
                 kind=FaultKind.AUTH_OUTAGE),
        ])
        with pytest.raises(ValueError, match="overlapping"):
            decode(FaultSchedule, json.loads(text))

    def test_adjacent_and_distinct_targets_allowed(self):
        text = json.dumps([
            # Back-to-back on one target: end_day is exclusive, so
            # [1, 4) followed by [4, 6) is legal.
            dict(start_day=1, duration_days=3, target="ns:0",
                 kind=FaultKind.AUTH_OUTAGE),
            dict(start_day=4, duration_days=2, target="ns:0",
                 kind=FaultKind.AUTH_OUTAGE),
            # Overlap across *different* exact targets is legal too
            # (the injector's per-event victim lists keep it exact).
            dict(start_day=2, duration_days=4, target="ns:*",
                 kind=FaultKind.AUTH_OUTAGE),
            dict(start_day=2, duration_days=4, target="public:0",
                 kind=FaultKind.ECS_STRIP),
        ])
        assert len(decode(FaultSchedule, json.loads(text))) == 4

    def test_direct_construction_skips_grammar_checks(self):
        # Building the dataclass directly stays permissive (the
        # injector raises KeyError at apply time instead) -- only the
        # deserialization boundary hardens.
        schedule = FaultSchedule((_event(target="bogus"),))
        with pytest.raises(ValueError, match="expected one of"):
            schedule.validate()


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


class TestInjector:
    def test_auth_outage_applies_and_reverts(self, world):
        schedule = FaultSchedule((_event(start_day=1, duration_days=2),))
        injector = FaultInjector(world, schedule)
        ns0 = world.nameservers[0]
        injector.step(0)
        assert ns0.alive
        injector.step(1)
        assert not ns0.alive
        assert world.obs.tracer.context["faults"] == "auth_outage:ns:0"
        assert injector.events_applied == 1
        injector.step(3)
        assert ns0.alive
        assert "faults" not in world.obs.tracer.context
        assert all(ns.alive for ns in world.nameservers)

    def test_overlapping_outages_revert_exactly(self, world):
        schedule = FaultSchedule((
            _event(start_day=0, duration_days=4, target="ns:*"),
            _event(start_day=2, duration_days=4, target="ns:0"),
        ))
        injector = FaultInjector(world, schedule)
        injector.step(0)
        assert not any(ns.alive for ns in world.nameservers)
        injector.step(2)
        assert not any(ns.alive for ns in world.nameservers)
        # The broad outage ends mid-narrow-event: everything comes
        # back except ns:0, which the narrow event holds until day 6
        # (a scheduled fault is in force for its whole window).
        injector.step(4)
        assert not world.nameservers[0].alive
        assert all(ns.alive for ns in world.nameservers[1:])
        injector.step(6)
        assert all(ns.alive for ns in world.nameservers)

    def test_out_of_order_reverts_stay_exact(self, world):
        # The broad outage starts *after* the narrow one and ends
        # *before* it: its revert must revive everything it killed
        # while leaving the narrow event's victim down.
        schedule = FaultSchedule((
            _event(start_day=0, duration_days=6, target="ns:0"),
            _event(start_day=2, duration_days=2, target="ns:*"),
        ))
        injector = FaultInjector(world, schedule)
        injector.step(0)
        assert not world.nameservers[0].alive
        assert all(ns.alive for ns in world.nameservers[1:])
        injector.step(2)
        assert not any(ns.alive for ns in world.nameservers)
        injector.step(4)  # broad event reverts mid-narrow-event
        assert not world.nameservers[0].alive
        assert all(ns.alive for ns in world.nameservers[1:])
        injector.step(6)
        assert all(ns.alive for ns in world.nameservers)

    def test_overlapping_strips_revert_independently(self, world):
        # Whole-group strip plus a single-resolver strip via a
        # different spelling: the group revert restores everyone but
        # the narrow event's victim, which stays stripped until the
        # narrow event ends too.
        schedule = FaultSchedule((
            _event(start_day=0, duration_days=4,
                   kind=FaultKind.ECS_STRIP, target="public:*"),
            _event(start_day=2, duration_days=4,
                   kind=FaultKind.ECS_STRIP, target="public:0"),
        ))
        injector = FaultInjector(world, schedule)
        injector.step(0)
        injector.step(2)
        assert len(injector.active_events) == 2
        injector.step(4)
        first_public = sorted(world.public_ldns_ids())[0]
        assert [rid for rid, ldns in world.ldns_registry.items()
                if ldns.ecs_stripped] == [first_public]
        injector.finish()
        assert not any(ldns.ecs_stripped
                       for ldns in world.ldns_registry.values())

    def test_ecs_strip_targets_public_group(self, world):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1, kind=FaultKind.ECS_STRIP,
            target="public:*"),))
        injector = FaultInjector(world, schedule)
        public = set(world.public_ldns_ids())
        injector.step(0)
        for rid, ldns in world.ldns_registry.items():
            assert ldns.ecs_stripped == (rid in public)
        injector.finish()
        assert not any(ldns.ecs_stripped
                       for ldns in world.ldns_registry.values())

    def test_blackout_and_link_grammars(self, world):
        schedule = FaultSchedule((
            _event(start_day=0, duration_days=1,
                   kind=FaultKind.LDNS_BLACKOUT, target="isp:0"),
            _event(start_day=0, duration_days=1,
                   kind=FaultKind.LINK_DEGRADATION, target="public:0",
                   params=(("loss_rate", 0.5),)),
        ))
        injector = FaultInjector(world, schedule)
        public = sorted(world.public_ldns_ids())
        isp = [rid for rid in sorted(world.ldns_registry)
               if rid not in set(public)]
        injector.step(0)
        assert not world.ldns_registry[isp[0]].alive
        assert world.network._impairments
        injector.finish()
        assert world.ldns_registry[isp[0]].alive
        assert not world.network._impairments

    def test_cluster_index_grammar(self, world):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1,
            kind=FaultKind.CLUSTER_OUTAGE, target="cluster:0"),))
        injector = FaultInjector(world, schedule)
        first = world.deployments.clusters[
            sorted(world.deployments.clusters)[0]]
        injector.step(0)
        assert not any(server.alive for server in first.servers)
        assert not first.alive
        injector.finish()
        assert all(server.alive for server in first.servers)

    @pytest.mark.parametrize("kind,target", [
        (FaultKind.AUTH_OUTAGE, "ns:99"),
        (FaultKind.AUTH_OUTAGE, "bogus"),
        (FaultKind.CLUSTER_OUTAGE, "cluster:999"),
        (FaultKind.CLUSTER_OUTAGE, "no-such-cluster"),
        (FaultKind.ECS_STRIP, "resolver:nope"),
        (FaultKind.LDNS_BLACKOUT, "isp:9999"),
    ])
    def test_unknown_targets_raise(self, world, kind, target):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1, kind=kind, target=target),))
        injector = FaultInjector(world, schedule)
        with pytest.raises(KeyError):
            injector.step(0)


class TestServeStaleBoundaries:
    """RFC 8767 TTL edges on the cache, then through the resolver."""

    def _cache(self, window=10.0):
        cache = EcsAwareCache(serve_stale_window=window)
        record = ResourceRecord("x", QType.A, 5,
                                ARdata(parse_ipv4("9.9.9.9")))
        cache.store("x", QType.A, None, (record,), ttl=5, now=0.0)
        return cache

    def test_fresh_entry_is_not_stale(self):
        cache = self._cache()
        assert cache.lookup("x", QType.A, None, now=4.999) is not None
        assert cache.lookup_stale("x", QType.A, None, now=4.999) is None

    def test_window_boundaries(self):
        cache = self._cache(window=10.0)
        # Expiry instant: no longer fresh, immediately stale-usable.
        assert cache.lookup("x", QType.A, None, now=5.0) is None
        assert cache.lookup_stale("x", QType.A, None, now=5.0) is not None
        # Last instant inside the window / first instant outside it.
        assert cache.lookup_stale("x", QType.A, None,
                                  now=14.999) is not None
        assert cache.lookup_stale("x", QType.A, None, now=15.0) is None
        assert cache.stats.stale_hits == 2

    def test_stale_records_clamp_ttl(self):
        cache = self._cache()
        entry = cache.lookup_stale("x", QType.A, None, now=5.0)
        assert [r.ttl for r in entry.stale_records(30)] == [30]

    def test_negative_entries_never_served_stale(self):
        cache = EcsAwareCache(serve_stale_window=10.0)
        cache.store("gone", QType.A, None, (), ttl=5, now=0.0,
                    rcode=Rcode.NXDOMAIN)
        assert cache.lookup_stale("gone", QType.A, None, now=6.0) is None

    def test_zero_window_reproduces_legacy_pruning(self):
        cache = EcsAwareCache()
        record = ResourceRecord("x", QType.A, 5,
                                ARdata(parse_ipv4("9.9.9.9")))
        cache.store("x", QType.A, None, (record,), ttl=5, now=0.0)
        assert cache.lookup("x", QType.A, None, now=5.0) is None
        assert len(cache) == 0
        assert cache.lookup_stale("x", QType.A, None, now=5.0) is None

    def test_scoped_entry_preferred_over_global(self):
        cache = EcsAwareCache(serve_stale_window=10.0)
        client = parse_ipv4("10.1.2.9")
        near = ResourceRecord("x", QType.A, 5,
                              ARdata(parse_ipv4("1.1.1.1")))
        far = ResourceRecord("x", QType.A, 5,
                             ARdata(parse_ipv4("2.2.2.2")))
        cache.store("x", QType.A, prefix_of(client, 24), (near,),
                    ttl=5, now=0.0)
        cache.store("x", QType.A, None, (far,), ttl=5, now=0.0)
        entry = cache.lookup_stale("x", QType.A, client, now=6.0)
        assert entry.records == (near,)

    def test_resolver_serves_stale_then_servfails(self):
        world = build_world(replace(WorldConfig.tiny(),
                                    serve_stale_window=900.0))
        provider = world.catalog.providers[0]
        ldns = world.ldns_registry[sorted(world.ldns_registry)[0]]
        client_ip = world.internet.blocks[0].prefix.network | 9
        warm = ldns.resolve(provider.domain, QType.A, client_ip, now=0.0)
        assert warm.rcode == Rcode.NOERROR and not warm.stale
        ttl = min(r.ttl for r in warm.records)

        for ns in world.nameservers:
            ns.fail()
        stale = ldns.resolve(provider.domain, QType.A, client_ip,
                             now=ttl + 1.0)
        assert stale.rcode == Rcode.NOERROR
        assert stale.stale
        assert ldns.stale_served >= 1
        assert all(r.ttl == 30 for r in stale.records
                   if r.rtype == QType.A)

        dead = ldns.resolve(provider.domain, QType.A, client_ip,
                            now=ttl + 901.0)
        assert dead.rcode == Rcode.SERVFAIL
        assert not dead.stale
        assert ldns.servfail_responses >= 1


def _scenario_spec(seed=99):
    """Auth outage + public ECS strip over one short monitored
    roll-out (the PR's acceptance scenario)."""
    rollout = RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 31),
        rollout_start=datetime.date(2014, 3, 8),
        rollout_end=datetime.date(2014, 3, 15),
        sessions_per_day=30,
        seed=seed,
    )
    faults = FaultSchedule((
        FaultEvent(start_day=2, duration_days=6, target="ns:0",
                   kind=FaultKind.AUTH_OUTAGE),
        FaultEvent(start_day=20, duration_days=7, target="public:*",
                   kind=FaultKind.ECS_STRIP),
    ))
    return ScenarioSpec(
        world=replace(WorldConfig.tiny(), serve_stale_window=900.0),
        rollout=rollout,
        faults=faults,
    )


@pytest.fixture(scope="module")
def scenario():
    outcome = run(_scenario_spec())
    return outcome, outcome.report()


class TestFaultScenario:
    def test_zero_unhandled_failures_and_availability(self, scenario):
        outcome, report = scenario
        failed = sum(outcome.result.failed_sessions_per_day.values())
        completed = len(outcome.result.rum)
        assert completed > 0
        availability = completed / (completed + failed)
        assert availability > 0.99
        series = outcome.monitor.store.get("availability")
        assert series is not None
        assert min(series.values) > 0.99

    def test_outage_alert_fires_and_resolves(self, scenario):
        outcome, _ = scenario
        kinds = [alert.kind for alert in outcome.monitor.engine.log
                 if alert.rule == "auth_timeout_spike"]
        assert "fired" in kinds and "resolved" in kinds
        fault_rules = ("auth_timeout_spike", "availability_low",
                       "dns_servfail", "mapping_degraded")
        assert not [rule for rule in outcome.monitor.engine.firing()
                    if rule in fault_rules]

    def test_degraded_mapping_confined_to_strip_window(self, scenario):
        outcome, _ = scenario
        series = outcome.monitor.store.get("mapping.degraded_share")
        strip = outcome.spec.faults.window(FaultKind.ECS_STRIP)
        nonzero = [step for step, value
                   in zip(series.steps, series.values) if value > 0]
        assert nonzero, "ECS strip never degraded any session"
        assert all(strip[0] <= day < strip[1] for day in nonzero)

    def test_retry_penalty_series_tracks_the_outage(self, scenario):
        outcome, _ = scenario
        series = outcome.monitor.store.get("dns.retry_penalty_ms")
        assert series is not None
        outage = outcome.spec.faults.window(FaultKind.AUTH_OUTAGE)
        by_day = dict(zip(series.steps, series.values))
        charged = [day for day, value in by_day.items() if value > 0]
        assert charged, "auth outage never charged a retry penalty"
        assert all(outage[0] <= day < outage[1] for day in charged)
        total = sum(series.values)
        fleet_total = sum(
            ldns.retry_penalty_ms_total
            for ldns in outcome.world.ldns_registry.values())
        assert total == pytest.approx(fleet_total)

    def test_world_healthy_after_run(self, scenario):
        outcome, _ = scenario
        assert outcome.injector.events_applied == 2
        assert all(ns.alive for ns in outcome.world.nameservers)
        assert not any(ldns.ecs_stripped
                       for ldns in outcome.world.ldns_registry.values())
        assert "faults" not in outcome.world.obs.tracer.context

    def test_same_seed_runs_are_byte_identical(self, scenario):
        _, first = scenario
        second = run(_scenario_spec()).report()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_traces_carry_fault_context(self, scenario):
        outcome, _ = scenario
        window = outcome.spec.faults.window(FaultKind.AUTH_OUTAGE)
        tagged = [t for t in outcome.world.obs.tracer.traces
                  if "faults" in t.attrs]
        assert tagged, "no sampled trace overlapped a fault window"
        for trace in tagged:
            assert "auth_outage:ns:0" in trace.attrs["faults"] or (
                "ecs_strip:public:*" in trace.attrs["faults"])
        assert window is not None

    def test_golden_projection(self, scenario):
        outcome, report = scenario
        degraded = outcome.monitor.store.get("mapping.degraded_share")
        projection = {
            "days_observed": report["days_observed"],
            "events_applied": outcome.injector.events_applied,
            "failed_sessions": sum(
                outcome.result.failed_sessions_per_day.values()),
            "alerts": [[e["step"], e["rule"], e["kind"]]
                       for e in report["alerts"]["log"]],
            "firing": report["alerts"]["firing"],
            "degraded_days": [
                step for step, value
                in zip(degraded.steps, degraded.values) if value > 0],
            "fault_series_present": sorted(
                name for name in report["series"]
                if name in ("availability", "dns.servfails",
                            "dns.stale_served", "dns.timeout_failovers",
                            "mapping.degraded_share")),
        }
        check_golden(GOLDEN_PATH, projection)


class TestDegradationExperiment:
    def test_tiny_scale_passes_every_check(self, tiny_result):
        result = tiny_result("degradation")
        assert result.passed, [str(c) for c in result.checks
                               if not c.passed]
        kinds = [row["kind"] for row in result.rows]
        assert kinds == ["baseline", *FaultKind.DATA_PLANE]
        for row in result.rows:
            assert row["availability"] > 0.99
