"""The resolver plane: anycast PoP fleets, ECS policy matrix, and
resolver-plane fault injection.

Covers the fleet data model (policy validation, deterministic
routing), the two-level ``public:<provider>[:<city>]`` target grammar
and its parse-time conflict rules, injector apply/revert exactness for
the three resolver-plane kinds, catchment-shift edge cases (all PoPs
down, cold caches at the outage boundary, exact recovery), and the
end-to-end PoP-outage acceptance scenario with its golden fixture
(regenerated with ``REGEN_GOLDEN=1``) plus 1-vs-4-worker byte
identity through the sharded engine.
"""

import datetime
import json
import random

import pytest

from repro.api import ScenarioSpec, build_world, run
from repro.codec import decode, encode
from repro.faults import (
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultSchedule,
)
from repro.faults.chaos import world_restored
from repro.simulation.session import simulate_session
from repro.simulation.world import WorldConfig
from repro.topology.resolvers import (
    EcsPolicy,
    ResolverFleets,
    ResolverPolicySet,
    anycast_catchment,
)

from tests.golden import DATA_DIR, check_golden

GOLDEN_PATH = DATA_DIR / "golden_resolver_faults.json"


def _event(**overrides):
    base = dict(start_day=2, duration_days=3,
                target="public:GloboDNS:dallas",
                kind=FaultKind.POP_OUTAGE)
    base.update(overrides)
    return FaultEvent(**base)


@pytest.fixture(scope="module")
def fleet_world():
    return build_world(WorldConfig.tiny())


class TestEcsPolicy:
    def test_defaults_reproduce_prefleet_behaviour(self):
        policy = EcsPolicy()
        assert policy.whitelist_enabled and policy.scope_ceiling == 32

    @pytest.mark.parametrize("ceiling", [0, -4, 33])
    def test_bad_ceiling_rejected(self, ceiling):
        with pytest.raises(ValueError, match="scope_ceiling"):
            EcsPolicy(scope_ceiling=ceiling)

    def test_dict_roundtrip_and_unknown_keys(self):
        policy = EcsPolicy(whitelist_enabled=False, scope_ceiling=20)
        assert decode(EcsPolicy, encode(policy)) == policy
        with pytest.raises(ValueError, match=r"\['scope_celing'\]"):
            decode(EcsPolicy, {"scope_celing": 20})

    def test_policy_set_sorts_and_rejects_duplicates(self):
        policies = ResolverPolicySet((
            ("OpenFast", EcsPolicy(scope_ceiling=24)),
            ("GloboDNS", EcsPolicy(whitelist_enabled=False)),
        ))
        assert [name for name, _ in policies.policies] == [
            "GloboDNS", "OpenFast"]
        assert not policies.policy_for("GloboDNS").whitelist_enabled
        assert policies.policy_for("elsewhere") == EcsPolicy()
        with pytest.raises(ValueError, match="duplicate provider"):
            ResolverPolicySet((("X", EcsPolicy()), ("X", EcsPolicy())))

    def test_policy_set_wire_format(self):
        policies = ResolverPolicySet((
            ("GloboDNS", EcsPolicy(scope_ceiling=20)),))
        assert encode(policies) == {
            "GloboDNS": {"whitelist_enabled": True, "scope_ceiling": 20}}
        assert decode(ResolverPolicySet, encode(policies)) == policies
        with pytest.raises(ValueError, match="resolver_policies must be "
                                             "a JSON object"):
            decode(ResolverPolicySet, ["GloboDNS"], "resolver_policies")


class TestResolverTargetGrammar:
    """Satellite: the two-level ``public:<provider>[:<city>]`` grammar
    and the pop_outage/ldns_blackout conflict rule, at parse time."""

    def _schedule(self, *rows):
        return decode(FaultSchedule, [
            dict(start_day=1, duration_days=2, **row) for row in rows])

    @pytest.mark.parametrize("kind", [
        FaultKind.POP_OUTAGE, FaultKind.ANYCAST_FLAP,
        FaultKind.ECS_WHITELIST_REVOKE,
    ])
    def test_provider_and_city_targets_accepted(self, kind):
        schedule = self._schedule(
            dict(kind=kind, target="public:GloboDNS"),
            dict(kind=kind, target="public:OpenFast:chicago"),
            dict(kind=kind, target="public:*"),
            dict(kind=kind, target="public:0"),
        )
        assert len(schedule) == 4

    @pytest.mark.parametrize("target", [
        "public:GloboDNS:dallas:extra",   # three levels deep
        "public:",                        # empty suffix
        "public::dallas",                 # empty provider
        "public:GloboDNS:",               # empty city
    ])
    def test_malformed_provider_targets_rejected(self, target):
        with pytest.raises(ValueError, match="public: takes|empty"):
            self._schedule(dict(kind=FaultKind.POP_OUTAGE,
                                target=target))

    @pytest.mark.parametrize("kind,target", [
        (FaultKind.POP_OUTAGE, "ns:0"),
        (FaultKind.ANYCAST_FLAP, "isp:0"),
        (FaultKind.ECS_WHITELIST_REVOKE, "mapmaker:primary"),
    ])
    def test_non_public_heads_rejected(self, kind, target):
        with pytest.raises(ValueError, match="unknown prefix"):
            self._schedule(dict(kind=kind, target=target))

    def test_overlapping_outage_and_blackout_conflict(self):
        with pytest.raises(ValueError, match="conflicting"):
            self._schedule(
                dict(kind=FaultKind.POP_OUTAGE,
                     target="public:GloboDNS"),
                dict(kind=FaultKind.LDNS_BLACKOUT,
                     target="public:GloboDNS"),
            )

    def test_city_level_conflict_on_same_provider(self):
        with pytest.raises(ValueError, match="conflicting"):
            self._schedule(
                dict(kind=FaultKind.POP_OUTAGE,
                     target="public:GloboDNS:dallas"),
                dict(kind=FaultKind.LDNS_BLACKOUT,
                     target="public:GloboDNS:london"),
            )

    def test_index_blackouts_never_conflict(self):
        # Exact-string doctrine: only explicitly *named* providers can
        # conflict, so the chaos menu's index/wildcard blackout
        # spellings always stay schedulable alongside PoP outages.
        schedule = self._schedule(
            dict(kind=FaultKind.POP_OUTAGE, target="public:GloboDNS"),
            dict(kind=FaultKind.LDNS_BLACKOUT, target="public:0"),
            dict(kind=FaultKind.LDNS_BLACKOUT, target="*"),
        )
        assert len(schedule) == 3

    def test_disjoint_windows_do_not_conflict(self):
        schedule = decode(FaultSchedule, [
            dict(start_day=1, duration_days=2,
                 kind=FaultKind.POP_OUTAGE, target="public:GloboDNS"),
            dict(start_day=3, duration_days=2,
                 kind=FaultKind.LDNS_BLACKOUT,
                 target="public:GloboDNS"),
        ])
        assert len(schedule) == 2

    def test_new_kinds_roundtrip(self):
        schedule = FaultSchedule((
            _event(),
            _event(start_day=6, kind=FaultKind.ANYCAST_FLAP,
                   target="public:OpenFast"),
            _event(start_day=10, kind=FaultKind.ECS_WHITELIST_REVOKE,
                   target="public:*"),
        ))
        text = json.dumps(encode(schedule))
        assert decode(FaultSchedule, json.loads(text)) == schedule


class TestFleetRouting:
    def _fleets(self, world):
        return ResolverFleets.from_providers(world.internet.providers)

    def _block_for(self, world, resolver_id):
        return next(b for b in world.internet.blocks
                    if any(rid == resolver_id for rid, _w in b.ldns))

    def test_healthy_fleet_is_identity(self, fleet_world):
        fleets = self._fleets(fleet_world)
        block = fleet_world.internet.blocks[0]
        for rid in sorted(fleets.pops):
            assert fleets.route(rid, block) == rid

    def test_only_withdrawn_or_flapping_pops_are_disturbed(self,
                                                           fleet_world):
        fleets = self._fleets(fleet_world)
        assert not any(fleets.disturbed(rid) for rid in fleets.pops)
        assert not fleets.disturbed("isp-0-nowhere")
        fleets.withdraw("pub-GloboDNS-dallas")
        fleets.flapping.add("OpenFast")
        disturbed = {rid for rid in fleets.pops if fleets.disturbed(rid)}
        assert disturbed == {"pub-GloboDNS-dallas"} | {
            pop.resolver_id for pop in fleets.by_provider["OpenFast"]}

    def test_non_pop_ids_pass_through(self, fleet_world):
        fleets = self._fleets(fleet_world)
        block = fleet_world.internet.blocks[0]
        assert fleets.route("isp-0-nowhere", block) == "isp-0-nowhere"

    def test_withdrawn_pop_rehomes_to_nearest_sibling(self, fleet_world):
        fleets = self._fleets(fleet_world)
        rid = "pub-GloboDNS-dallas"
        block = self._block_for(fleet_world, rid)
        fleets.withdraw(rid)
        target = fleets.route(rid, block)
        assert target != rid and target is not None
        assert fleets.pops[target].resolver.provider == "GloboDNS"
        assert fleets.pops[target].healthy
        fleets.restore(rid)
        assert fleets.route(rid, block) == rid
        assert fleets.all_healthy()

    def test_flap_moves_odd_blocks_only(self, fleet_world):
        fleets = self._fleets(fleet_world)
        fleets.flapping.add("GloboDNS")
        rid = "pub-GloboDNS-dallas"
        odd = next(b for b in fleet_world.internet.blocks
                   if (b.prefix.network >> 8) & 1 == 1)
        even = next(b for b in fleet_world.internet.blocks
                    if (b.prefix.network >> 8) & 1 == 0)
        assert fleets.route(rid, even) == rid
        assert fleets.route(rid, odd) != rid

    def test_fleet_dark_returns_none(self, fleet_world):
        fleets = self._fleets(fleet_world)
        block = fleet_world.internet.blocks[0]
        for pop in fleets.by_provider["UltraLevel"]:
            fleets.withdraw(pop.resolver_id)
        assert fleets.route("pub-UltraLevel-dallas", block) is None
        assert fleets.pops_down == len(fleets.by_provider["UltraLevel"])

    def test_single_pop_catchment_still_draws(self, fleet_world):
        # Satellite: a fleet shrunk to one PoP must keep the RNG
        # stream aligned with the healthy world's -- the trivial pick
        # still consumes its misroute draw.
        deployment = fleet_world.internet.providers[0].deployments[0]
        block = fleet_world.internet.blocks[0]
        picked_rng = random.Random(5)
        parallel_rng = random.Random(5)
        picked = anycast_catchment(block.geo, [deployment], picked_rng)
        assert picked is deployment
        parallel_rng.random()
        assert picked_rng.getstate() == parallel_rng.getstate()


class TestResolverInjector:
    def test_city_outage_applies_and_reverts(self, fleet_world):
        schedule = FaultSchedule((_event(start_day=1, duration_days=2),))
        injector = FaultInjector(fleet_world, schedule)
        fleets = fleet_world.resolver_fleets
        injector.step(0)
        assert fleets.all_healthy()
        injector.step(1)
        assert not fleets.pops["pub-GloboDNS-dallas"].healthy
        assert fleets.pops_down == 1
        injector.step(3)
        assert fleets.all_healthy()

    def test_provider_outage_takes_whole_fleet(self, fleet_world):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1, target="public:UltraLevel"),))
        injector = FaultInjector(fleet_world, schedule)
        fleets = fleet_world.resolver_fleets
        injector.step(0)
        assert not any(p.healthy
                       for p in fleets.by_provider["UltraLevel"])
        assert all(p.healthy for p in fleets.by_provider["GloboDNS"])
        injector.finish()
        assert fleets.all_healthy()

    def test_anycast_flap_applies_and_reverts(self, fleet_world):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1, kind=FaultKind.ANYCAST_FLAP,
            target="public:OpenFast"),))
        injector = FaultInjector(fleet_world, schedule)
        injector.step(0)
        assert fleet_world.resolver_fleets.flapping == {"OpenFast"}
        injector.finish()
        assert not fleet_world.resolver_fleets.flapping

    def test_whitelist_revoke_applies_and_reverts(self, fleet_world):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1,
            kind=FaultKind.ECS_WHITELIST_REVOKE, target="public:*"),))
        injector = FaultInjector(fleet_world, schedule)
        public = set(fleet_world.public_ldns_ids())
        injector.step(0)
        for rid, ldns in fleet_world.ldns_registry.items():
            assert ldns.ecs_whitelisted == (rid not in public)
        injector.finish()
        assert all(ldns.ecs_whitelisted
                   for ldns in fleet_world.ldns_registry.values())

    @pytest.mark.parametrize("target,hint", [
        ("public:NoSuchDNS", "unknown public provider"),
        ("public:GloboDNS:atlantis", "no PoP in city"),
    ])
    def test_unknown_provider_or_city_raise(self, fleet_world, target,
                                            hint):
        schedule = FaultSchedule((_event(
            start_day=0, duration_days=1, target=target),))
        injector = FaultInjector(fleet_world, schedule)
        with pytest.raises(KeyError, match=hint):
            injector.step(0)


class TestCatchmentEdgeCases:
    """Satellite: all PoPs down, cold caches at the boundary, and
    byte-exact recovery."""

    def _session_for(self, world, resolver_id, now, seed=11):
        rng = random.Random(seed)
        block = next(b for b in world.internet.blocks
                     if b.ldns[0][0] == resolver_id
                     and len(b.ldns) == 1)
        provider = world.catalog.providers[0]
        return simulate_session(world, block, now, rng,
                                provider=provider), block

    def test_all_pops_down_falls_back_past_the_fleet(self):
        world = build_world(WorldConfig.tiny())
        fleets = world.resolver_fleets
        for rid in sorted(fleets.pops):
            fleets.withdraw(rid)
        result, _ = self._session_for(world, "pub-GloboDNS-dallas",
                                      now=100.0)
        # The whole public plane is dark: the stub burns its timeout,
        # then fails over to an ISP/enterprise resolver -- never to
        # another (equally dark) public PoP.
        assert not result.failed
        assert result.degraded
        assert not result.resolver_id.startswith("pub-")
        assert not result.catchment_shifted

    def test_cold_cache_only_at_the_outage_boundary(self):
        world = build_world(WorldConfig.tiny())
        world.resolver_fleets.withdraw("pub-GloboDNS-dallas")
        first, block = self._session_for(world, "pub-GloboDNS-dallas",
                                         now=100.0)
        assert first.catchment_shifted
        assert first.cold_cache_miss
        # Same client population, same domain, well inside the TTL:
        # the failover PoP's cache is warm now, so the session is
        # still shifted but no longer a cold miss.
        second, _ = self._session_for(world, "pub-GloboDNS-dallas",
                                      now=110.0)
        assert second.resolver_id == first.resolver_id
        assert second.catchment_shifted
        assert not second.cold_cache_miss
        snapshot = world.obs.registry.snapshot()
        assert snapshot["counters"]["resolver.pop_failovers"] == 2.0
        assert snapshot["counters"]["resolver.cold_cache_misses"] == 1.0

    def test_outage_then_recovery_restores_catchments_exactly(self):
        world = build_world(WorldConfig.tiny())
        fleets = world.resolver_fleets
        block = next(b for b in world.internet.blocks
                     if b.ldns[0][0] == "pub-GloboDNS-dallas")
        before = {rid: fleets.route(rid, block)
                  for rid in sorted(fleets.pops)}
        schedule = FaultSchedule((_event(start_day=1, duration_days=2),))
        injector = FaultInjector(world, schedule)
        injector.step(1)
        assert fleets.route("pub-GloboDNS-dallas", block) != (
            "pub-GloboDNS-dallas")
        injector.finish()
        after = {rid: fleets.route(rid, block)
                 for rid in sorted(fleets.pops)}
        assert before == after
        assert fleets.all_healthy()
        assert not world_restored(world)


def _scenario_spec(seed=42):
    """The PR's acceptance scenario: one PoP withdrawn mid-run over a
    monitored roll-out, recovering with days to spare."""
    from repro.simulation.rollout import RolloutConfig
    rollout = RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 14),
        rollout_start=datetime.date(2014, 3, 2),
        rollout_end=datetime.date(2014, 3, 5),
        sessions_per_day=250,
        seed=seed,
    )
    faults = FaultSchedule((
        FaultEvent(start_day=3, duration_days=5,
                   target="public:GloboDNS:washington",
                   kind=FaultKind.POP_OUTAGE),
    ))
    return ScenarioSpec(world=WorldConfig.tiny(), rollout=rollout,
                        faults=faults)


@pytest.fixture(scope="module")
def outage_scenario():
    outcome = run(_scenario_spec())
    return outcome, outcome.report()


class TestPopOutageScenario:
    def test_cohort_shifts_and_pays_cold_caches(self, outage_scenario):
        outcome, _ = outage_scenario
        shifted = outcome.result.catchment_shifted_per_day
        outage_days = {day for day, count in shifted.items() if count}
        assert outage_days, "the outage never re-homed a session"
        assert all(3 <= day < 8 for day in outage_days)
        counters = outcome.world.obs.registry.snapshot()["counters"]
        assert counters["resolver.pop_failovers"] == sum(
            shifted.values())
        assert counters["resolver.cold_cache_misses"] > 0

    def test_outage_alert_fires_and_resolves(self, outage_scenario):
        outcome, _ = outage_scenario
        kinds = [alert.kind for alert in outcome.monitor.engine.log
                 if alert.rule == "resolver_pop_outage"]
        assert "fired" in kinds and "resolved" in kinds
        assert "resolver_pop_outage" not in (
            outcome.monitor.engine.firing())

    def test_availability_floor_holds(self, outage_scenario):
        outcome, _ = outage_scenario
        failed = sum(outcome.result.failed_sessions_per_day.values())
        completed = len(outcome.result.rum)
        assert completed / (completed + failed) > 0.99

    def test_degradation_counters_stay_monotone(self, outage_scenario):
        outcome, _ = outage_scenario
        series = outcome.monitor.store.get(
            "resolver.pop_failovers_today")
        assert series is not None
        assert all(value >= 0 for value in series.values)
        shifted = outcome.result.catchment_shifted_per_day
        assert sum(series.values) == sum(shifted.values())

    def test_recovers_exactly(self, outage_scenario):
        outcome, _ = outage_scenario
        assert outcome.world.resolver_fleets.all_healthy()
        assert not world_restored(outcome.world)
        tail_days = [day for day, count
                     in outcome.result.catchment_shifted_per_day.items()
                     if day >= 8 and count]
        assert not tail_days

    def test_same_seed_runs_are_byte_identical(self, outage_scenario):
        _, first = outage_scenario
        second = run(_scenario_spec()).report()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_golden_projection(self, outage_scenario):
        outcome, report = outage_scenario
        shifted = outcome.result.catchment_shifted_per_day
        counters = outcome.world.obs.registry.snapshot()["counters"]
        share = outcome.monitor.store.get(
            "mapping.catchment_shift_share")
        projection = {
            "days_observed": report["days_observed"],
            "events_applied": outcome.injector.events_applied,
            "failed_sessions": sum(
                outcome.result.failed_sessions_per_day.values()),
            "shifted_sessions": sum(shifted.values()),
            "shifted_days": sorted(day for day, count
                                   in shifted.items() if count),
            "cold_cache_misses": counters.get(
                "resolver.cold_cache_misses", 0.0),
            "alerts": [[e["step"], e["rule"], e["kind"]]
                       for e in report["alerts"]["log"]],
            "firing": report["alerts"]["firing"],
            "shift_share_days": [
                step for step, value
                in zip(share.steps, share.values) if value > 0],
            "resolver_series_present": sorted(
                name for name in report["series"]
                if name.startswith(("resolver.", "mapping.catchment"))),
        }
        check_golden(GOLDEN_PATH, projection)


class TestResolverSoakMenu:
    """The soak has one menu -- the fault table -- so resolver-plane
    kinds are drawn like any other, and break the PoP fleets every
    soak world has."""

    def test_soak_draws_resolver_kinds_and_activates_fleets(self):
        from repro.faults.chaos import SoakConfig, _scenario_spec
        from repro.simulation.world import _build_world
        specs = [_scenario_spec(SoakConfig(), index) for index in range(16)]
        resolver_specs = [
            spec for spec in specs
            if any(e.kind in FaultKind.RESOLVER_PLANE
                   for e in spec.faults.events)]
        assert resolver_specs
        # One drawn schedule, injected and recovered on its own world:
        # every resolver-plane victim is there to break.
        spec = resolver_specs[0]
        world = _build_world(spec)
        injector = FaultInjector(world, spec.faults)
        for day in range(spec.rollout.n_days):
            injector.step(day)
        injector.finish()
        assert injector.events_applied == len(spec.faults)
        assert not world_restored(world)

    def test_resolver_menu_targets_parse(self):
        from repro.faults.kinds import KINDS
        rows = [KINDS[kind] for kind in FaultKind.RESOLVER_PLANE]
        schedule = decode(FaultSchedule, [
            dict(start_day=1, duration_days=2, kind=row.name,
                 target=row.soak_targets[0])
            for row in rows])
        assert len(schedule) == len(rows) == 3


class TestPlaneAlwaysOn:
    def test_default_world_has_fleets_and_a_healthy_run_never_shifts(
            self):
        from repro.simulation.rollout import RolloutConfig
        day = datetime.date(2014, 3, 1)
        outcome = run(ScenarioSpec(
            world=WorldConfig.tiny(), monitor=False,
            rollout=RolloutConfig(
                start_date=day, end_date=day + datetime.timedelta(days=4),
                rollout_start=day + datetime.timedelta(days=1),
                rollout_end=day + datetime.timedelta(days=2),
                sessions_per_day=40, seed=3)))
        fleets = outcome.world.resolver_fleets
        assert fleets.pops and fleets.all_healthy()
        shifted = outcome.result.catchment_shifted_per_day
        assert len(shifted) == 5 and not any(shifted.values())
        gauges = outcome.world.obs.registry.snapshot()["gauges"]
        assert gauges["resolver.pops_total"] == len(fleets.pops)
        assert gauges["resolver.pops_healthy"] == len(fleets.pops)
        assert gauges["resolver.pops_down"] == 0
        assert gauges["resolver.providers_flapping"] == 0


class TestScenarioSpecResolverPolicies:
    def test_spec_roundtrips_with_policies(self):
        spec = ScenarioSpec(
            world=WorldConfig.tiny(),
            resolver_policies=ResolverPolicySet((
                ("GloboDNS", EcsPolicy(whitelist_enabled=False)),
                ("OpenFast", EcsPolicy(scope_ceiling=20)),
            )))
        parsed = ScenarioSpec.from_json(spec.to_json())
        assert parsed.resolver_policies == spec.resolver_policies
        assert parsed.describe()["resolver_policies"] is True

    def test_unset_policies_stay_off_the_wire(self):
        # The default set (every provider on the default ECS policy)
        # is not written, spelled out or not, and parses back as itself.
        doc = ScenarioSpec(world=WorldConfig.tiny()).to_dict()
        assert "resolver_policies" not in doc
        assert doc == ScenarioSpec(
            world=WorldConfig.tiny(),
            resolver_policies=ResolverPolicySet()).to_dict()
        parsed = ScenarioSpec.from_dict(doc)
        assert parsed.resolver_policies == ResolverPolicySet()

    def test_bad_policy_document_rejected(self):
        doc = ScenarioSpec(world=WorldConfig.tiny()).to_dict()
        doc["resolver_policies"] = {"GloboDNS": {"scope_celing": 8}}
        with pytest.raises(ValueError, match=r"resolver_policies\.GloboDNS"
                                             r".*\['scope_celing'\]"):
            ScenarioSpec.from_dict(doc)


class TestShardedResolverParity:
    def test_pop_outage_reports_match_across_worker_counts(self):
        spec = _scenario_spec()
        reports = {}
        for workers in (1, 4):
            sharded = run(spec, workers=workers, shards=4)
            reports[workers] = json.dumps(sharded.report(),
                                          sort_keys=True)
        assert reports[1] == reports[4]
