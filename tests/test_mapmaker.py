"""Control plane: published maps, the MapMaker process model, watchdog
failover, the degradation ladder, and the end-to-end acceptance
scenario (primary killed mid-rollout, then the whole control plane,
over one monitored roll-out).

The scenario pins the PR's acceptance criteria: the map-age gauge
rises while no publications land, the ``map_stale`` alert fires and
resolves, decisions visibly walk down the ladder (``ns_fallback``
share > 0 at deep staleness) and return to ``fresh_eu`` after
recovery, and the whole thing replays byte-identically (plus a golden
fixture, regenerated with ``REGEN_GOLDEN=1``).
"""

import datetime
import json
from dataclasses import replace

import pytest

from repro.api import ScenarioSpec, build_world, run
from repro.core.mapmaker import (
    MapMaker,
    MapMakerConfig,
    MapPublicationService,
    PublishedMap,
    StaticGeoMap,
    TIERS,
    compile_entries,
    eu_key,
    ns_key,
)
from repro.core.mapmaker.published import entries_checksum
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.types import QType
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.net.geometry import great_circle_miles
from repro.net.latency import LatencyModel
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

from tests.golden import DATA_DIR, check_golden

GOLDEN_PATH = DATA_DIR / "golden_mapmaker.json"


class TestPublishedMap:
    def test_build_verifies_and_looks_up(self):
        published = PublishedMap.build(
            3, 7, {"eu:10.0.0.0/24": ("c-1", "c-2"), "ns:42": ("c-2",)})
        assert published.verify()
        assert published.version == 3
        assert published.lookup("eu:10.0.0.0/24") == ("c-1", "c-2")
        assert published.lookup("missing") == ()
        assert len(published) == 2
        assert published.age(7) == 0
        assert published.age(12) == 5
        assert published.age(3) == 0  # clock skew clamps to fresh

    def test_checksum_covers_every_field(self):
        entries = {"ns:1": ("c-1",)}
        base = entries_checksum(1, 0, entries)
        assert entries_checksum(2, 0, entries) != base
        assert entries_checksum(1, 1, entries) != base
        assert entries_checksum(1, 0, {"ns:1": ("c-2",)}) != base
        assert entries_checksum(1, 0, entries) == base

    def test_tampered_map_fails_verification(self):
        published = PublishedMap.build(1, 0, {"ns:1": ("c-1",)})
        tampered = PublishedMap(
            version=published.version,
            published_day=published.published_day,
            entries={"ns:1": ("c-666",)},
            checksum=published.checksum)
        assert not tampered.verify()


class TestMapMakerConfig:
    def test_defaults_are_ordered(self):
        config = MapMakerConfig()
        assert (config.fresh_age_days <= config.stale_age_days
                <= config.ns_age_days)

    @pytest.mark.parametrize("overrides", [
        dict(publish_interval_days=0),
        dict(fresh_age_days=9, stale_age_days=6),
        dict(stale_age_days=20, ns_age_days=12),
        dict(watchdog_timeout_days=0),
        dict(top_clusters=0),
        dict(max_eu_units=0),
        dict(max_eu_units=-1),
        dict(fresh_age_days=-3),
    ])
    def test_bad_knobs_rejected(self, overrides):
        with pytest.raises(ValueError):
            MapMakerConfig(**overrides)

    @pytest.mark.parametrize("overrides", [
        dict(max_eu_units=0),
        dict(max_eu_units=-1),
        dict(fresh_age_days=-3),
        dict(fresh_age_days=-3, stale_age_days=-2, ns_age_days=-1),
    ])
    def test_bad_knobs_rejected_from_scenario_documents(self, overrides):
        doc = ScenarioSpec(world=WorldConfig.tiny(),
                           control_plane=MapMakerConfig()).to_dict()
        doc["control_plane"].update(overrides)
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(doc)


@pytest.fixture(scope="module")
def cp_world():
    return build_world(WorldConfig.tiny(),
                       control_plane=MapMakerConfig())


class TestCompile:
    def test_compile_is_deterministic_and_capped(self, cp_world):
        service = cp_world.control_plane
        first = compile_entries(service.deployments, service.scorer,
                                service.internet, service.units,
                                top_clusters=4)
        second = compile_entries(service.deployments, service.scorer,
                                 service.internet, service.units,
                                 top_clusters=4)
        assert first == second
        assert first, "compile produced an empty map"
        assert any(key.startswith("eu:") for key in first)
        assert any(key.startswith("ns:") for key in first)
        assert all(len(ids) <= 4 for ids in first.values())

    def test_eu_unit_budget_keeps_heaviest_blocks(self, cp_world):
        service = cp_world.control_plane
        capped = compile_entries(service.deployments, service.scorer,
                                 service.internet, service.units,
                                 max_eu_units=5)
        eu_keys = [key for key in capped if key.startswith("eu:")]
        heaviest = sorted(service.internet.blocks,
                          key=lambda b: (-b.demand, str(b.prefix)))[:5]
        assert sorted(eu_keys) == sorted(
            eu_key(str(b.prefix)) for b in heaviest)
        # Resolver units are never sacrificed to the EU budget.
        assert any(key.startswith("ns:") for key in capped)

    def test_default_map_matches_the_scalar_reference(self, cp_world):
        """The default map is the per-/24 table: every block's entry is
        its top live clusters by ``(score, cluster_id)`` at the block's
        geolocation and AS, each score from the scalar latency model."""
        service = cp_world.control_plane
        internet, scorer = service.internet, service.scorer
        assert service.unit_scheme == "geo_as"
        assert scorer.load_tracker is None
        live = service.deployments.live_clusters()
        top = service.config.top_clusters
        entries = service.current.entries
        model = LatencyModel()
        for block in internet.blocks:
            record = internet.geodb.lookup_prefix(block.prefix)

            def score(cluster):
                return float(scorer.scores_from_rtt(model.base_rtt_ms(
                    cluster.geo, cluster.asn, record.geo, record.asn)))

            ranked = sorted(live, key=lambda c: (score(c), c.cluster_id))
            assert entries[eu_key(str(block.prefix))] == tuple(
                c.cluster_id for c in ranked[:top]), block.prefix


class TestStaticGeoMap:
    def test_ranks_live_clusters_nearest_first(self, cp_world):
        static = StaticGeoMap(cp_world.deployments, limit=5)
        geo = next(iter(
            cp_world.deployments.clusters.values())).geo
        ranked = static.rank(geo)
        assert 0 < len(ranked) <= 5
        assert all(cluster.alive for cluster in ranked)
        assert ranked == static.rank(geo)  # memo hit, same object

    def test_rank_reacts_to_cluster_death(self, cp_world):
        static = StaticGeoMap(cp_world.deployments, limit=3)
        geo = next(iter(cp_world.deployments.clusters.values())).geo
        before = static.rank(geo)
        victim = before[0]
        for server in victim.servers:
            server.fail()
        try:
            after = static.rank(geo)
            assert victim not in after
        finally:
            for server in victim.servers:
                server.recover()
        assert victim in static.rank(geo)

    def test_same_size_live_set_swap_reranks(self, cp_world):
        """Regression: the memo was keyed on the live set's *size*, so
        one cluster recovering while another died served the ranking
        that still lacked the recovered cluster."""
        static = StaticGeoMap(cp_world.deployments)
        geo = cp_world.internet.blocks[0].geo
        by_distance = sorted(
            cp_world.deployments.clusters.values(),
            key=lambda c: (great_circle_miles(geo, c.geo), c.cluster_id))
        nearest, farthest = by_distance[0], by_distance[-1]
        try:
            for server in nearest.servers:
                server.fail()
            assert nearest not in static.rank(geo)
            for server in nearest.servers:
                server.recover()
            for server in farthest.servers:
                server.fail()
            assert static.rank(geo)[0] is nearest
        finally:
            for cluster in (nearest, farthest):
                for server in cluster.servers:
                    server.recover()


class TestPublicationService:
    def _service(self, cp_world, **knobs):
        source = cp_world.control_plane
        return MapPublicationService(
            MapMakerConfig(**knobs), deployments=source.deployments,
            scorer=source.scorer, internet=source.internet)

    def test_bootstrap_publishes_version_one(self, cp_world):
        service = cp_world.control_plane
        assert service.current.version >= 1
        assert service.current.verify()
        assert len(service.current) > 0

    def test_daily_tick_republishes(self, cp_world):
        service = self._service(cp_world)
        version = service.current.version
        service.tick(1)
        assert service.current.version == version + 1
        assert service.map_age(1) == 0

    def test_watchdog_promotes_standby(self, cp_world):
        service = self._service(cp_world, watchdog_timeout_days=2)
        service.tick(1)
        primary, standby = service.primary, service.standby
        primary.alive = False
        service.tick(2)  # one missed heartbeat: within budget
        assert service.primary is primary
        service.tick(3)  # second miss: promote
        assert service.primary is standby
        assert primary.role == "standby"
        assert service.failovers == 1
        version = service.current.version
        service.tick(4)  # the promoted maker publishes
        assert service.current.version == version + 1

    def test_hang_is_indistinguishable_from_crash(self, cp_world):
        service = self._service(cp_world, watchdog_timeout_days=2)
        service.tick(1)
        wedged = service.primary
        wedged.hung = True
        version = service.current.version
        service.tick(2)
        service.tick(3)
        assert service.primary is not wedged
        assert service.failovers == 1
        assert service.current.version == version  # no publish while hung

    def test_slow_publish_ages_the_map(self, cp_world):
        service = self._service(cp_world)
        service.primary.slow_factor = 3.0
        service.tick(1)
        service.tick(2)
        assert service.map_age(2) == 2  # no publication yet
        service.tick(3)  # progress reaches 1.0 on the third tick
        assert service.map_age(3) == 0
        # Heartbeats keep flowing, so the watchdog stays quiet.
        assert service.failovers == 0

    def test_corrupt_publication_rejected(self, cp_world):
        service = self._service(cp_world)
        service.primary.corrupting = True
        version = service.current.version
        service.tick(1)
        service.tick(2)
        assert service.maps_rejected == 2
        assert service.current.version == version
        assert service.current.verify()  # the old map is intact
        assert service.map_age(2) == 2
        service.primary.corrupting = False
        service.tick(3)
        assert service.current.version == version + 1
        assert service.map_age(3) == 0

    def test_degradation_ladder_tiers(self, cp_world):
        service = self._service(cp_world)
        prefix = service.internet.blocks[0].prefix
        ldns_ip = next(meta.ip for meta in service.internet.resolvers.values()
                       if ns_key(meta.ip) in service.current.entries)
        config = service.config

        ids, tier = service.lookup(prefix, ldns_ip, day=0)
        assert tier == "fresh_eu" and ids
        assert ids == service.current.lookup(eu_key(str(prefix)))
        _, tier = service.lookup(prefix, ldns_ip,
                                 day=config.fresh_age_days)
        assert tier == "fresh_eu"
        _, tier = service.lookup(prefix, ldns_ip,
                                 day=config.fresh_age_days + 1)
        assert tier == "stale_eu"
        _, tier = service.lookup(prefix, ldns_ip,
                                 day=config.stale_age_days + 1)
        assert tier == "ns_fallback"
        ids, tier = service.lookup(None, ldns_ip, day=0)
        assert tier == "ns"
        assert ids == service.current.lookup(ns_key(ldns_ip))
        ids, tier = service.lookup(prefix, ldns_ip,
                                   day=config.ns_age_days + 1)
        assert tier == "static_geo" and ids == ()
        # A client prefix in no unit (a /22 scope, say) settles for
        # resolver granularity...
        coarse = prefix.supernet(22)
        assert service.unit_key_for(coarse) is None
        ids, tier = service.lookup(coarse, ldns_ip, day=0)
        assert tier == "ns_fallback" and ids
        # ...and an unknown resolver falls through the ladder too.
        ids, tier = service.lookup(coarse, 0, day=0)
        assert tier == "static_geo" and ids == ()
        assert tier in TIERS



def test_scope_follows_the_rung():
    """An answer from a resolver-keyed rung (``ns``, ``ns_fallback``)
    declares scope 0, whatever subnet the query carried; the rungs
    that rank for the client keep its scope."""
    world = build_world(WorldConfig.tiny(), control_plane=MapMakerConfig())
    service = world.control_plane
    config = service.config
    assert service.current.published_day == 0
    qname = world.catalog.providers[0].cdn_hostname
    prefix = world.internet.blocks[0].prefix
    ldns_ip = next(meta.ip for meta in world.internet.resolvers.values()
                   if ns_key(meta.ip) in service.current.entries)
    tiers = world.obs.registry

    def answer(client_prefix, day):
        before = {tier: tiers.counter("mapping.tier." + tier).value
                  for tier in TIERS}
        ecs = (None if client_prefix is None
               else ClientSubnetOption(client_prefix))
        result = world.mapping.answer(qname, QType.A, ecs, ldns_ip,
                                      day * 86400.0)
        assert result.records
        rung, = (tier for tier in TIERS
                 if tiers.counter("mapping.tier." + tier).value
                 > before[tier])
        return rung, result.scope_prefix_len

    assert answer(prefix, 0) == ("fresh_eu", 24)
    assert answer(prefix, config.fresh_age_days + 1) == ("stale_eu", 24)
    assert answer(None, 0) == ("ns", 0)
    # An ECS /22 is in no unit: resolver granularity, scope 0 (not 22).
    assert answer(prefix.supernet(22), 0) == ("ns_fallback", 0)
    # A /24 once the map is past its stale bound: scope 0 (not 24).
    assert answer(prefix, config.stale_age_days + 1) == ("ns_fallback", 0)
    assert answer(prefix, config.ns_age_days + 1) == ("static_geo", 24)


# -- the acceptance scenario ------------------------------------------------

def _scenario_spec(seed=7):
    """Kill the primary mid-rollout (watchdog failover), then the whole
    control plane for nine days (the map ages through every EU tier
    into NS fallback), over one monitored roll-out."""
    rollout = RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 31),
        rollout_start=datetime.date(2014, 3, 8),
        rollout_end=datetime.date(2014, 3, 15),
        sessions_per_day=30,
        seed=seed,
    )
    faults = FaultSchedule((
        FaultEvent(start_day=8, duration_days=4, target="mapmaker:primary",
                   kind=FaultKind.MAPMAKER_CRASH),
        FaultEvent(start_day=15, duration_days=9, target="mapmaker:*",
                   kind=FaultKind.MAPMAKER_CRASH),
    ))
    return ScenarioSpec(
        world=replace(WorldConfig.tiny(), serve_stale_window=900.0),
        rollout=rollout,
        faults=faults,
        control_plane=MapMakerConfig(),
    )


@pytest.fixture(scope="module")
def scenario():
    outcome = run(_scenario_spec())
    return outcome, outcome.report()


class TestControlPlaneScenario:
    def test_map_age_rises_and_recovers(self, scenario):
        outcome, _ = scenario
        age = outcome.monitor.store.get("mapmaker.map_age_days")
        assert age is not None
        by_day = dict(zip(age.steps, age.values))
        assert max(age.values) >= 8.0, "map never went deeply stale"
        assert by_day[age.steps[-1]] == 0.0, "map still stale at end"

    def test_failover_happens_and_alert_fires(self, scenario):
        outcome, _ = scenario
        assert outcome.world.control_plane.failovers == 1
        kinds = [alert.kind for alert in outcome.monitor.engine.log
                 if alert.rule == "mapmaker_failover"]
        assert "fired" in kinds and "resolved" in kinds

    def test_map_stale_alert_fires_and_resolves(self, scenario):
        outcome, _ = scenario
        kinds = [alert.kind for alert in outcome.monitor.engine.log
                 if alert.rule == "map_stale"]
        assert "fired" in kinds and "resolved" in kinds
        assert not [rule for rule in outcome.monitor.engine.firing()
                    if rule in ("map_stale", "mapmaker_failover")]

    def test_decisions_walk_down_and_back_up_the_ladder(self, scenario):
        outcome, _ = scenario
        store = outcome.monitor.store

        def share(tier):
            series = store.get(f"mapping.tier_share.{tier}")
            assert series is not None
            return dict(zip(series.steps, series.values))

        fresh, stale, fallback = (share("fresh_eu"), share("stale_eu"),
                                  share("ns_fallback"))
        # Post-rollout, pre-outage: EU decisions at full trust.
        assert any(fresh[day] > 0 for day in range(12, 15))
        # The nine-day blackout ages the map through stale_eu...
        assert any(stale[day] > 0 for day in range(17, 21))
        # ...into resolver granularity for ECS-carrying queries.
        assert any(fallback[day] > 0 for day in range(21, 24))
        # Recovery: a fresh publication brings EU decisions back.
        assert any(fresh[day] > 0 for day in range(24, 31))
        assert all(fallback[day] == 0 for day in range(24, 31))

    def test_sessions_survive_the_blackout(self, scenario):
        outcome, _ = scenario
        assert sum(outcome.result.failed_sessions_per_day.values()) == 0
        assert len(outcome.result.rum) > 0

    def test_world_restored_after_run(self, scenario):
        outcome, _ = scenario
        for maker in outcome.world.control_plane.makers:
            assert maker.alive and not maker.hung
            assert maker.slow_factor == 1.0 and not maker.corrupting
        assert "faults" not in outcome.world.obs.tracer.context

    def test_same_seed_runs_are_byte_identical(self, scenario):
        _, first = scenario
        second = run(_scenario_spec()).report()
        assert (json.dumps(first, sort_keys=True)
                == json.dumps(second, sort_keys=True))

    def test_golden_projection(self, scenario):
        outcome, report = scenario
        store = outcome.monitor.store
        age = store.get("mapmaker.map_age_days")
        fallback = store.get("mapping.tier_share.ns_fallback")
        projection = {
            "days_observed": report["days_observed"],
            "maps_published": outcome.world.control_plane.maps_published,
            "failovers": outcome.world.control_plane.failovers,
            "max_map_age": max(age.values),
            "map_age_by_day": [
                [step, value]
                for step, value in zip(age.steps, age.values)
                if value > 0],
            "ns_fallback_days": [
                step for step, value
                in zip(fallback.steps, fallback.values) if value > 0],
            "alerts": [[e["step"], e["rule"], e["kind"]]
                       for e in report["alerts"]["log"]
                       if e["rule"] in ("map_stale", "mapmaker_failover")],
            "firing": report["alerts"]["firing"],
            "tier_series_present": sorted(
                name for name in report["series"]
                if name.startswith("mapping.tier_share.")),
        }
        check_golden(GOLDEN_PATH, projection)


class TestInjectorControlPlaneTargets:
    def test_mapmaker_fault_needs_control_plane(self):
        from repro.faults import FaultInjector

        world = build_world(WorldConfig.tiny())
        schedule = FaultSchedule((FaultEvent(
            start_day=0, duration_days=1, target="mapmaker:primary",
            kind=FaultKind.MAPMAKER_CRASH),))
        with pytest.raises(KeyError, match="control plane"):
            FaultInjector(world, schedule).step(0)

    def test_role_targets_resolve_at_apply_time(self, cp_world):
        from repro.faults import FaultInjector

        service = cp_world.control_plane
        schedule = FaultSchedule((
            FaultEvent(start_day=0, duration_days=2,
                       target="mapmaker:primary",
                       kind=FaultKind.MAPMAKER_CRASH),
            FaultEvent(start_day=1, duration_days=2,
                       target="mapmaker:standby",
                       kind=FaultKind.MAPMAKER_HANG),
        ))
        injector = FaultInjector(cp_world, schedule)
        original_primary = service.primary
        injector.step(0)
        assert not original_primary.alive
        # No failover has run, so "standby" still names the other maker.
        injector.step(1)
        assert service.standby.hung
        assert service.standby is not original_primary
        injector.finish()
        assert all(m.alive and not m.hung for m in service.makers)
