"""Integration tests: world builder, session model, roll-out, DNS load."""

import datetime
import hashlib
import json
import random

import pytest

from repro.core.policies import EUMappingPolicy, NSMappingPolicy
from repro.api import ScenarioSpec, build_world, run_dnsload, run_rollout
from repro.simulation import (
    RolloutConfig,
    WorldConfig,
    simulate_session,
)
from repro.simulation.dnsload import DnsLoadConfig
from repro.simulation.rollout import classify_expectation_groups


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny())


class TestWorldBuilder:
    def test_components_wired(self, world):
        assert len(world.nameservers) == world.config.n_nameservers
        assert len(world.ldns_registry) == len(world.internet.resolvers)
        assert len(world.origins) == len(world.catalog.providers)
        assert len(world.deployments) == world.config.n_deployments

    def test_nameservers_answer_cdn_zone(self, world):
        ns = world.nameservers[0]
        assert ns.zone_for("e1000.cdn.example") is world.mapping

    def test_directory_covers_provider_zones(self, world):
        provider = world.catalog.providers[0]
        assert world.directory.authority_for(provider.domain) is not None
        assert world.directory.authority_for("e1000.cdn.example") is not None

    def test_ecs_flipping(self, world):
        """ECS ends up on at exactly the given resolvers, at the given
        source length, and off at every other; the count comes back."""
        public = world.public_ldns_ids()
        assert world.enable_ecs(public) == len(public)
        assert ecs_senders(world) == public
        # Idempotent, and each call replaces the last set whole.
        assert world.enable_ecs(public) == len(public)
        assert world.enable_ecs(public[:3], source_prefix_len=20) == 3
        assert ecs_senders(world) == public[:3]
        assert {world.ldns_registry[rid].ecs_source_len
                for rid in public[:3]} == {20}
        assert world.enable_ecs([]) == 0
        assert ecs_senders(world) == []

    def test_isp_resolvers_never_flip(self, world):
        """No roll-out tranche names an ISP resolver; the setter itself
        has no gate and switches on whatever it is given."""
        public = world.public_ldns_ids()
        config = RolloutConfig()
        tranches = [config.ecs_tranche(day, public)
                    for day in range(config.n_days)]
        assert tranches[0] == [] and tranches[-1] == public
        assert all(later[:len(earlier)] == earlier
                   for earlier, later in zip(tranches, tranches[1:]))
        isp_ids = sorted(set(world.ldns_registry) - set(public))
        assert world.enable_ecs(isp_ids[:5]) == 5
        assert ecs_senders(world) == isp_ids[:5]
        world.enable_ecs([])

    @pytest.mark.parametrize("length", [0, -1, 33])
    def test_enable_ecs_rejects_bad_source_length(self, world, length):
        world.enable_ecs(world.public_ldns_ids()[:4], source_prefix_len=20)
        before = ecs_state(world)
        with pytest.raises(ValueError, match="ECS source length"):
            world.enable_ecs(world.public_ldns_ids(),
                             source_prefix_len=length)
        assert ecs_state(world) == before
        world.enable_ecs([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_deployments=2, n_nameservers=5)


class TestSessionModel:
    def test_session_end_to_end(self, world):
        rng = random.Random(1)
        block = world.internet.pick_block(rng)
        session = simulate_session(world, block, now=0.0, rng=rng)
        assert session.dns_ms > 0
        assert session.rtt_ms > 0
        assert session.ttfb_ms > session.rtt_ms  # includes server time
        assert session.download_ms > 0
        assert session.requests >= 2
        assert session.mapping_distance_miles >= 0
        assert session.cluster_id in world.deployments.clusters

    def test_page_load_composition(self, world):
        rng = random.Random(2)
        block = world.internet.pick_block(rng)
        session = simulate_session(world, block, now=0.0, rng=rng)
        assert session.page_load_ms == pytest.approx(
            session.dns_ms + session.connect_ms + session.ttfb_ms
            + session.download_ms)

    def test_repeat_sessions_hit_edge_cache(self, world):
        rng = random.Random(3)
        block = world.internet.pick_block(rng)
        provider = world.catalog.providers[0]
        page = next(p for p in provider.pages if p.objects)
        first = simulate_session(world, block, 0.0, rng, provider, page)
        second = simulate_session(world, block, 1.0, rng, provider, page)
        assert second.edge_cache_hits >= first.edge_cache_hits
        assert second.download_ms <= first.download_ms

    def test_dns_caching_between_sessions(self, world):
        rng = random.Random(4)
        # Use a single-LDNS block so both sessions share one resolver
        # cache deterministically.
        block = next(b for b in world.internet.blocks
                     if len(b.ldns) == 1)
        provider = world.catalog.providers[1]
        simulate_session(world, block, 0.0, rng, provider)
        repeat = simulate_session(world, block, 5.0, rng, provider)
        assert repeat.upstream_dns_queries == 0

    def test_far_client_sees_higher_rtt(self, world):
        rng = random.Random(5)
        results = []
        for block in world.internet.blocks[:40]:
            session = simulate_session(world, block, 0.0, rng,
                                       world.catalog.providers[0])
            results.append(session)
        by_distance = sorted(results,
                             key=lambda s: s.mapping_distance_miles)
        near_rtt = sum(s.rtt_ms for s in by_distance[:5]) / 5
        far_rtt = sum(s.rtt_ms for s in by_distance[-5:]) / 5
        assert far_rtt > near_rtt


class TestExpectationClassification:
    def test_medians_positive(self, world):
        medians = classify_expectation_groups(world.internet)
        assert medians
        assert all(m >= 0 for m in medians.values())

    def test_known_split_tendency(self, world):
        """Countries the paper flags as high-expectation should have
        larger medians than the well-served ones when both present."""
        medians = classify_expectation_groups(world.internet)
        high_side = [medians[c] for c in ("IN", "BR", "AR")
                     if c in medians]
        low_side = [medians[c] for c in ("GB", "DE", "NL", "FR")
                    if c in medians]
        if high_side and low_side:
            assert max(high_side) > min(low_side)


class TestRollout:
    @pytest.fixture(scope="class")
    def result(self):
        world = build_world(WorldConfig.tiny())
        config = RolloutConfig(
            start_date=datetime.date(2014, 3, 20),
            end_date=datetime.date(2014, 4, 25),
            rollout_start=datetime.date(2014, 3, 28),
            rollout_end=datetime.date(2014, 4, 15),
            sessions_per_day=80,
            seed=5,
        )
        return run_rollout(world, config), world

    def test_beacons_recorded_every_day(self, result):
        rollout, _ = result
        days = {b.day for b in rollout.rum.beacons}
        assert days == set(range(rollout.config.n_days))

    def test_ecs_ramp(self, result):
        rollout, world = result
        series = rollout.ecs_resolvers_per_day
        n_public = len(world.public_ldns_ids())
        start = rollout.config.day_index(rollout.config.rollout_start)
        end = rollout.config.day_index(rollout.config.rollout_end)
        assert series[0] == 0
        assert series[start] == 0 or series[start] < n_public // 2
        assert series[end] == n_public
        values = [series[d] for d in sorted(series)]
        assert values == sorted(values)

    def test_mapping_distance_improves_for_public_users(self, result):
        rollout, _ = result
        before = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=True,
            day_range=rollout.before_window)
        after = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=True,
            day_range=rollout.after_window)
        assert before and after
        assert (sum(after) / len(after)) < 0.6 * (sum(before) / len(before))

    def test_isp_users_unaffected(self, result):
        rollout, _ = result
        before = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=False,
            day_range=rollout.before_window)
        after = rollout.rum.metric_values(
            "mapping_distance_miles", via_public=False,
            day_range=rollout.after_window)
        mean_before = sum(before) / len(before)
        mean_after = sum(after) / len(after)
        assert 0.5 < mean_after / mean_before < 2.0

    def test_rollout_resets_ecs_left_on(self):
        """The day loop's tranche is the whole ECS state: a world with
        ECS on at every resolver replays the fresh world's roll-out."""
        config = RolloutConfig(
            start_date=datetime.date(2014, 3, 26),
            end_date=datetime.date(2014, 4, 17),
            sessions_per_day=20, seed=3)
        fresh = build_world(WorldConfig.tiny())
        reused = build_world(WorldConfig.tiny())
        reused.enable_ecs(list(reused.ldns_registry), source_prefix_len=16)
        assert (rollout_digest(fresh, config)
                == rollout_digest(reused, config))

    def test_requests_exceed_sessions(self, result):
        rollout, _ = result
        for day, sessions in rollout.sessions_per_day.items():
            assert rollout.requests_per_day[day] > sessions

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RolloutConfig(start_date=datetime.date(2014, 5, 1),
                          rollout_start=datetime.date(2014, 4, 1))
        with pytest.raises(ValueError):
            RolloutConfig(sessions_per_day=0)

    @pytest.mark.parametrize("length", [0, -8, 33])
    def test_ecs_source_length_must_be_1_to_32(self, length):
        with pytest.raises(ValueError, match="ECS source length"):
            RolloutConfig(ecs_source_len=length)
        assert RolloutConfig(ecs_source_len=32).ecs_source_len == 32

    def test_rollout_fraction(self):
        config = RolloutConfig()
        assert config.rollout_fraction(0) == 0.0
        assert config.rollout_fraction(config.n_days - 1) == 1.0
        mid = config.day_index(config.rollout_start) + 9
        assert 0.0 < config.rollout_fraction(mid) < 1.0


class TestDnsLoad:
    def test_inflation_mechanism(self):
        """ECS must raise authoritative query rate from public LDNSes."""
        rollout = RolloutConfig()
        before_cfg = DnsLoadConfig(lookups_per_day=15000, n_days=1,
                                   start_day=0, seed=1)
        after_cfg = DnsLoadConfig(
            lookups_per_day=15000, n_days=1, seed=2,
            start_day=rollout.day_index(rollout.rollout_end))
        world, _ = run_dnsload(ScenarioSpec(
            world=WorldConfig(
                internet=world_internet(), n_deployments=30,
                n_providers=6, n_nameservers=3, dns_ttl=1200),
            rollout=rollout, monitor=False), [before_cfg, after_cfg])
        before = world.query_log.rate_in(*before_cfg.window,
                                         public_only=True)
        after = world.query_log.rate_in(*after_cfg.window,
                                        public_only=True)
        assert after > 1.2 * before

    def test_counters_consistent(self):
        """Each CDN-zone query the log sees in the period's window came
        from one LDNS miss, and each miss asked upstream at least once;
        nothing is logged outside the period's days."""
        config = DnsLoadConfig(lookups_per_day=5000, n_days=2,
                               start_day=10, seed=3)
        world, (result,) = run_dnsload(ScenarioSpec(
            world=WorldConfig.tiny(), monitor=False), [config])
        log = world.query_log
        assert result.lookups == 10_000
        assert result.client_requests == 20 * result.lookups
        assert result.ecs_resolvers_per_day == {10: 0, 11: 0}
        assert log.buckets() == [10, 11]
        logged = sum(log.pair_counts(*config.window).values())
        assert logged == log.total_queries
        misses = result.lookups - result.cache_hits
        assert 0 < logged <= misses <= result.upstream_queries

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DnsLoadConfig(lookups_per_day=0)


def rollout_digest(world, config):
    result = run_rollout(world, config)
    document = {
        "ecs": sorted(result.ecs_resolvers_per_day.items()),
        "beacons": [repr(beacon) for beacon in result.rum.beacons],
        "snapshot": world.obs.registry.snapshot(),
    }
    text = json.dumps(document, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def ecs_senders(world):
    return sorted(rid for rid, ldns in world.ldns_registry.items()
                  if ldns.ecs_enabled)


def ecs_state(world):
    return {rid: (ldns.ecs_enabled, ldns.ecs_source_len)
            for rid, ldns in world.ldns_registry.items()}


def world_internet():
    from repro.topology import InternetConfig
    return InternetConfig.tiny()
