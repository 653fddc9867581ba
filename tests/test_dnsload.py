"""The DNS-load front door: dense periods run from a ``ScenarioSpec``.

Figures 2, 23 and 24 read two dense periods of one
:func:`repro.api.run_dnsload` call (``experiments.shared.get_dnsload``).
This module keeps the recipe it replaced -- a world built by hand, ECS
flipped on at every public resolver between the periods, the "after"
period on timeline day 3 -- as the reference, and requires the two to
produce the same artifacts.  It also checks that each period day takes
the roll-out's ECS tranche, that every plane a spec carries is wired,
and that a spec whose faults or traffic a dense period cannot step is
refused.

Run as a script it compares the two recipes at one scale::

    PYTHONPATH=src python -m tests.test_dnsload small
"""

from __future__ import annotations

import dataclasses
import random
import sys
from dataclasses import replace
from typing import List

import pytest

import repro.api as api
from repro.api import ScenarioSpec, build_world, run_dnsload
from repro.core.mapmaker import MapMakerConfig
from repro.dnsproto.types import QType
from repro.experiments.scales import get_scale
from repro.experiments.shared import DnsLoadArtifacts, get_dnsload
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.simulation.dnsload import DnsLoadConfig
from repro.topology.resolvers import (
    DEFAULT_PUBLIC_PROVIDERS,
    EcsPolicy,
    ResolverPolicySet,
)
from repro.topology.traffic import ShapeKind, TrafficSchedule, TrafficShape

DAY = 86400.0


# -- the reference recipe ------------------------------------------------------

def _reference_drive(world, config: DnsLoadConfig) -> int:
    """The per-lookup loop, with no ECS state of its own; returns the
    client requests the period stands for."""
    rng = random.Random(config.seed)
    spacing = DAY / config.lookups_per_day
    requests = 0
    for day in range(config.start_day, config.start_day + config.n_days):
        for index in range(config.lookups_per_day):
            now = day * DAY + index * spacing
            block = world.internet.pick_block(rng)
            ldns = world.ldns_registry[block.pick_ldns(rng)]
            provider = world.catalog.pick_provider(rng)
            client_ip = block.prefix.network | rng.randint(1, 254)
            ldns.resolve(provider.domain, QType.A, client_ip, now)
        requests += int(config.lookups_per_day * 20.0)
    return requests


def reference_dnsload(scale_name: str) -> DnsLoadArtifacts:
    """Figures 2/23/24's DNS-load run as it was built by hand."""
    scale = get_scale(scale_name)
    world_config = replace(
        scale.world, n_providers=max(6, scale.world.n_providers // 4),
        dns_ttl=1800)
    world = build_world(world_config)
    world.query_log.track_pairs()

    before_cfg = DnsLoadConfig(lookups_per_day=scale.dnsload_lookups,
                               n_days=1, start_day=0, seed=1)
    requests_before = _reference_drive(world, before_cfg)
    before_window = (0.0, DAY)

    world.enable_ecs(world.public_ldns_ids())
    after_cfg = DnsLoadConfig(lookups_per_day=scale.dnsload_lookups,
                              n_days=1, start_day=3, seed=2)
    requests_after = _reference_drive(world, after_cfg)
    after_window = (3 * DAY, 4 * DAY)

    log = world.query_log
    return DnsLoadArtifacts(
        world=world,
        rate_before_total=log.rate_in(*before_window),
        rate_before_public=log.rate_in(*before_window, public_only=True),
        rate_after_total=log.rate_in(*after_window),
        rate_after_public=log.rate_in(*after_window, public_only=True),
        pairs_before=log.pair_counts(*before_window),
        pairs_after=log.pair_counts(*after_window),
        window_seconds=DAY,
        requests_before=requests_before,
        requests_after=requests_after,
        ttl=world_config.dns_ttl,
    )


def assert_matches_reference(scale_name: str) -> DnsLoadArtifacts:
    """Every artifact field but the world equal, pair maps included,
    and both worlds' query logs saw the same queries."""
    want, got = reference_dnsload(scale_name), get_dnsload(scale_name)
    for field in dataclasses.fields(DnsLoadArtifacts):
        if field.name != "world":
            assert (getattr(got, field.name)
                    == getattr(want, field.name)), field.name
    for counter in ("total_queries", "ecs_queries"):
        assert (getattr(got.world.query_log, counter)
                == getattr(want.world.query_log, counter)), counter
    return got


def test_figure_run_matches_the_hand_built_recipe():
    art = assert_matches_reference("tiny")
    assert art.pairs_before and art.pairs_after
    assert art.world.query_log.ecs_queries > 0


# -- each period day takes the roll-out's tranche ------------------------------

def _tiny_spec(**planes) -> ScenarioSpec:
    scale = get_scale("tiny")
    return ScenarioSpec(world=scale.world, rollout=scale.rollout,
                        monitor=False, **planes)


def test_period_days_take_the_rollout_tranche():
    spec = _tiny_spec()
    rollout = spec.rollout
    first = rollout.day_index(rollout.rollout_start) - 1
    period = DnsLoadConfig(lookups_per_day=4000, n_days=3,
                           start_day=first, seed=4)
    world, (result,) = run_dnsload(spec, [period])
    public = world.public_ldns_ids()
    days = list(range(first, first + 3))
    assert result.ecs_resolvers_per_day == {
        day: len(rollout.ecs_tranche(day, public)) for day in days}
    # Two days before the tranche opens, then its first resolver.
    assert [result.ecs_resolvers_per_day[day] for day in days] == [0, 0, 1]
    assert world.query_log.ecs_queries > 0

    # The same seed's first two days alone draw the same lookups and
    # log no ECS query: the pre-roll-out days sent none.
    head = replace(period, n_days=2)
    head_world, _ = run_dnsload(spec, [head])
    assert head_world.query_log.ecs_queries == 0
    assert (head_world.query_log.pair_counts(*head.window)
            == world.query_log.pair_counts(*head.window))


# -- every plane the spec carries is wired -------------------------------------

def test_planes_reach_the_dense_regime():
    ceiling = ResolverPolicySet(tuple(
        (provider.name, EcsPolicy(scope_ceiling=22))
        for provider in DEFAULT_PUBLIC_PROVIDERS))
    spec = _tiny_spec(control_plane=MapMakerConfig(),
                      unit_scheme="routing_aware",
                      resolver_policies=ceiling)
    rollout = spec.rollout
    period = DnsLoadConfig(lookups_per_day=3000, n_days=1, seed=6,
                           start_day=rollout.day_index(rollout.rollout_end))
    world, _ = run_dnsload(spec, [period])
    # The day ticked the control plane, as a roll-out day does, so the
    # ladder reads a map published that day, not the day-0 bootstrap.
    assert world.control_plane.current.published_day == period.start_day
    assert world.control_plane.unit_scheme == "routing_aware"
    assert world.resolver_fleets.policies == ceiling
    assert world.query_log.ecs_queries > 0

    # Every CDN answer came off one rung of the published-map ladder.
    # Which rung answers is left open: it moves when units become
    # longest-prefix matched.
    counters = world.obs.registry.snapshot()["counters"]
    tiers = sum(value for name, value in counters.items()
                if name.startswith("mapping.tier."))
    stats = world.mapping.stats
    answered = stats.resolutions - stats.nxdomain - stats.no_target
    assert tiers == answered > 0
    assert answered == world.query_log.total_queries


# -- what a dense period cannot step -------------------------------------------

_FAULTS = FaultSchedule((FaultEvent(
    start_day=1, duration_days=2, target="ns:0",
    kind=FaultKind.AUTH_OUTAGE),))
_TRAFFIC = TrafficSchedule((TrafficShape(
    start_day=3, duration_days=4, target="continent:NA",
    kind=ShapeKind.FLASH_CROWD, magnitude=3.0),))


@pytest.mark.parametrize("planes", [{"faults": _FAULTS},
                                    {"traffic": _TRAFFIC}],
                         ids=["faults", "traffic"])
def test_refuses_what_it_cannot_step(planes, monkeypatch):
    built: List[ScenarioSpec] = []
    monkeypatch.setattr(api, "_build_world", built.append)
    with pytest.raises(ValueError, match="neither faults nor traffic"):
        run_dnsload(_tiny_spec(**planes), [DnsLoadConfig(n_days=1)])
    assert built == []


def _main(argv: List[str]) -> int:
    scale = argv[0] if argv else "small"
    art = assert_matches_reference(scale)
    print(f"{scale}: DNS-load artifacts equal to the hand-built recipe "
          f"({len(art.pairs_before)} pairs before, "
          f"{len(art.pairs_after)} after, "
          f"{art.world.query_log.total_queries} queries)")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
