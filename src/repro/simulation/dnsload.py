"""DNS-only workload driver for query-rate experiments.

Figures 2, 23, and 24 are about *DNS query volume*, not download
performance: what matters is how often LDNS caches miss and query the
authoritative servers.  Driving the full download model for the
millions of lookups needed to exercise cache dynamics would be wasted
work, so this driver replays DNS resolutions only -- demand-weighted
clients resolving Zipf-popular domains through their real LDNS with
real caches and TTLs -- while the attached query log observes the
authoritative side.

Periods run from a ``ScenarioSpec`` through :func:`repro.api.run_dnsload`;
each day sends ECS from that day's roll-out tranche, so no resolver
does before ``rollout_start`` and every public one from ``rollout_end``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.dnsproto.types import QType
from repro.simulation.rollout import DAY_SECONDS, RolloutConfig
from repro.simulation.world import World

# Client requests one resolution stands for (paper Figure 2 caption).
REQUESTS_PER_LOOKUP = 20.0


@dataclass(frozen=True)
class DnsLoadConfig:
    """Shape of one DNS-only period on the roll-out timeline."""

    lookups_per_day: int = 50_000
    n_days: int = 10
    start_day: int = 0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.lookups_per_day < 1 or self.n_days < 1:
            raise ValueError("need positive lookups and days")

    @property
    def window(self) -> Tuple[float, float]:
        """The period's [start, end) in simulated seconds."""
        return (self.start_day * DAY_SECONDS,
                (self.start_day + self.n_days) * DAY_SECONDS)


@dataclass
class DnsLoadResult:
    """Counters from one driven period."""

    lookups: int = 0
    client_requests: int = 0
    """Estimated client HTTP requests the lookups correspond to (each
    resolution is followed by a page view; Figure 2's left axis)."""
    upstream_queries: int = 0
    cache_hits: int = 0
    ecs_resolvers_per_day: Dict[int, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.lookups if self.lookups else 0.0


def _drive_dns_load(world: World, config: DnsLoadConfig,
                    rollout: RolloutConfig) -> DnsLoadResult:
    """Drive one period's lookups; each day starts as a roll-out day
    does (control-plane tick, ECS tranche).  A lookup: a demand-weighted
    client block, one of its LDNSes and a popularity-weighted provider
    domain, resolved through the LDNS's real cache."""
    rng = random.Random(config.seed)
    result = DnsLoadResult()
    spacing = DAY_SECONDS / config.lookups_per_day
    public_ids = world.public_ldns_ids()

    for day in range(config.start_day, config.start_day + config.n_days):
        if world.control_plane is not None:
            world.control_plane.tick(day)
        result.ecs_resolvers_per_day[day] = world.enable_ecs(
            rollout.ecs_tranche(day, public_ids),
            source_prefix_len=rollout.ecs_source_len)
        for index in range(config.lookups_per_day):
            now = day * DAY_SECONDS + index * spacing
            block = world.internet.pick_block(rng)
            resolver_id = block.pick_ldns(rng)
            ldns = world.ldns_registry[resolver_id]
            provider = world.catalog.pick_provider(rng)
            client_ip = block.prefix.network | rng.randint(1, 254)
            outcome = ldns.resolve(provider.domain, QType.A, client_ip,
                                   now)
            result.lookups += 1
            result.upstream_queries += outcome.upstream_queries
            if outcome.cache_hit:
                result.cache_hits += 1
        result.client_requests += int(config.lookups_per_day
                                      * REQUESTS_PER_LOOKUP)
    return result
