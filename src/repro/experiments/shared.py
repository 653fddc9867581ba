"""Shared, memoized expensive artifacts for experiments.

Several figures derive from the same underlying run: Figures 5-11 share
one NetSession dataset, Figures 12-20 share one roll-out, Figures 2, 23
and 24 share one DNS-load run (:func:`repro.api.run_dnsload`).  Building
them once per scale keeps
``run all`` tractable and guarantees the figures are mutually
consistent (they describe the same simulated world, as in the paper).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Dict

from repro.measurement.netsession import (
    ClientLdnsDataset,
    NetSessionCollector,
)
from repro.experiments.scales import get_scale
from repro.measurement.querylog import PairKey
from repro.api import ScenarioSpec, run, run_dnsload
from repro.simulation.dnsload import DnsLoadConfig
from repro.simulation.rollout import RolloutResult
from repro.simulation.world import World
from repro.topology.internet import Internet, build_internet

_internet_cache: Dict[str, Internet] = {}
_dataset_cache: Dict[str, ClientLdnsDataset] = {}
_rollout_cache: Dict[str, RolloutResult] = {}
_dnsload_cache: Dict[str, "DnsLoadArtifacts"] = {}
DNSLOAD_TTL = 1800  # seconds; the DNS-load world's TTL at every scale


@dataclass
class DnsLoadArtifacts:
    """Before/after DNS-load run against one world."""

    world: World
    rate_before_total: float
    rate_before_public: float
    rate_after_total: float
    rate_after_public: float
    pairs_before: Dict[PairKey, int]
    pairs_after: Dict[PairKey, int]
    window_seconds: float
    requests_before: int
    requests_after: int
    ttl: int


def clear_caches() -> None:
    """Drop all memoized artifacts (tests use this for isolation)."""
    _internet_cache.clear()
    _dataset_cache.clear()
    _rollout_cache.clear()
    _dnsload_cache.clear()


def get_internet(scale_name: str) -> Internet:
    if scale_name not in _internet_cache:
        spec = get_scale(scale_name)
        _internet_cache[scale_name] = build_internet(
            spec.world.internet, seed=spec.world.seed)
    return _internet_cache[scale_name]


def get_netsession_dataset(scale_name: str) -> ClientLdnsDataset:
    if scale_name not in _dataset_cache:
        internet = get_internet(scale_name)
        _dataset_cache[scale_name] = NetSessionCollector(
            internet).collect_ground_truth()
    return _dataset_cache[scale_name]


def get_rollout(scale_name: str) -> RolloutResult:
    if scale_name not in _rollout_cache:
        spec = get_scale(scale_name)
        _rollout_cache[scale_name] = run(ScenarioSpec(
            world=spec.world, rollout=spec.rollout, monitor=False)).result
    return _rollout_cache[scale_name]


def get_dnsload(scale_name: str) -> DnsLoadArtifacts:
    """Run the before/after DNS-load scenario once per scale.

    Uses a deliberately concentrated world (few providers) so that
    popular (domain, LDNS) pairs reach cache-capped query rates, which
    is the regime where ECS inflation is visible -- the real Internet
    is in that regime by sheer volume (1.6M queries/second).  "Before"
    is day 0, "after" the roll-out's last day (every public LDNS on)."""
    if scale_name in _dnsload_cache:
        return _dnsload_cache[scale_name]
    scale = get_scale(scale_name)
    spec = ScenarioSpec(
        world=replace(scale.world,
                      n_providers=max(6, scale.world.n_providers // 4),
                      dns_ttl=DNSLOAD_TTL),
        rollout=scale.rollout, monitor=False)
    after_day = scale.rollout.day_index(scale.rollout.rollout_end)
    periods = [DnsLoadConfig(lookups_per_day=scale.dnsload_lookups,
                             n_days=1, start_day=day, seed=seed)
               for day, seed in ((0, 1), (after_day, 2))]
    world, (before, after) = run_dnsload(spec, periods)
    before_window, after_window = (period.window for period in periods)

    log = world.query_log
    artifacts = DnsLoadArtifacts(
        world=world,
        rate_before_total=log.rate_in(*before_window),
        rate_before_public=log.rate_in(*before_window, public_only=True),
        rate_after_total=log.rate_in(*after_window),
        rate_after_public=log.rate_in(*after_window, public_only=True),
        pairs_before=log.pair_counts(*before_window),
        pairs_after=log.pair_counts(*after_window),
        window_seconds=before_window[1] - before_window[0],
        requests_before=before.client_requests,
        requests_after=after.client_requests,
        ttl=DNSLOAD_TTL,
    )
    _dnsload_cache[scale_name] = artifacts
    return artifacts


def deterministic_rng(tag: str, scale_name: str) -> random.Random:
    """Seeded RNG unique to (experiment, scale), stable across runs."""
    import zlib
    return random.Random(zlib.crc32(f"{tag}|{scale_name}".encode()))
