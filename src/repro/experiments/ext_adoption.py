"""Extension experiment: universal EDNS0 adoption (paper Section 4.5).

The paper extrapolates what ISP-resolver clients would gain if their
ISPs adopted the client-subnet extension: clients whose LDNS is over
1000 miles away should see RTT cuts comparable to what public-resolver
clients saw (~50%), clients with nearby LDNSes ~nothing, and overall
"at least 11.5% of the remaining client demand will see a significant
performance improvement".

Unlike the paper, the simulator can simply *run* that future: we flip
ECS on for every resolver (as if all ISP software adopted RFC 7871),
and measure per-distance-bucket RTT against the NS-mapping baseline
for ISP-resolver clients only.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

from repro.dnsproto.types import QType
from repro.experiments.base import ExperimentResult, ratio
from repro.experiments.scales import get_scale
from repro.net.geometry import great_circle_miles
from repro.api import build_world

EXPERIMENT_ID = "ext-adoption"
TITLE = "Universal EDNS0 adoption: gains for ISP-resolver clients"
PAPER_CLAIM = ("Section 4.5 extrapolation: clients with LDNS >= 1000 mi "
               "away gain ~50% RTT; 500-1000 mi ~24%; local-LDNS "
               "clients nothing; >= 11.5% of non-public demand benefits")

BUCKETS: Tuple[Tuple[str, float, float], ...] = (
    ("local (<500 mi)", 0.0, 500.0),
    ("mid (500-1000 mi)", 500.0, 1000.0),
    ("far (>=1000 mi)", 1000.0, float("inf")),
)


def _measure_rtt(world, blocks, now_base: float) -> Dict[str, float]:
    """Mean client-server base RTT per block after fresh resolutions."""
    out = {}
    provider = world.catalog.providers[0]
    for index, block in enumerate(blocks):
        ldns = world.ldns_registry[block.primary_ldns]
        client_ip = block.prefix.network | 9
        outcome = ldns.resolve(provider.domain, QType.A, client_ip,
                               now_base + index * 0.001)
        server_ip = outcome.addresses[0]
        out[block.prefix] = world.network.rtt_ms(
            client_ip, server_ip) + block.last_mile_ms
    return out


def run(scale: str) -> ExperimentResult:
    spec = get_scale(scale)
    world = build_world(spec.world)

    public = world.internet.public_resolver_ids()
    rng = random.Random(17)
    isp_blocks = [b for b in world.internet.blocks
                  if b.primary_ldns not in public]
    rng.shuffle(isp_blocks)
    sample = isp_blocks[: min(len(isp_blocks), 800)]

    # Baseline: classic NS mapping (no ECS anywhere).
    before = _measure_rtt(world, sample, now_base=0.0)

    # The future: every resolver, ISP ones included, sends ECS -- the
    # 2014 roll-out reached only public resolvers, and this experiment
    # asks what happens once the rest adopt it.
    world.enable_ecs(list(world.ldns_registry))
    # Past every cached answer, so each lookup reaches the authoritative.
    gap = spec.world.dns_ttl + 100.0
    after = _measure_rtt(world, sample, now_base=gap)

    # Bucket by client--LDNS distance.
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID, title=TITLE, scale=scale,
        paper_claim=PAPER_CLAIM)
    bucket_data: Dict[str, List[Tuple[float, float, float]]] = {
        name: [] for name, _, _ in BUCKETS}
    total_demand = 0.0
    benefiting_demand = 0.0
    for block in sample:
        resolver = world.internet.resolvers[block.primary_ldns]
        distance = great_circle_miles(block.geo, resolver.geo)
        for name, lo, hi in BUCKETS:
            if lo <= distance < hi:
                bucket_data[name].append(
                    (before[block.prefix], after[block.prefix],
                     block.demand))
                break
        total_demand += block.demand
        if before[block.prefix] > 1.1 * after[block.prefix]:
            benefiting_demand += block.demand

    improvements = {}
    for name, _, _ in BUCKETS:
        rows = bucket_data[name]
        if not rows:
            continue
        demand = sum(d for _, _, d in rows)
        mean_before = sum(b * d for b, _, d in rows) / demand
        mean_after = sum(a * d for _, a, d in rows) / demand
        improvements[name] = ratio(mean_before, mean_after)
        result.rows.append({
            "ldns_distance": name,
            "demand_share": demand / total_demand,
            "rtt_before_ms": mean_before,
            "rtt_after_ms": mean_after,
            "improvement": improvements[name],
        })

    benefit_share = benefiting_demand / total_demand
    result.summary = {
        "benefiting_demand_share": benefit_share,
        **{f"improvement[{name}]": improvements.get(name, 0.0)
           for name, _, _ in BUCKETS},
    }

    far = improvements.get(BUCKETS[2][0], 0.0)
    local = improvements.get(BUCKETS[0][0], 0.0)
    result.check(
        "far-LDNS clients gain substantially",
        far >= 1.25,
        f"far bucket improves {far:.2f}x (paper extrapolates ~2x)")
    result.check(
        "local-LDNS clients gain little",
        local < 1.15,
        f"local bucket improves {local:.2f}x (paper: no benefit)")
    result.check(
        "far bucket gains more than local",
        far > local,
        f"{far:.2f}x vs {local:.2f}x")
    result.check(
        "a meaningful demand share benefits",
        benefit_share >= 0.05,
        f"{benefit_share:.1%} of ISP-resolver demand improves >10% "
        "(paper: at least 11.5%)")
    return result
