"""Tests for the synthetic Internet builder.

These are structural/statistical assertions: the builder must produce a
world whose population statistics have the properties the paper's
analyses rely on (heavy-tailed demand, proximal ISP resolvers, distant
public resolvers, meaningful BGP aggregation, deterministic output).
"""

import random

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.net.geometry import great_circle_miles
from repro.topology import (
    InternetConfig,
    ResolverStrategy,
    build_internet,
)
from repro.topology.ases import demand_shares
from repro.topology.demand import (
    lognormal_weights,
    pareto_weights,
    zipf_weights,
)


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=42)


class TestDemandHelpers:
    def test_pareto_heavy_tail(self):
        rng = random.Random(1)
        weights = pareto_weights(2000, rng, alpha=1.1)
        weights.sort(reverse=True)
        top_share = sum(weights[:20]) / sum(weights)
        assert top_share > 0.25  # top 1% carries a big share

    def test_zipf_decreasing(self):
        weights = zipf_weights(10)
        assert weights == sorted(weights, reverse=True)
        assert weights[0] == 1.0

    def test_lognormal_positive(self):
        rng = random.Random(2)
        assert all(w > 0 for w in lognormal_weights(100, rng))

    @pytest.mark.parametrize("fn", [pareto_weights, lognormal_weights])
    def test_rejects_zero_n(self, fn):
        with pytest.raises(ValueError):
            fn(0, random.Random(0))


class TestBuilderStructure:
    def test_deterministic(self):
        a = build_internet(InternetConfig.tiny(), seed=7)
        b = build_internet(InternetConfig.tiny(), seed=7)
        assert [blk.prefix for blk in a.blocks] == [
            blk.prefix for blk in b.blocks]
        assert [blk.ldns for blk in a.blocks] == [
            blk.ldns for blk in b.blocks]

    def test_seed_changes_world(self):
        a = build_internet(InternetConfig.tiny(), seed=7)
        b = build_internet(InternetConfig.tiny(), seed=8)
        assert [blk.ldns for blk in a.blocks] != [
            blk.ldns for blk in b.blocks]

    def test_block_count_near_target(self, net):
        target = net.config.n_client_blocks
        assert 0.9 * target <= len(net.blocks) <= 1.3 * target

    def test_blocks_are_slash24(self, net):
        assert all(b.prefix.length == 24 for b in net.blocks)

    def test_block_prefixes_unique(self, net):
        prefixes = [b.prefix for b in net.blocks]
        assert len(prefixes) == len(set(prefixes))

    def test_every_block_has_ldns(self, net):
        for block in net.blocks:
            assert block.ldns
            total = sum(w for _, w in block.ldns)
            assert total == pytest.approx(1.0)
            for resolver_id, _ in block.ldns:
                assert resolver_id in net.resolvers

    def test_geodb_covers_blocks_and_resolvers(self, net):
        for block in net.blocks[:200]:
            rec = net.geodb.lookup_prefix(block.prefix)
            assert rec is not None
            assert rec.asn == block.asn
            assert rec.country == block.country
        for resolver in list(net.resolvers.values())[:100]:
            rec = net.geodb.lookup(resolver.ip)
            assert rec is not None
            assert rec.asn == resolver.asn

    def test_bgp_covers_blocks(self, net):
        for block in net.blocks[:200]:
            assert net.bgp.origin_asn(block.prefix.network) == block.asn
            cidr = net.bgp.covering_cidr(block.prefix)
            assert cidr is not None and cidr.covers(block.prefix)

    def test_cidr_column_names_the_covering_announcement(self, net):
        announcements = list(net.bgp.announcements())
        rows = net.block_columns().cidr
        assert rows.dtype == np.int64 and rows.size == len(net.blocks)
        for block, row in zip(net.blocks, rows.tolist()):
            assert announcements[row].cidr == net.bgp.covering_cidr(
                block.prefix)
            assert announcements[row].asn == block.asn

    def test_bgp_aggregates(self, net):
        # There must be meaningfully fewer routed CIDRs than /24 blocks
        # (the Section 5.1 mapping-unit merge depends on this).
        assert len(net.bgp) < 0.7 * len(net.blocks)

    def test_demand_positive_and_normalized(self, net):
        assert all(b.demand > 0 for b in net.blocks)
        assert net.total_demand == pytest.approx(
            net.config.total_demand, rel=0.05)

    def test_demand_heavy_tailed(self, net):
        # AS demand is skewed: the top decile of ASes carries several
        # times its proportional share, and the single largest AS is a
        # meaningful fraction of the world (paper Figure 10's x-axis
        # spans shares up to 2^-1).
        shares = demand_shares(list(net.ases.values()))
        top_decile = shares[: max(1, len(shares) // 10)]
        assert sum(s for _, s in top_decile) > 0.25
        assert shares[0][1] > 0.03

    def test_block_demand_heavy_tailed(self, net):
        # Block-level demand drives Figure 21: the top 10% of blocks
        # must carry the majority of demand.
        ranked = sorted((b.demand for b in net.blocks), reverse=True)
        top = ranked[: max(1, len(ranked) // 10)]
        assert sum(top) > 0.40 * sum(ranked)


class TestResolverPopulation:
    def test_provider_deployments_match_config(self, net):
        for provider in net.providers:
            assert len(provider.deployments) == len(
                provider.deployment_cities)
            for dep in provider.deployments:
                assert dep.resolver_id in net.resolvers

    def test_public_share_plausible(self, net):
        # Paper: ~8% worldwide; accept a broad band at tiny scale.
        share = net.public_demand_share()
        assert 0.04 <= share <= 0.25

    def test_outsourced_ases_have_no_resolvers(self, net):
        for as_obj in net.ases.values():
            if as_obj.strategy == ResolverStrategy.OUTSOURCED_PUBLIC:
                own = [r for r in net.resolvers.values()
                       if r.asn == as_obj.asn and not r.is_public]
                assert own == []


class TestDistanceStructure:
    """The core statistical facts the paper's Section 3 needs."""

    @staticmethod
    def _weighted_median(samples):
        samples.sort(key=lambda pair: pair[0])
        total = sum(w for _, w in samples)
        acc = 0.0
        for value, weight in samples:
            acc += weight
            if acc >= total / 2:
                return value
        return samples[-1][0]

    def _distances(self, net, public):
        pub = net.public_resolver_ids()
        out = []
        for block in net.blocks:
            for rid, w in block.ldns:
                if (rid in pub) != public:
                    continue
                resolver = net.resolvers[rid]
                out.append((great_circle_miles(block.geo, resolver.geo),
                            block.demand * w))
        return out

    def test_public_users_much_farther_than_isp_users(self, net):
        isp_median = self._weighted_median(self._distances(net, False))
        pub_median = self._weighted_median(self._distances(net, True))
        assert pub_median > 4 * isp_median
        assert pub_median > 500  # paper: 1028 miles

    def test_korea_closer_than_india(self, net):
        def median_for(code):
            samples = []
            for block in (b for b in net.blocks if b.country == code):
                for rid, w in block.ldns:
                    resolver = net.resolvers[rid]
                    samples.append(
                        (great_circle_miles(block.geo, resolver.geo),
                         block.demand * w))
            return self._weighted_median(samples) if samples else None
        kr = median_for("KR")
        india = median_for("IN")
        if kr is not None and india is not None:
            assert india > kr

    def test_pick_block_weighted(self, net):
        rng = random.Random(5)
        counts = {}
        for _ in range(3000):
            block = net.pick_block(rng)
            counts[block.prefix] = counts.get(block.prefix, 0) + 1
        # The most-demanded block should be sampled far more often than
        # a uniform draw would suggest.
        top_block = max(net.blocks, key=lambda b: b.demand)
        expected_uniform = 3000 / len(net.blocks)
        assert counts.get(top_block.prefix, 0) > 3 * expected_uniform


class TestConfig:
    def test_rejects_more_ases_than_blocks(self):
        with pytest.raises(ValueError):
            InternetConfig(n_client_blocks=50, n_ases=60)

    def test_rejects_too_few_ases(self):
        with pytest.raises(ValueError):
            InternetConfig(n_client_blocks=100, n_ases=10)

    @pytest.mark.parametrize("field,value", [
        ("block_jitter_miles", -25.0),
        ("block_jitter_miles", float("nan")),
        ("block_jitter_miles", float("inf")),
        ("secondary_ldns_rate", 1.5),
        ("secondary_ldns_rate", -0.1),
        ("secondary_ldns_rate", float("nan")),
        ("isp_anycast_misroute", -0.2),
        ("isp_anycast_misroute", 1.01),
        ("total_demand", 0.0),
        ("total_demand", -1.0),
        ("total_demand", float("nan")),
        ("total_demand", float("inf")),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError, match=field):
            InternetConfig(**{field: value})

    def test_accepts_the_edges(self):
        InternetConfig(block_jitter_miles=0.0, secondary_ldns_rate=1.0,
                       isp_anycast_misroute=0.0)
        InternetConfig(secondary_ldns_rate=0.0, isp_anycast_misroute=1.0)

    def test_scenario_document_with_a_bad_value_is_refused(self):
        doc = {"world": {"internet": {"block_jitter_miles": -25.0}}}
        with pytest.raises(ValueError,
                           match="world.internet: bad block_jitter_miles"):
            ScenarioSpec.from_dict(doc)

    def test_scales_are_ordered(self):
        assert (InternetConfig.tiny().n_client_blocks
                < InternetConfig.small().n_client_blocks
                < InternetConfig.paper().n_client_blocks)
