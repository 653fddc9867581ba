"""Tests for the pluggable unit-construction layer (repro.core.units).

Covers the builder registry and scheme grammar, determinism of the
routing-aware clustering, coverage/cohesion edge cases, the client-/24
index against the builders' string-keyed index it replaced, and a
non-default unit set through the map maker's compile and the
degradation ladder.

``python -m tests.test_units paper`` runs the index differential, the
routing_aware build's round-by-round oracle over the paper world's
CIDR rows and its partition invariants at paper scale, which the
tier-1 scales never reach.
"""

import sys

import numpy as np
import pytest

from repro.cdn import build_deployments
from repro.core import MeasurementService, Scorer, TrafficClass
from repro.core.mapmaker import (
    DEFAULT_UNIT_SCHEME,
    MapMakerConfig,
    MapPublicationService,
    compile_entries,
    eu_key,
)
from repro.core.units import (
    MapUnit,
    MapUnitScheme,
    available_schemes,
    block_index,
    build_units,
    cohesion_stats,
    demand_coverage_curve,
    get_builder,
    parse_unit_scheme,
    register_builder,
    unit_key_in,
    units_needed_for_share,
)
from repro.core.units.builders import _BUILDERS
from repro.core.units.routing import RoutingAwareUnitBuilder
from repro.net.ipv4 import Prefix
from repro.topology import InternetConfig, build_internet
from repro.topology.internet import BlockColumns


@pytest.fixture(scope="module")
def net():
    return build_internet(InternetConfig.tiny(), seed=5)


class _SlicedInternet:
    """A duck-typed Internet over a block subset, for edge cases.

    Its columns are read off ``blocks`` at each call, each block's CIDR
    row by a lookup in ``bgp``, so a test may swap either.
    """

    def __init__(self, internet, n_blocks):
        self.blocks = internet.blocks[:n_blocks]
        self.resolvers = internet.resolvers
        self.bgp = internet.bgp
        self.seed = internet.seed

    def block_columns(self):
        n = len(self.blocks)
        rows = {ann.cidr: row
                for row, ann in enumerate(self.bgp.announcements())}
        return BlockColumns(
            lat=np.fromiter((b.geo.lat for b in self.blocks),
                            dtype=float, count=n),
            lon=np.fromiter((b.geo.lon for b in self.blocks),
                            dtype=float, count=n),
            asn=np.fromiter((b.asn for b in self.blocks),
                            dtype=np.int64, count=n),
            demand=np.fromiter((b.demand for b in self.blocks),
                               dtype=float, count=n),
            last_mile_ms=np.fromiter(
                (b.last_mile_ms for b in self.blocks),
                dtype=float, count=n),
            cidr=np.fromiter(
                (rows[self.bgp.covering_cidr(b.prefix)]
                 for b in self.blocks), dtype=np.int64, count=n),
        )


def _unit_fingerprint(units):
    return sorted((u.key, u.scheme.value, round(u.demand, 9),
                   len(u.members)) for u in units)


class TestRegistry:
    def test_all_schemes_registered(self):
        assert available_schemes() == [
            "bgp_merged", "block", "geo_as", "ldns", "routing_aware"]

    def test_unknown_scheme_raises(self):
        with pytest.raises(KeyError, match="unknown unit scheme"):
            get_builder("nope")

    def test_builder_must_declare_scheme(self):
        class Anonymous:
            scheme = ""

        with pytest.raises(ValueError, match="scheme name"):
            register_builder(Anonymous())

    def test_custom_builder_round_trips(self, net):
        class OneBigUnit:
            scheme = "one_big_unit"

            def build(self, internet, **params):
                unit = MapUnit(key="all", scheme=MapUnitScheme.BLOCK)
                for block in internet.blocks:
                    unit.add(block.geo, block.demand,
                             network=block.prefix.network)
                return [unit]

        register_builder(OneBigUnit())
        try:
            units = build_units("one_big_unit", net)
            assert len(units) == 1
            index = block_index(units)
            assert len(index) == len(net.blocks)
            assert set(index.values()) == {"all"}
            assert unit_key_in(index, net.blocks[-1].prefix) == "all"
        finally:
            del _BUILDERS["one_big_unit"]


class TestSchemeGrammar:
    @pytest.mark.parametrize("spec,name,params", [
        ("ldns", "ldns", {}),
        ("geo_as", "geo_as", {}),
        ("routing_aware", "routing_aware", {}),
        ("routing_aware:32", "routing_aware", {"n_units": 32}),
    ])
    def test_valid_specs(self, spec, name, params):
        assert parse_unit_scheme(spec) == (name, params)

    @pytest.mark.parametrize("spec", [
        "", "nope", "ldns:4", "geo_as:2", "routing_aware:x",
        "routing_aware:0", "routing_aware:-3", None, 42,
        # int() would read each of these as 5 or 50.
        "routing_aware:5_0", "routing_aware:+5", "routing_aware: 5",
        "routing_aware:5 ", "routing_aware:05", "routing_aware:\u0665",
        # An empty count used to read as the default one.
        "routing_aware:",
    ])
    def test_invalid_specs(self, spec):
        with pytest.raises(ValueError):
            parse_unit_scheme(spec)


class TestBuilders:
    def test_geo_as_is_one_unit_per_block(self, net):
        units = build_units("geo_as", net)
        assert len(units) == len(net.blocks)
        by_key = {u.key: u for u in units}
        block = net.blocks[0]
        unit = by_key[str(block.prefix)]
        assert unit.asn == block.asn
        assert unit.demand == block.demand

    def test_ldns_units_carry_dominant_asn(self, net):
        units = build_units("ldns", net)
        assert all(u.asn is not None for u in units)

    def test_index_covers_every_block(self, net):
        for scheme in available_schemes():
            units = build_units(scheme, net)
            index = block_index(units)
            assert len(index) == len(net.blocks), scheme
            keys = {u.key for u in units}
            assert set(index.values()) <= keys, scheme

    def test_total_demand_is_conserved(self, net):
        expected = sum(b.demand for b in net.blocks)
        for scheme in available_schemes():
            total = sum(u.demand for u in build_units(scheme, net))
            assert total == pytest.approx(expected), scheme


class TestRoutingAware:
    def test_deterministic_across_rebuilds(self):
        nets = [build_internet(InternetConfig.tiny(), seed=5)
                for _ in range(2)]
        first, second = (
            build_units("routing_aware:32", n) for n in nets)
        assert _unit_fingerprint(first) == _unit_fingerprint(second)
        assert [u.cohesion_rtt_ms for u in first] == (
            [u.cohesion_rtt_ms for u in second])

    def test_explicit_unit_count_is_respected(self, net):
        units = build_units("routing_aware:24", net)
        assert 1 <= len(units) <= 24

    def test_count_clamped_to_block_count(self, net):
        small = _SlicedInternet(net, 3)
        units = build_units("routing_aware:50", small)
        # Three blocks in one CIDR make one unit.
        assert len({net.bgp.covering_cidr(b.prefix)
                    for b in small.blocks}) == 1
        assert len(units) == 1
        assert get_builder("routing_aware").default_units(small) == 1

    def test_cohesion_recorded(self, net):
        units = build_units("routing_aware:16", net)
        assert all(u.cohesion_rtt_ms is not None for u in units)
        assert all(u.cohesion_rtt_ms >= 0 for u in units)
        # Fewer, larger clusters are less cohesive in feature space.
        coarse = cohesion_stats(build_units("routing_aware:4", net))
        fine = cohesion_stats(units)
        assert coarse["rtt_ms"] >= fine["rtt_ms"]

    def test_empty_internet_builds_no_units(self, net):
        empty = _SlicedInternet(net, 0)
        assert build_units("routing_aware", empty) == []

    def test_single_block_is_one_unit(self, net):
        single = _SlicedInternet(net, 1)
        units = build_units("routing_aware:8", single)
        assert len(units) == 1
        assert units[0].key == str(net.bgp.covering_cidr(
            net.blocks[0].prefix))
        assert units[0].cohesion_rtt_ms == pytest.approx(0.0)

    def test_landmarks_clamped_to_population(self, net):
        tiny = _SlicedInternet(net, 5)
        units = RoutingAwareUnitBuilder().build(tiny, n_units=2)
        assert sum(len(u.members) for u in units) == 5


# -- the index differential ------------------------------------------------

def reference_index(scheme, internet, units):
    """Client /24 (as a string) -> unit key, as the builders' ``index``
    methods built it before units recorded their /24s as ints.

    ``ldns`` is the old ``LdnsUnitBuilder.index``: a block splitting its
    queries across two LDNSes resolves to its primary one.  Every other
    scheme is the old default, which read the member prefixes the
    builder recorded, the later unit winning; builders recorded each
    member block's ``str(block.prefix)``, a /24.
    """
    if scheme == "ldns":
        keys = {unit.key for unit in units}
        return {str(block.prefix): block.primary_ldns
                for block in internet.blocks
                if block.primary_ldns in keys}
    out = {}
    for unit in units:
        for network in unit.networks:
            out[str(Prefix(network, 24))] = unit.key
    return out


#: Every scheme, ``routing_aware`` at two unit counts.
INDEX_SPECS = ("ldns", "block", "bgp_merged", "geo_as",
               "routing_aware:16", "routing_aware:256")


def assert_index_matches_reference(spec, internet):
    """The index built from the units equals the reference, and finds
    every /24 of it; returns the index's size."""
    name, params = parse_unit_scheme(spec)
    units = get_builder(name).build(internet, **params)
    if name != "ldns":
        # Each member block was recorded once, as its own /24.
        networks = {block.prefix.network for block in internet.blocks}
        for unit in units:
            assert len(unit.networks) == len(unit.members), unit.key
            assert set(unit.networks) <= networks, unit.key
    reference = {Prefix.parse(text): key for text, key
                 in reference_index(name, internet, units).items()}
    assert {prefix.length for prefix in reference} <= {24}, spec
    index = block_index(units)
    assert index == {prefix.network: key
                     for prefix, key in reference.items()}, spec
    for prefix, key in reference.items():
        assert unit_key_in(index, prefix) == key
        assert unit_key_in(index, prefix.supernet(22)) is None
    return len(index)


@pytest.fixture(scope="module")
def scaled_internets(net):
    return {"tiny": net,
            "small": build_internet(InternetConfig.small(), seed=5)}


@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("spec", INDEX_SPECS)
def test_index_matches_the_string_keyed_reference(scaled_internets,
                                                  scale, spec):
    internet = scaled_internets[scale]
    assert assert_index_matches_reference(spec, internet) == len(
        internet.blocks)


class TestCoverageEdgeCases:
    def test_empty_internet_edge(self, net):
        empty = _SlicedInternet(net, 0)
        for scheme in available_schemes():
            assert build_units(scheme, empty) == [], scheme
        with pytest.raises(ValueError, match="no demand"):
            demand_coverage_curve([])

    def test_single_block_curve(self, net):
        single = _SlicedInternet(net, 1)
        units = build_units("bgp_merged", single)
        assert len(units) == 1
        assert demand_coverage_curve(units) == [(1, pytest.approx(1.0))]
        assert units_needed_for_share(units, 0.95) == 1

    def test_all_demand_in_one_unit(self):
        from repro.net.geometry import GeoPoint

        hot = MapUnit(key="hot", scheme=MapUnitScheme.BLOCK)
        hot.add(GeoPoint(10.0, 10.0), 100.0)
        cold = MapUnit(key="cold", scheme=MapUnitScheme.BLOCK)
        cold.add(GeoPoint(20.0, 20.0), 0.0)
        curve = demand_coverage_curve([cold, hot])
        assert curve == [(1, pytest.approx(1.0)),
                         (2, pytest.approx(1.0))]
        assert units_needed_for_share([cold, hot], 0.99) == 1

    def test_zero_demand_units_raise(self):
        from repro.net.geometry import GeoPoint

        unit = MapUnit(key="z", scheme=MapUnitScheme.BLOCK)
        unit.add(GeoPoint(0.0, 0.0), 0.0)
        with pytest.raises(ValueError, match="no demand"):
            demand_coverage_curve([unit])

    def test_cohesion_stats_zero_demand(self):
        assert cohesion_stats([]) == {"units": 0, "radius_miles": 0.0}

    def test_cohesion_stats_mixed_schemes(self, net):
        geo = build_units("geo_as", _SlicedInternet(net, 10))
        stats = cohesion_stats(geo)
        assert stats["units"] == 10
        assert "rtt_ms" not in stats


class TestOneMemberUnits:
    def test_centroid_is_the_member_geo_exactly(self, net):
        for unit, block in zip(build_units("geo_as", net), net.blocks):
            assert unit.centroid() == block.geo

    def test_radius_is_exactly_zero(self, net):
        units = build_units("geo_as", net)
        assert all(unit.radius_miles() == 0.0 for unit in units)
        assert cohesion_stats(units)["radius_miles"] == 0.0

    def test_a_second_member_reopens_the_mean(self):
        from repro.net.geometry import GeoPoint

        unit = MapUnit(key="u", scheme=MapUnitScheme.BLOCK)
        unit.add(GeoPoint(10.0, 20.0), 1.0)
        assert unit.centroid() == GeoPoint(10.0, 20.0)
        unit.add(GeoPoint(10.0, 22.0), 1.0)
        assert unit.centroid().lon == pytest.approx(21.0, abs=1e-2)
        assert unit.radius_miles() > 0.0


class TestRuCompilePath:
    """Routing-aware (``ru``) units through the one compile path and
    the one ladder every unit scheme shares."""

    @pytest.fixture(scope="class")
    def wired(self, net):
        plan = build_deployments(40, net.geodb, seed=2,
                                 host_ases=list(net.ases.values()))
        scorer = Scorer(MeasurementService(), TrafficClass.WEB)
        return plan, scorer

    def test_compile_emits_one_eu_key_per_unit(self, net, wired):
        plan, scorer = wired
        units = build_units("routing_aware:24", net)
        entries = compile_entries(plan, scorer, net, units)
        unit_keys = sorted(k for k in entries if k.startswith("eu:"))
        assert unit_keys == sorted(eu_key(u.key) for u in units)
        assert any(k.startswith("ns:") for k in entries)

    def test_service_lookup_walks_eu_tiers(self, net, wired):
        plan, scorer = wired
        service = MapPublicationService(
            MapMakerConfig(), deployments=plan, scorer=scorer,
            internet=net, unit_scheme="routing_aware:24")
        prefix = net.blocks[0].prefix
        unit_key = service.unit_key_for(prefix)
        assert unit_key is not None
        ids, tier = service.lookup(prefix, 0, day=0)
        assert ids and tier == "fresh_eu"
        assert ids == service.current.lookup(eu_key(unit_key))
        stale_day = MapMakerConfig().stale_age_days
        ids, tier = service.lookup(prefix, 0, day=stale_day)
        assert ids and tier == "stale_eu"

    def test_default_scheme_is_geo_as(self, net, wired):
        from repro.obs import Observability

        plan, scorer = wired
        obs = Observability()
        service = MapPublicationService(
            MapMakerConfig(), deployments=plan, scorer=scorer,
            internet=net, obs=obs)
        service.tick(0)
        assert service.describe()["unit_scheme"] == DEFAULT_UNIT_SCHEME
        prefix = net.blocks[0].prefix
        assert service.unit_key_for(prefix) == str(prefix)
        gauges = obs.registry.snapshot()["gauges"]
        assert gauges["units.total"] == len(net.blocks)
        assert gauges["units.cohesion_miles_mean"] == 0.0


def _main(argv):
    scale = argv[0] if argv else "paper"
    internet = build_internet(getattr(InternetConfig, scale)())
    for spec in INDEX_SPECS:
        size = assert_index_matches_reference(spec, internet)
        print(f"{scale} {spec}: {size} of {len(internet.blocks)} "
              f"blocks indexed, equal to the reference")
    # Imported here: the oracle's module imports this one.
    from tests.test_routing_oracle import (
        assert_partition_invariants,
        assert_rounds_match_the_oracle,
    )
    rounds = assert_rounds_match_the_oracle(internet)
    n_cidrs = len(set(internet.block_cidrs))
    print(f"{scale} routing_aware: {rounds} rounds over {n_cidrs} CIDR "
          f"rows equal to the full recompute")
    assert_partition_invariants(internet,
                                build_units("routing_aware", internet))
    print(f"{scale} routing_aware: every CIDR in exactly one unit")
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
