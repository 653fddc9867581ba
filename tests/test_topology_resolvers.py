"""Tests for resolver deployments, anycast catchment, and profiles."""

import random
from collections import Counter

import pytest

from repro.geo.cities import city_index
from repro.net.geometry import GeoPoint, great_circle_miles
from repro.topology.profiles import (
    CountryProfile,
    DEFAULT_PROFILE,
    profile_for,
)
from repro.topology.resolvers import (
    DEFAULT_PUBLIC_PROVIDERS,
    Resolver,
    ResolverKind,
    anycast_catchment,
    providers_by_name,
)


def deployment(name, city_name, ip):
    city = city_index()[city_name]
    return Resolver(
        resolver_id=name, ip=ip, geo=city.geo, city=city.name,
        country=city.country, asn=99, kind=ResolverKind.PUBLIC,
        provider="test")


@pytest.fixture
def deployments():
    return [
        deployment("ny", "New York", 1),
        deployment("lon", "London", 2),
        deployment("sg", "Singapore", 3),
        deployment("tyo", "Tokyo", 4),
    ]


class TestAnycastCatchment:
    def test_zero_misroute_always_nearest(self, deployments):
        rng = random.Random(1)
        boston = GeoPoint(42.36, -71.06)
        for _ in range(50):
            chosen = anycast_catchment(boston, deployments, rng,
                                       misroute_rate=0.0)
            assert chosen.resolver_id == "ny"

    def test_misroute_statistics(self, deployments):
        rng = random.Random(2)
        boston = GeoPoint(42.36, -71.06)
        counts = Counter(
            anycast_catchment(boston, deployments, rng,
                              misroute_rate=0.3).resolver_id
            for _ in range(3000))
        share_nearest = counts["ny"] / 3000
        assert 0.62 <= share_nearest <= 0.78  # ~1 - misroute_rate
        # Misroutes prefer nearer alternates (London over Tokyo/SG).
        assert counts["lon"] > counts["sg"]

    def test_single_deployment_trivial(self, deployments):
        rng = random.Random(3)
        out = anycast_catchment(GeoPoint(0, 0), deployments[:1], rng,
                                misroute_rate=1.0)
        assert out.resolver_id == deployments[0].resolver_id

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            anycast_catchment(GeoPoint(0, 0), [], random.Random(0))


class TestProviderHelpers:
    def test_providers_by_name(self):
        index = providers_by_name(DEFAULT_PUBLIC_PROVIDERS)
        assert set(index) == {"GloboDNS", "OpenFast", "UltraLevel"}

    def test_no_south_america_deployments(self):
        """The paper's Figure 8 mechanism requires public providers to
        have no deployments in South America circa 2014."""
        sa_countries = {"BR", "AR", "CL", "CO", "PE", "VE", "EC", "UY"}
        index = city_index()
        for provider in DEFAULT_PUBLIC_PROVIDERS:
            for city_name in provider.deployment_cities:
                assert index[city_name].country not in sa_countries


class TestCountryProfiles:
    def test_default_for_unknown(self):
        assert profile_for("ZZ") is DEFAULT_PROFILE

    def test_validation(self):
        with pytest.raises(ValueError):
            CountryProfile(1.5, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            CountryProfile(0.5, 0, 0, 0, 0, internet_penetration=0.0)
        with pytest.raises(ValueError):
            CountryProfile(0.5, 0, 0, 0, 0, foreign_hub_rate=0.5)
        with pytest.raises(ValueError):
            CountryProfile(0.5, 0, 0, 0, 0, foreign_hub="Miami",
                           foreign_hub_rate=1.5)

    def test_foreign_hubs_exist_in_gazetteer(self):
        from repro.topology.profiles import _PROFILES
        index = city_index()
        for code, profile in _PROFILES.items():
            if profile.foreign_hub:
                assert profile.foreign_hub in index, (
                    f"{code}: unknown hub {profile.foreign_hub}")

    def test_paper_country_ordering_encoded(self):
        """The calibration must encode the paper's qualitative
        orderings: KR denser than IN, VN heavier public use than KR."""
        assert profile_for("KR").local_infra > profile_for(
            "IN").local_infra
        assert profile_for("VN").public_adoption > profile_for(
            "KR").public_adoption
        assert profile_for("IN").internet_penetration < profile_for(
            "US").internet_penetration
