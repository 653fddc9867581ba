"""Integration tests for transport + authoritative + recursive + stub.

Builds a miniature hand-wired world (no topology generator): clients in
two /24 blocks in different cities, one LDNS, two authoritative
deployments, a content-provider zone CNAMEing onto the CDN zone, and a
mapping-like answer source that returns different servers per ECS block.
"""

import pytest

from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import (
    Flags,
    Message,
    ResourceRecord,
    make_query,
    make_response,
)
from repro.dnsproto.rdata import ARdata, CNAMERdata
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv import (
    AuthoritativeServer,
    AuthorityDirectory,
    EcsAwareCache,
    Network,
    RecursiveResolver,
    StaticZone,
    StubResolver,
    WhoAmIZone,
    ZoneAnswer,
)
from repro.geo.cities import city_index
from repro.geo.database import GeoDatabase, GeoRecord
from repro.net.ipv4 import Prefix, format_ipv4, parse_ipv4

CLIENT_NYC = parse_ipv4("10.0.0.5")     # block 10.0.0.0/24
CLIENT_NYC2 = parse_ipv4("10.0.0.77")   # same block
CLIENT_LA = parse_ipv4("10.0.1.5")      # block 10.0.1.0/24
LDNS_IP = parse_ipv4("20.0.0.1")
AUTH_NYC = parse_ipv4("30.0.0.1")
AUTH_LONDON = parse_ipv4("30.0.1.1")
SERVER_EAST = "50.0.0.1"
SERVER_WEST = "50.0.1.1"


def geo_record(city_name, asn):
    city = city_index()[city_name]
    return GeoRecord(geo=city.geo, city=city.name, country=city.country,
                     continent=city.continent, asn=asn)


@pytest.fixture
def world():
    geodb = GeoDatabase()
    geodb.register(Prefix.parse("10.0.0.0/24"), geo_record("New York", 100))
    geodb.register(Prefix.parse("10.0.1.0/24"),
                   geo_record("Los Angeles", 100))
    geodb.register(Prefix.parse("20.0.0.0/24"), geo_record("New York", 100))
    geodb.register(Prefix.parse("30.0.0.0/24"), geo_record("New York", 200))
    geodb.register(Prefix.parse("30.0.1.0/24"), geo_record("London", 200))
    network = Network(geodb)
    directory = AuthorityDirectory()
    return network, directory


class EcsEchoSource:
    """Mapping-like source: east-coast clients get SERVER_EAST, others
    SERVER_WEST, with a /24 answer scope.  Captures received ECS."""

    def __init__(self):
        self.seen_ecs = []
        self.answers = 0

    def answer(self, qname, qtype, ecs, src_ip, now):
        self.seen_ecs.append(ecs)
        self.answers += 1
        if qtype != QType.A:
            return ZoneAnswer(rcode=Rcode.NOERROR)
        if ecs is not None and ecs.prefix.contains(CLIENT_NYC):
            address = SERVER_EAST
        else:
            address = SERVER_WEST
        record = ResourceRecord(qname, QType.A, 60,
                                ARdata(parse_ipv4(address)))
        scope = 24 if ecs is not None else None
        return ZoneAnswer(records=(record,), scope_prefix_len=scope)


def build_cdn_auth(world, source=None):
    network, directory = world
    source = source or EcsEchoSource()
    for auth_ip in (AUTH_NYC, AUTH_LONDON):
        server = AuthoritativeServer(auth_ip)
        server.attach_zone("cdn.example", source)
        server.attach_zone("whoami.cdn.example",
                           WhoAmIZone("whoami.cdn.example"))
        network.register(server)
    directory.delegate("cdn.example", [AUTH_NYC, AUTH_LONDON])
    return source


def build_provider_auth(world):
    network, directory = world
    zone = StaticZone()
    zone.add(ResourceRecord("www.shop.example", QType.CNAME, 300,
                            CNAMERdata("e123.cdn.example")))
    server = AuthoritativeServer(parse_ipv4("30.0.0.2"))
    # Provider zone is served from the NYC data center too.
    server.attach_zone("shop.example", zone)
    network.register(server)
    directory.delegate("shop.example", [parse_ipv4("30.0.0.2")])


class TestAuthorityDirectory:
    def test_longest_suffix_match(self, world):
        _network, directory = world
        directory.delegate("cdn.example", [1])
        directory.delegate("special.cdn.example", [2])
        assert directory.authority_for("a.cdn.example")[1] == [1]
        assert directory.authority_for("x.special.cdn.example")[1] == [2]
        assert directory.authority_for("other.org") is None

    def test_root_fallback(self, world):
        _network, directory = world
        directory.delegate("", [9])
        assert directory.authority_for("anything.at.all")[1] == [9]

    def test_rejects_empty_server_list(self, world):
        _network, directory = world
        with pytest.raises(ValueError):
            directory.delegate("x", [])

    def test_a_delegation_reaches_names_already_looked_up(self, world):
        _network, directory = world
        directory.delegate("cdn.example", [1])
        assert directory.authority_for("x.special.cdn.example")[1] == [1]
        assert directory.authority_for("other.org") is None
        directory.delegate("special.cdn.example", [2])
        directory.delegate("", [9])
        assert directory.authority_for("x.special.cdn.example") == (
            "special.cdn.example", [2])
        assert directory.authority_for("other.org") == ("", [9])
        directory.delegate("cdn.example", [3])
        assert directory.authority_for("a.cdn.example")[1] == [3]
        assert directory.authority_for("A.CDN.example.")[1] == [3]


class TestNetwork:
    def test_rtt_requires_geolocation(self, world):
        network, _ = world
        with pytest.raises(KeyError):
            network.rtt_ms(parse_ipv4("99.99.99.99"), CLIENT_NYC)

    def test_query_to_unregistered_endpoint(self, world):
        network, _ = world
        with pytest.raises(KeyError):
            network.query(CLIENT_NYC, parse_ipv4("88.0.0.1"),
                          make_query("x.example"), now=0)

    def test_ip_collision_detected(self, world):
        network, _ = world
        a = AuthoritativeServer(AUTH_NYC)
        b = AuthoritativeServer(AUTH_NYC)
        network.register(a)
        network.register(a)  # same object is fine
        with pytest.raises(ValueError):
            network.register(b)

    def test_cross_country_rtt_larger(self, world):
        network, _ = world
        near = network.rtt_ms(LDNS_IP, AUTH_NYC)
        far = network.rtt_ms(LDNS_IP, AUTH_LONDON)
        assert far > near

    def test_query_accounting(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        assert network.queries_sent == 1
        assert network.bytes_sent > 0


class TestAuthoritativeServer:
    def test_static_zone_a_lookup(self, world):
        network, directory = world
        zone = StaticZone().add(ResourceRecord(
            "www.shop.example", QType.A, 60, ARdata(parse_ipv4("5.5.5.5"))))
        server = AuthoritativeServer(AUTH_NYC)
        server.attach_zone("shop.example", zone)
        network.register(server)
        hop = network.query(LDNS_IP, AUTH_NYC,
                            make_query("www.shop.example"), now=0)
        assert str(hop.response.answers[0].rdata) == "5.5.5.5"
        assert hop.response.flags.aa

    def test_nxdomain_for_unknown_name(self, world):
        network, _directory = world
        server = AuthoritativeServer(AUTH_NYC)
        server.attach_zone("shop.example", StaticZone())
        network.register(server)
        hop = network.query(LDNS_IP, AUTH_NYC,
                            make_query("missing.shop.example"), now=0)
        assert hop.response.flags.rcode == Rcode.NXDOMAIN

    def test_refused_outside_zones(self, world):
        network, _directory = world
        server = AuthoritativeServer(AUTH_NYC)
        server.attach_zone("shop.example", StaticZone())
        network.register(server)
        hop = network.query(LDNS_IP, AUTH_NYC,
                            make_query("other.org"), now=0)
        assert hop.response.flags.rcode == Rcode.REFUSED

    def test_an_attached_zone_reaches_names_already_looked_up(self, world):
        server = AuthoritativeServer(AUTH_NYC)
        parent, child, root = StaticZone(), StaticZone(), StaticZone()
        server.attach_zone("shop.example", parent)
        assert server.zone_for("www.eu.shop.example") is parent
        assert server.zone_for("other.org") is None
        server.attach_zone("eu.shop.example", child)
        server.attach_zone("", root)
        assert server.zone_for("www.eu.shop.example") is child
        assert server.zone_for("WWW.eu.shop.example.") is child
        assert server.zone_for("other.org") is root
        server.attach_zone("eu.shop.example", parent)
        assert server.zone_for("www.eu.shop.example") is parent

    @pytest.mark.parametrize("opcode", [2, 4, 5],
                             ids=["status", "notify", "update"])
    def test_notimp_for_any_opcode_but_query(self, world, opcode):
        source = EcsEchoSource()
        server = AuthoritativeServer(AUTH_NYC)
        server.attach_zone("cdn.example", source)
        query = make_query("e1.cdn.example", msg_id=11)
        query.flags = Flags(opcode=opcode)
        reply = Message.decode(
            server.handle_query(query.encode(), LDNS_IP, now=0))
        assert reply.flags.rcode == Rcode.NOTIMP
        assert reply.flags.opcode == opcode and reply.flags.qr
        assert reply.msg_id == 11 and not reply.answers
        assert not reply.flags.aa
        assert source.answers == 0
        assert (server.notimp_count, server.formerr_count) == (1, 0)

    def test_formerr_on_garbage(self, world):
        server = AuthoritativeServer(AUTH_NYC)
        out = server.handle_query(b"\x00\x07garbage-not-dns", CLIENT_NYC, 0)
        assert out is not None
        assert server.formerr_count == 1

    def test_query_counters(self, world):
        network, _ = world
        server = AuthoritativeServer(AUTH_NYC)
        server.attach_zone("shop.example", StaticZone())
        network.register(server)
        for _ in range(3):
            network.query(LDNS_IP, AUTH_NYC, make_query("a.shop.example"),
                          now=0)
        assert server.queries_received == 3
        assert server.responses_sent == 3

    def test_whoami_reflects_resolver(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        result = ldns.resolve("whoami.cdn.example", QType.TXT, CLIENT_NYC,
                              now=0)
        text = str(result.records[0].rdata)
        assert format_ipv4(LDNS_IP) in text

    def test_whoami_includes_ecs_when_forwarded(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)
        result = ldns.resolve("whoami.cdn.example", QType.TXT, CLIENT_NYC,
                              now=0)
        text = str(result.records[0].rdata)
        assert "ecs=10.0.0.0/24" in text


class TestRecursiveResolver:
    def test_resolution_without_ecs(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        result = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        assert result.rcode == Rcode.NOERROR
        assert result.addresses == [parse_ipv4(SERVER_WEST)]
        assert source.seen_ecs == [None]

    def test_ecs_forwarded_as_slash24(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        (ecs,) = source.seen_ecs
        assert ecs == ClientSubnetOption(Prefix.parse("10.0.0.0/24"))

    def test_cache_hit_on_second_query(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        first = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        second = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=1)
        assert not first.cache_hit and second.cache_hit
        assert second.upstream_queries == 0
        assert source.answers == 1

    def test_cached_ttl_ages(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        later = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=20)
        assert later.records[0].ttl == 40

    def test_ttl_expiry_requeries(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        result = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=61)
        assert not result.cache_hit
        assert source.answers == 2

    def test_without_ecs_all_clients_share_cache(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        result = ldns.resolve("e1.cdn.example", QType.A, CLIENT_LA, now=1)
        assert result.cache_hit
        assert source.answers == 1
        # And both got the same (NS-based) answer.
        assert result.addresses == [parse_ipv4(SERVER_WEST)]

    def test_with_ecs_blocks_get_separate_entries(self, world):
        """The paper's core cache behaviour: per-block resolutions."""
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)
        nyc = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        la = ldns.resolve("e1.cdn.example", QType.A, CLIENT_LA, now=1)
        assert source.answers == 2  # separate upstream query per block
        assert nyc.addresses == [parse_ipv4(SERVER_EAST)]
        assert la.addresses == [parse_ipv4(SERVER_WEST)]
        assert ldns.cache.scope_count("e1.cdn.example", QType.A, 2) == 2

    def test_with_ecs_same_block_shares_entry(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        result = ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC2, now=1)
        assert result.cache_hit
        assert source.answers == 1

    def test_scope_zero_shared_across_blocks(self, world):
        """Authority answering scope 0 (not client specific) must yield
        a single shared entry even with ECS enabled."""
        network, directory = world

        class GlobalSource:
            answers = 0
            def answer(self, qname, qtype, ecs, src_ip, now):
                GlobalSource.answers += 1
                record = ResourceRecord(qname, QType.A, 60,
                                        ARdata(parse_ipv4("7.7.7.7")))
                return ZoneAnswer(records=(record,), scope_prefix_len=0)

        server = AuthoritativeServer(AUTH_NYC)
        server.attach_zone("cdn.example", GlobalSource())
        network.register(server)
        directory.delegate("cdn.example", [AUTH_NYC])
        ldns = RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        result = ldns.resolve("e1.cdn.example", QType.A, CLIENT_LA, now=1)
        assert result.cache_hit
        assert GlobalSource.answers == 1

    def test_cname_chase_across_zones(self, world):
        network, directory = world
        build_cdn_auth(world)
        build_provider_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)
        result = ldns.resolve("www.shop.example", QType.A, CLIENT_NYC,
                              now=0)
        kinds = [r.rtype for r in result.records]
        assert QType.CNAME in kinds and QType.A in kinds
        assert result.addresses == [parse_ipv4(SERVER_EAST)]
        assert result.upstream_queries == 2

    def test_cname_chain_cached_independently(self, world):
        network, directory = world
        source = build_cdn_auth(world)
        build_provider_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        ldns.resolve("www.shop.example", QType.A, CLIENT_NYC, now=0)
        result = ldns.resolve("www.shop.example", QType.A, CLIENT_NYC,
                              now=10)
        assert result.cache_hit
        assert source.answers == 1

    def test_servfail_when_no_authority(self, world):
        network, directory = world
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        result = ldns.resolve("unknown.zone.example", QType.A, CLIENT_NYC,
                              now=0)
        assert result.rcode == Rcode.SERVFAIL
        assert result.records == ()

    def test_nearest_authority_preferred(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        network_before = network.queries_sent
        endpoint_nyc = network.endpoint(AUTH_NYC)
        endpoint_lon = network.endpoint(AUTH_LONDON)
        ldns.resolve("e1.cdn.example", QType.A, CLIENT_NYC, now=0)
        assert endpoint_nyc.queries_received == 1
        assert endpoint_lon.queries_received == 0
        assert network.queries_sent == network_before + 1

    def test_handle_query_wire_interface(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        network.register(ldns)
        hop = network.query(CLIENT_NYC, LDNS_IP,
                            make_query("e1.cdn.example", msg_id=42), now=0)
        assert hop.response.msg_id == 42
        assert hop.response.flags.ra
        assert not hop.response.flags.aa
        assert hop.response.answers

    def test_handle_query_refuses_a_response(self, world):
        """QR=1 is FORMERR, as at the authoritative: resolving it would
        let two resolvers on one network reflect each other."""
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        reflected = make_response(make_query("e1.cdn.example", msg_id=7))
        reply = Message.decode(
            ldns.handle_query(reflected.encode(), CLIENT_NYC, now=0))
        assert reply.flags.rcode == Rcode.FORMERR
        assert reply.msg_id == 7 and not reply.answers
        assert ldns.client_queries == 0
        assert source.answers == 0

    def test_handle_query_does_not_recurse_for_another_opcode(self, world):
        """A NOTIFY or UPDATE is not a question: NOTIMP with the opcode
        echoed, and nothing goes upstream."""
        network, directory = world
        source = build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        for opcode in (2, 4, 5):
            query = make_query("e1.cdn.example", msg_id=opcode)
            query.flags = Flags(opcode=opcode)
            reply = Message.decode(
                ldns.handle_query(query.encode(), CLIENT_NYC, now=0))
            assert reply.flags.rcode == Rcode.NOTIMP
            assert reply.flags.opcode == opcode and reply.flags.qr
            assert reply.msg_id == opcode and not reply.answers
        assert ldns.notimp_count == 3
        assert ldns.client_queries == 0 and network.queries_sent == 0
        assert source.answers == 0

    def test_rejects_bad_ecs_source_len(self, world):
        network, directory = world
        with pytest.raises(ValueError):
            RecursiveResolver(LDNS_IP, network, directory,
                              ecs_source_len=0)


class TestStubResolver:
    def test_dns_time_includes_upstream_on_miss(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        stub = StubResolver(CLIENT_NYC, network)
        miss = stub.resolve("e1.cdn.example", ldns, now=0)
        hit = stub.resolve("e1.cdn.example", ldns, now=1)
        assert not miss.ldns_cache_hit and hit.ldns_cache_hit
        assert miss.dns_time_ms > hit.dns_time_ms
        client_hop = network.rtt_ms(CLIENT_NYC, LDNS_IP)
        assert hit.dns_time_ms == pytest.approx(client_hop)

    def test_resolution_ok_flag(self, world):
        network, directory = world
        build_cdn_auth(world)
        ldns = RecursiveResolver(LDNS_IP, network, directory)
        stub = StubResolver(CLIENT_NYC, network)
        good = stub.resolve("e1.cdn.example", ldns, now=0)
        bad = stub.resolve("nope.nowhere.example", ldns, now=0)
        assert good.ok and not bad.ok
