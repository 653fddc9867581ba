"""Resolver robustness: failover, TCP fallback, negative caching."""

import pytest

from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import Message, ResourceRecord, make_query
from repro.dnsproto.rdata import ARdata, CNAMERdata, TXTRdata
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv import (
    AuthoritativeServer,
    AuthorityDirectory,
    Network,
    RecursiveResolver,
    StaticZone,
    ZoneAnswer,
)
from repro.geo.cities import city_index
from repro.geo.database import GeoDatabase, GeoRecord
from repro.net.ipv4 import Prefix, parse_ipv4

CLIENT = parse_ipv4("10.0.0.5")
LDNS_IP = parse_ipv4("20.0.0.1")
AUTH_NEAR = parse_ipv4("30.0.0.1")
AUTH_FAR = parse_ipv4("30.0.1.1")


def geo(city_name, asn):
    city = city_index()[city_name]
    return GeoRecord(geo=city.geo, city=city.name, country=city.country,
                     continent=city.continent, asn=asn)


@pytest.fixture
def world():
    geodb = GeoDatabase()
    geodb.register(Prefix.parse("10.0.0.0/24"), geo("New York", 100))
    geodb.register(Prefix.parse("20.0.0.0/24"), geo("New York", 100))
    geodb.register(Prefix.parse("30.0.0.0/24"), geo("New York", 200))
    geodb.register(Prefix.parse("30.0.1.0/24"), geo("London", 200))
    network = Network(geodb)
    directory = AuthorityDirectory()
    zone = StaticZone().add(ResourceRecord(
        "a.cdn.example", QType.A, 60, ARdata(parse_ipv4("5.5.5.5"))))
    near = AuthoritativeServer(AUTH_NEAR)
    far = AuthoritativeServer(AUTH_FAR)
    for server in (near, far):
        server.attach_zone("cdn.example", zone)
        network.register(server)
    directory.delegate("cdn.example", [AUTH_NEAR, AUTH_FAR])
    ldns = RecursiveResolver(LDNS_IP, network, directory)
    return network, ldns, near, far


class TestFailover:
    def test_failover_to_second_authority(self, world):
        _network, ldns, near, far = world
        near.fail()
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.NOERROR
        assert result.addresses == [parse_ipv4("5.5.5.5")]
        assert ldns.failovers == 1
        assert far.queries_received == 1
        # The failed attempt costs the timeout penalty.
        assert result.upstream_rtt_ms > 400

    def test_all_dead_servfail(self, world):
        _network, ldns, near, far = world
        near.fail()
        far.fail()
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.SERVFAIL
        assert ldns.failovers == 2

    def test_recovery_restores_service(self, world):
        _network, ldns, near, _far = world
        near.fail()
        near.recover()
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.NOERROR
        assert ldns.failovers == 0


class BigAnswerSource:
    """Answer source producing a response too large for UDP."""

    def answer(self, qname, qtype, ecs, src_ip, now):
        texts = [f"filler-{i:04d}-" + "x" * 40 for i in range(120)]
        record = ResourceRecord(qname, QType.TXT, 60,
                                TXTRdata.from_text(*texts))
        return ZoneAnswer(records=(record,))


class TestTcpFallback:
    def test_truncated_then_tcp(self, world):
        network, ldns, near, _far = world
        near.attach_zone("big.cdn.example", BigAnswerSource())
        result = ldns.resolve("big.cdn.example", QType.TXT, CLIENT,
                              now=0)
        assert result.rcode == Rcode.NOERROR
        assert result.records  # full answer arrived over TCP
        assert ldns.tcp_retries == 1
        assert near.truncated_count == 1
        assert near.tcp_queries == 1

    def test_tcp_retry_costs_extra_rtt(self, world):
        network, ldns, near, _far = world
        near.attach_zone("big.cdn.example", BigAnswerSource())
        small = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        big = ldns.resolve("big.cdn.example", QType.TXT, CLIENT, now=0)
        # UDP attempt (1 RTT) + TCP handshake and exchange (2 RTT).
        assert big.upstream_rtt_ms == pytest.approx(
            3 * small.upstream_rtt_ms)

    def test_small_answers_stay_udp(self, world):
        _network, ldns, near, _far = world
        ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert near.truncated_count == 0
        assert ldns.tcp_retries == 0


class TestNegativeCaching:
    def test_nxdomain_cached(self, world):
        _network, ldns, near, _far = world
        first = ldns.resolve("missing.cdn.example", QType.A, CLIENT, 0)
        second = ldns.resolve("missing.cdn.example", QType.A, CLIENT, 5)
        assert first.rcode == Rcode.NXDOMAIN
        assert second.rcode == Rcode.NXDOMAIN
        assert second.cache_hit
        assert near.queries_received == 1

    def test_negative_entry_expires(self, world):
        _network, ldns, near, _far = world
        ldns.resolve("missing.cdn.example", QType.A, CLIENT, 0)
        later = ldns.resolve("missing.cdn.example", QType.A, CLIENT, 60)
        assert not later.cache_hit
        assert near.queries_received == 2

    def test_nodata_cached(self, world):
        _network, ldns, near, _far = world
        # Name exists (A record) but has no TXT data -> NODATA.
        first = ldns.resolve("a.cdn.example", QType.TXT, CLIENT, 0)
        second = ldns.resolve("a.cdn.example", QType.TXT, CLIENT, 5)
        assert first.rcode == Rcode.NOERROR and not first.records
        assert second.cache_hit
        assert near.queries_received == 1

    def test_servfail_not_cached(self, world):
        _network, ldns, near, far = world
        near.fail()
        far.fail()
        ldns.resolve("a.cdn.example", QType.A, CLIENT, 0)
        near.recover()
        far.recover()
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, 1)
        assert result.rcode == Rcode.NOERROR


def _chain_zone(links):
    """``n0 -> n1 -> ... -> n<links>``, the last name holding an A."""
    zone = StaticZone()
    for index in range(links):
        zone.add(ResourceRecord(
            f"n{index}.cdn.example", QType.CNAME, 60,
            CNAMERdata(f"n{index + 1}.cdn.example")))
    return zone.add(ResourceRecord(
        f"n{links}.cdn.example", QType.A, 60,
        ARdata(parse_ipv4("5.5.5.5"))))


class TestCnameChains:
    """A chain that cannot end in an answer is the resolver's SERVFAIL,
    not a NOERROR made of CNAMEs."""

    def _serve(self, world, zone):
        _network, ldns, near, far = world
        for server in (near, far):
            server.attach_zone("cdn.example", zone)
        return ldns, near

    def _loop_zone(self, *names):
        zone = StaticZone()
        for name, target in zip(names, names[1:] + names[:1]):
            zone.add(ResourceRecord(name, QType.CNAME, 60,
                                    CNAMERdata(target)))
        return zone

    @pytest.mark.parametrize("names", [
        ("a.loop.cdn.example", "b.loop.cdn.example"),
        ("self.loop.cdn.example",),
    ], ids=["two-name-loop", "self-loop"])
    def test_loop_is_servfail(self, world, names):
        ldns, near = self._serve(world, self._loop_zone(*names))
        result = ldns.resolve(names[0], QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.SERVFAIL
        assert result.records == () and result.addresses == []
        assert ldns.servfail_responses == 1
        # One upstream query per link, then the loop is seen.
        assert near.queries_received == len(names)
        assert result.upstream_queries == len(names)

    def test_loop_caches_its_links_and_nothing_negative(self, world):
        names = ("a.loop.cdn.example", "b.loop.cdn.example")
        ldns, near = self._serve(world, self._loop_zone(*names))
        ldns.resolve(names[0], QType.A, CLIENT, now=0)
        for name in names:
            (entry,) = ldns.cache.entries_for(name, QType.A)
            assert not entry.negative
        again = ldns.resolve(names[0], QType.A, CLIENT, now=1)
        assert again.rcode == Rcode.SERVFAIL and again.cache_hit
        assert near.queries_received == 2
        assert ldns.servfail_responses == 2

    def test_loop_on_the_wire_is_an_empty_servfail(self, world):
        network, ldns, _near, _far = world
        self._serve(world, self._loop_zone("a.loop.cdn.example",
                                           "b.loop.cdn.example"))
        network.register(ldns)
        hop = network.query(CLIENT, LDNS_IP,
                            make_query("a.loop.cdn.example"), now=0)
        assert hop.response.flags.rcode == Rcode.SERVFAIL
        assert hop.response.answers == []

    def test_seven_links_still_resolve(self, world):
        ldns, _near = self._serve(world, _chain_zone(7))
        result = ldns.resolve("n0.cdn.example", QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.NOERROR
        assert result.addresses == [parse_ipv4("5.5.5.5")]
        assert len(result.records) == 8
        assert ldns.servfail_responses == 0

    def test_eight_links_are_servfail(self, world):
        ldns, _near = self._serve(world, _chain_zone(8))
        result = ldns.resolve("n0.cdn.example", QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.SERVFAIL
        assert result.records == ()
        assert ldns.servfail_responses == 1
        # The links stay cached: asking again costs no upstream query.
        again = ldns.resolve("n0.cdn.example", QType.A, CLIENT, now=1)
        assert again.rcode == Rcode.SERVFAIL
        assert again.upstream_queries == 0


class TestUnencodableAnswers:
    """A zone whose records the wire cannot carry is the server's
    fault: it answers SERVFAIL, it does not raise into the roll-out."""

    UNENCODABLE = {
        "cname-label-over-63": ResourceRecord(
            "bad.cdn.example", QType.CNAME, 60,
            CNAMERdata("x" * 64 + ".cdn.example")),
        "txt-without-strings": ResourceRecord(
            "bad.cdn.example", QType.TXT, 60, TXTRdata(())),
    }

    @pytest.mark.parametrize("record", UNENCODABLE.values(),
                             ids=UNENCODABLE.keys())
    def test_server_answers_servfail(self, record):
        server = AuthoritativeServer(AUTH_NEAR)
        server.attach_zone("cdn.example", StaticZone().add(record))
        wire = make_query("bad.cdn.example", record.rtype,
                          msg_id=77).encode()
        response = Message.decode(server.handle_query(wire, LDNS_IP, 0.0))
        assert response.msg_id == 77
        assert response.flags.rcode == Rcode.SERVFAIL
        assert not response.answers
        assert response.question.name == "bad.cdn.example"
        assert server.responses_sent == 1

    @pytest.mark.parametrize("record", UNENCODABLE.values(),
                             ids=UNENCODABLE.keys())
    def test_resolver_reports_servfail(self, world, record):
        _network, ldns, near, far = world
        zone = StaticZone().add(record)
        for server in (near, far):
            server.attach_zone("cdn.example", zone)
        result = ldns.resolve("bad.cdn.example", record.rtype, CLIENT,
                              now=0)
        assert result.rcode == Rcode.SERVFAIL


class TestOptIsEchoedNotInvented:
    """RFC 6891 Section 7: a requestor that sent no OPT gets none
    back -- 11 bytes it never offered to receive, counted against the
    512 the server then holds the reply to."""

    def _plain_query(self, msg_id):
        query = make_query("a.cdn.example", msg_id=msg_id)
        query.opt = None
        return query.encode()

    def test_authoritative(self, world):
        _network, _ldns, near, _far = world
        with_opt = near.handle_query(
            make_query("a.cdn.example", msg_id=3).encode(), LDNS_IP, 0.0)
        without = near.handle_query(self._plain_query(3), LDNS_IP, 0.0)
        assert Message.decode(with_opt).opt is not None
        reply = Message.decode(without)
        assert reply.opt is None
        assert reply.flags.rcode == Rcode.NOERROR and len(reply.answers) == 1
        assert len(with_opt) - len(without) == 11

    def test_recursive(self, world):
        network, ldns, _near, _far = world
        with_opt = ldns.handle_query(
            make_query("a.cdn.example", msg_id=4).encode(), CLIENT, 0.0)
        without = ldns.handle_query(self._plain_query(4), CLIENT, 1.0)
        assert Message.decode(with_opt).opt is not None
        reply = Message.decode(without)
        assert reply.opt is None
        assert reply.flags.ra and len(reply.answers) == 1
        assert len(with_opt) - len(without) == 11
        # Upstream the resolver speaks EDNS0 for itself, either way.
        assert network.queries_sent == 1


class _SubnetZone:
    """Answers each client /24 with its own address, at scope /24."""

    def answer(self, qname, qtype, ecs, src_ip, now):
        network = ecs.prefix.network if ecs is not None else 0
        return ZoneAnswer(records=(ResourceRecord(
            qname, QType.A, 60, ARdata(network | 1)),),
            scope_prefix_len=24)


class _WrongSubnetAuthority:
    """An authority that answers a query for one /24 as if it came from
    the next /24 up, and echoes that /24 in its ECS option."""

    def __init__(self, server):
        self.server = server
        self.ip = server.ip

    def handle_query(self, wire, src_ip, now, tcp=False):
        query = Message.decode(wire)
        ecs = query.client_subnet
        if ecs is not None:
            query.with_client_subnet(ClientSubnetOption(Prefix(
                ecs.prefix.network + 256, ecs.prefix.length)))
        return self.server.handle_query(query.encode(), src_ip, now,
                                        tcp=tcp)


class TestEcsEchoIsChecked:
    """RFC 7871 Section 7.3: a reply whose ECS option names another
    client subnet than the query's is dropped, not cached for the
    subnet that asked."""

    def _wire(self, liars):
        geodb = GeoDatabase()
        for text, city in (("10.0.0.0/24", "New York"),
                           ("10.0.1.0/24", "Boston"),
                           ("20.0.0.0/24", "New York"),
                           ("30.0.0.0/24", "New York"),
                           ("30.0.1.0/24", "London")):
            geodb.register(Prefix.parse(text), geo(city, 100))
        network = Network(geodb)
        directory = AuthorityDirectory()
        for ip in (AUTH_NEAR, AUTH_FAR):
            server = AuthoritativeServer(ip)
            server.attach_zone("cdn.example", _SubnetZone())
            network.register(_WrongSubnetAuthority(server) if ip in liars
                             else server)
        directory.delegate("cdn.example", [AUTH_NEAR, AUTH_FAR])
        return RecursiveResolver(LDNS_IP, network, directory,
                                 ecs_enabled=True)

    def test_a_wrong_echo_is_dropped_and_the_next_authority_answers(self):
        ldns = self._wire(liars={AUTH_NEAR})
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert result.addresses == [parse_ipv4("10.0.0.1")]
        # Both tries at the near authority were dropped, as if lost.
        assert ldns.ecs_mismatches == 2
        assert ldns.timeout_failovers == 1
        assert result.upstream_queries == 3
        assert result.upstream_rtt_ms > 400
        # The next client of the /24 is served the right answer, from
        # the cache.
        again = ldns.resolve("a.cdn.example", QType.A,
                             parse_ipv4("10.0.0.77"), now=1)
        assert again.cache_hit
        assert again.addresses == [parse_ipv4("10.0.0.1")]

    def test_when_every_echo_is_wrong_nothing_is_cached(self):
        ldns = self._wire(liars={AUTH_NEAR, AUTH_FAR})
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert result.rcode == Rcode.SERVFAIL
        assert ldns.ecs_mismatches == 4
        assert ldns.timeout_failovers == 2
        again = ldns.resolve("a.cdn.example", QType.A,
                             parse_ipv4("10.0.0.77"), now=1)
        assert not again.cache_hit
        assert again.rcode == Rcode.SERVFAIL

    def test_a_right_echo_is_kept(self):
        ldns = self._wire(liars=set())
        result = ldns.resolve("a.cdn.example", QType.A, CLIENT, now=0)
        assert result.addresses == [parse_ipv4("10.0.0.1")]
        assert ldns.ecs_mismatches == 0
        assert result.upstream_queries == 1
