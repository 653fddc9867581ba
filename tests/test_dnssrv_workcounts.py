"""What an LDNS cache hit costs, counted rather than timed.

A lookup the cache answers copies no record, formats no prefix and
validates no :class:`Prefix`; the aged copies exist only once somebody
reads ``.records``, and then exactly as many as had a TTL to move.
These tests pin that with call counts, and pin what deferring must not
change: the TTLs a reader sees, on the object and on the wire.
"""

import pytest

from repro.dnsproto import WireFormatError
from repro.dnsproto.message import Message, ResourceRecord, make_query
from repro.dnsproto.rdata import ARdata, CNAMERdata
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv import (
    AuthoritativeServer,
    AuthorityDirectory,
    Network,
    RecursiveResolver,
    StaticZone,
    StubResolver,
    ZoneAnswer,
)
from repro.geo.cities import city_index
from repro.geo.database import GeoDatabase, GeoRecord
from repro.net.ipv4 import Prefix, parse_ipv4

CLIENT = parse_ipv4("10.0.0.5")
OTHER_CLIENT = parse_ipv4("10.0.0.99")
LDNS_IP = parse_ipv4("20.0.0.1")
AUTH_IP = parse_ipv4("30.0.0.1")
EDGE = parse_ipv4("50.0.0.1")


class ScopedSource:
    """One A record per name, TTL 60, valid for the client's /24."""

    def answer(self, qname, qtype, ecs, src_ip, now):
        record = ResourceRecord(qname, QType.A, 60, ARdata(EDGE))
        return ZoneAnswer(records=(record,),
                          scope_prefix_len=24 if ecs is not None else None)


@pytest.fixture
def ldns():
    """An ECS resolver in front of ``www.shop.example`` (CNAME, TTL
    300) -> ``e1.cdn.example`` (A, TTL 60, /24 scope)."""
    city = city_index()["New York"]
    geodb = GeoDatabase()
    for block in ("10.0.0.0/24", "20.0.0.0/24", "30.0.0.0/24"):
        geodb.register(Prefix.parse(block), GeoRecord(
            geo=city.geo, city=city.name, country=city.country,
            continent=city.continent, asn=100))
    network = Network(geodb)
    server = AuthoritativeServer(AUTH_IP)
    server.attach_zone("cdn.example", ScopedSource())
    server.attach_zone("shop.example", StaticZone().add(ResourceRecord(
        "www.shop.example", QType.CNAME, 300,
        CNAMERdata("e1.cdn.example"))))
    network.register(server)
    directory = AuthorityDirectory()
    directory.delegate("cdn.example", [AUTH_IP])
    directory.delegate("shop.example", [AUTH_IP])
    return RecursiveResolver(LDNS_IP, network, directory,
                             ecs_enabled=True)


@pytest.fixture
def counted(monkeypatch):
    """Call counts of the three things a hit used to pay for."""
    counts = {"copies": 0, "formats": 0, "validations": 0}

    def count(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    count(ResourceRecord, "with_ttl", "copies")
    count(Prefix, "__str__", "formats")
    count(Prefix, "__post_init__", "validations")
    return counts


class TestFullHit:
    def test_a_hit_copies_formats_and_validates_nothing(self, ldns,
                                                        counted):
        stub = StubResolver(CLIENT, ldns.network)
        stub.resolve("www.shop.example", ldns, now=0)
        counted.update(copies=0, formats=0, validations=0)
        hit = stub.resolve("www.shop.example", ldns, now=20)
        assert hit.ldns_cache_hit and hit.ok
        assert hit.addresses == [EDGE]
        assert counted == {"copies": 0, "formats": 0, "validations": 0}
        assert ldns.cache.stats.hits == 2  # both links of the chain

    def test_first_read_copies_each_moved_record_once(self, ldns,
                                                      counted):
        stub = StubResolver(CLIENT, ldns.network)
        stub.resolve("www.shop.example", ldns, now=0)
        hit = stub.resolve("www.shop.example", ldns, now=20)
        counted["copies"] = 0
        records = hit.records
        assert counted["copies"] == 2
        assert [(r.rtype, r.ttl) for r in records] == [
            (QType.CNAME, 280), (QType.A, 40)]
        assert hit.records is records
        assert counted["copies"] == 2

    def test_no_elapsed_second_hands_back_the_stored_tuple(self, ldns,
                                                           counted):
        ldns.resolve("e1.cdn.example", QType.A, CLIENT, now=0)
        (entry,) = ldns.cache.entries_for("e1.cdn.example", QType.A)
        hit = ldns.resolve("e1.cdn.example", QType.A, CLIENT, now=0.9)
        assert hit.cache_hit
        assert hit.records is entry.records
        assert counted["copies"] == 0

    def test_a_record_out_of_ttl_is_left_at_zero(self, ldns, counted):
        # A record stored with a shorter TTL than its entry's reads 0
        # once that has run out, never negative.
        short = ResourceRecord("x.cdn.example", QType.A, 5, ARdata(EDGE))
        ldns.cache.store("x.cdn.example", QType.A, None, (short,), 60,
                         now=0)
        hit = ldns.resolve("x.cdn.example", QType.A, CLIENT, now=30)
        assert hit.cache_hit and counted["copies"] == 0
        assert [r.ttl for r in hit.records] == [0]
        assert counted["copies"] == 1


class TestWithTtl:
    RECORD = ResourceRecord("a.example", QType.A, 60, ARdata(EDGE))

    def test_same_ttl_is_identity(self):
        assert self.RECORD.with_ttl(60) is self.RECORD

    def test_a_copy_differs_only_in_ttl(self):
        copy = self.RECORD.with_ttl(18)
        assert copy == ResourceRecord("a.example", QType.A, 18,
                                      ARdata(EDGE))
        assert copy.rdata is self.RECORD.rdata
        assert self.RECORD.ttl == 60

    @pytest.mark.parametrize("ttl", [-1, 2 ** 31])
    def test_out_of_range_still_raises(self, ttl):
        with pytest.raises(WireFormatError):
            self.RECORD.with_ttl(ttl)


class TestWireStillAges:
    def _ttls(self, ldns, client, now):
        wire = ldns.handle_query(
            make_query("e1.cdn.example").encode(), client, now)
        reply = Message.decode(wire)
        assert reply.flags.rcode == Rcode.NOERROR
        return [record.ttl for record in reply.answers]

    def test_reply_carries_the_aged_ttl(self, ldns):
        assert self._ttls(ldns, CLIENT, now=0) == [60]
        assert self._ttls(ldns, CLIENT, now=42) == [18]

    def test_each_reader_ages_from_its_own_now(self, ldns):
        ldns.resolve("e1.cdn.example", QType.A, CLIENT, now=0)
        early = ldns.resolve("e1.cdn.example", QType.A, CLIENT, now=10)
        # A second client reads the same entry later, before the first
        # has looked at its records.
        assert self._ttls(ldns, OTHER_CLIENT, now=42) == [18]
        assert [record.ttl for record in early.records] == [50]
        assert self._ttls(ldns, CLIENT, now=42) == [18]

    def test_an_overwritten_entry_cannot_change_a_held_answer(self, ldns):
        ldns.resolve("e1.cdn.example", QType.A, CLIENT, now=0)
        held = ldns.resolve("e1.cdn.example", QType.A, CLIENT, now=10)
        fresh = ResourceRecord("e1.cdn.example", QType.A, 999,
                               ARdata(parse_ipv4("50.0.0.2")))
        ldns.cache.store("e1.cdn.example", QType.A,
                         Prefix.parse("10.0.0.0/24"), (fresh,), 999,
                         now=11)
        assert [(r.ttl, r.rdata.address) for r in held.records] == [
            (50, EDGE)]
