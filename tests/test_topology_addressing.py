"""Tests for address allocation and the BGP table."""

import pytest

from repro.net.ipv4 import Prefix, parse_ipv4
from repro.topology.addressing import (
    AddressAllocator,
    BGPTable,
    CLIENT_SPACE_START,
)


class TestAddressAllocator:
    def test_chunks_are_aligned_cidrs(self):
        alloc = AddressAllocator()
        for requested in (1, 2, 3, 5, 8, 100):
            chunk = alloc.allocate_chunk(requested)
            # Size is the next power of two and alignment matches size.
            assert chunk.num_addresses // 256 >= requested
            assert chunk.network % chunk.num_addresses == 0

    def test_chunks_do_not_overlap(self):
        alloc = AddressAllocator()
        chunks = [alloc.allocate_chunk(n) for n in (3, 1, 7, 2, 16)]
        for i, a in enumerate(chunks):
            for b in chunks[i + 1:]:
                assert not a.covers(b) and not b.covers(a)
                assert a.last < b.first or b.last < a.first

    def test_starts_in_client_space(self):
        alloc = AddressAllocator()
        chunk = alloc.allocate_chunk(1)
        assert chunk.network >= CLIENT_SPACE_START << 8

    def test_allocate_host_unique(self):
        alloc = AddressAllocator()
        hosts = {alloc.allocate_host() for _ in range(100)}
        assert len(hosts) == 100

    def test_rejects_bad_sizes(self):
        alloc = AddressAllocator()
        with pytest.raises(ValueError):
            alloc.allocate_chunk(0)
        with pytest.raises(ValueError):
            alloc.allocate_chunk((1 << 16) + 1)


class TestBGPTable:
    def test_origin_lookup(self):
        table = BGPTable()
        table.announce(Prefix.parse("10.0.0.0/16"), 64512)
        table.announce(Prefix.parse("10.1.0.0/16"), 64513)
        assert table.origin_asn(parse_ipv4("10.0.5.1")) == 64512
        assert table.origin_asn(parse_ipv4("10.1.5.1")) == 64513
        assert table.origin_asn(parse_ipv4("11.0.0.1")) is None

    def test_more_specific_wins(self):
        table = BGPTable()
        table.announce(Prefix.parse("10.0.0.0/8"), 1)
        table.announce(Prefix.parse("10.9.0.0/16"), 2)
        assert table.origin_asn(parse_ipv4("10.9.0.1")) == 2
        assert table.origin_asn(parse_ipv4("10.8.0.1")) == 1

    def test_duplicate_announcement_rejected(self):
        table = BGPTable()
        table.announce(Prefix.parse("10.0.0.0/16"), 1)
        with pytest.raises(ValueError):
            table.announce(Prefix.parse("10.0.0.0/16"), 2)

    def test_covering_cidr(self):
        table = BGPTable()
        cidr = Prefix.parse("10.0.0.0/20")
        table.announce(cidr, 1)
        assert table.covering_cidr(Prefix.parse("10.0.5.0/24")) == cidr
        assert table.covering_cidr(Prefix.parse("10.1.0.0/24")) is None

    def test_len_and_iteration(self):
        table = BGPTable()
        table.announce(Prefix.parse("10.0.0.0/16"), 1)
        table.announce(Prefix.parse("20.0.0.0/16"), 2)
        assert len(table) == 2
        asns = {a.asn for a in table.announcements()}
        assert asns == {1, 2}

    def test_repr(self):
        table = BGPTable()
        assert "empty" in repr(table)
        table.announce(Prefix.parse("10.0.0.0/16"), 9)
        assert "AS9" in repr(table)
