"""Unit and property tests for longest-prefix matching (`RadixTrie`)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.ipv4 import Prefix, parse_ipv4, prefix_of
from repro.net.trie import RadixTrie

addresses = st.integers(min_value=0, max_value=(1 << 32) - 1)


def build(entries):
    trie = RadixTrie()
    for text, value in entries:
        trie.insert(Prefix.parse(text), value)
    return trie


class TestRadixTrie:
    def test_empty_lookup(self):
        trie = RadixTrie()
        assert trie.lookup(parse_ipv4("1.2.3.4")) is None
        assert len(trie) == 0

    def test_longest_prefix_wins(self):
        trie = build([("10.0.0.0/8", "big"), ("10.1.0.0/16", "mid"),
                      ("10.1.2.0/24", "small")])
        assert trie.lookup(parse_ipv4("10.1.2.3")) == "small"
        assert trie.lookup(parse_ipv4("10.1.9.9")) == "mid"
        assert trie.lookup(parse_ipv4("10.9.9.9")) == "big"
        assert trie.lookup(parse_ipv4("11.0.0.0")) is None

    def test_longest_match_returns_prefix(self):
        trie = build([("10.0.0.0/8", "big"), ("10.1.0.0/16", "mid")])
        match = trie.longest_match(parse_ipv4("10.1.2.3"))
        assert match == (Prefix.parse("10.1.0.0/16"), "mid")

    def test_default_route(self):
        trie = build([("0.0.0.0/0", "default"), ("10.0.0.0/8", "ten")])
        assert trie.lookup(parse_ipv4("9.9.9.9")) == "default"
        assert trie.lookup(parse_ipv4("10.0.0.1")) == "ten"

    def test_insert_replaces(self):
        trie = build([("10.0.0.0/8", "a")])
        trie.insert(Prefix.parse("10.0.0.0/8"), "b")
        assert trie.lookup(parse_ipv4("10.0.0.1")) == "b"
        assert len(trie) == 1

    def test_exact(self):
        trie = build([("10.0.0.0/8", "a")])
        assert trie.exact(Prefix.parse("10.0.0.0/8")) == "a"
        assert trie.exact(Prefix.parse("10.0.0.0/16")) is None
        assert trie.exact(Prefix.parse("11.0.0.0/8")) is None

    def test_remove(self):
        trie = build([("10.0.0.0/8", "a"), ("10.1.0.0/16", "b")])
        assert trie.remove(Prefix.parse("10.1.0.0/16"))
        assert trie.lookup(parse_ipv4("10.1.0.1")) == "a"
        assert not trie.remove(Prefix.parse("10.1.0.0/16"))
        assert len(trie) == 1

    def test_host_routes(self):
        trie = build([("1.2.3.4/32", "host")])
        assert trie.lookup(parse_ipv4("1.2.3.4")) == "host"
        assert trie.lookup(parse_ipv4("1.2.3.5")) is None

    def test_items_sorted(self):
        trie = build([("10.1.0.0/16", 1), ("9.0.0.0/8", 2),
                      ("10.0.0.0/8", 3)])
        listed = list(trie.items())
        assert [str(p) for p, _ in listed] == [
            "9.0.0.0/8", "10.0.0.0/8", "10.1.0.0/16"]

    @given(st.lists(st.tuples(addresses,
                              st.integers(min_value=1, max_value=32)),
                    min_size=1, max_size=40),
           addresses)
    def test_matches_linear_scan(self, raw_entries, probe):
        """LPM result must equal a brute-force scan over all entries."""
        trie = RadixTrie()
        entries = {}
        for addr, length in raw_entries:
            prefix = prefix_of(addr, length)
            entries[prefix] = str(prefix)
            trie.insert(prefix, str(prefix))
        expected = None
        best_len = -1
        for prefix, value in entries.items():
            if prefix.contains(probe) and prefix.length > best_len:
                best_len = prefix.length
                expected = value
        assert trie.lookup(probe) == expected

    @given(st.lists(st.tuples(addresses,
                              st.integers(min_value=0, max_value=32)),
                    max_size=40))
    def test_size_tracks_unique_prefixes(self, raw_entries):
        trie = RadixTrie()
        unique = set()
        for addr, length in raw_entries:
            prefix = prefix_of(addr, length)
            unique.add(prefix)
            trie.insert(prefix, 0)
        assert len(trie) == len(unique)


# Addresses and lengths drawn from a small pool collide often, so the
# model sees overwrites, removals of present keys and nested prefixes.
pooled_addresses = st.one_of(
    st.sampled_from([0, 0x0A000000, 0x0A010203, 0x0A01FFFF, 0xC0A80001,
                     (1 << 32) - 1]),
    addresses)
pooled_lengths = st.one_of(st.sampled_from([0, 8, 16, 22, 24, 32]),
                           st.integers(min_value=0, max_value=32))
operations = st.lists(
    st.tuples(st.sampled_from(["insert", "insert", "remove"]),
              pooled_addresses, pooled_lengths,
              st.one_of(st.none(), st.integers(min_value=0, max_value=3))),
    max_size=60)


def linear_longest_match(model, addr):
    covering = [prefix for prefix in model if prefix.contains(addr)]
    if not covering:
        return None
    best = max(covering, key=lambda prefix: prefix.length)
    return best, model[best]


@given(operations, st.lists(pooled_addresses, max_size=8))
def test_matches_linear_scan_model_under_updates(ops, probes):
    """Interleaved insert/overwrite/remove (stored None included)
    against a dict scanned linearly: every query agrees after every
    operation."""
    trie = RadixTrie()
    model = {}
    for op, addr, length, value in ops:
        prefix = prefix_of(addr, length)
        if op == "insert":
            trie.insert(prefix, value)
            model[prefix] = value
        else:
            assert trie.remove(prefix) == (prefix in model)
            model.pop(prefix, None)
        assert len(trie) == len(model)
        assert trie.exact(prefix) == model.get(prefix)
        for probe in [addr, *probes]:
            expected = linear_longest_match(model, probe)
            assert trie.longest_match(probe) == expected
            assert trie.lookup(probe) == (expected[1] if expected
                                          else None)
    assert list(trie.items()) == sorted(
        model.items(),
        key=lambda item: (item[0].network, item[0].length))


def test_stored_none_is_a_match():
    trie = build([("10.0.0.0/8", "a"), ("10.1.0.0/16", None)])
    assert trie.longest_match(parse_ipv4("10.1.2.3")) == (
        Prefix.parse("10.1.0.0/16"), None)
    assert trie.lookup(parse_ipv4("10.1.2.3")) is None
    assert trie.lookup(parse_ipv4("10.2.0.0")) == "a"
    assert len(trie) == 2
    assert trie.remove(Prefix.parse("10.1.0.0/16"))
    assert trie.lookup(parse_ipv4("10.1.2.3")) == "a"
