"""Longest-prefix matching over IPv4 prefixes: one hash table per length.

Used by the geolocation database (address -> geo record) and the BGP
CIDR table (address -> routed CIDR announcement).

Each prefix length in use has its own ``{network: value}`` dict, and a
lookup probes the lengths present, longest first, with the plain key
``addr & mask`` -- the probe the ECS-aware DNS cache uses for its
scopes.  A match costs one dict probe per *distinct length in use*, not
one step per address bit: the geo database holds only /24s, so its
lookup is a single probe, and a routing-aware table with a handful of
lengths (Gürsun's partitions, PAPERS.md) pays a handful.  The probe
order is rebuilt when a length appears or disappears, never per lookup.
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, List, Optional, Tuple, TypeVar

from repro.net.ipv4 import Prefix, mask_of

V = TypeVar("V")

#: Sentinel for "no entry": a stored value may itself be None.
_ABSENT = object()


class RadixTrie(Generic[V]):
    """Map :class:`Prefix` keys to values with longest-prefix-match lookup."""

    __slots__ = ("_tables", "_probe", "_size")

    def __init__(self) -> None:
        self._tables: Dict[int, Dict[int, V]] = {}
        self._probe: List[Tuple[int, int, Dict[int, V]]] = []
        """``(length, mask, table)`` per length in use, longest first."""
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _reindex(self) -> None:
        self._probe = [(length, mask_of(length), self._tables[length])
                       for length in sorted(self._tables, reverse=True)]

    def insert(self, prefix: Prefix, value: V) -> None:
        """Insert or replace the value stored at ``prefix``."""
        table = self._tables.get(prefix.length)
        if table is None:
            table = self._tables[prefix.length] = {}
            self._reindex()
        if prefix.network not in table:
            self._size += 1
        table[prefix.network] = value

    def remove(self, prefix: Prefix) -> bool:
        """Remove the value at ``prefix``.  Returns True if it was present."""
        table = self._tables.get(prefix.length)
        if table is None or prefix.network not in table:
            return False
        del table[prefix.network]
        self._size -= 1
        if not table:
            del self._tables[prefix.length]
            self._reindex()
        return True

    def exact(self, prefix: Prefix) -> Optional[V]:
        """Return the value stored exactly at ``prefix``, or None."""
        table = self._tables.get(prefix.length)
        return None if table is None else table.get(prefix.network)

    def longest_match(self, addr: int) -> Optional[Tuple[Prefix, V]]:
        """Longest-prefix match for a single address.

        Returns the matching ``(prefix, value)`` pair, or None if no
        inserted prefix covers the address.
        """
        for length, mask, table in self._probe:
            network = addr & mask
            value = table.get(network, _ABSENT)
            if value is not _ABSENT:
                return Prefix(network, length), value  # type: ignore
        return None

    def lookup(self, addr: int) -> Optional[V]:
        """Longest-prefix-match value for a single address, or None."""
        for _length, mask, table in self._probe:
            value = table.get(addr & mask, _ABSENT)
            if value is not _ABSENT:
                return value  # type: ignore[return-value]
        return None

    def items(self) -> Iterator[Tuple[Prefix, V]]:
        """Iterate all stored (prefix, value) pairs in address order
        (ties on network: shorter prefix first)."""
        rows = sorted(((network, length, value)
                       for length, table in self._tables.items()
                       for network, value in table.items()),
                      key=lambda row: (row[0], row[1]))
        return iter([(Prefix(network, length), value)
                     for network, length, value in rows])
