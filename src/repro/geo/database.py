"""EdgeScape-analog geolocation database.

Maps any IPv4 address to a :class:`GeoRecord` carrying latitude,
longitude, city, country, continent, and autonomous system number, via
longest-prefix matching over registered prefixes (exactly the interface
the paper attributes to EdgeScape in Sections 2.2 and 3.1).

The database is *populated from the topology generator's ground truth*,
so by default it acts as a perfect oracle -- which matches how the paper
uses EdgeScape (as the reference location source, not as a system under
test).  ``error_miles`` can inject bounded location error for
sensitivity studies.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from typing import Iterator, Optional, Tuple

from repro.net.geometry import GeoPoint, displace
from repro.net.ipv4 import Prefix
from repro.net.trie import RadixTrie


@dataclass(frozen=True, slots=True)
class GeoRecord:
    """Geolocation answer for an IP address."""

    geo: GeoPoint
    city: str
    country: str
    continent: str
    asn: int
    target: object = field(default=None, init=False, repr=False,
                           compare=False)
    """The mapping target :func:`repro.core.policies.target_of` derives
    from this record: built on the record's first query and kept with
    it, so a query builds none."""


class GeoDatabase:
    """Longest-prefix-match IP geolocation database."""

    def __init__(self) -> None:
        self._trie: RadixTrie[GeoRecord] = RadixTrie()

    def __len__(self) -> int:
        return len(self._trie)

    def register(self, prefix: Prefix, record: GeoRecord) -> None:
        """Register (or overwrite) the record for a prefix."""
        self._trie.insert(prefix, record)

    def lookup(self, addr: int) -> Optional[GeoRecord]:
        """Geolocate a single address; None if no covering prefix."""
        return self._trie.lookup(addr)

    def lookup_prefix(self, prefix: Prefix) -> Optional[GeoRecord]:
        """Geolocate a block by its first address.

        The mapping system geolocates /24 client blocks this way: blocks
        are allocated so that one block never straddles two locations.
        """
        return self._trie.lookup(prefix.network)

    def items(self) -> Iterator[Tuple[Prefix, GeoRecord]]:
        """All registered (prefix, record) pairs in address order."""
        return self._trie.items()

    def with_error(self, error_miles: float, seed: int = 0) -> "GeoDatabase":
        """A copy of this database with bounded random location error.

        Each record's coordinates are displaced by a uniformly random
        bearing and a distance uniform in ``[0, error_miles]``.  Country,
        AS, and city labels are left intact (registry data is far more
        reliable than lat/lon in practice).
        """
        if error_miles < 0:
            raise ValueError("error_miles must be >= 0")
        rng = random.Random(seed)
        out = GeoDatabase()
        for prefix, record in self.items():
            out.register(prefix, replace(record, geo=displace(
                record.geo, rng.uniform(0, error_miles),
                rng.uniform(0, 2 * math.pi))))
        return out
