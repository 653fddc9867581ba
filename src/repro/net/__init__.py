"""Low-level networking primitives shared by every other subsystem.

This package deliberately avoids :mod:`ipaddress` from the standard library:
the simulator manipulates millions of /24 blocks, and representing addresses
as plain ``int`` with a tiny frozen :class:`Prefix` wrapper is roughly an
order of magnitude faster and keeps hot loops allocation-free.

Contents:

* :mod:`repro.net.ipv4` -- IPv4 addresses as integers, CIDR prefixes.
* :mod:`repro.net.trie` -- longest-prefix matching, one hash table per
  prefix length.
* :mod:`repro.net.geometry` -- great-circle geometry on the WGS84 sphere.
* :mod:`repro.net.latency` -- distance- and topology-driven latency model.
* :mod:`repro.net.batch` -- vectorized numpy kernels for the geometry
  and latency math (the scalar modules are the reference semantics).
"""

from repro.net import batch
from repro.net.geometry import GeoPoint, great_circle_miles
from repro.net.ipv4 import (
    Prefix,
    format_ipv4,
    parse_ipv4,
    prefix_of,
)
from repro.net.latency import LatencyModel, LatencyParams
from repro.net.trie import RadixTrie

__all__ = [
    "GeoPoint",
    "batch",
    "LatencyModel",
    "LatencyParams",
    "Prefix",
    "RadixTrie",
    "format_ipv4",
    "great_circle_miles",
    "parse_ipv4",
    "prefix_of",
]
