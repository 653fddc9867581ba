"""IPv4 address allocation and the BGP routing table.

The generator allocates each autonomous system one contiguous
power-of-two-sized chunk of /24 blocks *per city of presence*.  Each
chunk is announced as a single BGP CIDR.  This mirrors the real-world
structure the paper exploits in Section 5.1: /24 blocks that fall inside
one routed CIDR are network-proximal and can be merged into one mapping
unit (Akamai's 3.76M /24s collapse to 444K BGP CIDRs).

Client space is carved from ``CLIENT_SPACE`` (1.0.0.0 up), resolver and
CDN infrastructure from separate pools so address roles never collide.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.net.ipv4 import Prefix
from repro.net.trie import RadixTrie

# Pool starts are cursors in units of /24 blocks (address >> 8).
#: Client blocks are carved from 1.0.0.0 upward.
CLIENT_SPACE_START = (1 << 24) >> 8
#: Resolver infrastructure pool starts at 200.0.0.0.
RESOLVER_SPACE_START = (200 << 24) >> 8
#: CDN server pool starts at 220.0.0.0.
CDN_SPACE_START = (220 << 24) >> 8
#: Origin/infrastructure pool starts at 230.0.0.0.
ORIGIN_SPACE_START = (230 << 24) >> 8


def _next_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


@dataclass(frozen=True, slots=True)
class Announcement:
    """One BGP announcement: a CIDR originated by an AS."""

    cidr: Prefix
    asn: int


class AddressAllocator:
    """Sequential allocator of /24-aligned, power-of-two-sized chunks.

    Allocation is bump-pointer within a pool; chunks are aligned to
    their own size (CIDR alignment), so each chunk is expressible as a
    single prefix.
    """

    def __init__(self, start_block24: int = CLIENT_SPACE_START) -> None:
        # Cursor in units of /24 blocks.
        self._cursor = start_block24

    def allocate_chunk(self, n_blocks24: int) -> Prefix:
        """Allocate an aligned chunk covering >= n_blocks24 /24 blocks.

        Returns the covering CIDR (always between /24 and /8).
        """
        if n_blocks24 < 1:
            raise ValueError("chunk must contain at least one /24")
        size = _next_power_of_two(n_blocks24)
        if size > (1 << 16):
            raise ValueError(f"chunk too large: {n_blocks24} /24s")
        # Align the cursor up to a multiple of the chunk size.
        aligned = (self._cursor + size - 1) & ~(size - 1)
        self._cursor = aligned + size
        network = aligned << 8
        if network >= (1 << 32):
            raise RuntimeError("client address space exhausted")
        length = 24 - size.bit_length() + 1
        return Prefix(network, length)

    def allocate_host(self) -> int:
        """Allocate a single host address in its own /24."""
        prefix = self.allocate_chunk(1)
        return prefix.network | 1


@dataclass
class BGPTable:
    """The simulated global routing table.

    Supports the two queries the mapping system needs: origin-AS lookup
    for an address, and enumeration of all routed CIDRs (the Section 5.1
    mapping-unit reduction uses the CIDR list).
    """

    _trie: RadixTrie[Announcement] = field(default_factory=RadixTrie)
    _announcements: List[Announcement] = field(default_factory=list)

    def announce(self, cidr: Prefix, asn: int) -> None:
        """Insert an announcement.  Re-announcing a CIDR is an error."""
        if self._trie.exact(cidr) is not None:
            raise ValueError(f"duplicate announcement for {cidr}")
        ann = Announcement(cidr, asn)
        self._trie.insert(cidr, ann)
        self._announcements.append(ann)

    def origin_asn(self, addr: int) -> Optional[int]:
        """Origin AS of the longest-matching announcement, or None."""
        ann = self._trie.lookup(addr)
        return ann.asn if ann else None

    def route(self, addr: int) -> Optional[Announcement]:
        """The longest-matching announcement for an address."""
        return self._trie.lookup(addr)

    def covering_cidr(self, prefix: Prefix) -> Optional[Prefix]:
        """The routed CIDR containing a /24 block, if any.

        This implements the paper's mapping-unit merge: two /24 client
        blocks with the same covering CIDR can share one mapping unit.
        """
        ann = self._trie.lookup(prefix.network)
        if ann is None or not ann.cidr.covers(prefix):
            return None
        return ann.cidr

    def announcements(self) -> Iterator[Announcement]:
        return iter(self._announcements)

    def __len__(self) -> int:
        return len(self._announcements)

    def __repr__(self) -> str:
        if not self._announcements:
            return "BGPTable(empty)"
        first = self._announcements[0]
        return (f"BGPTable({len(self._announcements)} announcements, "
                f"first {first.cidr} via AS{first.asn})")

