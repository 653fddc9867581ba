"""ECS-aware recursive resolver cache (RFC 7871 Section 7.3.1).

The crux of the paper's scaling analysis (Section 5.2) is that an ECS
cache stores *one entry per answer scope per name*, while a classic
cache stores one entry per name.  This module implements those
semantics exactly:

* An answer with SCOPE PREFIX-LENGTH 0 is a *global* entry: it matches
  every client (the non-ECS legacy behaviour).
* An answer with SCOPE /y matches only clients whose address shares its
  first y bits with the query address ("the cached resolution is only
  valid for the IP block for which it was provided", paper Section 2.1).
* Entries expire at their TTL; whoever reads a cached answer's records
  sees them aged to the remaining TTL.
* On lookup, the longest matching scope wins (most specific answer).

A popular domain queried by clients in k distinct answer scopes thus
occupies k entries and generates up to k upstream queries per TTL --
the mechanism behind the paper's 8x query-rate increase (Figure 23).

Internally entries are held per (name, type) in a dict keyed by
``(network, length)``, with the scope lengths in use tracked per name,
so a lookup costs one dict probe per distinct scope length (one, in the
common case) rather than a scan over all cached blocks of a popular
name.  A probe masks the client address itself and looks up the plain
tuple -- no :class:`Prefix` is built or validated -- and a live hit
that walked past nothing expired returns straight away.  A hit hands
out the entry as stored: aging the records' TTLs is the reader's job
(:func:`aged`), done when and if somebody reads them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dnsproto.message import ResourceRecord
from repro.net.ipv4 import Prefix, mask_of, prefix_of

#: What a :class:`_NameSlot` keys an entry by: ``(network, length)`` of
#: its scope, None for the global entry.
_ScopeKey = Optional[Tuple[int, int]]


def aged(records: Tuple[ResourceRecord, ...],
         elapsed: int) -> Tuple[ResourceRecord, ...]:
    """``records`` after ``elapsed`` whole seconds in cache: TTLs count
    down to zero and stay there.  The tuple itself when no second has
    passed, so unread or fresh answers cost nothing."""
    if elapsed <= 0:
        return records
    return tuple(record.with_ttl(max(0, record.ttl - elapsed))
                 for record in records)


@dataclass(slots=True)
class CacheEntry:
    """One cached answer with its validity scope.

    ``rcode`` supports negative caching (RFC 2308): an NXDOMAIN or
    NODATA answer is stored with empty records and the error code, so
    repeated queries for missing names do not hammer the authority.
    """

    scope: Optional[Prefix]
    """None = global entry (valid for any client); otherwise the RFC
    7871 scope block the answer is valid for."""
    records: Tuple[ResourceRecord, ...]
    stored_at: float
    expires_at: float
    rcode: int = 0
    answer: Tuple[Tuple[ResourceRecord, ...], float] = field(
        init=False, repr=False, compare=False)
    """``(records, stored_at)``, built once: every resolution the entry
    answers shares this pair instead of allocating its own."""

    def __post_init__(self) -> None:
        self.answer = (self.records, self.stored_at)

    @property
    def negative(self) -> bool:
        return self.rcode != 0 or not self.records

    def matches(self, client_addr: Optional[int]) -> bool:
        if self.scope is None:
            return True
        if client_addr is None:
            return False
        return self.scope.contains(client_addr)

    def alive(self, now: float) -> bool:
        return now < self.expires_at

    def aged_records(self, now: float) -> Tuple[ResourceRecord, ...]:
        """Records with TTLs reduced by the time spent in cache."""
        return aged(self.records, int(now - self.stored_at))

    def stale_records(self, ttl: int) -> Tuple[ResourceRecord, ...]:
        """Expired records revived under a short serve-stale TTL
        (RFC 8767 recommends clients not cache them for long)."""
        return tuple(record.with_ttl(ttl) for record in self.records)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    expirations: int = 0
    stale_hits: int = 0
    """Lookups answered from an expired entry inside the serve-stale
    window (RFC 8767); these are *not* counted as hits."""

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, int]:
        """Flat metric view (consumed by the observability collectors).

        Invariant: ``hits + misses == lookups`` always -- every lookup
        is classified exactly once (the invariant test suite drives
        randomized workloads at this).
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "lookups": self.lookups,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "stale_hits": self.stale_hits,
        }


class _NameSlot:
    """Entries for one (name, type): scope-keyed dict + length index."""

    __slots__ = ("entries", "lengths", "probe")

    def __init__(self) -> None:
        self.entries: Dict[_ScopeKey, CacheEntry] = {}
        self.lengths: Dict[int, int] = {}
        self.probe: List[Tuple[int, int]] = []
        """``(length, mask)`` of every scope length in use, longest
        first: the order a lookup probes in."""

    def put(self, entry: CacheEntry) -> bool:
        """Insert/replace; returns True if a new slot was used."""
        scope = entry.scope
        key = None if scope is None else (scope.network, scope.length)
        is_new = key not in self.entries
        self.entries[key] = entry
        if is_new and scope is not None:
            count = self.lengths.get(scope.length, 0)
            self.lengths[scope.length] = count + 1
            if not count:
                self._reindex()
        return is_new

    def remove(self, key: _ScopeKey) -> bool:
        entry = self.entries.pop(key, None)
        if entry is None:
            return False
        if key is not None:
            length = key[1]
            count = self.lengths.get(length, 0) - 1
            if count <= 0:
                self.lengths.pop(length, None)
                self._reindex()
            else:
                self.lengths[length] = count
        return True

    def _reindex(self) -> None:
        self.probe = [(length, mask_of(length))
                      for length in sorted(self.lengths, reverse=True)]

    def best_match(
        self, client_addr: Optional[int], now: float,
    ) -> Tuple[Optional[CacheEntry], Tuple[_ScopeKey, ...]]:
        """Most specific live match plus the keys of any expired
        entries walked past on the way to it."""
        entries = self.entries
        expired: Tuple[_ScopeKey, ...] = ()
        if client_addr is not None:
            for length, mask in self.probe:
                key = (client_addr & mask, length)
                entry = entries.get(key)
                if entry is None:
                    continue
                if now < entry.expires_at:
                    return entry, expired
                expired += (key,)
        entry = entries.get(None)
        if entry is not None:
            if now < entry.expires_at:
                return entry, expired
            expired += (None,)
        return None, expired


@dataclass
class EcsAwareCache:
    """Cache keyed by (qname, qtype) with per-scope entries."""

    max_entries: int = 100_000
    serve_stale_window: float = 0.0
    """Seconds past expiry an entry may still be served stale (RFC
    8767 "Serve Stale Data to Improve DNS Resiliency").  0 disables
    serve-stale entirely: expired entries are pruned on sight, the
    pre-fault-injection behaviour."""
    stats: CacheStats = field(default_factory=CacheStats)
    _store: Dict[Tuple[str, int], _NameSlot] = field(default_factory=dict)
    _size: int = 0

    def __len__(self) -> int:
        return self._size

    def lookup(
        self,
        qname: str,
        qtype: int,
        client_addr: Optional[int],
        now: float,
    ) -> Optional[CacheEntry]:
        """Most specific live entry matching this client, or None."""
        slot = self._store.get((qname, qtype))
        if slot is None:
            self.stats.misses += 1
            return None
        best, expired = slot.best_match(client_addr, now)
        if expired:
            for key in expired:
                entry = slot.entries[key]
                if (self.serve_stale_window > 0 and now
                        < entry.expires_at + self.serve_stale_window):
                    # Keep the expired entry around as a stale fallback
                    # until the serve-stale window closes.
                    continue
                slot.remove(key)
                self._size -= 1
                self.stats.expirations += 1
            if not slot.entries:
                del self._store[(qname, qtype)]
        if best is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return best

    def lookup_stale(
        self,
        qname: str,
        qtype: int,
        client_addr: Optional[int],
        now: float,
    ) -> Optional[CacheEntry]:
        """Most specific *expired* positive entry still inside the
        serve-stale window (RFC 8767), or None.

        Called only after upstreams failed -- fresh data is always
        preferred, so this never shadows :meth:`lookup`.  Negative
        entries are never served stale (there is nothing to serve).
        """
        if self.serve_stale_window <= 0:
            return None
        slot = self._store.get((qname, qtype))
        if slot is None:
            return None

        def usable(entry: CacheEntry) -> bool:
            return (not entry.negative
                    and entry.expires_at <= now
                    < entry.expires_at + self.serve_stale_window)

        best: Optional[CacheEntry] = None
        if client_addr is not None:
            for length, mask in slot.probe:
                entry = slot.entries.get((client_addr & mask, length))
                if entry is not None and usable(entry):
                    best = entry
                    break
        if best is None:
            entry = slot.entries.get(None)
            if entry is not None and usable(entry):
                best = entry
        if best is not None:
            self.stats.stale_hits += 1
        return best

    def store(
        self,
        qname: str,
        qtype: int,
        scope: Optional[Prefix],
        records: Tuple[ResourceRecord, ...],
        ttl: int,
        now: float,
        rcode: int = 0,
    ) -> CacheEntry:
        """Insert an answer; replaces any entry with the same scope."""
        if ttl < 0:
            raise ValueError(f"negative TTL: {ttl}")
        entry = CacheEntry(
            scope=scope,
            records=records,
            stored_at=now,
            expires_at=now + ttl,
            rcode=rcode,
        )
        slot = self._store.setdefault((qname, qtype), _NameSlot())
        if slot.put(entry):
            self._size += 1
        self.stats.insertions += 1
        if self._size > self.max_entries:
            self._evict(now)
        return entry

    def entries_for(self, qname: str, qtype: int) -> List[CacheEntry]:
        """All entries currently held for a name (live or expired)."""
        slot = self._store.get((qname, qtype))
        return list(slot.entries.values()) if slot else []

    def scope_count(self, qname: str, qtype: int, now: float) -> int:
        """Number of live entries (distinct scopes) for one name.

        This is the quantity Figure 24's query-inflation factor is
        driven by.
        """
        slot = self._store.get((qname, qtype))
        if slot is None:
            return 0
        return sum(1 for e in slot.entries.values() if e.alive(now))

    def flush(self) -> None:
        self._store.clear()
        self._size = 0

    # -- internals -----------------------------------------------------

    def _evict(self, now: float) -> None:
        """Drop expired entries; then earliest-expiring while over."""
        for key in list(self._store):
            slot = self._store[key]
            dead = [scope for scope, entry in slot.entries.items()
                    if not entry.alive(now)]
            for scope in dead:
                slot.remove(scope)
                self._size -= 1
                self.stats.expirations += 1
            if not slot.entries:
                del self._store[key]
        while self._size > self.max_entries and self._store:
            victim_key, victim_scope, _ = min(
                ((key, scope, entry.expires_at)
                 for key, slot in self._store.items()
                 for scope, entry in slot.entries.items()),
                key=lambda item: item[2],
            )
            slot = self._store[victim_key]
            slot.remove(victim_scope)
            self._size -= 1
            self.stats.evictions += 1
            if not slot.entries:
                del self._store[victim_key]


def client_subnet_of(addr: int, source_prefix_len: int = 24) -> Prefix:
    """The block a privacy-respecting LDNS advertises for a client."""
    return prefix_of(addr, source_prefix_len)
