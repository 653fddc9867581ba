"""Edge servers: cache, load, and liveness.

The mapping system's load balancer needs three facts per server
(paper Section 2.2): is it live, how loaded is it, and is it likely to
have the content (cache affinity).  :class:`EdgeServer` maintains all
three; the cache is a byte-capacity LRU.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.cdn.content import PagePlan

#: Fraction of a server's accumulated load that survives into the next
#: simulated day.  Load accounting (``spread_load`` / ``add_load``)
#: only ever added, so multi-day runs monotonically saturated servers;
#: the engines now decay every server once per day with this retention
#: (half-life of one day: load tracks a ~2x window of recent demand).
DAILY_LOAD_RETENTION = 0.5


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    bytes_served: int = 0
    bytes_filled: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0


class LruCache:
    """Byte-capacity LRU cache of content objects."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, int]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def access(self, key: str, size_bytes: int) -> bool:
        """Serve one request: returns True on hit, fills on miss.

        Objects larger than the whole cache are served but never
        stored (matching real CDN no-store behaviour for oversized
        objects).
        """
        if size_bytes < 0:
            raise ValueError(f"negative object size: {size_bytes}")
        if key in self._entries:
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.bytes_served += size_bytes
            return True
        self.stats.misses += 1
        self.stats.bytes_served += size_bytes
        if size_bytes <= self.capacity_bytes:
            self._fill(key, size_bytes)
        return False

    def access_page(self, keys: Sequence[str], sizes: Sequence[int],
                    cacheable: Sequence[bool]) -> List[bool]:
        """Serve a page's requests in order; returns each one's hit flag.

        A cacheable request is exactly :meth:`access`; a non-cacheable
        one is a miss that neither serves from nor fills the cache (and
        adds no ``bytes_served``).  Stats, fills, evictions and LRU
        order end up as if each request had been made on its own.
        """
        if sizes and min(sizes) < 0:
            raise ValueError(f"negative object size: {min(sizes)}")
        entries = self._entries
        capacity = self.capacity_bytes
        flags: List[bool] = []
        flag = flags.append
        hits = misses = served = 0
        for key, size, cache in zip(keys, sizes, cacheable):
            if not cache:
                misses += 1
                flag(False)
            elif key in entries:
                entries.move_to_end(key)
                hits += 1
                served += size
                flag(True)
            else:
                misses += 1
                served += size
                if size <= capacity:
                    self._fill(key, size)
                flag(False)
        stats = self.stats
        stats.hits += hits
        stats.misses += misses
        stats.bytes_served += served
        return flags

    def _fill(self, key: str, size_bytes: int) -> None:
        while self.used_bytes + size_bytes > self.capacity_bytes:
            _victim, victim_size = self._entries.popitem(last=False)
            self.used_bytes -= victim_size
            self.stats.evictions += 1
        self._entries[key] = size_bytes
        self.used_bytes += size_bytes
        self.stats.bytes_filled += size_bytes

    def evict(self, key: str) -> bool:
        size = self._entries.pop(key, None)
        if size is None:
            return False
        self.used_bytes -= size
        return True

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0


@dataclass(eq=False)
class EdgeServer:
    """One CDN edge server inside a cluster (identity semantics)."""

    ip: int
    cluster_id: str
    capacity_rps: float = 1000.0
    """Request rate this server can absorb before overload."""
    cache_bytes: int = 512 * 1024 * 1024
    alive: bool = True
    load_rps: float = 0.0
    cache: LruCache = field(init=False)

    def __post_init__(self) -> None:
        if self.capacity_rps <= 0:
            raise ValueError("server capacity must be positive")
        self.cache = LruCache(self.cache_bytes)

    @property
    def utilization(self) -> float:
        return self.load_rps / self.capacity_rps

    @property
    def overloaded(self) -> bool:
        return self.utilization >= 1.0

    def serve(self, object_key: str, size_bytes: int) -> bool:
        """Serve one object request; returns True on cache hit."""
        if not self.alive:
            raise RuntimeError(f"server {self.ip} is down")
        return self.cache.access(object_key, size_bytes)

    def serve_page(self, plan: PagePlan) -> List[bool]:
        """Serve one page's edge-cache requests (see
        :class:`~repro.cdn.content.PagePlan`); one hit flag each."""
        if not self.alive:
            raise RuntimeError(f"server {self.ip} is down")
        return self.cache.access_page(plan.keys, plan.sizes, plan.cacheable)

    def add_load(self, rps: float) -> None:
        self.load_rps = max(0.0, self.load_rps + rps)

    def decay_load(self, retention: float = DAILY_LOAD_RETENTION) -> None:
        """Age accumulated load by one day (see DAILY_LOAD_RETENTION)."""
        if not 0.0 <= retention <= 1.0:
            raise ValueError(f"retention must be in [0, 1]: {retention}")
        self.load_rps *= retention

    def reset_load(self) -> None:
        self.load_rps = 0.0

    def fail(self) -> None:
        """Mark the server dead (liveness feed will notice)."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True
