"""Content providers, domains, and the web-page model.

The paper's performance metrics split a page download into a base-page
fetch (TTFB: request + server think time + possibly an origin fetch for
dynamic pages) and the embedded content download (CSS/images/JS, highly
cacheable; Section 4.1).  :class:`WebPage` captures exactly that
anatomy, so the session model can compute TTFB and content download
time the way the paper's RUM JavaScript measures them.

Provider domains are aliased onto the CDN with a CNAME
(``www.shop.example -> e123.cdn.example``), matching Section 2.2's
delegation design.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.geo.cities import City, WORLD_CITIES
from repro.topology.demand import zipf_weights


@dataclass(frozen=True, slots=True)
class EmbeddedObject:
    """One embedded resource of a page (image, script, stylesheet)."""

    name: str
    size_bytes: int
    cacheable: bool = True

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"negative object size for {self.name}")


#: Parallel persistent connections a browser opens per host; embedded
#: object ``i`` of a page rides connection ``i % PARALLEL_CONNECTIONS``.
PARALLEL_CONNECTIONS = 6


@dataclass(frozen=True, slots=True)
class PagePlan:
    """A page's per-session columns, compiled once per page.

    The edge-cache columns (``keys``/``sizes``/``cacheable``) list the
    page's requests in the order a session makes them: the base
    document (key ``<provider><url>#base``) first when the page is
    static -- a dynamic base always goes to origin and never touches
    the cache -- then every embedded object.
    The object columns (``object_sizes``/``connections``) drive the
    content-download arithmetic.
    """

    provider_name: str
    keys: Tuple[str, ...]
    sizes: Tuple[int, ...]
    cacheable: Tuple[bool, ...]
    object_sizes: Tuple[int, ...]
    connections: Tuple[int, ...]
    """``index % PARALLEL_CONNECTIONS`` for each embedded object."""


@dataclass(frozen=True, slots=True)
class WebPage:
    """One page: dynamic base document plus embedded objects."""

    url: str
    base_size_bytes: int
    dynamic: bool
    """Dynamic pages are personalized: the edge must consult the origin
    on every base-page request (over the overlay), which is the TTFB
    component mapping cannot improve (Section 4.1)."""
    origin_think_ms: float
    objects: Tuple[EmbeddedObject, ...]
    _plan: Optional[PagePlan] = field(default=None, init=False,
                                      repr=False, compare=False)

    def plan(self, provider_name: str) -> PagePlan:
        """This page's :class:`PagePlan` as served by ``provider_name``
        (whose name prefixes the base document's cache key), compiled
        on first use and kept on the page."""
        plan = self._plan
        if plan is None or plan.provider_name != provider_name:
            keys = tuple(obj.name for obj in self.objects)
            object_sizes = tuple(obj.size_bytes for obj in self.objects)
            sizes = object_sizes
            cacheable = tuple(obj.cacheable for obj in self.objects)
            if not self.dynamic:
                keys = (f"{provider_name}{self.url}#base",) + keys
                sizes = (self.base_size_bytes,) + sizes
                cacheable = (True,) + cacheable
            plan = PagePlan(
                provider_name=provider_name,
                keys=keys,
                sizes=sizes,
                cacheable=cacheable,
                object_sizes=object_sizes,
                connections=tuple(index % PARALLEL_CONNECTIONS
                                  for index in range(len(self.objects))))
            object.__setattr__(self, "_plan", plan)
        return plan


@dataclass
class ContentProvider:
    """A CDN customer: domains, pages, and an origin location."""

    name: str
    domain: str
    """Public domain, e.g. ``www.shop0.example``."""
    cdn_hostname: str
    """The CDN edge hostname the domain CNAMEs to."""
    origin_city: City
    dns_ttl: int = 60
    """TTL of the mapping answer for this provider's CDN hostname (short
    TTLs keep mapping responsive; paper Section 2)."""
    pages: List[WebPage] = field(default_factory=list)
    popularity: float = 1.0
    """Relative share of sessions landing on this provider."""

    def pick_page(self, rng: random.Random) -> WebPage:
        if not self.pages:
            raise ValueError(f"provider {self.name} has no pages")
        return rng.choice(self.pages)


@dataclass
class ContentCatalog:
    """All providers hosted on the CDN, with popularity weights."""

    providers: List[ContentProvider]

    def __post_init__(self) -> None:
        if not self.providers:
            raise ValueError("catalog needs at least one provider")
        self._by_domain: Dict[str, ContentProvider] = {}
        for provider in self.providers:
            self._by_domain[provider.domain] = provider
            self._by_domain[provider.cdn_hostname] = provider
        # Cumulative popularity for O(log n) provider sampling.
        self._cum_popularity: List[float] = []
        running = 0.0
        for provider in self.providers:
            running += provider.popularity
            self._cum_popularity.append(running)

    def __len__(self) -> int:
        return len(self.providers)

    def by_domain(self, domain: str) -> Optional[ContentProvider]:
        return self._by_domain.get(domain)

    def by_cdn_hostname(self, hostname: str) -> Optional[ContentProvider]:
        return self._by_domain.get(hostname)

    def pick_provider(self, rng: random.Random) -> ContentProvider:
        target = rng.random() * self._cum_popularity[-1]
        index = bisect.bisect_right(self._cum_popularity, target)
        return self.providers[min(index, len(self.providers) - 1)]


def build_catalog(
    n_providers: int = 40,
    seed: int = 11,
    cdn_zone: str = "cdn.example",
    origin_cities: Optional[List[City]] = None,
    popularity_exponent: float = 0.9,
    dns_ttl: int = 60,
) -> ContentCatalog:
    """Generate a Zipf-popularity provider catalog.

    Page composition spans the paper's content classes: mostly dynamic
    e-commerce-style pages with tens of embedded objects, a few static
    media-heavy sites, and some lightweight API-ish pages.  Origins are
    placed in major cities (providers host where infrastructure is).
    """
    if n_providers < 1:
        raise ValueError("need at least one provider")
    rng = random.Random(seed)
    if origin_cities is None:
        ranked = sorted(WORLD_CITIES, key=lambda c: c.weight, reverse=True)
        origin_cities = ranked[:40]
    popularity = zipf_weights(n_providers, popularity_exponent)

    providers = []
    for index in range(n_providers):
        kind = rng.random()
        name = f"provider{index}"
        domain = f"www.{name}.example"
        cdn_hostname = f"e{1000 + index}.{cdn_zone}"
        origin = rng.choice(origin_cities)
        pages = _pages_for(name, kind, rng)
        providers.append(ContentProvider(
            name=name,
            domain=domain,
            cdn_hostname=cdn_hostname,
            origin_city=origin,
            dns_ttl=dns_ttl,
            pages=pages,
            popularity=popularity[index],
        ))
    return ContentCatalog(providers)


def _pages_for(name: str, kind: float,
               rng: random.Random) -> List[WebPage]:
    pages: List[WebPage] = []
    n_pages = rng.randint(3, 8)
    for page_index in range(n_pages):
        if kind < 0.6:
            # Dynamic commerce/news page: personalized base, many
            # small embedded objects.
            dynamic = True
            base = rng.randint(20_000, 80_000)
            think = rng.uniform(40, 160)
            objects = _objects(name, page_index, rng,
                               count=rng.randint(15, 45),
                               lo=2_000, hi=60_000)
        elif kind < 0.85:
            # Static media page: cacheable base, few huge objects.
            dynamic = False
            base = rng.randint(10_000, 30_000)
            think = rng.uniform(5, 20)
            objects = _objects(name, page_index, rng,
                               count=rng.randint(3, 8),
                               lo=100_000, hi=1_500_000)
        else:
            # Lightweight application/API page.
            dynamic = True
            base = rng.randint(2_000, 10_000)
            think = rng.uniform(20, 80)
            objects = _objects(name, page_index, rng,
                               count=rng.randint(1, 5),
                               lo=1_000, hi=20_000)
        pages.append(WebPage(
            url=f"/{name}/page{page_index}",
            base_size_bytes=base,
            dynamic=dynamic,
            origin_think_ms=think,
            objects=objects,
        ))
    return pages


def _objects(name: str, page_index: int, rng: random.Random,
             count: int, lo: int, hi: int) -> Tuple[EmbeddedObject, ...]:
    out = []
    for obj_index in range(count):
        out.append(EmbeddedObject(
            name=f"{name}/p{page_index}/obj{obj_index}",
            size_bytes=rng.randint(lo, hi),
            cacheable=rng.random() > 0.05,
        ))
    return tuple(out)
