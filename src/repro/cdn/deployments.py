"""CDN server deployments: clusters of edge servers in cities.

Section 6 of the paper studies mapping quality as a function of the
number of *deployment locations*; its universe is 2642 locations across
100 countries.  :func:`build_deployments` constructs the analogous
universe over our gazetteer: demand-weighted city choices, several
clusters in big cities, and a configurable fraction of clusters
deployed *inside* eyeball ISPs (Akamai's hallmark), which zeroes the
peering penalty for that ISP's clients.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.geo.cities import City, WORLD_CITIES
from repro.geo.database import GeoDatabase, GeoRecord
from repro.net.geometry import GeoPoint, displace
from repro.net.ipv4 import Prefix
from repro.topology.addressing import AddressAllocator, CDN_SPACE_START
from repro.topology.ases import ASKind, AutonomousSystem
from repro.cdn.server import EdgeServer

#: The CDN's own backbone AS number (used for non-in-ISP clusters).
CDN_BACKBONE_ASN = 20940


@dataclass(eq=False)
class Cluster:
    """One deployment location: co-located edge servers.

    Entity semantics: compared and hashed by identity (two clusters
    are never "equal", they are the same deployment or not).
    """

    cluster_id: str
    city: str
    country: str
    geo: GeoPoint
    asn: int
    servers: List[EdgeServer] = field(default_factory=list)

    @property
    def capacity_rps(self) -> float:
        return sum(s.capacity_rps for s in self.servers if s.alive)

    @property
    def load_rps(self) -> float:
        return sum(s.load_rps for s in self.servers)

    @property
    def utilization(self) -> float:
        capacity = self.capacity_rps
        return self.load_rps / capacity if capacity else math.inf

    @property
    def alive(self) -> bool:
        return any(s.alive for s in self.servers)

    def live_utilization(self) -> Optional[float]:
        """:attr:`utilization` when :attr:`alive`, else None: both
        from one look at the servers, with the same ``sum`` calls."""
        live = self.live_servers()
        if not live:
            return None
        capacity = sum(s.capacity_rps for s in live)
        return (sum(s.load_rps for s in self.servers) / capacity
                if capacity else math.inf)

    def live_servers(self) -> List[EdgeServer]:
        return [s for s in self.servers if s.alive]

    def reset_load(self) -> None:
        for server in self.servers:
            server.reset_load()


@dataclass
class DeploymentPlan:
    """The full set of clusters plus indexes the mapping system needs."""

    clusters: Dict[str, Cluster]
    server_index: Dict[int, EdgeServer] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.server_index:
            for cluster in self.clusters.values():
                for server in cluster.servers:
                    self.server_index[server.ip] = server

    def __len__(self) -> int:
        return len(self.clusters)

    def cluster(self, cluster_id: str) -> Cluster:
        return self.clusters[cluster_id]

    def cluster_of_server(self, server_ip: int) -> Optional[Cluster]:
        server = self.server_index.get(server_ip)
        if server is None:
            return None
        return self.clusters.get(server.cluster_id)

    def live_clusters(self) -> List[Cluster]:
        return [c for c in self.clusters.values() if c.alive]

    def decay_load(self, retention: float) -> None:
        """Apply one day of load decay to every server (dead servers
        included, so stale heat never resurrects on recovery)."""
        for cluster in self.clusters.values():
            for server in cluster.servers:
                server.decay_load(retention)


def build_deployments(
    n_locations: int,
    geodb: GeoDatabase,
    seed: int = 7,
    servers_per_cluster: int = 4,
    server_capacity_rps: float = 1000.0,
    in_isp_rate: float = 0.5,
    host_ases: Optional[Sequence[AutonomousSystem]] = None,
    allocator: Optional[AddressAllocator] = None,
    cities: Sequence[City] = WORLD_CITIES,
) -> DeploymentPlan:
    """Place ``n_locations`` clusters across the city universe.

    City choice is weighted by population with replacement suppressed
    until every city already hosts a cluster, so small N covers the
    biggest metros first and large N spreads into the long tail and
    then densifies -- the same qualitative growth path a real CDN
    follows.  Registers every cluster's /24 in ``geodb``.
    """
    if n_locations < 1:
        raise ValueError("need at least one deployment location")
    if servers_per_cluster < 1:
        raise ValueError("need at least one server per cluster")
    rng = random.Random(seed)
    allocator = allocator or AddressAllocator(CDN_SPACE_START)

    # Host-ISP pool per country for in-network deployments.
    isp_by_country: Dict[str, List[AutonomousSystem]] = {}
    for as_obj in host_ases or ():
        if as_obj.kind == ASKind.EYEBALL_ISP:
            isp_by_country.setdefault(as_obj.country, []).append(as_obj)

    weights = [city.weight for city in cities]
    chosen: List[City] = []
    seen_counts: Dict[str, int] = {}
    while len(chosen) < n_locations:
        city = rng.choices(list(cities), weights=weights, k=1)[0]
        count = seen_counts.get(city.name, 0)
        # Suppress piling clusters into one metro until coverage grows.
        if count > 0 and len(seen_counts) < min(len(cities), n_locations):
            if rng.random() < 0.8:
                continue
        seen_counts[city.name] = count + 1
        chosen.append(city)

    clusters: Dict[str, Cluster] = {}
    for index, city in enumerate(chosen):
        suffix = seen_counts_tag(seen_counts, city, index)
        cluster_id = f"cl-{city.name.lower().replace(' ', '-')}-{suffix}"
        geo = displace(city.geo, rng.uniform(0, 10),
                       rng.uniform(0, 2 * math.pi))
        host_pool = isp_by_country.get(city.country, [])
        if host_pool and rng.random() < in_isp_rate:
            asn = rng.choice(host_pool).asn
        else:
            asn = CDN_BACKBONE_ASN
        block = allocator.allocate_chunk(1)
        cluster = Cluster(cluster_id=cluster_id, city=city.name,
                          country=city.country, geo=geo, asn=asn)
        for s in range(servers_per_cluster):
            server = EdgeServer(ip=block.network | (s + 1),
                                cluster_id=cluster_id,
                                capacity_rps=server_capacity_rps)
            cluster.servers.append(server)
        clusters[cluster_id] = cluster
        geodb.register(Prefix(block.network, 24), GeoRecord(
            geo=geo, city=city.name, country=city.country,
            continent=city.continent, asn=asn))
    return DeploymentPlan(clusters=clusters)


def seen_counts_tag(seen_counts: Dict[str, int], city: City,
                    index: int) -> str:
    """Stable unique suffix for repeat clusters in one city."""
    return f"{seen_counts[city.name]}-{index}"
