"""World builder: the fully wired simulated ecosystem.

One :class:`World` contains everything a scenario needs:

* the synthetic Internet (clients, LDNS population, BGP, geolocation),
* CDN deployments and the content catalog with origins,
* the mapping system (policy-swappable) attached as the answer source
  of authoritative name servers co-located with CDN clusters,
* a live :class:`~repro.dnssrv.recursive.RecursiveResolver` per LDNS,
* a query log observing the authoritative servers.

The name-server placement mirrors Section 2.2: authorities are deployed
inside CDN clusters, and each LDNS talks to the lowest-latency one
(standing in for the delegation step that "implements the global load
balancer choice of cluster for the client's LDNS").
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.cdn.content import ContentCatalog, build_catalog
from repro.cdn.deployments import DeploymentPlan, build_deployments
from repro.cdn.origin import OriginServer, deploy_origin, make_origin_allocator
from repro.core.discovery import CandidateIndex
from repro.core.loadfeedback import ClusterLoadTracker
from repro.core.mapmaker import MapPublicationService
from repro.core.measurement import MeasurementService
from repro.core.policies import EUMappingPolicy, MappingPolicy
from repro.core.scoring import Scorer, TrafficClass
from repro.core.system import MappingSystem
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import CNAMERdata
from repro.dnsproto.types import QType
from repro.dnssrv.authoritative import (
    AuthoritativeServer,
    StaticZone,
    WhoAmIZone,
)
from repro.dnssrv.cache import EcsAwareCache
from repro.dnssrv.recursive import RecursiveResolver
from repro.dnssrv.transport import AuthorityDirectory, Network
from repro.geo.cities import city_index
from repro.measurement.querylog import QueryLog
from repro.net.latency import LatencyModel
from repro.obs import Observability, register_world_collectors
from repro.topology.internet import Internet, InternetConfig, build_internet
from repro.topology.resolvers import ResolverFleets

if TYPE_CHECKING:
    from repro.api import ScenarioSpec
    from repro.simulation.session import SessionMetrics

CDN_ZONE = "cdn.example"
WHOAMI_NAME = f"whoami.{CDN_ZONE}"


@dataclass(frozen=True)
class WorldConfig:
    """Scale and seed knobs for a full world."""

    internet: InternetConfig = field(default_factory=InternetConfig.small)
    n_deployments: int = 150
    servers_per_cluster: int = 4
    n_providers: int = 30
    n_nameservers: int = 8
    dns_ttl: int = 300
    """Mapping-answer TTL.  Short TTLs keep mapping responsive; the
    paper's agility/query-rate trade-off is swept by the TTL ablation."""
    serve_stale_window: float = 0.0
    """Seconds past expiry LDNS caches may serve stale answers when
    every authority is unreachable (RFC 8767).  0 -- the default --
    disables serve-stale, reproducing the pre-fault behaviour."""
    server_capacity_rps: float = 1000.0
    """Request rate each edge server absorbs before overload.  The
    default is far above any fixture-scale load; surge scenarios turn
    it down to make utilization (and the load-feedback loop) bite."""
    seed: int = 2014

    def __post_init__(self) -> None:
        if self.n_nameservers < 1:
            raise ValueError("need at least one name server")
        if self.n_deployments < self.n_nameservers:
            raise ValueError("more name servers than deployments")
        if self.serve_stale_window < 0:
            raise ValueError(
                f"negative serve_stale_window: {self.serve_stale_window}")
        if self.server_capacity_rps <= 0:
            raise ValueError(
                f"server_capacity_rps must be > 0: "
                f"{self.server_capacity_rps}")

    @classmethod
    def tiny(cls) -> "WorldConfig":
        return cls(internet=InternetConfig.tiny(), n_deployments=40,
                   n_providers=10, n_nameservers=4)

    @classmethod
    def small(cls) -> "WorldConfig":
        return cls(internet=InternetConfig.small(), n_deployments=150,
                   n_providers=30, n_nameservers=8)

    @classmethod
    def paper(cls) -> "WorldConfig":
        return cls(internet=InternetConfig.paper(), n_deployments=400,
                   n_providers=60, n_nameservers=12)


@dataclass
class World:
    """Everything wired and ready to run scenarios against."""

    config: WorldConfig
    internet: Internet
    deployments: DeploymentPlan
    catalog: ContentCatalog
    origins: Dict[str, OriginServer]
    network: Network
    directory: AuthorityDirectory
    measurement: MeasurementService
    mapping: MappingSystem
    nameservers: List[AuthoritativeServer]
    ldns_registry: Dict[str, RecursiveResolver]
    query_log: QueryLog
    resolver_fleets: ResolverFleets
    """The public providers' live anycast PoP fleets: their health
    gates session routing (a healthy fleet routes every session to its
    build-time catchment)."""
    obs: Observability = field(default_factory=Observability)
    """The world's observability plane: every component shares this
    registry + tracer; ``register_world_collectors`` exposes component
    internals as canonical metrics at snapshot time."""
    control_plane: Optional[MapPublicationService] = None
    """The map-publication control plane, when the spec asks for one;
    None keeps per-query scoring."""
    load_tracker: Optional[ClusterLoadTracker] = None
    """The load-feedback report channel, when the spec asks for one:
    the engines observe it once per day and the scorer reads its
    penalties.  None keeps scoring load-blind."""
    session_metrics: Optional["SessionMetrics"] = field(
        default=None, init=False, repr=False, compare=False)
    """The session path's registry instruments, bound by the world's
    first session (:class:`~repro.simulation.session.SessionMetrics`)."""

    def set_policy(self, policy: MappingPolicy) -> None:
        """Swap the mapping policy (NS / EU / CANS) world-wide."""
        self.mapping.set_policy(policy)

    def cans_policy(self) -> "MappingPolicy":
        """Build a client-aware NS policy from NetSession pairing data.

        Runs the NetSession ground-truth collection (Section 3.1) and
        loads the observed client clusters into a
        :class:`~repro.core.policies.ClientClusterIndex`, exactly the
        data feed the paper says CANS mapping would need ("tools for
        discovering client-LDNS pairings", Section 7).
        """
        from repro.core.policies import (
            CANSMappingPolicy,
            ClientClusterIndex,
        )
        from repro.measurement.netsession import NetSessionCollector

        dataset = NetSessionCollector(self.internet).collect_ground_truth()
        index = ClientClusterIndex(self.internet.geodb)
        for obs in dataset.observations:
            resolver = self.internet.resolvers[obs.resolver_id]
            index.observe(resolver.ip, obs.block, obs.demand)
        return CANSMappingPolicy(self.internet.geodb, index)

    def enable_ecs(self, resolver_ids, source_prefix_len: int = 24) -> int:
        """Make exactly ``resolver_ids`` send EDNS0 client-subnet.

        The one writer of LDNS ECS state after construction: ECS goes
        on, at ``source_prefix_len``, at every listed resolver and off
        at every other, so an empty list switches it off everywhere and
        a roll-out day applies its whole tranche in one call.  Returns
        how many resolvers send ECS afterwards.  Existing scope-0 cache
        entries are not flushed; they simply age out.
        """
        if not 0 < source_prefix_len <= 32:
            raise ValueError(
                f"bad ECS source length {source_prefix_len}")
        enabled = set(resolver_ids)
        count = 0
        for resolver_id, ldns in self.ldns_registry.items():
            ldns.ecs_enabled = resolver_id in enabled
            if ldns.ecs_enabled:
                ldns.ecs_source_len = source_prefix_len
                count += 1
        return count

    def public_ldns_ids(self) -> List[str]:
        return sorted(self.internet.public_resolver_ids())


@dataclass(frozen=True)
class Ecosystem:
    """The static part of a world: a pure function of its
    :class:`WorldConfig` and read-only once built.

    Nothing a world does after wiring writes to these objects (faults
    flip fleet, recursive, cluster, maker and name-server attributes;
    a world build re-registers its cluster and origin /24s into
    ``internet.geodb``, records identical under one config).  So one
    ecosystem can back many live worlds in turn: a shard task builds
    it once and wires a fresh world over it per shard.
    """

    config: WorldConfig
    internet: Internet
    catalog: ContentCatalog


def build_ecosystem(config: WorldConfig) -> Ecosystem:
    """Build the Internet and content catalog a world config names."""
    return Ecosystem(
        config=config,
        internet=build_internet(config.internet, seed=config.seed),
        catalog=build_catalog(config.n_providers, seed=config.seed + 2,
                              cdn_zone=CDN_ZONE, dns_ttl=config.dns_ttl))


def _build_world(spec: "ScenarioSpec", load_scale: float = 1.0,
                 ecosystem: Optional[Ecosystem] = None) -> World:
    """Build and wire the world a spec describes, every plane it asks
    for attached.  ``load_scale`` multiplies observed load -- shard
    workers pass their shard count, since each sees only its own slice
    of the global demand.  ``ecosystem`` reuses an already built
    :class:`Ecosystem` of ``spec.world``; by default one is built."""
    config = spec.world
    if ecosystem is None:
        ecosystem = build_ecosystem(config)
    elif ecosystem.config != config:
        raise ValueError("ecosystem was built for a different WorldConfig")
    rng = random.Random(config.seed ^ 0xC0FFEE)
    obs = Observability()

    internet, catalog = ecosystem.internet, ecosystem.catalog
    network = Network(internet.geodb, LatencyModel(), obs=obs)

    deployments = build_deployments(
        config.n_deployments,
        internet.geodb,
        seed=config.seed + 1,
        servers_per_cluster=config.servers_per_cluster,
        server_capacity_rps=config.server_capacity_rps,
        host_ases=list(internet.ases.values()),
    )

    measurement = MeasurementService()
    scorer = Scorer(measurement, TrafficClass.WEB)
    load_tracker: Optional[ClusterLoadTracker] = None
    if spec.load_feedback is not None:
        load_tracker = ClusterLoadTracker(spec.load_feedback,
                                          load_scale=load_scale)
        scorer.load_tracker = load_tracker
    mapping_policy = spec.policy or EUMappingPolicy(internet.geodb)
    mapping = MappingSystem(
        deployments, catalog, mapping_policy, scorer,
        candidate_index=CandidateIndex(deployments), obs=obs)

    publication_service: Optional[MapPublicationService] = None
    if spec.control_plane is not None:
        publication_service = MapPublicationService(
            spec.control_plane, deployments=deployments, scorer=scorer,
            internet=internet, obs=obs, unit_scheme=spec.unit_scheme)
        mapping.attach_control_plane(publication_service)

    # --- authoritative name servers inside CDN clusters -------------------
    nameservers: List[AuthoritativeServer] = []
    ns_clusters = _spread_choice(
        list(deployments.clusters.values()), config.n_nameservers, rng)
    for index, cluster in enumerate(ns_clusters):
        ns_ip = (cluster.servers[0].ip & 0xFFFFFF00) | 200
        server = AuthoritativeServer(ns_ip, f"ns{index}.{CDN_ZONE}",
                                     obs=obs)
        server.attach_zone(CDN_ZONE, mapping)
        server.attach_zone(WHOAMI_NAME, WhoAmIZone(WHOAMI_NAME))
        network.register(server)
        nameservers.append(server)

    directory = AuthorityDirectory()
    directory.delegate(CDN_ZONE, [ns.ip for ns in nameservers])

    # --- provider zones and origins ---------------------------------------
    origin_alloc = make_origin_allocator()
    origins: Dict[str, OriginServer] = {}
    cities = city_index()
    for provider in catalog.providers:
        origin = deploy_origin(provider.name,
                               cities[provider.origin_city.name],
                               internet.geodb, origin_alloc)
        origins[provider.name] = origin
        zone = StaticZone().add(ResourceRecord(
            provider.domain, QType.CNAME, 3600,
            CNAMERdata(provider.cdn_hostname)))
        # The provider's own DNS runs next to its origin.
        provider_ns_ip = (origin.ip & 0xFFFFFF00) | 53
        provider_auth = AuthoritativeServer(
            provider_ns_ip, f"ns.{provider.name}.example", obs=obs)
        provider_zone = provider.domain.split(".", 1)[1]
        provider_auth.attach_zone(provider_zone, zone)
        network.register(provider_auth)
        directory.delegate(provider_zone, [provider_ns_ip])

    # --- the LDNS fleet -----------------------------------------------------
    ldns_registry: Dict[str, RecursiveResolver] = {}
    for resolver_id, meta in internet.resolvers.items():
        ldns = RecursiveResolver(
            ip=meta.ip,
            network=network,
            directory=directory,
            ecs_enabled=False,
            cache=EcsAwareCache(
                serve_stale_window=config.serve_stale_window),
            name=resolver_id,
            obs=obs,
        )
        network.register(ldns)
        ldns_registry[resolver_id] = ldns

    # --- the resolver plane (anycast PoP fleets + ECS policies) -----------
    resolver_fleets = ResolverFleets.from_providers(
        internet.providers, policies=spec.resolver_policies)
    for provider in internet.providers:
        ecs_policy = spec.resolver_policies.policy_for(provider.name)
        for deployment in provider.deployments:
            ldns = ldns_registry[deployment.resolver_id]
            ldns.ecs_whitelisted = ecs_policy.whitelist_enabled
            ldns.ecs_scope_ceiling = ecs_policy.scope_ceiling

    # --- query accounting ----------------------------------------------------
    query_log = QueryLog(
        authoritative_ips={ns.ip for ns in nameservers},
        public_resolver_ips={
            meta.ip for rid, meta in internet.resolvers.items()
            if meta.is_public
        },
    )
    network.add_sink(query_log)

    world = World(
        config=config,
        internet=internet,
        deployments=deployments,
        catalog=catalog,
        origins=origins,
        network=network,
        directory=directory,
        measurement=measurement,
        mapping=mapping,
        nameservers=nameservers,
        ldns_registry=ldns_registry,
        query_log=query_log,
        resolver_fleets=resolver_fleets,
        obs=obs,
        control_plane=publication_service,
        load_tracker=load_tracker,
    )
    register_world_collectors(obs.registry, world)
    return world


def _spread_choice(clusters, count: int, rng: random.Random):
    """Pick name-server host clusters spread across countries."""
    count = min(count, len(clusters))
    by_country: Dict[str, List] = {}
    for cluster in clusters:
        by_country.setdefault(cluster.country, []).append(cluster)
    chosen = []
    countries = sorted(by_country)
    rng.shuffle(countries)
    while len(chosen) < count and countries:
        for country in list(countries):
            pool = by_country[country]
            if not pool:
                countries.remove(country)
                continue
            chosen.append(pool.pop(rng.randrange(len(pool))))
            if len(chosen) >= count:
                break
    return chosen
