"""The compiled mapping answer against the answer it replaced.

``MappingSystem.answer`` shares what repeats between queries: a
cluster's headroom numbers within one walk, one rendezvous order per
(cluster, provider), one A-record tuple per server set, one cluster
tuple per published id tuple, the ladder's map keys and its counter
handles.  The reference below is the code that built each of those
afresh per query -- the headroom walk, the server pick, the record
building, the published-map read and the ladder lookup as they stood
before, the ladder over the builders' string-keyed unit index -- swapped
into a twin world.  Both twins see the same queries under the same
injected load, dead servers and dead clusters, over every ladder tier,
client prefixes of every length and resolvers the Internet does not
have; answers, spillovers, balancer counters and registry snapshots
must stay equal throughout.
"""

import random

import pytest

import repro.api
import repro.core.loadbalancer as loadbalancer_module
import repro.core.mapmaker.maker as maker_module
import repro.core.mapmaker.service as service_module
import repro.core.system as system_module
from repro.core.loadbalancer import GlobalLoadBalancer, LocalLoadBalancer
from repro.core.mapmaker import MapMakerConfig
from repro.core.mapmaker.maker import eu_key, ns_key
from repro.core.policies import ResolutionContext
from repro.core.system import MappingSystem
from repro.core.units import parse_unit_scheme
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType, Rcode
from repro.dnssrv.authoritative import ZoneAnswer
from repro.net.ipv4 import Prefix, prefix_of
from repro.obs import NULL_SPAN
from repro.simulation.world import WorldConfig
from tests.test_units import reference_index

DAY = 86400.0


# -- the reference: each piece as it was before it was compiled ---------------

class ReferenceGlobalLoadBalancer(GlobalLoadBalancer):
    def walk(self, ranked):
        ceiling = self.config.utilization_ceiling
        considered = []
        for cluster in ranked:
            if not cluster.alive:
                continue
            if cluster.utilization < ceiling:
                if considered:
                    self.spillovers += 1
                return cluster
            considered.append(cluster)
            if len(considered) == self.config.candidate_limit:
                break
        if not considered:
            return None
        fallback = min(considered, key=lambda c: c.utilization)
        self.spillovers += 1
        self.obs.registry.counter("lb.overloaded_picks").inc()
        return fallback


class ReferenceLocalLoadBalancer(LocalLoadBalancer):
    def pick_servers(self, cluster, provider_key):
        live = [s for s in cluster.live_servers() if not s.overloaded]
        if not live:
            live = cluster.live_servers()
        if not live:
            return []
        ranked = sorted(
            live,
            key=lambda s: self._weight(provider_key, s),
            reverse=True,
        )
        return ranked[: self.config.servers_per_answer]


def reference_lookup(service, unit_index, client_prefix, ldns_ip, day):
    current = service.current
    age = current.age(day)
    config = service.config
    if client_prefix is not None and age <= config.stale_age_days:
        unit_key = unit_index.get(str(client_prefix))
        if unit_key is not None:
            ids = current.lookup(eu_key(unit_key))
            if ids:
                return ids, ("fresh_eu" if age <= config.fresh_age_days
                             else "stale_eu")
    if age <= config.ns_age_days:
        ids = current.lookup(ns_key(ldns_ip))
        if ids:
            return ids, ("ns" if client_prefix is None else "ns_fallback")
    return (), "static_geo"


class ReferenceMappingSystem(MappingSystem):
    def answer(self, qname, qtype, ecs, src_ip, now):
        provider = self.catalog.by_cdn_hostname(qname)
        if provider is None:
            self.stats.nxdomain += 1
            return ZoneAnswer(rcode=Rcode.NXDOMAIN)
        if qtype not in (QType.A, QType.ANY):
            return ZoneAnswer(rcode=Rcode.NOERROR)
        self.stats.resolutions += 1
        if ecs is not None:
            self.stats.ecs_resolutions += 1
        tracer = self.obs.tracer
        traced = tracer.active
        with (tracer.span("mapping.decision", qname=qname,
                          policy=self.policy.name, ecs=ecs is not None)
              if traced else NULL_SPAN) as span:
            context = ResolutionContext(qname=qname, ldns_ip=src_ip,
                                        ecs=ecs)
            target, scope = self.policy.decide(context)
            if target is None:
                self.stats.no_target += 1
                return ZoneAnswer(rcode=Rcode.SERVFAIL)
            global_lb = self.global_lb
            hits_before = global_lb.ranking_hits
            tier = None
            if self.control_plane is not None:
                cluster, tier = self._pick_published(context, target, now)
                if tier in ("ns", "ns_fallback"):
                    scope = 0
            else:
                cluster = global_lb.pick_cluster(target)
            if cluster is None:
                return ZoneAnswer(rcode=Rcode.SERVFAIL)
            servers = self.local_lb.pick_servers(cluster, provider.name)
            if not servers:
                return ZoneAnswer(rcode=Rcode.SERVFAIL)
            if traced:
                if tier is not None:
                    cache_label = f"published:{tier}"
                else:
                    cache_label = ("hit" if global_lb.ranking_hits
                                   > hits_before else "miss")
                span.set(cluster=cluster.cluster_id,
                         decision_cache=cache_label, scope=scope,
                         servers=len(servers))
            records = tuple(
                ResourceRecord(qname, QType.A, provider.dns_ttl,
                               ARdata(server.ip))
                for server in servers)
            return ZoneAnswer(records=records, scope_prefix_len=scope)

    def _pick_published(self, context, target, now):
        day = int(now // 86400.0)
        client_prefix = (context.ecs.prefix if context.ecs is not None
                         else None)
        ids, tier = reference_lookup(self.control_plane,
                                     self.reference_index, client_prefix,
                                     context.ldns_ip, day)
        clusters = self.deployments.clusters
        cluster = self.global_lb.walk(
            clusters[cluster_id] for cluster_id in ids
            if cluster_id in clusters)
        if cluster is None:
            tier = "static_geo"
            cluster = self.global_lb.walk(
                self.control_plane.static_ranking(target.geo))
        if cluster is not None:
            self.obs.registry.counter(f"mapping.tier.{tier}").inc()
        return cluster, tier


def as_reference(world):
    mapping = world.mapping
    mapping.__class__ = ReferenceMappingSystem
    mapping.global_lb.__class__ = ReferenceGlobalLoadBalancer
    mapping.local_lb.__class__ = ReferenceLocalLoadBalancer
    service = world.control_plane
    if service is not None:
        scheme, _ = parse_unit_scheme(service.unit_scheme)
        mapping.reference_index = reference_index(
            scheme, world.internet, service.units)
    return world


# -- twin worlds and one query stream ------------------------------------------

def build(scale, published):
    config = WorldConfig.tiny() if scale == "tiny" else WorldConfig.small()
    return repro.api.build_world(
        config,
        control_plane=(MapMakerConfig(max_eu_units=400) if published
                       else None))


#: A resolver address the Internet does not have (TEST-NET-1).
UNKNOWN_LDNS = 0xC0000201


def make_stream(world, seed, n, days):
    """Queries as plain values, so both twins can replay them: (qname,
    ECS prefix or None, resolver address, time)."""
    rng = random.Random(seed)
    internet = world.internet
    assert UNKNOWN_LDNS not in {resolver.ip for resolver
                                in internet.resolvers.values()}
    names = [name for provider in world.catalog.providers
             for name in (provider.cdn_hostname, provider.domain)]
    names.append("nowhere.invalid")
    stream = []
    for index in range(n):
        block = rng.choice(internet.blocks)
        ldns_ip = internet.resolvers[block.pick_ldns(rng)].ip
        if rng.random() < 0.05:
            ldns_ip = UNKNOWN_LDNS
        client_ip = block.prefix.network | rng.randrange(256)
        roll = rng.random()
        if roll < 0.3:
            ecs = None
        elif roll < 0.5:
            ecs = prefix_of(client_ip, 22)
        elif roll < 0.55:
            # A /24 in no block: no unit holds it.
            ecs = Prefix(0xC6336400 | rng.randrange(4) << 8, 24)
        elif roll < 0.6:
            # Lengths no unit holds, around the block's own /24.
            ecs = prefix_of(client_ip, rng.choice((0, 25, 32)))
        else:
            ecs = prefix_of(client_ip, 24)
        stream.append((rng.choice(names), ecs, ldns_ip,
                       days * DAY * index / n))
    return stream


def servers_of(world):
    return [server for cluster_id in sorted(world.deployments.clusters)
            for server in world.deployments.clusters[cluster_id].servers]


def disturb(worlds, rng):
    """One random change to load and liveness, made in every twin."""
    count = len(servers_of(worlds[0]))
    action = rng.random()
    if action < 0.3:
        picks = [(rng.randrange(count), rng.choice((0.5, 0.9, 1.2, 5.0)))
                 for _ in range(rng.randrange(1, 40))]
        for world in worlds:
            servers = servers_of(world)
            for index, utilization in picks:
                server = servers[index]
                server.load_rps = server.capacity_rps * utilization
    elif action < 0.4:
        # A surge: every server near or over the ceiling, so walks
        # fall back to the least loaded candidate.
        loads = [rng.choice((0.86, 0.9, 0.95, 1.0, 1.5))
                 for _ in range(count)]
        for world in worlds:
            for server, utilization in zip(servers_of(world), loads):
                server.load_rps = server.capacity_rps * utilization
    elif action < 0.5:
        picks = [rng.randrange(count) for _ in range(rng.randrange(1, 20))]
        for world in worlds:
            for index in picks:
                servers_of(world)[index].fail()
    elif action < 0.6:
        # Every cluster but a few far apart dies: most targets' whole
        # candidate set is dead.
        clusters = sorted(worlds[0].deployments.clusters)
        keep = set(rng.sample(clusters, min(3, len(clusters))))
        for world in worlds:
            for cluster_id in clusters:
                if cluster_id not in keep:
                    for server in world.deployments.clusters[
                            cluster_id].servers:
                        server.fail()
    elif action < 0.65:
        for world in worlds:
            for server in servers_of(world):
                server.fail()
    elif action < 0.8:
        for world in worlds:
            for server in servers_of(world):
                server.recover()
    else:
        for world in worlds:
            for server in servers_of(world):
                server.reset_load()


def balancer_counts(world):
    lb = world.mapping.global_lb
    return (lb.spillovers, lb.decisions, lb.ranking_hits,
            lb.ranking_misses, vars(world.mapping.stats))


def replay(scale, published, seed, n, days):
    compiled = build(scale, published)
    reference = as_reference(build(scale, published))
    worlds = (compiled, reference)
    rng = random.Random(seed)
    stream = make_stream(compiled, seed, n, days)
    for index, (qname, ecs, ldns_ip, now) in enumerate(stream):
        if index % 25 == 0:
            disturb(worlds, rng)
        option = None if ecs is None else ClientSubnetOption(ecs)
        answers = [world.mapping.answer(qname, QType.A, option, ldns_ip,
                                        now) for world in worlds]
        assert answers[0] == answers[1], (index, qname, ecs)
        assert balancer_counts(compiled) == balancer_counts(reference)
    assert (compiled.obs.registry.snapshot()
            == reference.obs.registry.snapshot())
    return compiled


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_per_query_ranking_answers_as_before(scale):
    world = replay(scale, published=False, seed=11, n=1500, days=3)
    lb = world.mapping.global_lb
    assert lb.spillovers > 0 and lb.ranking_misses > 0
    assert world.obs.registry.snapshot()["counters"][
        "lb.overloaded_picks"] > 0


@pytest.mark.parametrize("scale", ["tiny", "small"])
def test_published_ladder_answers_as_before(scale):
    world = replay(scale, published=True, seed=12, n=2500, days=15)
    counters = world.obs.registry.snapshot()["counters"]
    for tier in ("fresh_eu", "stale_eu", "ns", "ns_fallback",
                 "static_geo"):
        assert counters[f"mapping.tier.{tier}"] > 0, tier
    assert counters["lb.overloaded_picks"] > 0
    assert world.mapping.global_lb.spillovers > 0


def test_answers_past_the_record_bound_are_the_same(monkeypatch):
    monkeypatch.setattr(system_module, "_RECORD_SETS", 3)
    world = replay("tiny", published=True, seed=13, n=600, days=15)
    assert len(world.mapping._records) == 3


# -- work counts ------------------------------------------------------------------

@pytest.fixture
def published_world():
    return build("tiny", published=True)


def _query(world, length=24):
    block = world.internet.blocks[0]
    ldns_ip = world.internet.resolvers[block.primary_ldns].ip
    provider = world.catalog.providers[0]
    ecs = ClientSubnetOption(prefix_of(block.prefix.network | 9, length))
    return provider.cdn_hostname, QType.A, ecs, ldns_ip, 0.0


def _counting(monkeypatch, module, name, original):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted, raising=False)
    return calls


def test_a_repeated_server_set_builds_no_record(monkeypatch,
                                                published_world):
    query = _query(published_world)
    first = published_world.mapping.answer(*query)
    built = _counting(monkeypatch, system_module, "ResourceRecord",
                      ResourceRecord)
    again = published_world.mapping.answer(*query)
    assert again == first and len(first.records) == 2
    assert built == []


def test_a_repeated_cluster_and_provider_sorts_nothing(monkeypatch,
                                                       published_world):
    query = _query(published_world)
    published_world.mapping.answer(*query)
    sorts = _counting(monkeypatch, loadbalancer_module, "sorted", sorted)
    published_world.mapping.answer(*query)
    assert sorts == []
    # A dead server is filtered out of the same order: still no sort.
    first = published_world.mapping.answer(*query)
    published_world.deployments.server_index[
        first.records[0].rdata.address].fail()
    assert published_world.mapping.answer(*query) != first
    assert sorts == []


def _counting_keys(monkeypatch):
    """The calls that format a prefix or a map key, from now on: one
    list per formatter."""
    formatted = [_counting(monkeypatch, Prefix, "__str__", Prefix.__str__)]
    for module in (maker_module, service_module):
        formatted.append(_counting(monkeypatch, module, "eu_key", eu_key))
        formatted.append(_counting(monkeypatch, module, "ns_key", ns_key))
    return formatted


@pytest.mark.parametrize("length", [None, 0, 22, 24, 25, 32])
def test_a_repeated_published_lookup_formats_no_prefix(monkeypatch,
                                                       published_world,
                                                       length):
    """No published lookup formats a prefix or a map key: neither the
    first nor a repeated one, on any tier, whatever the client prefix
    (or none) and whether or not the Internet has the resolver."""
    qname, qtype, ecs, ldns_ip, _ = _query(
        published_world, 24 if length is None else length)
    if length is None:
        ecs = None
    formatted = _counting_keys(monkeypatch)
    answers = [published_world.mapping.answer(qname, qtype, ecs, resolver,
                                              day * DAY)
               for resolver in (ldns_ip, UNKNOWN_LDNS)
               # fresh_eu, stale_eu, ns, static_geo
               for day in (0, 4, 8, 20)
               for _ in range(2)]
    assert formatted == [[]] * 5
    assert answers[0] == answers[1]
    tiers = published_world.obs.registry.snapshot()["counters"]
    assert sum(count for name, count in tiers.items()
               if name.startswith("mapping.tier.")) >= 8
    if ecs is not None:
        found = published_world.control_plane.unit_key_for(ecs.prefix)
        assert (found is not None) == (length == 24)


def test_a_pass_grows_no_table_of_the_service():
    world = build("tiny", published=True)
    service = world.control_plane

    def sizes():
        return {name: len(value) for name, value in vars(service).items()
                if isinstance(value, dict)}

    built = sizes()
    assert len(built) >= 3
    for qname, ecs, ldns_ip, now in make_stream(world, 14, 1500, 15):
        option = None if ecs is None else ClientSubnetOption(ecs)
        world.mapping.answer(qname, QType.A, option, ldns_ip, now)
    assert sizes() == built
