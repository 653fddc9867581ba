"""Ablations: one knob of the design swept between two settings, the
direction of the effect asserted.

* anycast misrouting rate -> public users' client--LDNS distance
  (paper Section 3.2);
* geolocation-database error -> end-user mapping accuracy (the paper
  leans on EdgeScape, Section 2.2);
* pre-ECS redirection mechanisms -> startup penalty (Section 7);
* ECS answer scope /y -> precision vs cache reuse (Section 2.1);
* mapping-answer TTL -> authoritative query rate.
"""

import statistics
from dataclasses import replace

from repro.analysis.stats import weighted_quantile
from repro.api import ScenarioSpec, build_world, run_dnsload
from repro.cdn import build_catalog, build_deployments
from repro.core import (
    EUMappingPolicy,
    GlobalLoadBalancer,
    LocalLoadBalancer,
    MappingSystem,
    MeasurementService,
    NSMappingPolicy,
    Scorer,
)
from repro.core.redirection import (
    RedirectionKind,
    RedirectionMapper,
    breakeven_transfer_bytes,
)
from repro.dnsproto.edns import ClientSubnetOption
from repro.dnsproto.types import QType
from repro.measurement.netsession import NetSessionCollector
from repro.net.geometry import great_circle_miles
from repro.simulation import WorldConfig
from repro.simulation.dnsload import DnsLoadConfig
from repro.topology import InternetConfig, build_internet
from repro.topology.resolvers import DEFAULT_PUBLIC_PROVIDERS


# -- anycast misrouting ------------------------------------------------------

def _public_median_distance(misroute_rate: float) -> float:
    """Demand-weighted median client--LDNS distance of public users."""
    providers = tuple(
        replace(p, misroute_rate=misroute_rate, deployments=[])
        for p in DEFAULT_PUBLIC_PROVIDERS)
    config = InternetConfig(
        n_client_blocks=1000, n_ases=90, providers=providers)
    internet = build_internet(config, seed=77)
    dataset = NetSessionCollector(internet).collect_ground_truth()
    public = dataset.filtered(internet.public_resolver_ids())
    values, weights = public.distance_samples()
    return weighted_quantile(values, weights, 0.5)


def test_misrouting_pushes_public_users_farther_from_their_ldns():
    assert _public_median_distance(0.45) > _public_median_distance(0.0)


# -- geolocation error -------------------------------------------------------

def _mean_mapping_distance(error_miles: float,
                           policy_class=EUMappingPolicy) -> float:
    """Mean ground-truth distance from public-ECS clients to the
    cluster picked by a mapping system that consults a geo database
    with ``error_miles`` of bounded random location error."""
    internet = build_internet(InternetConfig.tiny(), seed=55)
    plan = build_deployments(60, internet.geodb, seed=3,
                             host_ases=list(internet.ases.values()))
    catalog = build_catalog(6, seed=2)
    geodb = internet.geodb
    if error_miles > 0:
        geodb = geodb.with_error(error_miles, seed=9)
    scorer = Scorer(MeasurementService())
    system = MappingSystem(plan, catalog, policy_class(geodb), scorer)

    public = internet.public_resolver_ids()
    blocks = [b for b in internet.blocks
              if b.primary_ldns in public][:150]
    provider = catalog.providers[0]
    total = 0.0
    for index, block in enumerate(blocks):
        resolver = internet.resolvers[block.primary_ldns]
        answer = system.answer(provider.cdn_hostname, QType.A,
                               ClientSubnetOption(block.prefix),
                               resolver.ip, now=float(index))
        cluster = plan.cluster_of_server(
            answer.records[0].rdata.address)
        # Outcome measured against ground truth, not the noisy DB.
        total += great_circle_miles(block.geo, cluster.geo)
    return total / len(blocks)


def test_geo_error_degrades_eu_mapping_but_it_still_beats_ns():
    perfect = _mean_mapping_distance(0.0)
    noisy = _mean_mapping_distance(250.0)
    assert noisy >= perfect
    # EU with a sloppy geo DB still beats NS with a perfect one for
    # public-resolver clients.
    assert noisy < _mean_mapping_distance(0.0, NSMappingPolicy)


# -- pre-ECS redirection -----------------------------------------------------

def test_redirection_penalties_and_http_breakeven():
    """ECS pays no startup penalty; metafile redirection beats HTTP
    redirection; HTTP redirection only pays off for transfers larger
    than a typical web page."""
    world = build_world(WorldConfig.tiny())
    scorer = Scorer(MeasurementService())
    glb = GlobalLoadBalancer(world.deployments, scorer)
    llb = LocalLoadBalancer()
    public = world.internet.public_resolver_ids()
    clients = [b for b in world.internet.blocks
               if b.primary_ldns in public][:100]

    def mapper_for(kind):
        return RedirectionMapper(world.deployments, glb, llb,
                                 world.internet.geodb, kind)

    def assign(mapper, block):
        resolver = world.internet.resolvers[block.primary_ldns]
        return mapper.assign(block.prefix.network | 6, resolver.ip,
                             "provider0", world.network.rtt_ms)

    def mean_penalty(mapper):
        outcomes = [assign(mapper, block) for block in clients]
        return statistics.mean(out.penalty_ms for out in outcomes
                               if out is not None)

    http = mapper_for(RedirectionKind.HTTP)
    http_penalty = mean_penalty(http)
    assert mean_penalty(mapper_for(RedirectionKind.METAFILE)) <= http_penalty
    assert http_penalty > 0  # ECS's advantage is this penalty

    # Break-even for a representative far client.
    far = max(clients, key=lambda b: great_circle_miles(
        b.geo, world.internet.resolvers[b.primary_ldns].geo))
    client_ip = far.prefix.network | 6
    out = assign(http, far)
    direct_rtt = world.network.rtt_ms(
        client_ip,
        llb.pick_servers(out.first_cluster, "provider0")[0].ip)
    redirected_rtt = world.network.rtt_ms(client_ip, out.server_ips[0])
    assert breakeven_transfer_bytes(out.penalty_ms, direct_rtt,
                                    redirected_rtt) > 50_000


# -- ECS answer scope --------------------------------------------------------

def _scope_tradeoff(scope_len: int):
    """(mean mapping distance, upstream queries) with the authority
    answering at scope ``/scope_len``."""
    config = WorldConfig(internet=InternetConfig.tiny(),
                         n_deployments=40, n_providers=6,
                         n_nameservers=4, dns_ttl=1800)
    world = build_world(config)
    world.set_policy(EUMappingPolicy(world.internet.geodb,
                                     scope_prefix_len=scope_len))
    world.enable_ecs(world.public_ldns_ids())

    provider = world.catalog.providers[0]
    upstream = 0
    distances = []
    public = world.internet.public_resolver_ids()
    blocks = [b for b in world.internet.blocks
              if b.primary_ldns in public][:250]
    for index, block in enumerate(blocks):
        ldns = world.ldns_registry[block.primary_ldns]
        outcome = ldns.resolve(provider.domain, QType.A,
                               block.prefix.network | 10, now=index)
        upstream += outcome.upstream_queries
        cluster = world.deployments.cluster_of_server(
            outcome.addresses[0])
        distances.append(great_circle_miles(block.geo, cluster.geo))
    return sum(distances) / len(distances), upstream


def test_coarser_scope_cuts_queries_without_improving_precision():
    fine_distance, fine_queries = _scope_tradeoff(24)
    coarse_distance, coarse_queries = _scope_tradeoff(16)
    assert coarse_queries < fine_queries
    assert coarse_distance >= 0.8 * fine_distance


# -- mapping-answer TTL ------------------------------------------------------

def _authoritative_query_rate(ttl: int) -> float:
    config = WorldConfig(internet=InternetConfig.tiny(),
                         n_deployments=30, n_providers=6,
                         n_nameservers=3, dns_ttl=ttl)
    world, _ = run_dnsload(
        ScenarioSpec(world=config, monitor=False),
        [DnsLoadConfig(lookups_per_day=20_000, n_days=1, start_day=0,
                       seed=5)])
    return world.query_log.rate_in(0, 86400)


def test_longer_ttl_reduces_the_authoritative_query_rate():
    assert _authoritative_query_rate(1800) < _authoritative_query_rate(60)
