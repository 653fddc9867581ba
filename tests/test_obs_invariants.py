"""Cross-cutting observability invariants.

Five pinned identities:

* **Cache accounting** -- ``CacheStats.hits + misses == lookups`` holds
  under arbitrary randomized lookup/store/expiry workloads (every
  lookup is classified exactly once).
* **Trace RTT sum** -- a session's reported DNS time equals the stub
  hop RTT plus every upstream hop RTT in its trace, plus each timed-out
  hop's recorded backoff penalty (``penalty_ms``, defaulting to the
  base retry timer ``_TIMEOUT_PENALTY_MS``).
* **ECS share bounds** -- ``StatusReport.mapping_ecs_share`` stays in
  [0, 1], including on a world with zero resolutions.
* **Tracing observes only** -- the resolver path asks for spans only
  while a trace is open, and the same lookups answer the same, and
  count the same, with one open or not.
* **Sampling observes only** -- a roll-out on a default (1-in-64)
  world and one tracing every session give the same registry and
  result digest; the sampled one keeps one whole trace per 64 sessions.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reporting import build_status_report
from repro.dnsproto.message import ResourceRecord
from repro.dnsproto.rdata import ARdata
from repro.dnsproto.types import QType
from repro.dnssrv.cache import EcsAwareCache
from repro.dnssrv.recursive import _TIMEOUT_PENALTY_MS
from repro.dnssrv.stub import StubResolver
from repro.net.ipv4 import parse_ipv4, prefix_of
from repro.obs import SAMPLE_EVERY
from repro.obs.dump import run_scenario
from repro.api import build_world, run_rollout
from repro.simulation.world import WorldConfig

names = st.sampled_from(["a.example", "b.example", "c.example"])
clients = st.integers(min_value=0x01000000, max_value=0x01FFFFFF)
scope_lens = st.sampled_from([None, 16, 24])
operations = st.lists(
    st.one_of(
        st.tuples(st.just("lookup"), names, clients),
        st.tuples(st.just("store"), names, scope_lens),
    ),
    max_size=150,
)


class TestCacheStatsInvariant:
    @given(operations)
    @settings(max_examples=100, deadline=None)
    def test_hits_plus_misses_equals_lookups(self, ops):
        cache = EcsAwareCache(max_entries=4)
        record = ResourceRecord("x", QType.A, 5,
                                ARdata(parse_ipv4("9.9.9.9")))
        lookups_issued = 0
        now = 0.0
        for op in ops:
            now += 1.7  # entries (ttl 5) expire under sustained load
            if op[0] == "lookup":
                cache.lookup(op[1], QType.A, op[2], now)
                lookups_issued += 1
            else:
                scope = (None if op[2] is None
                         else prefix_of(0x01000000, op[2]))
                cache.store(op[1], QType.A, scope, (record,), 5, now)
            stats = cache.stats.as_dict()
            assert stats["hits"] + stats["misses"] == stats["lookups"]
            assert stats["lookups"] == lookups_issued
            assert all(value >= 0 for value in stats.values())
            assert len(cache) <= cache.max_entries


def _hop_rtt_sum(root) -> float:
    """Reconstruct resolution latency from a trace per the timeout
    accounting convention documented in repro.obs.tracing."""
    total = 0.0
    for stub_hop in root.find("stub.hop"):
        total += stub_hop.attrs["rtt_ms"]
        if stub_hop.attrs.get("timeout"):
            total += stub_hop.attrs.get("penalty_ms", 0.0)
    for hop in root.find("hop"):
        total += hop.attrs["rtt_ms"]
        if hop.attrs.get("timeout"):
            total += hop.attrs.get("penalty_ms", _TIMEOUT_PENALTY_MS)
    return total


class TestTraceRttSum:
    @pytest.fixture(scope="class")
    def world(self):
        return run_scenario(scale="tiny", sessions=10, seed=11,
                            ecs=True)

    def test_session_dns_time_equals_hop_sum(self, world):
        assert world.obs.tracer.traces, "scenario produced no traces"
        for root in world.obs.tracer.traces:
            dns = root.first("dns")
            assert dns is not None
            assert dns.attrs["dns_ms"] == pytest.approx(
                _hop_rtt_sum(root), abs=1e-9)

    def test_recursive_rtt_equals_its_hop_sum(self, world):
        for root in world.obs.tracer.traces:
            for recursive in root.find("recursive"):
                hops = recursive.find("hop")
                expected = sum(h.attrs["rtt_ms"] for h in hops) + sum(
                    h.attrs.get("penalty_ms", _TIMEOUT_PENALTY_MS)
                    for h in hops if h.attrs.get("timeout"))
                assert recursive.attrs["upstream_rtt_ms"] == (
                    pytest.approx(expected, abs=1e-9))

    def test_invariant_holds_across_timeouts(self):
        """Kill the LDNS's preferred CDN authority so the resolution
        path includes a timed-out hop plus a failover."""
        world = build_world(WorldConfig.tiny())
        provider = world.catalog.providers[0]
        resolver_id = sorted(world.ldns_registry)[0]
        ldns = world.ldns_registry[resolver_id]
        preferred = min(
            world.nameservers,
            key=lambda ns: world.network.rtt_ms(ldns.ip, ns.ip))
        preferred.fail()

        client_ip = world.internet.blocks[0].prefix.network | 9
        stub = StubResolver(client_ip, world.network)
        tracer = world.obs.tracer
        with tracer.trace("probe") as root:
            resolution = stub.resolve(provider.domain, ldns, now=0.0)
        assert resolution.ok
        hops = root.find("hop")
        assert any(h.attrs.get("timeout") for h in hops), (
            "expected a timed-out hop after killing the preferred "
            "authority")
        assert ldns.failovers >= 1
        assert resolution.dns_time_ms == pytest.approx(
            _hop_rtt_sum(root), abs=1e-9)


class TestTracingObservesOnly:
    LOOKUPS = 200
    WINDOW_SECONDS = 700.0
    """Long enough for the 300 s answers to expire along the way."""
    FIELDS = ("rcode", "dns_time_ms", "ldns_cache_hit", "upstream_queries",
              "failed_over", "stale", "ok", "addresses", "records")

    def _run(self, traced):
        """The same script against a freshly built world: lookups
        drawn from a few (block, LDNS, domain) combinations, so entries
        are hit, expire and are refetched; an authority outage (serve
        stale, else SERVFAIL); an LDNS blackout with a fallback."""
        world = build_world(dataclasses.replace(
            WorldConfig.tiny(), serve_stale_window=120.0))
        # Every lookup's trace is read below, not a sample of them.
        world.obs.tracer.sample_every = 1
        world.enable_ecs(world.public_ldns_ids())
        rng = random.Random(5)
        fallback = world.ldns_registry[sorted(world.ldns_registry)[0]]
        outcomes = []
        combinations = []
        for _ in range(16):
            block = world.internet.pick_block(rng)
            combinations.append((
                block, world.ldns_registry[block.pick_ldns(rng)],
                world.catalog.pick_provider(rng).domain))
        for index in range(self.LOOKUPS):
            block, ldns, domain = rng.choice(combinations)
            stub = StubResolver(block.prefix.network | rng.randint(1, 254),
                                world.network)
            now = self.WINDOW_SECONDS * index / self.LOOKUPS
            if index == 100:
                for server in world.nameservers:
                    server.fail()
            elif index == 130:
                for server in world.nameservers:
                    server.recover()
            dark = 150 <= index < 170 and ldns is not fallback
            if dark:
                ldns.fail()
            if traced:
                with world.obs.tracer.trace("lookup"):
                    got = stub.resolve(domain, ldns, now, fallback=fallback)
            else:
                got = stub.resolve(domain, ldns, now, fallback=fallback)
            if dark:
                ldns.recover()
            outcomes.append({name: getattr(got, name)
                             for name in self.FIELDS})
        return world, outcomes

    @pytest.fixture(scope="class")
    def runs(self):
        return self._run(traced=False), self._run(traced=True)

    def test_traced_equals_untraced(self, runs):
        (plain_world, plain), (traced_world, traced) = runs
        assert traced == plain
        # The script reached every branch the tracer could perturb.
        assert {one["ldns_cache_hit"] for one in plain} == {True, False}
        assert any(one["stale"] for one in plain)
        assert any(one["failed_over"] for one in plain)
        assert any(one["rcode"] != 0 for one in plain)
        for one, other in zip(
                sorted(plain_world.ldns_registry.items()),
                sorted(traced_world.ldns_registry.items())):
            assert (one[1].cache.stats.as_dict()
                    == other[1].cache.stats.as_dict()), one[0]
        gauges = [
            {name: value for name, value in
             world.obs.registry.snapshot()["gauges"].items()
             if name.startswith("ldns.")}
            for world in (plain_world, traced_world)]
        assert gauges[0] == gauges[1] and gauges[0]
        assert gauges[0]["ldns.client_queries"] > 0
        assert len(traced_world.obs.tracer.traces) == self.LOOKUPS
        assert not plain_world.obs.tracer.traces

    def test_hit_steps_are_traced_as_leaves(self, runs):
        world, _ = runs[1]
        steps = [step for root in world.obs.tracer.traces
                 for step in root.find("step")]
        hits = [step for step in steps if step.attrs["cache"] == "hit"]
        assert hits and len(hits) < len(steps)
        for step in hits:
            assert not step.children
            assert set(step.attrs) == {"qname", "cache", "scope"}
        assert {step.attrs["scope"] is None for step in hits} == {
            True, False}


class TestSampledRollout:
    """A world samples one session in ``SAMPLE_EVERY``; sampling every
    session instead changes nothing but the traces kept."""

    def _run(self, sample_every):
        from perfbench.checks import digest, rollout_document
        from perfbench.workloads import WORKLOADS

        spec = WORKLOADS["rollout_serial"].spec(99, True)
        world = build_world(spec.world)
        if sample_every is not None:
            world.obs.tracer.sample_every = sample_every
        result = run_rollout(world, spec.rollout)
        snapshot = world.obs.registry.snapshot()
        return (world.obs.tracer, world.obs.registry.to_json(),
                digest(rollout_document(result, snapshot)))

    def test_sampling_observes_only(self):
        sampled, registry, result_digest = self._run(None)
        every, every_registry, every_digest = self._run(1)
        assert (registry, result_digest) == (every_registry, every_digest)
        assert sampled.sample_every == SAMPLE_EVERY == 64
        assert sampled.started == every.started == every.sampled > 256
        assert len(sampled.traces) == sampled.sampled == math.ceil(
            sampled.started / SAMPLE_EVERY)
        assert len(every.traces) == every.max_traces
        # A sampled trace is whole: its session carries every layer.
        names = {span.name for root in sampled.traces
                 for span in root.walk()}
        assert {"session", "dns", "recursive", "hop", "authoritative",
                "mapping.decision", "lb.pick"} <= names


class TestEcsShareBounds:
    def test_zero_resolutions_edge(self):
        world = build_world(WorldConfig.tiny())
        report = build_status_report(world)
        assert report.mapping_resolutions == 0
        assert report.mapping_ecs_share == 0.0
        assert report.decision_cache_hit_rate == 0.0
        assert report.ldns_cache_hit_rate == 0.0

    def test_share_in_unit_interval_after_mixed_traffic(self):
        world = run_scenario(scale="tiny", sessions=6, seed=11,
                             ecs=True)
        report = build_status_report(world)
        assert report.mapping_resolutions > 0
        assert 0.0 <= report.mapping_ecs_share <= 1.0
        assert 0.0 <= report.decision_cache_hit_rate <= 1.0
        assert 0.0 <= report.ldns_cache_hit_rate <= 1.0
