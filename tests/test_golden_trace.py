"""Golden-trace regression suite.

Runs one tiny deterministic end-to-end scenario (fixed world seed,
fixed session seed, ECS on) and pins the *discrete* projection of its
trace trees -- span names and nesting, cache hit/miss outcomes, ECS
scopes, chosen clusters -- against a checked-in JSON fixture.  Floats
(RTTs, milestone timings) are excluded from the fixture so it is
insensitive to platform libm noise; full-precision determinism is
covered separately by the byte-identical replay test below.

To regenerate the fixture after an intentional behaviour change::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_trace.py

and review the fixture diff like any other code change.
"""

import pytest

from repro.core.reporting import build_status_report
from repro.obs.dump import build_payload, run_scenario

from tests.golden import DATA_DIR, check_golden, render

GOLDEN_PATH = DATA_DIR / "golden_trace.json"

SCENARIO = {"scale": "tiny", "sessions": 10, "seed": 11, "ecs": True,
            "sample_every": 1}
"""Seed 11 is chosen so the sampled sessions cover both the plain and
the ECS resolution paths (two sessions route via an ECS-enabled public
resolver and carry a client-subnet option end to end)."""


@pytest.fixture(scope="module")
def world():
    return run_scenario(**SCENARIO)


def _discrete(span: dict) -> dict:
    """Projection keeping only platform-stable fields of a span tree."""
    return {
        "name": span["name"],
        "attrs": {key: value for key, value in span["attrs"].items()
                  if not isinstance(value, float)},
        "children": [_discrete(child) for child in span["children"]],
    }


def _golden_document(world) -> dict:
    traces = [_discrete(trace) for trace in world.obs.tracer.export()]
    snapshot = world.obs.registry.snapshot()
    return {
        "scenario": SCENARIO,
        "traces": traces,
        # Discrete end-state counters double-check the traces summarize
        # the same run the registry saw.
        "counters": {
            "sessions.completed": snapshot["counters"][
                "sessions.completed"],
            "mapping.resolutions": snapshot["gauges"][
                "mapping.resolutions"],
            "mapping.ecs_resolutions": snapshot["gauges"][
                "mapping.ecs_resolutions"],
            "ldns.cache.lookups": snapshot["gauges"][
                "ldns.cache.lookups"],
        },
    }


class TestGoldenTrace:
    def test_trace_projection_matches_fixture(self, world):
        document = _golden_document(world)
        check_golden(GOLDEN_PATH, document)

    def test_every_session_trace_is_complete(self, world):
        traces = world.obs.tracer.export()
        assert len(traces) == SCENARIO["sessions"]
        for trace in traces:
            assert trace["name"] == "session"
            flat = _names(trace)
            # The canonical resolution path appears in every trace.
            assert "dns" in flat
            assert "stub.hop" in flat
            assert "mapping.decision" in flat or _cache_hit(trace)
            assert trace["attrs"]["cluster"].startswith("cl-")

    def test_replay_is_byte_identical(self):
        first = run_scenario(**SCENARIO)
        second = run_scenario(**SCENARIO)
        assert (first.obs.tracer.to_json()
                == second.obs.tracer.to_json())
        assert (first.obs.registry.to_json()
                == second.obs.registry.to_json())
        payload_a = render(build_payload(first, SCENARIO, n_traces=-1))
        payload_b = render(build_payload(second, SCENARIO, n_traces=-1))
        assert payload_a == payload_b

    def test_report_matches_component_internals(self, world):
        """Pins the reporting refactor: registry-backed report equals
        the values computed straight from component internals (the
        pre-refactor formulas)."""
        report = build_status_report(world)
        stats = world.mapping.stats
        assert report.mapping_resolutions == stats.resolutions
        assert report.mapping_ecs_share == (
            stats.ecs_resolutions / stats.resolutions)
        global_lb = world.mapping.global_lb
        assert report.decision_cache_hit_rate == (
            global_lb.ranking_hits / global_lb.decisions)
        assert report.lb_decisions == global_lb.decisions == (
            global_lb.ranking_hits + global_lb.ranking_misses)
        assert report.lb_spillovers == global_lb.spillovers
        ldns_hits = sum(ldns.cache.stats.hits
                        for ldns in world.ldns_registry.values())
        ldns_lookups = sum(ldns.cache.stats.lookups
                           for ldns in world.ldns_registry.values())
        assert report.ldns_cache_hit_rate == ldns_hits / ldns_lookups
        assert report.authoritative_queries == sum(
            ns.queries_received for ns in world.nameservers)
        assert report.authoritative_truncations == sum(
            ns.truncated_count for ns in world.nameservers)
        clusters = world.deployments.clusters.values()
        assert report.clusters_total == len(clusters)
        assert report.clusters_alive == sum(
            1 for c in clusters if c.alive)


def _names(trace: dict) -> set:
    names = {trace["name"]}
    for child in trace["children"]:
        names |= _names(child)
    return names


def _cache_hit(trace: dict) -> bool:
    for child in trace["children"]:
        if child["name"] == "dns" and child["attrs"].get("cache_hit"):
            return True
    return False
