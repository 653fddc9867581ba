"""Edge-case coverage for ``repro.obs.collect`` and ``repro.obs.dump``.

The happy paths ride every golden-trace test; these pin the corners:
an empty registry renders empty (not crashing) output, non-finite
cluster utilization cannot poison the fleet-mean gauge into NaN,
and dumps with tracing effectively off still emit well-formed
payloads.
"""

import math

import pytest

from repro.obs.collect import register_world_collectors
from repro.obs.dump import build_payload, main, run_scenario
from repro.obs.metrics import MetricsRegistry


class TestEmptyRegistry:
    def test_snapshot_is_empty_sections(self):
        snap = MetricsRegistry().snapshot()
        assert snap == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_renders_are_empty_lists(self):
        registry = MetricsRegistry()
        assert registry.render_lines() == []
        assert registry.render_prom() == []


class TestNaNGuardedMeanUtilization:
    @staticmethod
    def _poison(cluster, value):
        # ``utilization`` is derived (load/capacity); poison the load.
        cluster.servers[0].load_rps = value

    def _gauges(self, world):
        registry = MetricsRegistry()
        register_world_collectors(registry, world)
        return registry.snapshot()["gauges"]

    def test_nan_utilization_does_not_poison_the_mean(self):
        world = run_scenario(sessions=1)
        clusters = list(world.deployments.clusters.values())
        assert len(clusters) >= 2
        self._poison(clusters[0], float("nan"))
        self._poison(clusters[1], float("inf"))
        mean = self._gauges(world)["clusters.mean_utilization"]
        assert math.isfinite(mean)
        assert mean >= 0.0

    def test_all_non_finite_falls_back_to_zero(self):
        world = run_scenario(sessions=1)
        for cluster in world.deployments.clusters.values():
            self._poison(cluster, float("nan"))
        gauges = self._gauges(world)
        assert gauges["clusters.mean_utilization"] == 0.0

    def test_finite_mean_unchanged_by_guard(self):
        world = run_scenario(sessions=3)
        clusters = [c for c in world.deployments.clusters.values()
                    if c.alive]
        expected = sum(c.utilization for c in clusters) / len(clusters)
        registry = MetricsRegistry()
        register_world_collectors(registry, world)
        gauges = registry.snapshot()["gauges"]
        assert gauges["clusters.mean_utilization"] == pytest.approx(
            expected)


class TestTracelessDump:
    def test_disabled_tracer_still_yields_full_payload(self):
        import random

        from repro.api import build_world
        from repro.experiments.scales import get_scale
        from repro.simulation.session import simulate_session

        world = build_world(get_scale("tiny").world)
        world.obs.tracer.enabled = False
        rng = random.Random(7)
        for index in range(3):
            block = world.internet.pick_block(rng)
            simulate_session(world, block, now=index * 2.0, rng=rng)
        payload = build_payload(world, {"scale": "tiny"}, n_traces=3)
        assert payload["traces"] == []
        assert payload["metrics"]["counters"]

    def test_zero_trace_budget_empties_the_section(self):
        world = run_scenario(sessions=2)
        payload = build_payload(world, {}, n_traces=0)
        assert payload["traces"] == []

    def test_negative_n_traces_keeps_all(self):
        world = run_scenario(sessions=4)
        payload = build_payload(world, {}, n_traces=-1)
        assert len(payload["traces"]) == len(world.obs.tracer.traces)

    def test_text_format_under_sampling_starvation(self, capsys):
        # A huge sampling stride keeps only the first session's trace;
        # the header must still render the counts coherently.
        assert main(["--sessions", "3", "--sample-every", "999999",
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "traces     retained=1 sampled=1" in out

    def test_run_scenario_rejects_non_positive_stride(self):
        with pytest.raises(ValueError, match="sample_every"):
            run_scenario(sessions=1, sample_every=0)
