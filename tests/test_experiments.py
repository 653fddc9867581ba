"""Tests for the experiment harness, registry and CLI, plus the
paper-figure gate: every registered experiment runs at tiny scale and
must pass its shape checks (the roll-out and DNS-load families share
the runs memoized in ``repro.experiments.shared``).
"""

import pytest

from repro.experiments import (
    all_experiments,
    get_experiment,
    get_scale,
    render_result,
)
from repro.experiments.base import Check, ExperimentResult, render_table
from repro.experiments.cli import main as cli_main
from repro.experiments.registry import experiment_ids
from repro.experiments.scales import scale_names
from repro.experiments import shared

ALL_FIGURES = [
    "fig02", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
    "fig18", "fig19", "fig20", "fig21", "fig22", "fig23", "fig24",
    "fig25", "ext-adoption", "degradation", "load_tradeoff",
    "unit_scaling", "resolver_matrix",
]


class TestRegistry:
    def test_all_figures_registered(self):
        assert experiment_ids() == ALL_FIGURES

    def test_get_experiment(self):
        module = get_experiment("fig05")
        assert module.EXPERIMENT_ID == "fig05"
        assert module.TITLE and module.PAPER_CLAIM

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("fig99")

    def test_modules_expose_contract(self):
        for module in all_experiments():
            assert hasattr(module, "run")
            assert isinstance(module.EXPERIMENT_ID, str)
            assert isinstance(module.PAPER_CLAIM, str)


class TestScales:
    def test_known_scales(self):
        assert scale_names() == ["paper", "small", "tiny"]

    def test_scales_ordered_by_size(self):
        tiny = get_scale("tiny")
        small = get_scale("small")
        paper = get_scale("paper")
        assert (tiny.world.internet.n_client_blocks
                < small.world.internet.n_client_blocks
                < paper.world.internet.n_client_blocks)
        assert tiny.fig25.universe_size < paper.fig25.universe_size

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            get_scale("galactic")


class TestResultAndRendering:
    def make_result(self):
        result = ExperimentResult(
            experiment_id="figXX", title="Test", scale="tiny",
            paper_claim="claim",
            rows=[{"a": 1, "b": 2.5}, {"a": 2, "b": 12345.6}])
        result.check("always", True, "fine")
        return result

    def test_passed_aggregation(self):
        result = self.make_result()
        assert result.passed
        result.check("broken", False, "nope")
        assert not result.passed

    def test_render_contains_everything(self):
        result = self.make_result()
        result.summary["key"] = 3.14
        text = render_result(result)
        assert "figXX" in text and "claim" in text
        assert "[PASS] always" in text
        assert "key" in text
        assert "overall: PASS" in text

    def test_render_table_truncates(self):
        rows = [{"x": i} for i in range(200)]
        text = render_table(rows, max_rows=10)
        assert "..." in text
        assert text.count("\n") < 20

    def test_render_empty(self):
        assert render_table([]) == "(no rows)"

    def test_check_str(self):
        assert "FAIL" in str(Check("n", False, "d"))


class TestSharedCaches:
    def test_internet_memoized(self):
        shared.clear_caches()
        a = shared.get_internet("tiny")
        b = shared.get_internet("tiny")
        assert a is b

    def test_clear_caches(self):
        a = shared.get_internet("tiny")
        shared.clear_caches()
        b = shared.get_internet("tiny")
        assert a is not b

    def test_deterministic_rng_stable(self):
        r1 = shared.deterministic_rng("t", "tiny").random()
        r2 = shared.deterministic_rng("t", "tiny").random()
        assert r1 == r2
        r3 = shared.deterministic_rng("other", "tiny").random()
        assert r1 != r3


@pytest.mark.parametrize("experiment_id", experiment_ids())
def test_experiment_passes_at_tiny(experiment_id, tiny_result):
    """Every registered experiment runs and passes its shape checks."""
    result = tiny_result(experiment_id)
    assert result.experiment_id == experiment_id
    assert result.scale == "tiny"
    assert result.rows, "experiment produced no rows"
    failed = [str(c) for c in result.checks if not c.passed]
    assert result.passed, "\n".join(failed)


def test_load_tradeoff_experiment_passes_at_tiny(tiny_result):
    """The load-feedback trade: a flash crowd with feedback on must
    relieve overload (fewer all-candidates-over-ceiling picks, a
    flatter peak p95 utilization) at a bounded distance cost, and the
    load-aware run must shard deterministically (workers=1 == 4)."""
    result = tiny_result("load_tradeoff")
    failed = [str(c) for c in result.checks if not c.passed]
    assert result.passed, "\n".join(failed)
    by_arm = {row["arm"]: row for row in result.rows}
    assert (by_arm["load_aware"]["overloaded_picks"]
            < by_arm["distance_only"]["overloaded_picks"])
    assert by_arm["load_aware"]["demoted_share"] > 0.0
    assert 1.0 <= result.summary["distance_ratio"] <= 2.25


def test_unit_scaling_experiment_passes_at_tiny(tiny_result):
    """The Section 5 axes over the pluggable unit API: routing-aware
    clustering must reach near-geo_as ECS-cohort accuracy from an
    ldns-scale unit budget, beat ldns at the matched count, and shard
    deterministically (workers=1 == 4)."""
    result = tiny_result("unit_scaling")
    failed = [str(c) for c in result.checks if not c.passed]
    assert result.passed, "\n".join(failed)
    by_scheme = {row["scheme"]: row for row in result.rows}
    matched = result.summary["matched_units"]
    routing = by_scheme[f"routing_aware:{matched}"]
    assert routing["units"] < by_scheme["geo_as"]["units"]
    assert routing["dist_ecs_mean"] < by_scheme["ldns"]["dist_ecs_mean"]
    assert result.summary["unit_reduction"] > 2.0
    assert result.summary["accuracy_ratio"] <= 1.25


class TestMarkdownRendering:
    def test_render_markdown(self):
        from repro.experiments.cli import render_markdown
        result = ExperimentResult(
            experiment_id="figXX", title="T", scale="tiny",
            paper_claim="the claim")
        result.summary = {"metric": 3.14159, "count": 7}
        result.check("good", True, "detail-a")
        result.check("bad", False, "detail-b")
        text = render_markdown([result], "tiny")
        assert "### figXX — T" in text
        assert "*Paper:* the claim" in text
        assert "| metric | 3.14 |" in text
        assert "- [x] good: detail-a" in text
        assert "- [ ] bad: detail-b" in text
        assert "0/1 experiments pass" in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "fig25" in out

    def test_run_single(self, capsys):
        assert cli_main(["run", "fig05", "--scale", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "fig05" in out and "overall: PASS" in out

    def test_run_unknown_experiment(self):
        with pytest.raises(SystemExit) as exit_:
            cli_main(["run", "fig99", "--scale", "tiny"])
        assert exit_.value.code == 2

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["run", "fig05", "--scale", "galactic"])
