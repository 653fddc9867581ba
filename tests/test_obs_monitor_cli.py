"""End-to-end tests for the monitored roll-out and its CLIs.

Runs the seeded tiny roll-out once under a
:class:`~repro.obs.monitor.RolloutMonitor` and pins:

* the Figure 13 event -- a ``mapping_distance_drop`` alert fires for
  the high-expectation cohort *during* the roll-out window, with the
  distance effect vs the before window several-fold;
* determinism -- two identical CLI invocations emit byte-identical
  reports;
* the discrete golden projection (series names, alert transitions,
  window layout) against a checked-in fixture, regenerated with::

      REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest \
          tests/test_obs_monitor_cli.py

Also covers the obs.dump satellites: the text-mode scenario/trace
header and the Prometheus exposition format.
"""

import json
import math

import pytest

from repro.obs.monitor import cli as monitor_cli
from repro.obs import dump as obs_dump

from tests.golden import DATA_DIR, check_golden

GOLDEN_PATH = DATA_DIR / "golden_monitor.json"

SCENARIO = {"scale": "tiny", "seed": 7}


@pytest.fixture(scope="module")
def monitored():
    world, monitor, result = monitor_cli.run_monitored_rollout(**SCENARIO)
    scenario = dict(SCENARIO,
                    sessions_per_day=result.config.sessions_per_day)
    return monitor, result, monitor.report(scenario)


class TestRolloutMonitoring:
    def test_observer_sees_every_day(self, monitored):
        monitor, result, report = monitored
        assert monitor.days_observed == result.config.n_days
        assert report["days_observed"] == result.config.n_days

    def test_windows_partition_the_timeline(self, monitored):
        _, result, report = monitored
        windows = report["windows"]
        assert windows["before"][0] == 0
        assert windows["before"][1] == windows["during"][0]
        assert windows["during"][1] == windows["after"][0]
        assert windows["after"][1] == result.config.n_days

    def test_mapping_distance_drop_fires_during_rollout(self, monitored):
        """The acceptance event: the high-expectation cohort's mapping
        distance collapses vs its pre-roll-out baseline and the alert
        fires inside the roll-out window."""
        _, _, report = monitored
        lo, hi = report["windows"]["during"]
        fired = [event for event in report["alerts"]["log"]
                 if event["rule"] == "mapping_distance_drop"
                 and event["kind"] == "fired"]
        assert fired, "mapping_distance_drop never fired"
        assert any(lo <= event["step"] < hi for event in fired)
        # The event does not flap back: still firing at end of run.
        assert "mapping_distance_drop" in report["alerts"]["firing"]

    def test_fig13_effect_magnitude(self, monitored):
        """The after-vs-before mapping-distance ratio for the high
        group lands in the several-fold range the paper reports."""
        _, _, report = monitored
        effect = (report["cohorts"]["effects_vs_before"]["after"]
                  ["high_expectation"]["mapping_distance_miles"])
        assert effect["ratio"] > 4.0
        assert effect["baseline_mean"] > effect["treatment_mean"]
        assert effect["cohens_d"] > 1.0

    def test_guard_rules_stay_silent(self, monitored):
        """A healthy roll-out must not trip the regression guards."""
        _, _, report = monitored
        guard_rules = {"ttfb_regression", "sessions_flatline",
                       "edge_cache_hit_rate_low"}
        tripped = {event["rule"] for event in report["alerts"]["log"]}
        assert not (tripped & guard_rules)

    def test_series_cover_registry_and_cohorts(self, monitored):
        _, _, report = monitored
        names = set(report["series"])
        assert "rollout.sessions" in names
        assert "dns.qps_public" in names
        assert "cohort.high_expectation.mapping_distance_miles" in names
        assert ("cohort.high_expectation.mapping_distance_miles:ewma"
                in names)
        assert "rollout.sessions:delta" in report["derived"]

    def test_report_is_json_clean(self, monitored):
        _, _, report = monitored
        text = json.dumps(report, sort_keys=True)
        assert "NaN" not in text and "Infinity" not in text
        assert json.loads(text) == report

    def test_render_text_summary(self, monitored):
        _, _, report = monitored
        text = monitor_cli.render_text(report)
        assert "rollout monitor" in text
        assert "mapping_distance_drop" in text
        assert "still firing: mapping_distance_drop" in text


def _golden_projection(report: dict) -> dict:
    """Discrete, platform-stable projection of one monitor report."""
    effects = report["cohorts"]["effects_vs_before"]["after"]

    def ratio_floor(cohort, metric):
        ratio = effects[cohort][metric]["ratio"]
        return None if ratio is None else int(math.floor(ratio))

    return {
        "schema": report["schema"],
        "scenario": report["scenario"],
        "days_observed": report["days_observed"],
        "windows": report["windows"],
        "series_points": {name: len(doc["steps"])
                          for name, doc in report["series"].items()},
        "derived": sorted(report["derived"]),
        "alerts": [[event["step"], event["rule"], event["kind"],
                    event["severity"]]
                   for event in report["alerts"]["log"]],
        "firing": report["alerts"]["firing"],
        "cohorts": {cohort: sorted(metrics) for cohort, metrics
                    in report["cohorts"]["daily_mean"].items()},
        "effect_ratio_floors": {
            cohort: {metric: ratio_floor(cohort, metric)
                     for metric in sorted(effects[cohort])}
            for cohort in sorted(effects)
        },
    }


class TestGoldenReport:
    def test_projection_matches_fixture(self, monitored):
        _, _, report = monitored
        check_golden(GOLDEN_PATH, _golden_projection(report))


class TestMonitorCliDeterminism:
    def test_two_runs_byte_identical(self, tmp_path, capsys):
        """The acceptance property: same arguments, same bytes."""
        args = ["--seed", "7", "--sessions-per-day", "40",
                "--format", "json"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert monitor_cli.main(args + ["--out", str(first)]) == 0
        assert monitor_cli.main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        assert report["schema"] == "monitor/v1"
        assert report["scenario"]["sessions_per_day"] == 40

    def test_text_format_smoke(self, capsys):
        assert monitor_cli.main(
            ["--seed", "7", "--sessions-per-day", "40",
             "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "rollout monitor" in out
        assert "alerts" in out

    def test_bad_sessions_per_day_rejected(self):
        with pytest.raises(SystemExit):
            monitor_cli.main(["--sessions-per-day", "0"])


class TestDumpCliSatellites:
    def test_text_header_shows_scenario_and_trace_counts(self, capsys):
        assert obs_dump.main(["--sessions", "5", "--format", "text"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0].startswith("scenario   scale=tiny sessions=5 "
                                   "seed=7 ecs=True")
        assert lines[1].startswith("traces     retained=5 sampled=5 "
                                   "dropped=0")

    def test_prom_format_exposition(self, capsys):
        assert obs_dump.main(["--sessions", "5", "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE sessions_completed_total counter" in out
        assert "# HELP" in out
        assert 'quantile="0.5"' in out
        # No un-translated metric names leak through.
        for line in out.splitlines():
            if not line.startswith("#"):
                assert "." not in line.split(" ")[0].split("{")[0]
