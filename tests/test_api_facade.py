"""The ``repro.api`` scenario facade and the unified CLI.

Pins the API-redesign contracts:

* :class:`repro.api.ScenarioSpec` + :func:`repro.api.run` compose
  world, roll-out, faults, and monitoring into one entrypoint, and
  produce results identical to driving ``build_world`` +
  ``run_rollout`` by hand (byte-for-byte at the monitor-report level);
* ``python -m repro <subcommand>`` is the one front door: five
  subcommands, every experiment behind ``experiment run <id>``, and
  sharded execution only through ``run(spec, workers=N)``.
"""

import datetime
import inspect
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro.__main__ as repro_main
from repro.api import ScenarioSpec, build_world, run, run_rollout
from repro.core.mapmaker import MapMakerConfig
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.faults.chaos import SoakConfig, _scenario_spec
from repro.obs.monitor import RolloutMonitor
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig
from repro.topology.resolvers import EcsPolicy, ResolverPolicySet

REPO_ROOT = Path(__file__).resolve().parent.parent

SHORT = RolloutConfig(
    start_date=datetime.date(2014, 3, 1),
    end_date=datetime.date(2014, 3, 21),
    rollout_start=datetime.date(2014, 3, 8),
    rollout_end=datetime.date(2014, 3, 15),
    sessions_per_day=20,
    seed=11,
)


class TestDeprecatedShims:
    """The shims are gone; what they pinned that is still a behaviour
    -- facade == hand-driven -- stays, spelled canonically."""

    def test_legacy_and_api_paths_byte_identical(self):
        world = build_world(WorldConfig.tiny())
        monitor = RolloutMonitor.for_config(SHORT)
        by_hand = run_rollout(world, SHORT, observer=monitor)
        by_hand_report = monitor.report({"path": "by hand"})

        outcome = run(ScenarioSpec(world=WorldConfig.tiny(),
                                   rollout=SHORT))
        api_report = outcome.report({"path": "by hand"})

        assert len(by_hand.rum) == len(outcome.result.rum)
        assert (json.dumps(by_hand_report, sort_keys=True)
                == json.dumps(api_report, sort_keys=True))


_FAULT = {"start_day": 1, "duration_days": 2, "target": "ns:0",
          "kind": "auth_outage"}
_SHAPE = {"start_day": 1, "duration_days": 2, "target": "continent:NA",
          "kind": "flash_crowd", "magnitude": 2.0}
_PROVIDER = {"name": "X", "asn": 1, "deployment_cities": ["London"],
             "popularity": 1.0}


class TestScenarioSpec:
    def test_describe_is_deterministic_and_minimal(self):
        spec = ScenarioSpec(world=WorldConfig.tiny(), rollout=SHORT)
        assert spec.describe() == {
            "seed": 11,
            "world_seed": WorldConfig.tiny().seed,
            "sessions_per_day": 20,
        }
        assert spec.describe() == spec.describe()

    def test_describe_counts_faults(self):
        faults = FaultSchedule((FaultEvent(
            start_day=1, duration_days=2, target="ns:0",
            kind=FaultKind.AUTH_OUTAGE),))
        spec = ScenarioSpec(world=WorldConfig.tiny(), rollout=SHORT,
                            faults=faults)
        assert spec.describe()["faults"] == 1

    def test_run_without_monitor(self):
        outcome = run(ScenarioSpec(world=WorldConfig.tiny(),
                                   rollout=SHORT, monitor=False))
        assert outcome.monitor is None and outcome.injector is None
        assert len(outcome.result.rum) > 0
        with pytest.raises(ValueError):
            outcome.report()

    @pytest.mark.parametrize("doc", [
        {"bogus": 1},
        {"profile": {}},
        {"schema": "scenario/v0"},
        {"schema_version": 2},
        {"rollout": {"bogus": 1}},
        {"control_plane": {"bogus": 1}},
        {"control_plane": 3},
        {"world": 3},
    ], ids=["unknown-field", "removed-profile-field", "wrong-schema",
            "wrong-version", "unknown-rollout-field",
            "unknown-control-plane-field", "control-plane-not-object",
            "world-not-object"])
    def test_from_dict_rejects_malformed_documents(self, doc):
        with pytest.raises(ValueError):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("doc,field", [
        ({"control_plane": {"top_clusters": "8"}},
         "control_plane.top_clusters"),
        ({"world": {"n_deployments": "5"}}, "world.n_deployments"),
        ({"world": {"internet": {"pareto_alpha": True}}},
         "world.internet.pareto_alpha"),
        ({"load_feedback": {"load_penalty_ms": None}}, "load_penalty_ms"),
        ({"rollout": {"start_date": 5}}, "rollout.start_date"),
        ({"rollout": {"end_date": "March"}}, "rollout.end_date"),
        ({"faults": {"a": 1}}, "faults"),
        ({"world": {"internet": {"providers": [{"name": "X"}]}}},
         "world.internet.providers"),
        ({"faults": [{"start_day": 1, "target": "ns:0",
                      "kind": "auth_outage"}]}, "duration_days"),
        ({"traffic": [{"start_day": 1, "target": "continent:NA",
                       "kind": "flash_crowd", "magnitude": 2.0}]},
         "duration_days"),
        ({"traffic": [3]}, "traffic"),
        ({"resolver_policies": {"GloboDNS": {"whitelist_enabled": "no"}}},
         "whitelist_enabled"),
        ({"monitor": "no"}, "monitor"),
        ({"faults": [dict(_FAULT, start_day=2.7)]}, "faults[0].start_day"),
        ({"faults": [dict(_FAULT, duration_days="3")]},
         "faults[0].duration_days"),
        ({"faults": [dict(_FAULT, param={"loss_rate": 0.5})]},
         "faults[0]: ['param']"),
        ({"traffic": [dict(_SHAPE, start_day=1.9)]}, "traffic[0].start_day"),
        ({"traffic": [dict(_SHAPE, magnitude="3")]}, "traffic[0].magnitude"),
        ({"world": {"internet": {"providers": [
            dict(_PROVIDER, deployment_cities="London")]}}},
         "world.internet.providers[0].deployment_cities"),
        ({"world": {"internet": {"providers": [
            dict(_PROVIDER, asn="15169")]}}},
         "world.internet.providers[0].asn"),
    ], ids=["string-int", "string-world-int", "bool-float", "null-float",
            "int-date", "bad-date", "faults-object", "provider-fields",
            "fault-without-duration", "shape-without-duration",
            "shape-not-object", "string-bool-policy", "string-monitor",
            "float-fault-day", "string-fault-duration", "typo-fault-key",
            "float-shape-day", "string-magnitude", "string-cities",
            "string-asn"])
    def test_from_dict_names_the_bad_field(self, doc, field):
        """Wrong JSON types and missing fields are ``ValueError``s that
        name the field -- never a ``TypeError``/``KeyError`` crash, and
        never a truthy string silently read as ``True``."""
        with pytest.raises(ValueError, match=re.escape(field)):
            ScenarioSpec.from_dict(doc)

    @pytest.mark.parametrize("index", range(45))
    def test_soak_specs_round_trip(self, index):
        spec = _scenario_spec(SoakConfig(seed=2025), index)
        text = spec.to_json()
        assert ScenarioSpec.from_json(text) == spec
        assert ScenarioSpec.from_json(text).to_json() == text

    def test_rich_spec_round_trips(self):
        # The planes the soak's generated specs leave at defaults.
        spec = ScenarioSpec(
            world=WorldConfig.tiny(), rollout=SHORT,
            control_plane=MapMakerConfig(publish_interval_days=2,
                                         top_clusters=5),
            unit_scheme="routing_aware:40",
            resolver_policies=ResolverPolicySet((
                ("GloboDNS", EcsPolicy(whitelist_enabled=False)),
                ("OpenFast", EcsPolicy(scope_ceiling=20)))))
        text = spec.to_json()
        assert ScenarioSpec.from_json(text) == spec
        assert ScenarioSpec.from_json(text).to_json() == text
        doc = json.loads(text)
        assert doc["unit_scheme"] == "routing_aware:40"
        assert doc["resolver_policies"]["GloboDNS"] == {
            "whitelist_enabled": False, "scope_ceiling": 32}

    def test_providers_encode_without_runtime_state(self):
        doc = ScenarioSpec(world=WorldConfig.tiny()).to_dict()
        for provider in doc["world"]["internet"]["providers"]:
            assert set(provider) == {"name", "asn", "deployment_cities",
                                     "popularity", "misroute_rate"}

    def test_control_plane_fault_kinds_need_a_control_plane(self):
        faults = FaultSchedule((FaultEvent(
            start_day=3, duration_days=1, target="mapmaker:primary",
            kind=FaultKind.MAPMAKER_CRASH),))
        with pytest.raises(ValueError, match="mapmaker_crash"):
            ScenarioSpec(world=WorldConfig.tiny(), faults=faults)


class TestBenchmarkSurface:
    def test_every_traced_layer_target_resolves(self):
        # perfbench wraps these entry points from outside; one that
        # moved would silently fold into its caller's row.
        import importlib

        from perfbench.trace import LAYERS

        missing = []
        for targets in LAYERS.values():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                try:
                    owner = importlib.import_module(module_name)
                    for part in qualname.split("."):
                        owner = getattr(owner, part)
                except (ImportError, AttributeError):
                    missing.append(target)
        assert missing == []


class TestUnifiedCli:
    def test_no_args_prints_usage_and_fails(self, capsys):
        assert repro_main.main([]) == 2
        out = capsys.readouterr().out
        assert "usage: python -m repro" in out
        for name in ("sim", "experiment", "dump", "monitor", "soak"):
            assert name in out

    def test_help_is_success(self, capsys):
        assert repro_main.main(["--help"]) == 0
        assert "subcommands" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert repro_main.main(["bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_dispatches_dump(self, tmp_path, capsys):
        out = tmp_path / "dump.json"
        rc = repro_main.main(["dump", "--sessions", "2", "--traces",
                              "0", "--out", str(out)])
        capsys.readouterr()
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["scenario"]["sessions"] == 2

    def test_dispatches_experiment_list(self, capsys):
        rc = repro_main.main(["experiment", "list"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "degradation" in out and "fig12" in out


def _spawn(module_args, timeout=180):
    return subprocess.run(
        [sys.executable, "-m", *module_args],
        capture_output=True, text=True, timeout=timeout,
        cwd=REPO_ROOT, env={"PYTHONPATH": "src", "PATH": "/usr/bin"})


class TestLegacyEntrypoints:
    def test_bare_module_prints_usage(self):
        proc = _spawn(["repro"])
        assert proc.returncode == 2
        assert "usage: python -m repro" in proc.stdout


class TestFrontDoor:
    """A scenario is run one way and an experiment is run one way;
    these pin the surface so a second spelling cannot re-grow."""

    def test_five_subcommands(self):
        assert set(repro_main._SUBCOMMANDS) == {
            "sim", "experiment", "dump", "monitor", "soak"}

    def test_run_rollout_is_serial_only(self):
        parameters = inspect.signature(run_rollout).parameters
        assert "workers" not in parameters
        assert "shards" not in parameters

    def test_every_experiment_runs_from_its_scale_alone(self):
        from repro.experiments import all_experiments

        for module in all_experiments():
            assert list(inspect.signature(module.run).parameters) == [
                "scale"], module.EXPERIMENT_ID

    @pytest.mark.parametrize("name", [
        "degradation", "load_tradeoff", "resolver_matrix",
        "unit_scaling"])
    def test_experiment_id_is_not_a_subcommand(self, name, capsys):
        assert repro_main.main([name, "--scale", "tiny"]) == 2
        assert f"unknown subcommand {name!r}" in capsys.readouterr().err

    def test_experiment_run_writes_the_json_payload(self, tmp_path,
                                                    capsys):
        out = tmp_path / "result.json"
        rc = repro_main.main(["experiment", "run", "load_tradeoff",
                              "--scale", "tiny", "--format", "json",
                              "--out", str(out)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        payload = json.loads(out.read_text())
        assert set(payload) == {"experiment_id", "scale", "rows",
                                "summary", "checks", "passed"}
        assert payload["experiment_id"] == "load_tradeoff"
        assert payload["passed"] is True
