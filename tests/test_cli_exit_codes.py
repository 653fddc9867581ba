"""The ``python -m repro`` exit-code contract.

Every subcommand follows one convention (documented in
``repro.__main__``): 0 for success, 1 for a failed gate, 2 for usage
errors.  CI and shell scripts branch on these numbers, so the contract
is pinned here for the dispatcher itself and for each subcommand's
cheap paths (``--help`` and flag errors run no simulation; the
expensive success/failure paths are covered per-subsystem --
``tests/test_chaos_soak.py`` pins soak's 0-and-1,
``tests/test_experiments.py`` the experiment runner's).
"""

import contextlib
import io

import pytest

from repro.__main__ import _SUBCOMMANDS, main


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # argparse raises on --help / errors
            code = int(exit_.code or 0)
    return code, out.getvalue(), err.getvalue()


class TestDispatcher:
    def test_bare_invocation_is_a_usage_error(self):
        code, out, _ = _run([])
        assert code == 2
        assert "usage:" in out

    def test_help_exits_zero_and_lists_everything(self):
        code, out, _ = _run(["--help"])
        assert code == 0
        for name in _SUBCOMMANDS:
            assert name in out

    def test_unknown_subcommand_exits_two(self):
        code, _, err = _run(["frobnicate"])
        assert code == 2
        assert "unknown subcommand" in err

    def test_soak_is_registered(self):
        assert _SUBCOMMANDS["soak"][0] == "repro.faults.chaos"


class TestSubcommandConventions:
    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_help_exits_zero(self, name):
        code, out, _ = _run([name, "--help"])
        assert code == 0, f"{name} --help exited {code}"
        assert out, f"{name} --help printed nothing"

    @pytest.mark.parametrize("name", sorted(_SUBCOMMANDS))
    def test_bad_flag_exits_two(self, name):
        code, _, _ = _run([name, "--no-such-flag"])
        assert code == 2, f"{name} bad flag exited {code}"


class TestExperimentValidation:
    def test_unknown_experiment_exits_two(self):
        code, _, err = _run(["experiment", "run", "no_such_figure"])
        assert code == 2
        assert "invalid choice: 'no_such_figure'" in err


class TestWorkersValidation:
    """``--workers`` / ``--shards`` follow the usage-error contract:
    anything but a strictly positive integer exits 2 before any
    simulation starts (these are pure argparse paths)."""

    @pytest.mark.parametrize("value", ["0", "-3", "1.5", "abc", ""])
    def test_sim_rollout_rejects_bad_workers(self, value):
        code, _, err = _run(["sim", "rollout", "--workers", value])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize("value", ["0", "-1", "2.5"])
    def test_sim_rollout_rejects_bad_shards(self, value):
        code, _, err = _run(["sim", "rollout", "--shards", value])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize("value", ["0", "-4", "0.5", "four"])
    def test_soak_rejects_bad_workers(self, value):
        code, _, err = _run(["soak", "--workers", value])
        assert code == 2
        assert "positive integer" in err

    @pytest.mark.parametrize("argv", [
        ["sim", "rollout", "--sessions", "0"],
        ["sim", "rollout", "--days", "0"],
        ["sim", "dnsload", "--lookups", "0"],
        ["sim", "status", "--sessions", "-5"],
        ["monitor", "--sessions-per-day", "0"],
        # A soak gate must not be able to pass having run nothing.
        ["soak", "--count", "0"],
        ["soak", "--count", "-3"],
        ["soak", "--sessions", "0"],
        ["soak", "--max-events", "0"],
        ["soak", "--stop-after", "0"],
    ], ids=lambda argv: " ".join(argv))
    def test_counts_must_be_positive(self, argv):
        code, _, err = _run(argv)
        assert code == 2
        assert "positive integer" in err

    def test_workers_flag_is_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--workers" in out
        code, out, _ = _run(["soak", "--help"])
        assert code == 0
        assert "--workers" in out


class TestTrafficValidation:
    """``--traffic`` parses and grammar-validates before any world is
    built, so every malformed schedule is a usage error (exit 2), not
    a mid-run stack trace."""

    @pytest.mark.parametrize("value", [
        "not json",
        '{"kind": "flash_crowd"}',          # object, not a list
        '[{"kind": "flash_crowd"}]',        # missing required fields
        '[{"start_day": 0, "duration_days": 2, "target": "cluster:0",'
        ' "kind": "flash_crowd", "magnitude": 3.0}]',  # bad grammar
        '[{"start_day": 0, "duration_days": 2, "target":'
        ' "continent:NA", "kind": "flash_crowd", "magnitude": 0.5}]',
        '[{"start_day": 0, "duration_days": 2, "target":'
        ' "continent:NA", "kind": "flash_crowd", "magnitude": 3.0,'
        ' "ramp": "linear"}]',              # unknown field
    ], ids=["not-json", "not-a-list", "missing-fields", "bad-target",
            "bad-magnitude", "unknown-field"])
    def test_sim_rollout_rejects_malformed_traffic(self, value):
        code, _, err = _run(["sim", "rollout", "--traffic", value])
        assert code == 2
        assert "traffic schedule" in err

    def test_unreadable_traffic_file_exits_two(self):
        code, _, err = _run(["sim", "rollout", "--traffic",
                             "@/no/such/traffic.json"])
        assert code == 2
        assert "cannot read traffic schedule" in err

    def test_overlapping_same_target_shapes_exit_two(self):
        shapes = ('[{"start_day": 0, "duration_days": 4, "target":'
                  ' "continent:NA", "kind": "flash_crowd",'
                  ' "magnitude": 2.0},'
                  ' {"start_day": 2, "duration_days": 4, "target":'
                  ' "continent:NA", "kind": "flash_crowd",'
                  ' "magnitude": 3.0}]')
        code, _, err = _run(["sim", "rollout", "--traffic", shapes])
        assert code == 2
        assert "overlapping" in err

    def test_surge_flags_are_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--traffic" in out
        assert "--load-feedback" in out
        # The soak has one mode: surges are drawn, not flagged.
        code, out, _ = _run(["soak", "--help"])
        assert code == 0
        assert "--surge" not in out


class TestUnitSchemeValidation:
    """``--unit-scheme`` joins the usage-error contract through the
    spec: an unknown scheme, a malformed ``:k`` suffix, or a scheme
    without the split control plane all exit 2 before any world is
    built."""

    @pytest.mark.parametrize("value", ["nope", "ldns:4", ""])
    def test_unknown_scheme_exits_two(self, value):
        code, _, err = _run(["sim", "rollout", "--control-plane",
                             "--unit-scheme", value])
        assert code == 2
        assert "bad unit_scheme" in err

    @pytest.mark.parametrize("value", ["routing_aware:x",
                                       "routing_aware:0",
                                       "routing_aware:-5",
                                       "routing_aware:05"])
    def test_bad_unit_count_exits_two(self, value):
        code, _, err = _run(["sim", "rollout", "--control-plane",
                             "--unit-scheme", value])
        assert code == 2
        assert "bad unit_scheme" in err

    def test_scheme_without_control_plane_exits_two(self):
        code, _, err = _run(["sim", "rollout",
                             "--unit-scheme", "geo_as"])
        assert code == 2
        assert "unit_scheme requires a control plane" in err

    def test_unit_scheme_flag_is_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--unit-scheme" in out
        assert "--control-plane" in out


class TestResolverFaultsValidation:
    """Resolver-plane schedules given to ``--faults`` join the
    usage-error contract: malformed JSON, bad target grammar,
    unreadable ``@file`` paths and conflicting events all exit 2
    before any world is built."""

    @pytest.mark.parametrize("value", [
        "not json",
        '{"kind": "pop_outage"}',           # object, not a list
        '[{"kind": "pop_outage"}]',         # missing required fields
        '[{"start_day": 0, "duration_days": 2, "target": "ns:0",'
        ' "kind": "pop_outage"}]',          # wrong target head
        '[{"start_day": 0, "duration_days": 2, "target":'
        ' "public:GloboDNS:dallas:extra", "kind": "pop_outage"}]',
        '[{"start_day": 0, "duration_days": 2, "target": "public:",'
        ' "kind": "anycast_flap"}]',        # empty suffix
        '[{"start_day": 0, "duration_days": 2, "target": "isp:*",'
        ' "kind": "link_degradation", "param": {"loss_rate": 0.5}}]',
    ], ids=["not-json", "not-a-list", "missing-fields", "bad-head",
            "three-level-target", "empty-suffix", "typo-key"])
    def test_sim_rollout_rejects_malformed_schedules(self, value):
        code, _, err = _run(["sim", "rollout", "--faults", value])
        assert code == 2
        assert "bad fault schedule" in err

    def test_unreadable_faults_file_exits_two(self):
        code, _, err = _run(["sim", "rollout", "--faults",
                             "@/no/such/faults.json"])
        assert code == 2
        assert "cannot read fault schedule" in err

    def test_conflicting_outage_and_blackout_exit_two(self):
        schedule = ('[{"start_day": 0, "duration_days": 4, "target":'
                    ' "public:GloboDNS", "kind": "pop_outage"},'
                    ' {"start_day": 2, "duration_days": 4, "target":'
                    ' "public:GloboDNS", "kind": "ldns_blackout"}]')
        code, _, err = _run(["sim", "rollout", "--faults", schedule])
        assert code == 2
        assert "bad fault schedule" in err


class TestFaultsFlag:
    """One fault flag takes every kind; the spec decides what the
    planes on the command line can carry."""

    def test_control_plane_kind_without_control_plane_exits_two(self):
        schedule = ('[{"start_day": 3, "duration_days": 1, "target":'
                    ' "mapmaker:primary", "kind": "mapmaker_crash"}]')
        code, _, err = _run(["sim", "rollout", "--faults", schedule])
        assert code == 2
        assert "mapmaker_crash" in err
        assert "require a control plane" in err

    def test_faults_flag_is_advertised(self):
        code, out, _ = _run(["sim", "rollout", "--help"])
        assert code == 0
        assert "--faults" in out
        # No plane-specific fault flag, and resolver-plane kinds are
        # on the soak's one menu.
        assert "--resolver" not in out
        code, out, _ = _run(["soak", "--help"])
        assert code == 0
        assert "--resolver" not in out


class TestDumpValidation:
    """``dump`` counts join the usage-error contract: a zero or
    negative ``--sessions`` / ``--sample-every`` exits 2 before any
    world is built (a zero stride would divide by zero mid-run in the
    tracer)."""

    @pytest.mark.parametrize("flag", ["--sessions", "--sample-every"])
    @pytest.mark.parametrize("value", ["0", "-3", "abc"])
    def test_dump_rejects_non_positive_counts(self, flag, value):
        code, _, err = _run(["dump", flag, value])
        assert code == 2
        assert "positive integer" in err


class TestNoProfileSurface:
    """The engine does not time itself (``perfbench --trace`` owns
    timing attribution): a ``profile`` subcommand or ``--profile`` flag
    is a usage error, not a silently ignored option."""

    def test_profile_subcommand_is_unknown(self):
        code, _, err = _run(["profile", "tiny"])
        assert code == 2
        assert "unknown subcommand 'profile'" in err
        listing = err.split("subcommands:")[1]
        assert "profile" not in listing

    @pytest.mark.parametrize("argv", [["sim", "rollout", "--profile"],
                                      ["dump", "--profile"]])
    def test_profile_flags_are_unknown(self, argv):
        code, _, err = _run(argv)
        assert code == 2
        assert "unrecognized arguments: --profile" in err
