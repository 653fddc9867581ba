"""Chaos plane: the SplitMix64 generator, random-schedule validity,
soak invariants, checkpoint/resume byte-identity, and the soak CLI.

The determinism contract is the headline: two soaks with the same
seed are byte-identical, and an interrupted + resumed soak produces
exactly the report the uninterrupted run would have (the property that
makes a 25-scenario CI gate trustworthy).
"""

import json

import pytest

from repro.faults import SoakConfig, SplitMix64, generate_schedule
from repro.faults.chaos import (
    _scenario_spec,
    main as soak_main,
    run_scenario,
    run_soak,
    scenario_seed,
)
from repro.faults.schedule import FaultKind

#: Small-but-real soak budget for tests: enough scenarios to cross
#: both data-plane and control-plane fault kinds, small enough to run
#: in seconds.
_CFG = SoakConfig(seed=2025, count=3, sessions_per_day=8)


class TestSplitMix64:
    def test_sequence_is_deterministic(self):
        a, b = SplitMix64(42), SplitMix64(42)
        assert [a.next_u64() for _ in range(8)] == [
            b.next_u64() for _ in range(8)]

    def test_streams_differ_by_seed(self):
        assert ([SplitMix64(1).next_u64() for _ in range(4)]
                != [SplitMix64(2).next_u64() for _ in range(4)])

    def test_randrange_bounds_and_choice(self):
        rng = SplitMix64(7)
        draws = [rng.randrange(5) for _ in range(200)]
        assert set(draws) == {0, 1, 2, 3, 4}
        assert SplitMix64(9).choice(("x", "y", "z")) in ("x", "y", "z")
        with pytest.raises(ValueError):
            rng.randrange(0)

    def test_scenario_seeds_are_stable_and_distinct(self):
        seeds = [scenario_seed(2025, i) for i in range(16)]
        assert seeds == [scenario_seed(2025, i) for i in range(16)]
        assert len(set(seeds)) == 16


class TestGenerateSchedule:
    def test_schedules_are_valid_and_bounded(self):
        kinds_seen = set()
        for index in range(40):
            rng = SplitMix64(scenario_seed(11, index))
            schedule = generate_schedule(rng, n_days=21)
            schedule.validate()  # grammar + overlap checks must hold
            assert 1 <= len(schedule) <= 4
            for event in schedule.events:
                assert event.start_day >= 1
                assert event.end_day <= 20  # >= one recovered day
                kinds_seen.add(event.kind)
        # One menu: every plane gets exercised.
        assert kinds_seen & set(FaultKind.DATA_PLANE)
        assert kinds_seen & set(FaultKind.CONTROL_PLANE)
        assert kinds_seen & set(FaultKind.RESOLVER_PLANE)

    def test_same_rng_state_same_schedule(self):
        first = generate_schedule(SplitMix64(99), n_days=21)
        second = generate_schedule(SplitMix64(99), n_days=21)
        assert first == second


@pytest.fixture(scope="module")
def soak_report():
    return run_soak(_CFG)


class TestSoakInvariants:
    def test_soak_passes_with_zero_violations(self, soak_report):
        assert soak_report["passed"], soak_report["summary"]
        assert soak_report["summary"]["violations"] == 0
        assert soak_report["summary"]["deterministic"] is True
        assert soak_report["summary"]["scenarios"] == _CFG.count

    def test_rows_carry_the_machine_readable_schema(self, soak_report):
        assert soak_report["schema"] == "soak/v1"
        for row in soak_report["rows"]:
            assert row["schedule"], "scenario ran without faults"
            assert 0.0 <= row["availability"] <= 1.0
            assert len(row["digest"]) == 64
            assert row["violations"] == []

    def test_report_is_byte_identical_across_runs(self, soak_report):
        again = run_soak(_CFG)
        assert (json.dumps(soak_report, sort_keys=True)
                == json.dumps(again, sort_keys=True))

    def test_scenario_digest_pins_full_report(self, soak_report):
        row = run_scenario(_CFG, 0)
        assert row == soak_report["rows"][0]

    def test_surge_soak_layers_traffic_over_the_same_faults(self):
        """A surged scenario adds a generated traffic schedule and the
        load-feedback loop on a capacity-starved world.  Whether it is
        surged comes from its own derived stream, so the fault draws
        are what the fault stream alone gives, surged or not -- and
        the invariants hold for both."""
        config = SoakConfig(seed=2025, count=6, sessions_per_day=8)
        specs = [_scenario_spec(config, index) for index in range(6)]
        surged = [i for i, spec in enumerate(specs) if spec.traffic]
        plain = [i for i, spec in enumerate(specs) if not spec.traffic]
        assert surged and plain
        for index, spec in enumerate(specs):
            alone = generate_schedule(
                SplitMix64(scenario_seed(config.seed, index)),
                spec.rollout.n_days)
            assert spec.faults == alone
            assert (spec.load_feedback is not None) == bool(spec.traffic)
        for index in (surged[0], plain[0]):
            row = run_scenario(config, index)
            assert row["violations"] == []
            assert ("traffic" in row) == (index == surged[0])


class TestCheckpointResume:
    def test_interrupted_soak_resumes_byte_identically(
            self, soak_report, tmp_path):
        checkpoint = str(tmp_path / "soak.ckpt.json")
        partial = run_soak(_CFG, checkpoint=checkpoint, stop_after=1)
        assert partial.get("partial") is True
        assert not partial["passed"]  # incomplete runs never pass
        assert len(partial["rows"]) == 1

        resumed = run_soak(_CFG, checkpoint=checkpoint, resume=True)
        assert (json.dumps(resumed, sort_keys=True)
                == json.dumps(soak_report, sort_keys=True))

    def test_resume_can_extend_the_count(self, tmp_path):
        checkpoint = str(tmp_path / "soak.ckpt.json")
        small = SoakConfig(seed=2025, count=1, sessions_per_day=8)
        run_soak(small, checkpoint=checkpoint)
        bigger = run_soak(_CFG, checkpoint=checkpoint, resume=True)
        assert len(bigger["rows"]) == _CFG.count
        assert (json.dumps(bigger, sort_keys=True)
                == json.dumps(run_soak(_CFG), sort_keys=True))

    def test_resume_rejects_mismatched_config(self, tmp_path):
        checkpoint = str(tmp_path / "soak.ckpt.json")
        run_soak(SoakConfig(seed=2025, count=1, sessions_per_day=8),
                 checkpoint=checkpoint, stop_after=1)
        with pytest.raises(ValueError, match="different soak config"):
            run_soak(SoakConfig(seed=4, count=1, sessions_per_day=8),
                     checkpoint=checkpoint, resume=True)

    def test_resume_requires_checkpoint_path(self):
        with pytest.raises(ValueError, match="--checkpoint"):
            run_soak(_CFG, resume=True)


class TestSoakCli:
    def test_cli_green_run_exits_zero(self, tmp_path, capsys):
        out = tmp_path / "soak.json"
        code = soak_main(["--seed", "2025", "--count", "1",
                          "--sessions", "8", "--format", "json",
                          "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["passed"] and doc["schema"] == "soak/v1"

    def test_cli_impossible_floor_exits_one(self, capsys):
        code = soak_main(["--seed", "2025", "--count", "1",
                          "--sessions", "8",
                          "--availability-floor", "1.01"])
        assert code == 1
        text = capsys.readouterr().out
        assert "below floor" in text and "passed=False" in text


class TestParallelSoak:
    """``workers=N`` fans scenarios across processes; every byte of
    the report and the checkpoint must match the serial run (scenario
    rows are pure functions of (seed, index), and the parent appends
    them in index order regardless of completion order)."""

    def test_parallel_report_and_checkpoint_match_serial(
            self, soak_report, tmp_path):
        serial_ckpt = tmp_path / "serial.ckpt.json"
        parallel_ckpt = tmp_path / "parallel.ckpt.json"
        run_soak(_CFG, checkpoint=str(serial_ckpt))
        parallel = run_soak(_CFG, checkpoint=str(parallel_ckpt),
                            workers=2)
        assert (json.dumps(parallel, sort_keys=True)
                == json.dumps(soak_report, sort_keys=True))
        assert parallel_ckpt.read_bytes() == serial_ckpt.read_bytes()

    def test_parallel_resumes_a_serial_checkpoint(self, soak_report,
                                                  tmp_path):
        checkpoint = str(tmp_path / "soak.ckpt.json")
        run_soak(_CFG, checkpoint=checkpoint, stop_after=1)
        resumed = run_soak(_CFG, checkpoint=checkpoint, resume=True,
                           workers=2)
        assert (json.dumps(resumed, sort_keys=True)
                == json.dumps(soak_report, sort_keys=True))
