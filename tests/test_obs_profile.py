"""Engine self-profiler tests: tree mechanics, determinism, exports.

Three layers:

* unit tests of :mod:`repro.obs.profile` (phase stack, merge/graft
  algebra, config validation, the three export formats);
* engine integration: a profiled run populates the documented phase
  taxonomy and -- the load-bearing property -- perturbs *nothing*
  (identical registry/trace bytes with profiling on and off);
* cross-worker determinism: the deterministic view of a sharded
  profile is byte-identical for any worker count, pinned by
  ``tests/data/golden_profile.json`` (regenerate with
  ``REGEN_GOLDEN=1``; the wall-clock half is excluded by the schema's
  own ``timing_fields`` declaration, not by test-side filtering).
"""

import dataclasses
import datetime
import difflib
import json
import os
import pathlib

import pytest

from repro.api import ScenarioSpec, run
from repro.core.mapmaker.service import MapMakerConfig
from repro.obs.profile import (
    DISABLED_PROFILER,
    NULL_PHASE,
    PROFILE_SCHEMA,
    PhaseNode,
    PhaseProfiler,
    ProfileConfig,
    build_document,
    collapsed_stacks,
    deterministic_json,
    deterministic_view,
    export_tree,
    hotspot_rows,
    render_hotspot_table,
    render_profile_prom,
)
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

DATA_DIR = pathlib.Path(__file__).parent / "data"

WORKER_COUNTS = (1, 2, 4)


def _profiled_spec() -> ScenarioSpec:
    """Tiny rollout with the control plane on: exercises the full
    phase taxonomy (mapmaker compile/publish rides control_plane.tick)."""
    start = datetime.date(2014, 3, 1)
    return ScenarioSpec(
        world=WorldConfig.tiny(),
        rollout=RolloutConfig(
            start_date=start,
            end_date=start + datetime.timedelta(days=13),
            rollout_start=start + datetime.timedelta(days=4),
            rollout_end=start + datetime.timedelta(days=9),
            sessions_per_day=16,
            seed=5,
        ),
        control_plane=MapMakerConfig(),
        monitor=False,
        profile=ProfileConfig())


PROFILED_SPEC = _profiled_spec()


@pytest.fixture(scope="module")
def sharded_runs():
    return {workers: run(PROFILED_SPEC, workers=workers, shards=4)
            for workers in WORKER_COUNTS}


@pytest.fixture(scope="module")
def serial_run():
    return run(PROFILED_SPEC)


# -- config ------------------------------------------------------------------

class TestProfileConfig:
    def test_defaults(self):
        config = ProfileConfig()
        assert config.max_depth is None
        assert config.hotspots == 10

    def test_round_trips_through_dict(self):
        config = ProfileConfig(max_depth=3, hotspots=5)
        assert ProfileConfig.from_dict(config.to_dict()) == config

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            ProfileConfig(max_depth=0)
        with pytest.raises(ValueError):
            ProfileConfig(hotspots=0)

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown profile config"):
            ProfileConfig.from_dict({"hotspotz": 3})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            ProfileConfig.from_dict([1, 2])

    def test_from_dict_rejects_non_int(self):
        with pytest.raises(ValueError, match="integer"):
            ProfileConfig.from_dict({"hotspots": "many"})

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            ProfileConfig.from_json("{nope")

    def test_spec_round_trips_profile(self):
        spec = PROFILED_SPEC
        doc = spec.to_dict()
        assert doc["profile"] == {"max_depth": None, "hotspots": 10}
        assert ScenarioSpec.from_dict(doc).profile == spec.profile


# -- tree mechanics ----------------------------------------------------------

class TestPhaseTree:
    def test_nested_phases_build_a_tree(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            with profiler.phase("b"):
                profiler.count("items", 3)
            with profiler.phase("b"):
                profiler.count("items", 2)
        a = profiler.root.children["a"]
        assert a.calls == 1
        assert a.children["b"].calls == 2
        assert a.children["b"].work == {"items": 5}

    def test_count_lands_on_innermost_open_phase(self):
        profiler = PhaseProfiler()
        profiler.count("root_work", 1)
        with profiler.phase("outer"):
            profiler.count("outer_work", 1)
        assert profiler.root.work == {"root_work": 1}
        assert profiler.root.children["outer"].work == {"outer_work": 1}

    def test_disabled_profiler_records_nothing(self):
        profiler = PhaseProfiler(enabled=False)
        with profiler.phase("a"):
            profiler.count("items", 7)
        assert profiler.root.children == {}
        assert profiler.root.work == {}
        assert profiler.phase("x") is NULL_PHASE

    def test_shared_disabled_singleton_is_inert(self):
        with DISABLED_PROFILER.phase("whatever"):
            DISABLED_PROFILER.count("n")
        assert DISABLED_PROFILER.root.children == {}

    def test_max_depth_folds_deep_scopes_into_ancestor(self):
        profiler = PhaseProfiler(config=ProfileConfig(max_depth=1))
        with profiler.phase("a"):
            with profiler.phase("b"):
                profiler.count("deep", 1)
        a = profiler.root.children["a"]
        assert a.children == {}
        assert a.work == {"deep": 1}

    def test_self_wall_clamped_at_zero(self):
        node = PhaseNode("parent")
        node.wall_s = 1.0
        child = node.child("c")
        child.wall_s = 2.5
        assert node.self_wall_s == 0.0

    def test_walk_is_name_ordered_depth_first(self):
        profiler = PhaseProfiler()
        with profiler.phase("b"):
            pass
        with profiler.phase("a"):
            with profiler.phase("z"):
                pass
        paths = [";".join(path) for path, _ in profiler.root.walk()]
        assert paths == ["engine", "engine;a", "engine;a;z", "engine;b"]

    def test_merge_sums_counts_and_unions_structure(self):
        one, two = PhaseProfiler(), PhaseProfiler()
        with one.phase("shared"):
            one.count("n", 1)
        with two.phase("shared"):
            two.count("n", 2)
        with two.phase("only_two"):
            pass
        one.merge(two)
        assert one.root.children["shared"].calls == 2
        assert one.root.children["shared"].work == {"n": 3}
        assert "only_two" in one.root.children

    def test_graft_adopts_tree_and_credits_wall(self):
        parent, worker = PhaseProfiler(), PhaseProfiler()
        with worker.phase("day"):
            worker.count("sessions", 4)
        worker.root.children["day"].wall_s = 1.5
        worker.count("spans", 9)   # root-level work
        parent.graft("workers", worker)
        parent.graft("workers", worker)
        node = parent.root.children["workers"]
        assert node.calls == 2
        assert node.work == {"spans": 18}
        assert node.children["day"].work == {"sessions": 8}
        # The adopted subtree's wall credits the graft node, so the
        # graft parent's self-time is coordination overhead only.
        assert node.wall_s == pytest.approx(3.0)
        assert node.self_wall_s == pytest.approx(0.0)


# -- exports -----------------------------------------------------------------

class TestExports:
    def _small_profiler(self):
        profiler = PhaseProfiler()
        with profiler.phase("outer"):
            profiler.count("units", 2.0)
            with profiler.phase("inner"):
                profiler.count("units", 1)
        return profiler

    def test_export_tree_shape(self):
        doc = export_tree(self._small_profiler().root)
        assert doc["name"] == "engine"
        outer = doc["children"][0]
        assert outer["name"] == "outer"
        assert outer["calls"] == 1
        assert outer["work"] == {"units": 2}   # integral floats -> int
        assert isinstance(outer["work"]["units"], int)
        assert [c["name"] for c in outer["children"]] == ["inner"]

    def test_document_declares_its_volatile_fields(self):
        doc = build_document(self._small_profiler())
        assert doc["schema"] == PROFILE_SCHEMA
        assert doc["timing_fields"] == ["self_wall_s", "wall_s"]
        assert doc["volatile_fields"] == ["hotspots", "run"]

    def test_deterministic_view_strips_by_declaration(self):
        doc = build_document(self._small_profiler(),
                             run_info={"workers": 3, "host": {}})
        view = deterministic_view(doc)
        assert "run" not in view and "hotspots" not in view

        def walk(node):
            assert "wall_s" not in node and "self_wall_s" not in node
            assert {"name", "calls", "work"} <= set(node)
            for child in node["children"]:
                walk(child)

        walk(view["tree"])

    def test_deterministic_view_honours_foreign_declarations(self):
        # A future profile/v2 with different timing fields strips by
        # its own declaration, not this library version's constants.
        doc = build_document(self._small_profiler())
        doc["timing_fields"] = ["calls"]
        view = deterministic_view(doc)
        assert "calls" not in view["tree"]
        assert "wall_s" in view["tree"]

    def test_collapsed_stacks_format(self):
        lines = collapsed_stacks(self._small_profiler().root)
        assert len(lines) == 3
        for line in lines:
            stack, value = line.rsplit(" ", 1)
            assert int(value) >= 0
        assert lines[1].startswith("engine;outer ")
        assert lines[2].startswith("engine;outer;inner ")

    def test_hotspot_rows_aggregate_by_name(self):
        profiler = PhaseProfiler()
        with profiler.phase("a"):
            with profiler.phase("x"):
                pass
        with profiler.phase("b"):
            with profiler.phase("x"):
                pass
        rows = hotspot_rows(profiler.root)
        by_name = {row["phase"]: row for row in rows}
        assert by_name["x"]["calls"] == 2
        assert set(rows[0]) == {"phase", "calls", "self_wall_s",
                                "wall_s", "self_share"}

    def test_hotspot_limit_and_table_render(self):
        profiler = self._small_profiler()
        rows = hotspot_rows(profiler.root, limit=1)
        assert len(rows) == 1
        table = render_hotspot_table(rows)
        assert table[0].startswith("phase")
        assert len(table) == 2

    def test_prom_families_are_counters_only(self):
        lines = render_profile_prom(self._small_profiler().root)
        assert "# TYPE profile_phase_calls_total counter" in lines
        assert "# TYPE profile_phase_work_total counter" in lines
        assert ('profile_phase_work_total{phase="engine;outer",'
                'unit="units"} 2') in lines
        assert not any("wall" in line for line in lines)


# -- engine integration ------------------------------------------------------

class TestEngineIntegration:
    def test_serial_taxonomy_and_work_counters(self, serial_run):
        root = serial_run.profiler.root
        names = {path[-1] for path, _ in root.walk()}
        assert {"engine", "world.build", "rollout.classify",
                "rollout.day", "session", "dns.resolve", "dns.stub",
                "dns.recursive", "dns.authoritative", "mapping.decide",
                "control_plane.tick", "mapmaker.compile",
                "mapmaker.publish"} <= names
        day = root.children["rollout.day"]
        assert day.work["sessions"] == len(serial_run.result.rum)
        assert day.children["session"].calls == day.work["sessions"]

    def test_profiling_off_by_default(self):
        spec = dataclasses.replace(PROFILED_SPEC, profile=None)
        assert run(spec).profiler is None

    def test_profiling_perturbs_nothing(self):
        # The acceptance property behind "every existing golden
        # fixture stays byte-identical": the same scenario with and
        # without the profiler produces identical observable bytes.
        spec_off = dataclasses.replace(PROFILED_SPEC, profile=None)
        on, off = run(PROFILED_SPEC), run(spec_off)
        snap_on = json.dumps(on.world.obs.registry.snapshot(),
                             sort_keys=True, default=str)
        snap_off = json.dumps(off.world.obs.registry.snapshot(),
                              sort_keys=True, default=str)
        assert snap_on == snap_off
        assert on.world.obs.tracer.export() == off.world.obs.tracer.export()
        assert len(on.result.rum) == len(off.result.rum)

    def test_sharded_parent_phases_present(self, sharded_runs):
        root = sharded_runs[1].profiler.root
        assert set(root.children) == {"shard.plan", "shard.execute",
                                      "shard.merge"}
        assert root.children["shard.plan"].work == {"shards": 4}
        workers = root.children["shard.execute"].children["shard.workers"]
        assert workers.calls == 4   # one graft per shard
        assert "rollout.day" in workers.children


# -- cross-worker determinism ------------------------------------------------

def _check_golden(path: pathlib.Path, rendered: str) -> None:
    if os.environ.get("REGEN_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (f"missing fixture {path}; run with "
                           "REGEN_GOLDEN=1 to create it")
    expected = path.read_text()
    if rendered != expected:
        diff = "".join(difflib.unified_diff(
            expected.splitlines(keepends=True),
            rendered.splitlines(keepends=True),
            fromfile=f"{path.name} (checked in)",
            tofile=f"{path.name} (this run)"))
        pytest.fail("profile golden fixture drifted; if intentional, "
                    f"regenerate with REGEN_GOLDEN=1 and review.\n{diff}")


def _sharded_document(sharded) -> dict:
    return build_document(
        sharded.profiler,
        scenario={"spec": "tests/_profiled_spec", "n_shards": 4},
        run_info={"workers": sharded.workers})


class TestDeterminism:
    def test_deterministic_view_identical_across_worker_counts(
            self, sharded_runs):
        views = {workers: deterministic_json(_sharded_document(run_))
                 for workers, run_ in sharded_runs.items()}
        assert views[1] == views[2] == views[4]

    def test_repeated_run_is_byte_identical(self, sharded_runs):
        again = run(PROFILED_SPEC, workers=2, shards=4)
        assert deterministic_json(_sharded_document(again)) == \
            deterministic_json(_sharded_document(sharded_runs[2]))

    def test_golden_profile_fixture(self, sharded_runs):
        _check_golden(DATA_DIR / "golden_profile.json",
                      deterministic_json(_sharded_document(
                          sharded_runs[1])))

    def test_wall_clock_present_in_full_document(self, sharded_runs):
        # The timings exist (they are the point of the profiler) --
        # they are just schema-excluded from the deterministic view.
        doc = _sharded_document(sharded_runs[1])
        assert doc["tree"]["children"]
        total = sum(child["wall_s"]
                    for child in doc["tree"]["children"])
        assert total > 0
