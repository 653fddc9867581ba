"""``BENCHMARK.json`` stays inside the benchmark contract's limits."""

import re

from perfbench import load_benchmark
from perfbench.workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def test_keys_counts_and_limits():
    doc = load_benchmark()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert 1 <= len(doc["command"]) <= 32
    assert all(len(part) <= 200 for part in doc["command"])
    assert 1 <= len(doc["paths"]) <= 16
    assert all(PATH.match(path) and not path.startswith("/")
               and ".." not in path for path in doc["paths"])
    assert isinstance(doc["run_seconds"], int)
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128


def test_names_units_and_bounds():
    doc = load_benchmark()
    names = ([entry["name"] for entry in doc["workloads"]]
             + [entry["name"] for entry in doc["end_to_end"]]
             + [entry["name"] for entry in doc["per_layer"]])
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    for entry in doc["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
    for entry in doc["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
    for entry in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(entry["unit"])
        assert entry["better"] in ("higher", "lower")
    setup = [entry for entry in doc["end_to_end"]
             if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"]
                                   for entry in doc["end_to_end"])}]


def test_workloads_are_the_ones_the_code_runs():
    doc = load_benchmark()
    assert [(entry["name"], entry["why"]) for entry in doc["workloads"]
            ] == [(workload.name, workload.why)
                  for workload in WORKLOADS.values()]
