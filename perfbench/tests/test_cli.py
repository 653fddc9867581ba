"""The command line end to end, at smoke size, in subprocesses."""

import json
import subprocess
import sys

from perfbench import ROOT, SCHEMA, load_benchmark


def _perfbench(*args):
    return subprocess.run([sys.executable, "-m", "perfbench", *args],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)


def test_rep_ends_on_the_contract_line():
    done = _perfbench("rep", "--workload", "dns_hot", "--seed", "3",
                      "--seconds", "0", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 3000


def test_unknown_workload_exits_nonzero_without_a_result():
    done = _perfbench("rep", "--workload", "nope", "--seed", "3",
                      "--seconds", "0", "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""


def test_run_writes_a_report_and_compare_refuses_smoke(tmp_path):
    out = tmp_path / "report.json"
    done = _perfbench("run", "--seed", "5", "--smoke", "--out", str(out))
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text())
    benchmark = load_benchmark()

    assert report["schema"] == SCHEMA
    assert report["smoke"] is True and report["seed"] == 5
    assert set(report["host"]) == {"cpus", "cpus_available", "platform",
                                   "python", "numpy"}
    assert list(report["workloads"]) == [
        entry["name"] for entry in benchmark["workloads"]]
    for name, workload in report["workloads"].items():
        assert workload["problems"] == [], name
        assert len(workload["result_digest"]) == 64
        assert set(workload["end_to_end"]) == {
            entry["name"] for entry in benchmark["end_to_end"]
        } | {"failed_share"}
        assert workload["end_to_end"]["failed_share"]["median"] == 0.0
        assert set(workload["per_layer"]) == {
            entry["name"] for entry in benchmark["per_layer"]}
        for row in workload["end_to_end"].values():
            assert row["q1"] <= row["median"] <= row["q3"]
            assert row["n"] == len(row["samples"]) == report["reps"]
    # Every metric is printed by name with its unit.
    for entry in benchmark["end_to_end"]:
        assert f"  {entry['name']}" in done.stdout
        assert f" {entry['unit']}" in done.stdout

    refused = _perfbench("compare", str(out), str(out))
    assert refused.returncode == 2
    assert "smoke" in refused.stderr
