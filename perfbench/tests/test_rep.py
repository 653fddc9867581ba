"""Smoke-size reps: output schema, digest agreement, layer separation."""

import dataclasses
import json
import re

import pytest

from perfbench import load_benchmark, rep, trace
from perfbench.workloads import WORKLOADS, Outcome

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+\Z")


@pytest.fixture(scope="module")
def traced():
    """One traced smoke rep per workload.  Each already holds an
    untraced pass (and, sharded, a workers=2 and a workers=1 pass)
    whose digests the rep compared with the traced pass."""
    return {name: rep.run_rep(name, seed=7, seconds=0, traced=True,
                              smoke=True)
            for name in WORKLOADS}


def _check_schema(result, section):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert [(name, metric["unit"])
            for name, metric in result["metrics"].items()] == [
        (entry["name"], entry["unit"]) for entry in section]
    for name, metric in result["metrics"].items():
        assert METRIC_NAME.match(name)
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    json.dumps(result)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_timed_rep_prints_every_end_to_end_metric(name, capsys):
    result = rep.run_rep(name, seed=7, seconds=0, traced=False,
                         smoke=True)
    _check_schema(result, load_benchmark()["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert all(metric["value"] > 0
               for metric in result["metrics"].values())
    out = capsys.readouterr().out
    for entry in load_benchmark()["end_to_end"]:
        assert re.search(rf"{entry['name']}\s+[\d.]+ {entry['unit']}", out)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_rep_prints_every_per_layer_metric(name, traced):
    _check_schema(traced[name], load_benchmark()["per_layer"])


def _in_process(workload):
    """The variant whose shards run where the wrappers can see them."""
    if workload.workers is not None:
        return dataclasses.replace(workload, workers=1)
    return workload


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_passes_agree_on_the_digest(name):
    workload = _in_process(WORKLOADS[name])
    plain = rep.measure_pass(workload, seed=7, smoke=True)
    traced = rep.measure_pass(workload, seed=7, smoke=True,
                              tracer=trace.Tracer())
    assert plain.outcome.problems == traced.outcome.problems == []
    assert plain.outcome.digest == traced.outcome.digest
    assert plain.outcome.counts == traced.outcome.counts


def test_one_and_two_workers_agree_on_the_digest():
    sharded = WORKLOADS["rollout_sharded"]
    assert sharded.workers == 2 and sharded.shards == 8
    two = rep.measure_pass(sharded, seed=7, smoke=True)
    one = rep.measure_pass(_in_process(sharded), seed=7, smoke=True)
    assert two.outcome.digest == one.outcome.digest
    # ... and the sharded engine is its own determinism domain.
    serial = rep.measure_pass(WORKLOADS["rollout_serial"], seed=7,
                              smoke=True)
    assert serial.outcome.ops == two.outcome.ops
    assert serial.outcome.digest != two.outcome.digest


def test_a_rep_whose_passes_disagree_is_not_correct(traced):
    def one_pass(digest):
        return rep.Pass(1.0, 1.0, Outcome(
            ops=10, failed=0, digest=digest, problems=[], counts={}))

    assert rep._problems([one_pass("a" * 64), one_pass("a" * 64)]) == []
    problems = rep._problems([one_pass("a" * 64), one_pass("b" * 64)])
    assert len(problems) == 1 and "differs between passes" in problems[0]
    # The real reps found nothing to complain about.
    assert all(result["correct"] and result["failed"] == 0
               for result in traced.values())


def test_same_seed_same_digest_other_seed_other_digest(capsys):
    def digest(seed):
        rep.run_rep("dns_hot", seed=seed, seconds=0, traced=False,
                    smoke=True)
        line = next(line for line in capsys.readouterr().out.splitlines()
                    if line.startswith(rep.DETAIL_PREFIX))
        return json.loads(line[len(rep.DETAIL_PREFIX):])["result_digest"]

    assert digest(7) == digest(7)
    assert digest(7) != digest(8)


def test_layers_separate_the_workloads(traced):
    def calls(name, layer):
        return traced[name]["metrics"][f"{layer}.calls"]["value"]

    for layer in ("parallel.plan", "parallel.merge", "parallel.engine"):
        assert calls("rollout_sharded", layer) > 0
        for name in ("rollout_serial", "rollout_planes", "dns_hot"):
            assert calls(name, layer) == 0
    for layer in ("simulation.session", "simulation.rollout",
                  "measurement.rum"):
        assert calls("dns_hot", layer) == 0
        assert calls("rollout_serial", layer) > 0
    for layer in ("core.mapmaker.lookup", "core.mapmaker.tick",
                  "core.units", "faults.injector", "core.loadfeedback",
                  "topology.resolvers", "topology.traffic", "obs.monitor"):
        assert calls("rollout_planes", layer) > 0
        assert calls("rollout_serial", layer) == 0
    assert calls("rollout_sharded", "simulation.world") == 8
    assert calls("dns_hot", "dnssrv.stub") == traced["dns_hot"]["attempted"] / 2


def test_a_failed_check_fails_every_op(monkeypatch, capsys):
    monkeypatch.setattr(
        "perfbench.checks.rollout_conservation",
        lambda result: ["day 0: made up"])
    result = rep.run_rep("rollout_serial", seed=7, seconds=0,
                         traced=False, smoke=True)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert "CHECK FAILED: day 0: made up" in capsys.readouterr().out


def test_sharded_is_refused_on_one_cpu(monkeypatch):
    monkeypatch.setattr(rep, "cpus_available", lambda: 1)
    with pytest.raises(rep.Refused, match="needs 2 CPUs"):
        rep.run_rep("rollout_sharded", seed=7, seconds=0, traced=False,
                    smoke=True)
    # The other workloads do not care.
    assert rep.run_rep("dns_hot", seed=7, seconds=0, traced=False,
                       smoke=True)["correct"]
