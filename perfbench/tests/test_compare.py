"""``compare``: verdict logic and refusals."""

import copy

from perfbench import SCHEMA, compare
from perfbench.runner import summarize


def test_within_bound_and_tight_is_ok():
    a = summarize([100.0, 101.0, 99.0, 100.5, 99.5])
    b = summarize([97.0, 98.0, 96.0, 97.5, 96.5])
    assert compare.judge(a, b, "higher", 0.10) == compare.OK
    assert compare.judge(a, b, "lower", 0.10) == compare.OK


def test_median_worse_than_bound_is_regressed_in_either_direction():
    a = summarize([100.0, 101.0, 99.0, 100.5, 99.5])
    slow = summarize([85.0, 86.0, 84.0, 85.5, 84.5])
    assert compare.judge(a, slow, "higher", 0.10) == compare.REGRESSED
    assert compare.judge(slow, a, "lower", 0.10) == compare.REGRESSED
    assert compare.judge(slow, a, "higher", 0.10) == compare.OK


def test_spread_wider_than_bound_is_unresolved_never_ok():
    a = summarize([100.0, 120.0, 80.0, 110.0, 90.0])
    b = summarize([99.0, 119.0, 79.0, 109.0, 89.0])
    assert compare.judge(a, b, "higher", 0.10) == compare.UNRESOLVED
    # One noisy side is enough.
    tight = summarize([100.0, 101.0, 99.0, 100.5, 99.5])
    assert compare.judge(tight, b, "higher", 0.10) == compare.UNRESOLVED


def test_noisy_but_every_run_better_is_ok():
    a = summarize([100.0, 120.0, 80.0, 110.0, 90.0])
    b = summarize([200.0, 240.0, 160.0, 220.0, 180.0])
    assert compare.judge(a, b, "higher", 0.10) == compare.OK
    assert compare.judge(b, a, "lower", 0.10) == compare.OK


def test_failed_share_has_an_absolute_zero_bound():
    clean = summarize([0.0] * 5)
    dirty = summarize([0.0, 0.0, 0.001, 0.001, 0.001])
    assert compare.judge(clean, clean, "lower", 0.0) == compare.OK
    assert compare.judge(clean, dirty, "lower", 0.0) == compare.REGRESSED
    assert compare.judge(dirty, clean, "lower", 0.0) == compare.OK


def _report(**overrides):
    row = {"unit": "op/s", "better": "higher",
           **summarize([100.0, 101.0, 99.0, 100.5, 99.5])}
    report = {
        "schema": SCHEMA, "smoke": False, "seed": 99, "run_seconds": 15,
        "host": {"cpus_available": 2},
        "workloads": {"dns_hot": {"end_to_end": {"ops_per_s": row}}},
    }
    report.update(overrides)
    return report


def test_refuses_smoke_seed_length_and_fewer_cpus():
    assert compare.refusal(_report(), _report()) is None
    assert "smoke" in compare.refusal(_report(), _report(smoke=True))
    assert "smoke" in compare.refusal(_report(smoke=True), _report())
    assert "seeds" in compare.refusal(_report(), _report(seed=7))
    assert "lengths" in compare.refusal(_report(),
                                        _report(run_seconds=5))
    assert "fewer CPUs" in compare.refusal(
        _report(), _report(host={"cpus_available": 1}))
    # More CPUs on B's side is B's business.
    assert compare.refusal(_report(host={"cpus_available": 1}),
                           _report()) is None
    assert "report" in compare.refusal({"schema": "bench/v3"}, _report())


def test_rows_cover_every_pair_and_a_missing_metric_regresses():
    a = _report()
    b = copy.deepcopy(a)
    row = a["workloads"]["dns_hot"]["end_to_end"]["ops_per_s"]
    assert compare.compare(a, b, {"ops_per_s": 0.1}) == [
        ("dns_hot", "ops_per_s", row, row, compare.OK)]
    del b["workloads"]["dns_hot"]["end_to_end"]["ops_per_s"]
    assert compare.compare(a, b, {"ops_per_s": 0.1}) == [
        ("dns_hot", "ops_per_s", row, None, compare.REGRESSED)]


def test_exact_counts_that_moved_are_listed_and_timings_are_not():
    def layers(calls, self_us):
        report = _report()
        report["workloads"]["dns_hot"]["per_layer"] = {
            "dnssrv.stub.calls": summarize([calls]),
            "dnssrv.stub.self_us": summarize([self_us]),
            "dnssrv.stub.share": summarize([self_us / 100.0]),
            "dnssrv.cache.hit_ratio": summarize([0.94]),
            "trace.overhead_share": summarize([self_us / 50.0]),
        }
        return report

    assert compare.count_differences(layers(3000, 11.0),
                                     layers(3000, 12.5)) == []
    assert compare.count_differences(layers(3000, 11.0),
                                     layers(2900, 11.0)) == [
        ("dns_hot", "dnssrv.stub.calls", 3000, 2900)]
