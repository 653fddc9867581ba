"""The sharded engine (``repro.parallel``): plan, merge, determinism.

The headline contract is pinned three ways:

* **worker-count invariance** -- the same spec run with 1, 2, and 4
  workers produces byte-identical monitor reports, merged registries,
  and trace exports, for both the golden fault scenario (faults +
  control plane) and a plain monitored roll-out;
* **golden fixtures** -- a discrete (float-free) projection of each
  sharded report is checked in under ``tests/data/``, so drift in the
  shard plan, the merge algebra, or the monitor's fold shows up as a
  reviewable fixture diff (regenerate with ``REGEN_GOLDEN=1``);
* **plan algebra** -- the prefix partitioner and largest-remainder
  apportioner are pinned against hand-computed values, since every
  byte above depends on them;
* **cross-engine agreement** -- serial and sharded runs walk one day
  loop, so everything the timeline replicates (session volume, ECS
  tranche, expectation groups) must agree exactly for any shard count.
"""

import dataclasses
import datetime
import json
import random

import pytest

import repro.parallel
from repro.api import ScenarioSpec, build_world, run
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.topology.traffic import TrafficSchedule, TrafficShape
from repro.parallel import (
    DEFAULT_SHARDS,
    apportion,
    plan_shards,
    run_sharded,
    shard_of_prefix,
)
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

from tests.golden import DATA_DIR, check_golden


FAULT_SPEC = ScenarioSpec(
    world=dataclasses.replace(WorldConfig.tiny(),
                              serve_stale_window=900.0),
    rollout=RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 3, 21),
        rollout_start=datetime.date(2014, 3, 6),
        rollout_end=datetime.date(2014, 3, 12),
        sessions_per_day=10,
        seed=1046646336,
    ),
    faults=FaultSchedule((
        FaultEvent(9, 4, "mapmaker:primary", FaultKind.MAPMAKER_HANG),
        FaultEvent(14, 4, "mapmaker:primary", FaultKind.MAP_CORRUPTION),
        FaultEvent(15, 5, "mapmaker:*", FaultKind.MAPMAKER_CRASH),
    )),
    control_plane=MapMakerConfig())
"""Fault schedule + map-maker control plane + monitor -- the heaviest
path through the sharded engine.  Spelled out literally so
``golden_shard_fault.json`` pins the engine and nothing that could
generate a spec."""


def _rollout_spec() -> ScenarioSpec:
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
        monitor=True)


ROLLOUT_SPEC = _rollout_spec()


def _load_feedback_spec() -> ScenarioSpec:
    """A flash crowd + content surge over a capacity-starved world
    with the load-feedback loop on: the path where shard-local load
    accounting (scaled by ``n_shards``) must still merge and replay
    byte-identically."""
    spec = _rollout_spec()
    return dataclasses.replace(
        spec,
        world=dataclasses.replace(spec.world,
                                  server_capacity_rps=0.08),
        control_plane=MapMakerConfig(),
        traffic=TrafficSchedule((
            TrafficShape(start_day=6, duration_days=6,
                         target="continent:NA", kind="flash_crowd",
                         magnitude=4.0),
            TrafficShape(start_day=4, duration_days=5,
                         target="provider:provider1",
                         kind="content_surge", magnitude=6.0),
        )).validate(),
        load_feedback=LoadFeedbackConfig())


LOAD_FEEDBACK_SPEC = _load_feedback_spec()

WORKER_COUNTS = (1, 2, 4)


@pytest.fixture(scope="module")
def fault_runs():
    return {workers: run_sharded(FAULT_SPEC, workers=workers, n_shards=4)
            for workers in WORKER_COUNTS}


@pytest.fixture(scope="module")
def rollout_runs():
    return {workers: run_sharded(ROLLOUT_SPEC, workers=workers,
                                 n_shards=4)
            for workers in WORKER_COUNTS}


@pytest.fixture(scope="module")
def feedback_runs():
    return {workers: run_sharded(LOAD_FEEDBACK_SPEC, workers=workers,
                                 n_shards=4)
            for workers in (1, 4)}


@pytest.fixture(scope="module")
def tiny_world():
    return build_world(WorldConfig.tiny())


AGREEMENT_SPECS = {
    "plain": {},
    "surge": {"traffic": LOAD_FEEDBACK_SPEC.traffic},
    "faults": {"faults": FaultSchedule((FaultEvent(
        start_day=3, duration_days=4, target="ns:0",
        kind=FaultKind.AUTH_OUTAGE),))},
}


@pytest.fixture(scope="module", params=sorted(AGREEMENT_SPECS))
def serial_run(request):
    return run(dataclasses.replace(ROLLOUT_SPEC, monitor=False,
                                   **AGREEMENT_SPECS[request.param]))


# -- worker-count invariance -------------------------------------------------

def _frozen(sharded) -> dict:
    """Every byte-comparable artifact of one sharded run."""
    return {
        "report": json.dumps(sharded.report(), sort_keys=True),
        "registry": sharded.registry.to_json(),
        "traces": json.dumps(sharded.traces, sort_keys=True),
        "sessions": json.dumps(sharded.result.sessions_per_day),
        "beacons": repr([
            (b.day, str(b.block), b.rtt_ms)
            for b in sharded.result.rum.beacons[:50]]),
        "shard_sessions": sharded.shard_sessions,
    }


class TestWorkerInvariance:
    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_fault_scenario_is_byte_identical(self, fault_runs, workers):
        assert _frozen(fault_runs[workers]) == _frozen(fault_runs[1])

    @pytest.mark.parametrize("workers", WORKER_COUNTS[1:])
    def test_monitored_rollout_is_byte_identical(self, rollout_runs,
                                                 workers):
        assert _frozen(rollout_runs[workers]) == _frozen(rollout_runs[1])

    def test_shard_sessions_account_for_every_session(self, rollout_runs):
        sharded = rollout_runs[1]
        assert sum(sharded.shard_sessions) == sum(
            sharded.result.sessions_per_day.values())
        assert len(sharded.shard_sessions) == sharded.n_shards

    def test_merged_beacons_arrive_day_sorted(self, fault_runs):
        days = [beacon.day
                for beacon in fault_runs[1].result.rum.beacons]
        assert days == sorted(days)

    def test_monitor_replay_produces_a_report(self, fault_runs):
        report = fault_runs[1].report()
        assert report["days_observed"] == FAULT_SPEC.rollout.n_days
        assert "alerts" in report and "series" in report

    def test_load_feedback_run_is_byte_identical(self, feedback_runs):
        assert _frozen(feedback_runs[4]) == _frozen(feedback_runs[1])

    def test_load_feedback_gauges_survive_the_merge(self, feedback_runs):
        """The tracker's gauges are replicated state (merge=max): the
        merged registry carries the per-shard-scaled utilization
        signal, not ``n_shards`` times it."""
        snapshot = feedback_runs[1].registry.snapshot()
        assert snapshot["gauges"]["cluster.load.p95"] > 0.0
        demoted = snapshot["gauges"]["mapping.load_demoted_share"]
        assert 0.0 < demoted <= 1.0
        assert (feedback_runs[4].registry.snapshot()["gauges"]
                ["mapping.load_demoted_share"] == demoted)


# -- cross-engine agreement --------------------------------------------------

class TestCrossEngineAgreement:
    @pytest.mark.parametrize("shards", (1, 3, 8))
    def test_sharded_run_replicates_the_serial_timeline(self, serial_run,
                                                        shards):
        """Sharding changes which slice of the population a worker
        serves, never the timeline it walks."""
        sharded = run(serial_run.spec, workers=1, shards=shards)
        serial, merged = serial_run.result, sharded.result
        assert merged.sessions_per_day == serial.sessions_per_day
        assert merged.ecs_resolvers_per_day == serial.ecs_resolvers_per_day
        assert (merged.high_expectation_countries
                == serial.high_expectation_countries)
        assert merged.median_public_distance == serial.median_public_distance
        serial_gauges = serial_run.world.obs.registry.snapshot()["gauges"]
        merged_gauges = sharded.registry.snapshot()["gauges"]
        for name in ("rollout.day", "rollout.ecs_resolvers"):
            assert merged_gauges[name] == serial_gauges[name]


# -- golden fixtures ---------------------------------------------------------

def _stable(item) -> bool:
    """Keep everything except floats with a fractional part (those
    carry platform libm noise; integral floats -- counts, day indices
    -- survive any libm)."""
    if not isinstance(item, float):
        return True
    return item in (float("inf"), float("-inf")) or (
        item == item and item == int(item))


def _discrete(value):
    """Projection of a report keeping only platform-stable values."""
    if isinstance(value, dict):
        return {key: _discrete(item) for key, item in value.items()
                if _stable(item) or isinstance(item, (dict, list))}
    if isinstance(value, list):
        return [_discrete(item) for item in value
                if _stable(item) or isinstance(item, (dict, list))]
    return value


def _golden_document(sharded) -> dict:
    snapshot = sharded.registry.snapshot()
    return {
        "n_shards": sharded.n_shards,
        "shard_sessions": sharded.shard_sessions,
        "report": _discrete(sharded.report()),
        "counters": {
            "rollout.sessions": snapshot["counters"]["rollout.sessions"],
            "sessions.completed": snapshot["counters"][
                "sessions.completed"],
            "mapping.resolutions": snapshot["gauges"][
                "mapping.resolutions"],
        },
        "trace_counts": sharded.trace_counts,
    }


class TestGoldenFixtures:
    def test_fault_scenario_fixture(self, fault_runs):
        check_golden(DATA_DIR / "golden_shard_fault.json",
                      _golden_document(fault_runs[1]))

    def test_monitored_rollout_fixture(self, rollout_runs):
        check_golden(DATA_DIR / "golden_shard_rollout.json",
                      _golden_document(rollout_runs[1]))

    def test_load_feedback_fixture(self, feedback_runs):
        """Flash crowd + content surge + load feedback, sharded: pins
        the surge apportionment, the scaled load accounting, and the
        overload fallback counter alongside the standard projection."""
        sharded = feedback_runs[1]
        snapshot = sharded.registry.snapshot()
        document = _golden_document(sharded)
        document["counters"]["lb.overloaded_picks"] = (
            snapshot["counters"].get("lb.overloaded_picks", 0.0))
        document["load_gauges"] = sorted(
            name for name in snapshot["gauges"]
            if name.startswith(("cluster.load.", "mapping.load_")))
        check_golden(DATA_DIR / "golden_load_feedback.json", document)


# -- plan algebra ------------------------------------------------------------

class TestShardOfPrefix:
    def test_pinned_values(self):
        # Hand-computed through the SplitMix64 finalizer; a change here
        # re-deals every block and invalidates the golden fixtures.
        assert shard_of_prefix(0, 8) == 7
        assert shard_of_prefix(0x0A000000, 8) == 2
        assert shard_of_prefix(0xC0A80000, 8) == 0

    def test_range_and_determinism(self):
        for addr in range(0, 1 << 16, 977):
            first = shard_of_prefix(addr, 8)
            assert 0 <= first < 8
            assert shard_of_prefix(addr, 8) == first

    def test_spreads_sequential_prefixes(self):
        """Adjacent /24s land on different shards (the whole point of
        hashing instead of range-splitting)."""
        shards = {shard_of_prefix(addr << 8, 8)
                  for addr in range(256)}
        assert len(shards) == 8


class TestApportion:
    def test_preserves_total_exactly(self):
        shares = [0.1, 0.2, 0.3, 0.4]
        for total in (0, 1, 7, 100, 1_000_003):
            assert sum(apportion(total, shares)) == total

    def test_largest_remainder_hand_example(self):
        # Quotas 1.4 / 2.8 / 2.8: floors give 5, the two 0.8
        # remainders win the missing units.
        assert apportion(7, [0.2, 0.4, 0.4]) == [1, 3, 3]

    def test_zero_weight_goes_to_first_bucket(self):
        assert apportion(5, [0.0, 0.0]) == [5, 0]

    def test_deterministic_tie_break_by_index(self):
        assert apportion(1, [0.5, 0.5]) == [1, 0]


class TestShardPlan:
    def test_partitions_every_block_exactly_once(self, tiny_world):
        internet = tiny_world.internet
        plan = plan_shards(internet, 4)
        assert plan.n_shards == 4
        seen = sorted(index for shard in plan.block_indices
                      for index in shard)
        assert seen == list(range(len(internet.blocks)))

    def test_matches_prefix_hash(self, tiny_world):
        internet = tiny_world.internet
        plan = plan_shards(internet, 4)
        for shard, indices in enumerate(plan.block_indices):
            for index in indices:
                prefix = internet.blocks[index].prefix
                assert shard_of_prefix(prefix.network, 4) == shard

    def test_pick_block_stays_inside_the_shard(self, tiny_world):
        internet = tiny_world.internet
        plan = plan_shards(internet, 4)
        rng = random.Random(3)
        own = {internet.blocks[i].prefix for i in plan.block_indices[2]}
        population = plan.population_slice(2, internet.blocks, seed=5)
        for _ in range(64):
            assert population.pick_block(rng).prefix in own

    def test_one_shard_slice_gets_the_global_quota(self, tiny_world):
        """The 1-shard plan is the whole population: every block, and
        the full session count on baseline and surge days alike."""
        internet = tiny_world.internet
        whole = plan_shards(internet, 1).population_slice(
            0, internet.blocks, seed=5)
        assert whole.blocks == internet.blocks
        for day in range(ROLLOUT_SPEC.rollout.n_days):
            for traffic in (None, LOAD_FEEDBACK_SPEC.traffic):
                assert whole.quota(1234, traffic, day) == 1234

    def test_session_quotas_follow_demand(self, tiny_world):
        plan = plan_shards(tiny_world.internet, 4)
        quotas = plan.sessions_for_day(10_000)
        assert sum(quotas) == 10_000
        total_demand = sum(plan.demands)
        for shard, quota in enumerate(quotas):
            expected = 10_000 * plan.demands[shard] / total_demand
            assert abs(quota - expected) < 1.0


# -- guard rails -------------------------------------------------------------

class TestValidation:
    def test_workers_must_be_positive_ints(self):
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError):
                run_sharded(ROLLOUT_SPEC, workers=bad, n_shards=2)
        with pytest.raises(ValueError):
            run_sharded(ROLLOUT_SPEC, workers=1, n_shards=0)

    def test_zero_shards_is_refused_not_defaulted(self, monkeypatch):
        with pytest.raises(ValueError, match="n_shards"):
            run(ROLLOUT_SPEC, workers=1, shards=0)
        seen = []
        monkeypatch.setattr(
            repro.parallel, "run_sharded",
            lambda spec, workers, n_shards: seen.append(n_shards))
        run(ROLLOUT_SPEC, workers=1)
        run(ROLLOUT_SPEC, workers=1, shards=None)
        assert seen == [DEFAULT_SHARDS, DEFAULT_SHARDS]

    def test_live_policy_objects_cannot_shard(self):
        spec = ScenarioSpec(world=WorldConfig.tiny(), policy=object())
        with pytest.raises(ValueError, match="policy"):
            run_sharded(spec, workers=2)

    def test_shards_without_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run(ROLLOUT_SPEC, shards=4)

    def test_default_shard_count_is_eight(self):
        assert DEFAULT_SHARDS == 8
