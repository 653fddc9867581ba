"""The day record: the one thing the day loop hands an observer.

Pins what :class:`repro.obs.monitor.DayRecord` guarantees:

* a kept record still reads its own day -- its registry is an
  end-of-day clone, not a live view the next day overwrites;
* the clone is faithful -- ``snapshot()`` of an end-of-run
  ``registry.clone()`` equals the live registry's;
* both engines agree with their own results -- the records the
  monitor folds (merged across shards for a sharded run) carry the
  run's per-day tallies, query-log bucket counts and beacons.
"""

import dataclasses
import datetime
import json

import pytest

from repro.api import ScenarioSpec, build_world, run, run_rollout
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.obs.monitor import DayRecord, RolloutMonitor
from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig

SHORT = RolloutConfig(
    start_date=datetime.date(2014, 3, 1),
    end_date=datetime.date(2014, 3, 10),
    rollout_start=datetime.date(2014, 3, 3),
    rollout_end=datetime.date(2014, 3, 6),
    sessions_per_day=12,
    seed=3,
)

#: A public-resolver blackout (sessions degrade onto fallbacks) and a
#: whole-authority outage (sessions fail), so the tallies the records
#: carry are not trivially zero.
SPEC = ScenarioSpec(
    world=WorldConfig.tiny(),
    rollout=SHORT,
    faults=FaultSchedule((
        FaultEvent(start_day=2, duration_days=3, target="public:*",
                   kind=FaultKind.LDNS_BLACKOUT),
        FaultEvent(start_day=6, duration_days=2, target="ns:*",
                   kind=FaultKind.AUTH_OUTAGE),
    )))


def _snapshot_json(registry) -> str:
    return json.dumps(registry.snapshot(), sort_keys=True)


class _Keeper:
    """Keeps every record, plus its registry as read on arrival."""

    def __init__(self) -> None:
        self.records = []
        self.on_arrival = []

    def on_day(self, record: DayRecord) -> None:
        self.records.append(record)
        self.on_arrival.append(_snapshot_json(record.registry))


class TestRecordIsSelfContained:
    def test_kept_record_still_reads_its_own_day(self):
        keeper = _Keeper()
        run_rollout(build_world(WorldConfig.tiny()), SHORT,
                    observer=keeper)
        assert [r.day for r in keeper.records] == list(range(SHORT.n_days))
        for record, seen in zip(keeper.records, keeper.on_arrival):
            assert _snapshot_json(record.registry) == seen
        first, last = keeper.records[0], keeper.records[-1]
        assert (first.registry.value("rollout.sessions")
                < last.registry.value("rollout.sessions"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            first.day = 7

    def test_end_of_run_clone_snapshots_like_the_live_registry(self):
        """Collector-backed gauges (control plane, load feedback,
        resolver fleets) survive the clone unchanged."""
        outcome = run(dataclasses.replace(
            SPEC, control_plane=MapMakerConfig(),
            load_feedback=LoadFeedbackConfig(), monitor=False))
        live = outcome.world.obs.registry
        assert _snapshot_json(live.clone()) == _snapshot_json(live)


@pytest.fixture
def handed(monkeypatch):
    """Every record a :class:`RolloutMonitor` folds, in order."""
    seen = []
    fold = RolloutMonitor.on_day

    def spy(self, record):
        seen.append(record)
        fold(self, record)

    monkeypatch.setattr(RolloutMonitor, "on_day", spy)
    return seen


class TestRecordsMatchTheResult:
    @pytest.mark.parametrize("shards", (None, 1, 3))
    def test_folded_records_carry_the_runs_tallies(self, handed, shards):
        outcome = (run(SPEC) if shards is None
                   else run(SPEC, workers=1, shards=shards))
        result, log = outcome.result, outcome.result.query_log
        days = list(range(SHORT.n_days))
        assert [r.day for r in handed] == days
        for name, per_day in (
                ("sessions", result.sessions_per_day),
                ("failed", result.failed_sessions_per_day),
                ("degraded", result.degraded_sessions_per_day),
                ("shifted", result.catchment_shifted_per_day)):
            assert [getattr(r, name) for r in handed] == [
                per_day[day] for day in days], name
        assert sum(r.failed for r in handed) > 0
        assert sum(r.degraded for r in handed) > 0
        assert [r.queries for r in handed] == [
            log.bucket_count(day) for day in days]
        assert [r.queries_public for r in handed] == [
            log.bucket_count(day, public_only=True) for day in days]
        assert handed[-1].queries_total == log.total_queries
        assert handed[-1].ecs_queries == log.ecs_queries
        assert [b for r in handed for b in r.beacons] == result.rum.beacons
