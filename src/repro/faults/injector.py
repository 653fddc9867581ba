"""Applies a :class:`FaultSchedule` to a live world, day by day.

The injector is driven by the roll-out loop: ``step(day)`` diffs the
set of events active on ``day`` against what is currently applied,
reverts the events that ended, and applies the ones that started --
always in the schedule's canonical order, so replays are
deterministic.

There is one apply and one revert for every kind; what differs per
kind -- who the victims are, what breaking one means -- is its
:data:`repro.faults.kinds.KINDS` row.  An active event *holds* each of
its victims; a victim is broken by its first holder and put back --
to exactly what it was -- when its last holder lets go.  So a
scheduled fault is in force for its whole window whatever else
overlaps it (``ns:*`` ending does not revive an ``ns:0`` outage still
running), and recovery is exact in any start/end order.  When two
overlapping events of one kind carry different parameters, the first
holder's stay in force.

While any fault is active the world's tracer carries a ``faults``
context attribute, so every sampled trace records which outages were
in force when it ran.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.faults.kinds import KINDS
from repro.faults.schedule import FaultEvent, FaultSchedule

_HoldKey = Tuple[str, int]


class FaultInjector:
    """Replays one schedule against one world."""

    def __init__(self, world, schedule: FaultSchedule) -> None:
        self.world = world
        self.schedule = schedule
        self.events_applied = 0
        self._applied: Dict[FaultEvent, List[_HoldKey]] = {}
        # (flipped attribute, id(victim)) -> [holders, undo]; the undo
        # closure keeps the victim alive, so its id stays its own.
        self._holds: Dict[_HoldKey, list] = {}

    @property
    def active_events(self) -> List[FaultEvent]:
        return sorted(self._applied,
                      key=lambda e: (e.start_day, e.kind, e.target))

    def step(self, day: int) -> None:
        """Bring the world in sync with the schedule for ``day``."""
        active = self.schedule.active(day)
        for event in [e for e in self._applied if e not in active]:
            self._revert(event)
        for event in active:
            if event not in self._applied:
                self._applied[event] = self._apply(event)
                self.events_applied += 1
                # The fault schedule replays identically in every shard
                # of a sharded run, so both instruments merge by max.
                self.world.obs.registry.counter(
                    "faults.events_applied", merge="max").inc()
        self.world.obs.registry.gauge("faults.active", merge="max").set(
            len(self._applied))
        self._sync_trace_context()

    def finish(self) -> None:
        """Revert everything still applied (end-of-run cleanup)."""
        for event in self.active_events:
            self._revert(event)
        self._sync_trace_context()

    def _apply(self, event: FaultEvent) -> List[_HoldKey]:
        row = KINDS[event.kind]
        keys = []
        for victim in row.targets.resolve(self.world, event.target):
            key = (row.attr or row.name, id(victim))
            hold = self._holds.get(key)
            if hold is None:
                hold = self._holds[key] = [
                    0, row.apply(self.world, victim, event)]
            hold[0] += 1
            keys.append(key)
        return keys

    def _revert(self, event: FaultEvent) -> None:
        for key in self._applied.pop(event):
            hold = self._holds[key]
            hold[0] -= 1
            if not hold[0]:
                del self._holds[key]
                hold[1]()

    def _sync_trace_context(self) -> None:
        tracer = self.world.obs.tracer
        if self._applied:
            labels = sorted(f"{e.kind}:{e.target}" for e in self._applied)
            tracer.context["faults"] = ",".join(labels)
        else:
            tracer.context.pop("faults", None)
