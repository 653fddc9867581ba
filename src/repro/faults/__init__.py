"""Deterministic fault injection (`repro.faults`).

* :mod:`repro.faults.kinds` -- the fault table: one row per kind
  (plane, target grammar, victims, what breaking one means, soak
  menu) that everything below reads.
* :mod:`repro.faults.schedule` -- declarative ``FaultSchedule`` /
  ``FaultEvent`` data model: when targets break and recover.
* :mod:`repro.faults.injector` -- ``FaultInjector`` applies a schedule
  to a live world day by day, with exact reverts on recovery.
* :mod:`repro.faults.chaos` -- seeded random schedule generation and
  the ``python -m repro soak`` campaign runner with its global
  invariants (determinism, availability floor, exact recovery,
  conservation).

The degradation machinery the schedules exercise (retry/backoff,
serve-stale, EU->NS fallback, stub failover) lives in the components
themselves; this package only orchestrates *when* they get exercised.
"""

from repro.faults.chaos import (
    SoakConfig,
    SplitMix64,
    generate_schedule,
    run_soak,
    scenario_seed,
)
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

__all__ = [
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultSchedule",
    "SoakConfig",
    "SplitMix64",
    "generate_schedule",
    "run_soak",
    "scenario_seed",
]
