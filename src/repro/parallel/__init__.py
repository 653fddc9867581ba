"""Sharded multi-process simulation with deterministic merge.

The session loop is the simulator's wall-clock ceiling: the vectorized
kernels cover mapping and scoring, but one Python process still walks
every client session of every simulated day in sequence.  This package
partitions the *client population* into closed sub-worlds (shards),
runs the one roll-out day loop (:mod:`repro.simulation.rollout`) over
each slice across worker processes, and merges their outputs back
into one report -- byte-identical no matter how many workers ran,
because the unit of determinism is the shard plan, not the process
count.

* :mod:`repro.parallel.plan` -- the deterministic prefix partitioner
  and the per-shard population slice (RNG stream, session quota,
  block pick) the day loop runs over.
* :mod:`repro.parallel.engine` -- the shard task (build the static
  ecosystem once), the shard worker (wire a live world over it, slice,
  run the loop, package), one worker process per task, and the monitor
  fed one merged day record per day.
* :mod:`repro.parallel.merge` -- the merge algebra for everything a
  shard produces (registries, RUM beacons, query logs, traces, day
  records).

Entry points: ``repro.api.run(spec, workers=N)`` and the CLIs
(``python -m repro sim rollout --workers N``,
``python -m repro soak --workers N``).
"""

from repro.parallel.plan import (
    DEFAULT_SHARDS,
    ShardPlan,
    apportion,
    plan_shards,
    shard_of_prefix,
)
from repro.parallel.engine import ShardedRun, run_sharded

__all__ = [
    "DEFAULT_SHARDS",
    "ShardPlan",
    "ShardedRun",
    "apportion",
    "plan_shards",
    "run_sharded",
    "shard_of_prefix",
]
