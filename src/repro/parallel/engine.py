"""The sharded roll-out engine: shard workers, pool, merge.

Execution model
---------------

``run_sharded(spec, workers=N, n_shards=K)`` splits the *client
population* of one :class:`~repro.api.ScenarioSpec` into ``K`` closed
sub-worlds (:mod:`repro.parallel.plan`) and executes them on up to
``N`` processes.  Each shard worker

1. rebuilds the **full** world from the spec -- worlds are pure
   functions of their seeds, so infrastructure (clusters, name
   servers, LDNS fleet, fault schedule, control plane) is replicated
   identically in every shard;
2. runs the one roll-out day loop
   (:func:`repro.simulation.rollout._run_rollout`) over **its own
   slice of the population**
   (:meth:`~repro.parallel.plan.ShardPlan.population_slice`): a
   shard-local RNG seeded by ``f"{seed}:shard:{index}"``, the shard's
   largest-remainder session quota for each day, and block picks
   restricted to the shard's blocks;
3. returns its result, registry, traces, and -- when a monitor is
   attached -- the :class:`~repro.obs.monitor.driver.DayRecord` the
   day loop built after each simulated day.

The parent merges everything in fixed shard order
(:mod:`repro.parallel.merge`); with a monitor, it folds each day's
shard records into one and hands the monitor that, so alert rules
evaluate the same global per-day signals a serial monitored run's
records carry.

Determinism contract
--------------------

``workers`` only sizes the process pool; the shard plan (and hence
every random draw) is fixed by ``n_shards``.  ``workers=1`` executes
the same shards serially in-process, so reports are **byte-identical**
across worker counts.  A serial run (``workers=None`` at the API
layer) is the same loop over the whole population drawing from one
``Random(seed)``; the timeline state it shares with every shard plan
(session volume, ECS tranche, expectation groups) agrees exactly,
while per-session draws belong to each plan's own RNG streams.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultInjector
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor.driver import DayRecord
from repro.parallel.merge import (
    merge_day_records,
    merge_query_logs,
    merge_registries,
    merge_rum,
    merge_traces,
    sum_day_dicts,
)
from repro.parallel.plan import DEFAULT_SHARDS, plan_shards
from repro.simulation.rollout import RolloutResult, _run_rollout
from repro.simulation.world import _build_world


@dataclass
class ShardOutput:
    """Everything one shard worker ships back to the parent."""

    shard: int
    result: RolloutResult
    """The shard's own roll-out result (its beacons, query log, and
    per-day tallies over its slice of the population)."""
    registry: MetricsRegistry
    traces: List[Dict]
    trace_counts: Dict[str, int]
    days: List[DayRecord]
    """The shard's day records; empty unless a monitor is attached."""


def _shard_worker(payload: Tuple) -> ShardOutput:
    """Run one shard end to end (executes inside a pool process):
    build the world, slice the population, walk the shared day loop,
    package the output."""
    spec, shard, n_shards = payload
    # Each worker sees 1/n_shards of the demand, so observed load
    # scales back up by n_shards to keep the utilization signal (and
    # hence scoring penalties) aligned across worker counts.
    world = _build_world(spec, load_scale=float(n_shards))
    injector = FaultInjector(world, spec.faults) if spec.faults else None
    population = plan_shards(world.internet, n_shards).population_slice(
        shard, world.internet.blocks, spec.rollout.seed)
    days: List[DayRecord] = []
    observer = SimpleNamespace(on_day=days.append) if spec.monitor else None
    result = _run_rollout(world, config=spec.rollout, observer=observer,
                          injector=injector, traffic=spec.traffic,
                          population=population)

    # Materialize collector gauges one last time, then detach the
    # world: only the registry's instrument state crosses the process
    # boundary (``MetricsRegistry.__getstate__`` drops collectors).
    registry = world.obs.registry
    registry.collect()
    tracer = world.obs.tracer
    return ShardOutput(
        shard=shard, result=result, registry=registry,
        traces=tracer.export(),
        trace_counts={"started": tracer.started,
                      "sampled": tracer.sampled,
                      "dropped": tracer.dropped},
        days=days)


# -- the merged run ----------------------------------------------------------

@dataclass
class ShardedRun:
    """A completed sharded scenario: merged outputs and monitor.

    The sharded sibling of :class:`repro.api.ScenarioRun`.  There is no
    single live ``world`` (each worker's world died with its process);
    the merged registry and trace export stand in for the world-level
    observability surfaces.
    """

    spec: object
    result: object
    monitor: Optional[object]
    registry: MetricsRegistry
    traces: List[Dict]
    trace_counts: Dict[str, int]
    n_shards: int
    workers: int
    shard_sessions: List[int]
    """Total sessions simulated per shard (the load-split record)."""

    def report(self, scenario: Optional[Dict] = None) -> Dict:
        """The monitor's deterministic report document."""
        if self.monitor is None:
            raise ValueError(
                "scenario ran without a monitor (spec.monitor=False)")
        return self.monitor.report(scenario if scenario is not None
                                   else self.spec.describe())


def _validate_parallelism(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a positive integer, "
                         f"got {value!r}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def run_sharded(spec=None, *, workers: int = 1,
                n_shards: int = DEFAULT_SHARDS) -> ShardedRun:
    """Execute one scenario sharded across worker processes."""
    from repro.api import ScenarioSpec, _monitor_for_spec

    spec = spec or ScenarioSpec()
    workers = _validate_parallelism(workers, "workers")
    n_shards = _validate_parallelism(n_shards, "n_shards")
    if spec.policy is not None:
        raise ValueError(
            "sharded execution rebuilds the world in each worker and "
            f"cannot ship a live {type(spec.policy).__name__} policy "
            "object; pass policy=None (the default mapping) or run "
            "serially (workers=None)")

    payloads = [(spec, shard, n_shards) for shard in range(n_shards)]
    if workers == 1:
        outputs = [_shard_worker(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(
                max_workers=min(workers, n_shards)) as pool:
            futures = [pool.submit(_shard_worker, payload)
                       for payload in payloads]
            outputs = [future.result() for future in futures]

    # -- merge, in fixed shard order --------------------------------------
    results = [out.result for out in outputs]
    first = results[0]
    result = RolloutResult(
        config=spec.rollout,
        rum=merge_rum([r.rum for r in results]),
        query_log=merge_query_logs([r.query_log for r in results]),
        sessions_per_day=sum_day_dicts(
            r.sessions_per_day for r in results),
        requests_per_day=sum_day_dicts(
            r.requests_per_day for r in results),
        failed_sessions_per_day=sum_day_dicts(
            r.failed_sessions_per_day for r in results),
        degraded_sessions_per_day=sum_day_dicts(
            r.degraded_sessions_per_day for r in results),
        catchment_shifted_per_day=sum_day_dicts(
            r.catchment_shifted_per_day for r in results),
        # Timeline state is replicated, not additive: every shard
        # computed the same values, so the first one speaks for all.
        ecs_resolvers_per_day=dict(first.ecs_resolvers_per_day),
        high_expectation_countries=list(
            first.high_expectation_countries),
        median_public_distance=dict(first.median_public_distance),
    )
    registry = merge_registries([out.registry for out in outputs])
    traces = merge_traces([out.traces for out in outputs])
    trace_counts = {
        key: sum(out.trace_counts.get(key, 0) for out in outputs)
        for key in ("started", "sampled", "dropped")}

    monitor = None
    if spec.monitor:
        monitor = _monitor_for_spec(spec)
        for shard_records in zip(*(out.days for out in outputs)):
            monitor.on_day(merge_day_records(shard_records))

    return ShardedRun(
        spec=spec, result=result, monitor=monitor, registry=registry,
        traces=traces, trace_counts=trace_counts, n_shards=n_shards,
        workers=workers,
        shard_sessions=[sum(r.sessions_per_day.values())
                        for r in results])
