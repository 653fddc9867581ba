"""The sharded roll-out engine: shard tasks, worker processes, merge.

Execution model
---------------

``run_sharded(spec, workers=N, n_shards=K)`` splits the *client
population* of one :class:`~repro.api.ScenarioSpec` into ``K`` closed
sub-worlds (:mod:`repro.parallel.plan`) and deals them round-robin
into ``min(N, K)`` tasks, one per process (``workers=1`` runs its one
task inline).  Each task

1. builds the **static ecosystem** once (:class:`ShardContext`): the
   Internet and content catalog
   (:class:`~repro.simulation.world.Ecosystem`), the expectation-group
   medians and the shard plan -- all pure functions of the spec, and
   read-only once built;
2. for each of its shards (:func:`_shard_worker`), wires a **fresh
   live world** over that ecosystem -- deployments, name servers, LDNS
   fleet, caches, registry, fault schedule, control plane, replicated
   identically in every shard because worlds are pure functions of
   their seeds -- and runs the one roll-out day loop
   (:func:`repro.simulation.rollout._run_rollout`) over **its own
   slice of the population**
   (:meth:`~repro.parallel.plan.ShardPlan.population_slice`): a
   shard-local RNG seeded by ``f"{seed}:shard:{index}"``, the shard's
   largest-remainder session quota for each day, and block picks
   restricted to the shard's blocks;
3. hands back each shard's result, detached registry, traces, and --
   when a monitor is attached -- the
   :class:`~repro.obs.monitor.driver.DayRecord` the day loop built
   after each simulated day, as soon as that shard finishes.  A
   finished shard keeps nothing of its world alive.

The parent merges everything in fixed shard order
(:mod:`repro.parallel.merge`); with a monitor, it folds each day's
shard records into one and hands the monitor that, so alert rules
evaluate the same global per-day signals a serial monitored run's
records carry.

Determinism contract
--------------------

``workers`` only sets how many processes run (and so how shards batch
into tasks); the shard plan (and hence every random draw) is fixed by
``n_shards``, and a shard's world is the same whether it is the first
or the fourth built over its task's ecosystem.  ``workers=1`` executes
the same shards serially in-process, so reports are
**byte-identical** across worker counts.  A serial run
(``workers=None`` at the API layer) is the same loop over the whole
population drawing from one ``Random(seed)``; the timeline state it
shares with every shard plan (session volume, ECS tranche, expectation
groups) agrees exactly, while per-session draws belong to each plan's
own RNG streams.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from multiprocessing.connection import wait
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional, Sequence

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
from repro.parallel.plan import DEFAULT_SHARDS, ShardPlan, plan_shards
from repro.simulation.rollout import (
    RolloutResult,
    _run_rollout,
    classify_expectation_groups,
)
from repro.simulation.world import Ecosystem, _build_world, build_ecosystem


@dataclass
class ShardOutput:
    """Everything one shard worker ships back to the parent."""

    shard: int
    result: RolloutResult
    """The shard's own roll-out result (its beacons, query log, and
    per-day tallies over its slice of the population)."""
    registry: MetricsRegistry
    """The shard world's registry, collected once more and detached."""
    traces: List[Dict]
    trace_counts: Dict[str, int]
    days: List[DayRecord]
    """The shard's day records; empty unless a monitor is attached."""


@dataclass(frozen=True)
class ShardContext:
    """What every shard of one task shares, built once per task.

    The split falls between what is a pure function of the spec and
    read-only once built (this) and what a shard mutates (its live
    world: caches, load, fault flags, instruments).
    """

    spec: object
    ecosystem: Ecosystem
    medians: Dict[str, float]
    """:func:`~repro.simulation.rollout.classify_expectation_groups`
    of the ecosystem's Internet."""
    plan: ShardPlan

    @classmethod
    def build(cls, spec, n_shards: int) -> "ShardContext":
        ecosystem = build_ecosystem(spec.world)
        return cls(spec=spec, ecosystem=ecosystem,
                   medians=classify_expectation_groups(ecosystem.internet),
                   plan=plan_shards(ecosystem.internet, n_shards))


def _shard_worker(context: ShardContext, shard: int) -> ShardOutput:
    """Run one shard end to end: wire a fresh world over the task's
    ecosystem, slice the population, walk the shared day loop, package
    the output."""
    spec = context.spec
    # Each worker sees 1/n_shards of the demand, so observed load
    # scales back up by n_shards to keep the utilization signal (and
    # hence scoring penalties) aligned across worker counts.
    world = _build_world(spec, load_scale=float(context.plan.n_shards),
                         ecosystem=context.ecosystem)
    injector = FaultInjector(world, spec.faults) if spec.faults else None
    population = context.plan.population_slice(
        shard, world.internet.blocks, spec.rollout.seed)
    days: List[DayRecord] = []
    observer = SimpleNamespace(on_day=days.append) if spec.monitor else None
    result = _run_rollout(world, config=spec.rollout, observer=observer,
                          injector=injector, traffic=spec.traffic,
                          population=population,
                          expectation_medians=context.medians)

    # Materialize collector gauges one last time, then detach them: the
    # collectors close over the world, and the next shard's world
    # should not have to share memory with this one.
    registry = world.obs.registry
    registry.collect()
    registry.detach()
    tracer = world.obs.tracer
    return ShardOutput(
        shard=shard, result=result, registry=registry,
        traces=tracer.export(),
        trace_counts={"started": tracer.started,
                      "sampled": tracer.sampled,
                      "dropped": tracer.dropped},
        days=days)


def _shard_task(spec, shards: Sequence[int],
                n_shards: int) -> Iterator[ShardOutput]:
    """Run a batch of shards in one process: build the static
    ecosystem once, then one live world per shard, yielding each
    shard's output as it finishes."""
    context = ShardContext.build(spec, n_shards)
    for shard in shards:
        yield _shard_worker(context, shard)


def _piped_shard_task(conn, spec, shards: Sequence[int],
                      n_shards: int) -> None:
    """:func:`_shard_task` in a worker process: send each finished
    shard's output down ``conn`` at once, so neither side ever holds a
    whole batch's outputs in flight.  A failure is sent in place of
    the next output, as ``(exception, formatted traceback)``; a process
    that dies without sending one leaves the parent an early EOF."""
    try:
        for out in _shard_task(spec, shards, n_shards):
            conn.send(out)
    except Exception as error:
        remote = traceback.format_exc()
        try:
            conn.send((error, remote))
        except Exception:  # the exception itself does not pickle
            conn.send((RuntimeError(f"shard task failed: {error!r}"),
                       remote))
    finally:
        conn.close()


def _run_tasks(spec, batches: List[range],
               n_shards: int) -> List[ShardOutput]:
    """Start one worker process per batch and collect the shard
    outputs in arrival order."""
    procs = []
    owed: Dict = {}  # open receiving end -> outputs still to come
    try:
        for batch in batches:
            receiver, sender = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(
                target=_piped_shard_task,
                args=(sender, spec, batch, n_shards))
            proc.start()
            sender.close()
            procs.append(proc)
            owed[receiver] = len(batch)
        outputs: List[ShardOutput] = []
        while owed:
            for conn in wait(list(owed)):
                try:
                    item = conn.recv()
                except EOFError:
                    raise RuntimeError(
                        "a shard worker process exited before sending "
                        "all of its shards") from None
                if not isinstance(item, ShardOutput):
                    error, remote = item
                    raise error from RuntimeError(
                        f"in the shard worker process:\n{remote}")
                outputs.append(item)
                owed[conn] -= 1
                if not owed[conn]:
                    del owed[conn]
                    conn.close()
        for proc in procs:
            proc.join()
        return outputs
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
        for conn in owed:
            conn.close()


# -- the merged run ----------------------------------------------------------

@dataclass
class ShardedRun:
    """A completed sharded scenario: merged outputs and monitor.

    The sharded sibling of :class:`repro.api.ScenarioRun`.  There is no
    single live ``world`` (each shard's world died when its shard
    finished);
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
    """Execute one scenario sharded across worker processes: the
    ``n_shards`` shards, dealt round-robin into ``min(workers,
    n_shards)`` tasks, each task one process (the only one runs
    inline)."""
    from repro.api import ScenarioSpec, _monitor_for_spec

    spec = spec or ScenarioSpec()
    workers = _validate_parallelism(workers, "workers")
    n_shards = _validate_parallelism(n_shards, "n_shards")
    if spec.policy is not None:
        raise ValueError(
            "sharded execution builds a fresh world per shard and "
            f"cannot ship a live {type(spec.policy).__name__} policy "
            "object; pass policy=None (the default mapping) or run "
            "serially (workers=None)")

    n_tasks = min(workers, n_shards)
    batches = [range(task, n_shards, n_tasks) for task in range(n_tasks)]
    if n_tasks == 1:
        outputs = list(_shard_task(spec, batches[0], n_shards))
    else:
        outputs = sorted(_run_tasks(spec, batches, n_shards),
                         key=lambda out: out.shard)

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
