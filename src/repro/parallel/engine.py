"""The sharded roll-out engine: shard workers, pool, merge, replay.

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
   attached -- one registry clone per simulated day.

The parent merges everything in fixed shard order
(:mod:`repro.parallel.merge`) and *replays the monitor* over the
merged per-day registries, so alert rules evaluate the same global
per-day signals they see in a serial monitored run.

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
from typing import Dict, List, Optional, Tuple

from repro.faults import FaultInjector
from repro.measurement.querylog import QueryLog
from repro.measurement.rum import RumBeacon
from repro.obs.metrics import MetricsRegistry
from repro.parallel.merge import (
    merge_query_logs,
    merge_registries,
    merge_rum,
    merge_traces,
    sum_day_dicts,
)
from repro.parallel.plan import DEFAULT_SHARDS, plan_shards
from repro.simulation.rollout import RolloutResult, _run_rollout
from repro.simulation.world import _build_world


class _DayCapture:
    """``on_day`` observer feeding the parent's monitor replay: one
    instrument-only registry clone per day (``clone()`` runs the
    collectors first, so collector-backed gauges hold end-of-day
    component state) plus the query log's cumulative totals."""

    def __init__(self) -> None:
        self.registries: Dict[int, MetricsRegistry] = {}
        self.query_cums: Dict[int, Tuple[int, int]] = {}

    def on_day(self, day: int, world, result) -> None:
        self.registries[day] = world.obs.registry.clone()
        self.query_cums[day] = (world.query_log.total_queries,
                                world.query_log.ecs_queries)


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
    capture: Optional[_DayCapture] = None
    """Per-day registry clones, when a monitor will be replayed."""


def _shard_worker(payload: Tuple) -> ShardOutput:
    """Run one shard end to end (executes inside a pool process):
    build the world, slice the population, walk the shared day loop,
    package the output."""
    spec, shard, n_shards, capture_days = payload
    # Each worker sees 1/n_shards of the demand, so observed load
    # scales back up by n_shards to keep the utilization signal (and
    # hence scoring penalties) aligned across worker counts.
    world = _build_world(spec, load_scale=float(n_shards))
    injector = FaultInjector(world, spec.faults) if spec.faults else None
    population = plan_shards(world.internet, n_shards).population_slice(
        shard, world.internet.blocks, spec.rollout.seed)
    capture = _DayCapture() if capture_days else None
    result = _run_rollout(world, config=spec.rollout, observer=capture,
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
        capture=capture)


# -- replay views ------------------------------------------------------------

class _QueryLogView:
    """Per-day window over the merged query log.

    ``bucket_rate`` delegates (buckets are keyed by day, so later days
    never leak into earlier reads); ``ecs_share`` is overridden with
    the day's *cumulative-to-date* totals -- the value the serial
    monitor sees mid-run, which the finished merged log can no longer
    answer by itself.
    """

    def __init__(self, log: QueryLog, total: int, ecs: int) -> None:
        self._log = log
        self._total = total
        self._ecs = ecs

    def bucket_rate(self, bucket: int, public_only: bool = False) -> float:
        return self._log.bucket_rate(bucket, public_only)

    def ecs_share(self) -> float:
        return self._ecs / self._total if self._total else 0.0


class _RumView:
    """The merged beacon list truncated to days <= the replay day."""

    def __init__(self, beacons: List[RumBeacon]) -> None:
        self.beacons = beacons


class _ReplayResult:
    """What the monitor reads from ``result`` during replay, scoped to
    one day: day-keyed dicts pass through whole (lookups are by day),
    while the beacon list and cumulative query totals are windows."""

    def __init__(self, merged, rum_view, query_view) -> None:
        self.rum = rum_view
        self.query_log = query_view
        self.sessions_per_day = merged.sessions_per_day
        self.failed_sessions_per_day = merged.failed_sessions_per_day
        self.degraded_sessions_per_day = merged.degraded_sessions_per_day
        self.catchment_shifted_per_day = merged.catchment_shifted_per_day


class _WorldView:
    """The one attribute path the monitor reads: ``world.obs.registry``."""

    class _Obs:
        def __init__(self, registry: MetricsRegistry) -> None:
            self.registry = registry

    def __init__(self, registry: MetricsRegistry) -> None:
        self.obs = self._Obs(registry)


# -- the merged run ----------------------------------------------------------

@dataclass
class ShardedRun:
    """A completed sharded scenario: merged outputs, replayed monitor.

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

    capture_days = spec.monitor
    payloads = [(spec, shard, n_shards, capture_days)
                for shard in range(n_shards)]
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
        _replay_monitor(monitor, spec, outputs, result)

    return ShardedRun(
        spec=spec, result=result, monitor=monitor, registry=registry,
        traces=traces, trace_counts=trace_counts, n_shards=n_shards,
        workers=workers,
        shard_sessions=[sum(r.sessions_per_day.values())
                        for r in results])


def _replay_monitor(monitor, spec, outputs: List[ShardOutput],
                    result) -> None:
    """Drive the monitor over merged per-day registries.

    The serial engine calls ``monitor.on_day`` with the live world
    after each day; here every shard captured a registry clone per day,
    so the replay merges the clones for day *d* (fixed shard order) and
    presents them behind the same observer interface.  Beacons arrive
    through a day-truncated window of the merged day-sorted list, and
    the query log's cumulative ECS share is reconstructed from per-day
    (total, ecs) checkpoints summed across shards.
    """
    completed_cum = 0
    for day in range(spec.rollout.n_days):
        day_registry = merge_registries(
            [out.capture.registries[day] for out in outputs])
        total = sum(out.capture.query_cums[day][0] for out in outputs)
        ecs = sum(out.capture.query_cums[day][1] for out in outputs)
        completed_cum += (result.sessions_per_day.get(day, 0)
                          - result.failed_sessions_per_day.get(day, 0))
        view = _ReplayResult(
            result,
            rum_view=_RumView(result.rum.beacons[:completed_cum]),
            query_view=_QueryLogView(result.query_log, total, ecs))
        monitor.on_day(day, _WorldView(day_registry), view)
