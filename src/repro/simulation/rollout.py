"""The end-user mapping roll-out scenario (paper Section 4).

Replays the production timeline: measurements from Jan 1 to Jun 30,
2014, with EDNS0 client-subnet (and hence end-user mapping) enabled for
public resolvers gradually between Mar 28 and Apr 15.  Every simulated
day, client sessions arrive demand-weighted across the world; each one
runs end to end through the DNS stack and download model, emitting a
RUM beacon.  The authoritative query log runs throughout, capturing the
query-rate inflation the roll-out causes.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.stats import weighted_quantile
from repro.cdn.server import DAILY_LOAD_RETENTION
from repro.measurement.netsession import NetSessionCollector
from repro.measurement.rum import RumBeacon, RumCollector
from repro.measurement.querylog import QueryLog
from repro.obs.monitor.driver import DayRecord
from repro.simulation.session import simulate_session
from repro.simulation.world import World
from repro.topology.internet import Internet
from repro.topology.traffic import DayTraffic, TrafficSchedule

DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class RolloutConfig:
    """Timeline and load parameters for the roll-out scenario."""

    start_date: datetime.date = datetime.date(2014, 1, 1)
    end_date: datetime.date = datetime.date(2014, 6, 30)
    rollout_start: datetime.date = datetime.date(2014, 3, 28)
    rollout_end: datetime.date = datetime.date(2014, 4, 15)
    sessions_per_day: int = 600
    monthly_growth: float = 0.10
    """Measurement volume grows over the half year (Figure 12 shows an
    increasing trend)."""
    expectation_threshold_miles: float = 1000.0
    ecs_source_len: int = 24
    seed: int = 99

    def __post_init__(self) -> None:
        if not (self.start_date <= self.rollout_start
                <= self.rollout_end <= self.end_date):
            raise ValueError("dates must be ordered: start <= rollout "
                             "window <= end")
        if self.sessions_per_day < 1:
            raise ValueError("need at least one session per day")
        if not 0 < self.ecs_source_len <= 32:
            raise ValueError(
                f"bad ECS source length {self.ecs_source_len}")

    @property
    def n_days(self) -> int:
        return (self.end_date - self.start_date).days + 1

    def day_index(self, date: datetime.date) -> int:
        return (date - self.start_date).days

    def rollout_fraction(self, day: int) -> float:
        """Fraction of public resolvers flipped to ECS by this day."""
        start = self.day_index(self.rollout_start)
        end = self.day_index(self.rollout_end)
        if day < start:
            return 0.0
        if day >= end:
            return 1.0
        return (day - start) / max(1, end - start)

    def ecs_tranche(self, day: int,
                    public_ids: Sequence[str]) -> Sequence[str]:
        """The public resolvers sending ECS on ``day``: the first
        ``rollout_fraction(day)`` of ``public_ids``, rounded."""
        return public_ids[:round(self.rollout_fraction(day)
                                 * len(public_ids))]


@dataclass
class RolloutResult:
    """Everything the Section 4 and 5 figures are derived from."""

    config: RolloutConfig
    rum: RumCollector
    query_log: QueryLog
    sessions_per_day: Dict[int, int] = field(default_factory=dict)
    requests_per_day: Dict[int, int] = field(default_factory=dict)
    ecs_resolvers_per_day: Dict[int, int] = field(default_factory=dict)
    high_expectation_countries: List[str] = field(default_factory=list)
    median_public_distance: Dict[str, float] = field(default_factory=dict)
    failed_sessions_per_day: Dict[int, int] = field(default_factory=dict)
    """Sessions the client could not complete (availability's
    complement); empty in a fault-free run."""
    degraded_sessions_per_day: Dict[int, int] = field(default_factory=dict)
    """Sessions completed through a degradation path (failover, stale
    answer, ECS strip, dead-server retry); empty in a fault-free run."""
    catchment_shifted_per_day: Dict[int, int] = field(default_factory=dict)
    """Sessions anycast delivered to a PoP other than their build-time
    catchment; all zero unless a PoP is withdrawn or flapping."""

    @property
    def before_window(self) -> tuple:
        """[day range) strictly before the roll-out, for CDFs."""
        return (0, self.config.day_index(self.config.rollout_start))

    @property
    def after_window(self) -> tuple:
        """[day range) strictly after the roll-out completes."""
        return (self.config.day_index(self.config.rollout_end) + 1,
                self.config.n_days)


def median_public_distances(
    observations,
    public_ids,
    block_country: Dict,
) -> Dict[str, float]:
    """Pure core of the Section 4.1.1 split: per-country weighted
    median client--public-LDNS distance from pairing observations.

    ``observations`` is any iterable of objects with ``resolver_id``,
    ``block``, ``distance_miles``, and ``demand``; only resolvers in
    ``public_ids`` count; ``block_country`` maps block -> country.
    """
    samples: Dict[str, List] = {}
    for obs in observations:
        if obs.resolver_id not in public_ids:
            continue
        country = block_country[obs.block]
        samples.setdefault(country, []).append(
            (obs.distance_miles, obs.demand))
    medians = {}
    for country, entries in samples.items():
        values = [v for v, _ in entries]
        weights = [w for _, w in entries]
        medians[country] = weighted_quantile(values, weights, 0.5)
    return medians


def split_expectation_groups(
    medians: Dict[str, float],
    threshold_miles: float = 1000.0,
) -> tuple:
    """(high, low) country sets from the per-country medians.

    High expectation means the median is *strictly above* the
    threshold; a median exactly at the split (and any country without
    public-resolver data) classifies as low expectation, matching
    :func:`repro.measurement.rum.expectation_splitter`.
    """
    high = {country for country, median in medians.items()
            if median > threshold_miles}
    return high, set(medians) - high


def classify_expectation_groups(internet: Internet) -> Dict[str, float]:
    """Median client--public-LDNS distance per country (Section 4.1.1).

    Computed from NetSession pairing data exactly as the paper derives
    its country split from Figure 8; the caller applies the threshold
    (:func:`split_expectation_groups`).  A pure function of the
    Internet, so every world built over one Internet shares the result.
    """
    dataset = NetSessionCollector(internet).collect_ground_truth()
    return median_public_distances(
        dataset.observations,
        internet.public_resolver_ids(),
        {b.prefix: b.country for b in internet.blocks})


def _whole_quota(sessions_global: int, traffic, day: int) -> int:
    return sessions_global


@dataclass
class PopulationSlice:
    """The part of the client population one pass of the day loop
    serves -- everything that differs between the serial engine and a
    shard worker.  The timeline walked over it is shared."""

    rng: random.Random
    """The slice's session RNG stream."""
    blocks: Sequence
    """The slice's client blocks, in world order (what a surge day's
    :class:`~repro.topology.traffic.DayTraffic` view resolves over)."""
    pick_block: Callable
    """``rng -> block``: baseline demand-weighted pick in the slice."""
    quota: Callable = _whole_quota
    """``(sessions_global, traffic, day) -> int``: the slice's share
    of one day's global session count."""


def _run_rollout(world: World,
                 config: Optional[RolloutConfig] = None,
                 observer=None,
                 injector=None,
                 traffic: Optional[TrafficSchedule] = None,
                 population: Optional[PopulationSlice] = None,
                 expectation_medians: Optional[Dict[str, float]] = None,
                 ) -> RolloutResult:
    """Run the full roll-out timeline against a world.

    The one day loop: the serial engine runs it over the whole
    population, a shard worker over its ``population`` slice of a
    world rebuilt from the same spec.  Everything but the slice (fault
    steps, control-plane ticks, ECS flips, instrument writes) replays
    identically in every shard.

    ``observer`` is an optional monitoring hook -- any object with an
    ``on_day(record)`` method (e.g.
    :class:`repro.obs.monitor.RolloutMonitor`), handed one
    :class:`~repro.obs.monitor.driver.DayRecord` after each simulated
    day completes; records are only built when an observer is
    attached.  Observation must not perturb the run: the observer
    receives no RNG and every random draw happens before it is
    invoked, so a monitored and an unmonitored roll-out replay
    identically.

    ``injector`` is an optional :class:`repro.faults.FaultInjector`
    stepped at the top of each day, before any session runs, so a
    day's sessions see exactly the faults scheduled for that day.

    ``traffic`` is an optional
    :class:`~repro.topology.traffic.TrafficSchedule` of surge shapes;
    each day's session volume, block picks, and provider picks flow
    through a :class:`~repro.topology.traffic.DayTraffic` view.  An
    empty/None schedule replays the legacy draw sequence bit-for-bit.

    ``expectation_medians`` is
    :func:`classify_expectation_groups` of the world's Internet, when
    the caller already holds it (a shard task computes it once for
    every shard it runs); None computes it here.
    """
    config = config or RolloutConfig()
    if population is None:
        # The serial engine: every block, the full quota, one global
        # RNG (shard slices come from ShardPlan.population_slice).
        population = PopulationSlice(rng=random.Random(config.seed),
                                     blocks=world.internet.blocks,
                                     pick_block=world.internet.pick_block)
    rng = population.rng

    medians = (classify_expectation_groups(world.internet)
               if expectation_medians is None else expectation_medians)
    high_expectation, _ = split_expectation_groups(
        medians, config.expectation_threshold_miles)

    world.query_log.track_pairs()
    public_ids = world.public_ldns_ids()

    result = RolloutResult(
        config=config,
        rum=RumCollector(),
        query_log=world.query_log,
        high_expectation_countries=sorted(high_expectation),
        median_public_distance=dict(medians),
    )

    registry = world.obs.registry
    all_blocks = world.internet.blocks
    for day in range(config.n_days):
        # --- fault schedule: break/recover targets for this day --------
        if injector is not None:
            injector.step(day)

        # --- load feedback: report yesterday's heat, then age it -------
        # Observed before the control plane ticks, so a map compiled
        # today scores against the freshest smoothed utilization.
        if world.load_tracker is not None:
            world.load_tracker.observe_day(world.deployments, registry)
        world.deployments.decay_load(DAILY_LOAD_RETENTION)

        # --- control plane: makers compile/publish, watchdog runs ------
        # Ticked after the injector so a maker killed today misses
        # today's publication, exactly like a real mid-cycle crash.
        if world.control_plane is not None:
            world.control_plane.tick(day)

        # --- roll-out progress: today's tranche sends ECS -------------
        # Every resolver outside the tranche goes off, so a world
        # reused after ECS was switched on starts the timeline clean.
        result.ecs_resolvers_per_day[day] = world.enable_ecs(
            config.ecs_tranche(day, public_ids),
            source_prefix_len=config.ecs_source_len)
        # Roll-out progress is replicated state, not activity: every
        # shard of a sharded run walks the identical timeline, so these
        # merge by max instead of multiply-counting.
        registry.gauge("rollout.day", merge="max").set(day)
        registry.gauge("rollout.ecs_resolvers", merge="max").set(
            result.ecs_resolvers_per_day[day])

        # --- measurement volume grows month over month -----------------
        month = day // 30
        sessions_global = int(round(
            config.sessions_per_day * (1.0 + config.monthly_growth * month)))
        day_traffic = None
        if traffic:
            # Volume scales by the *global* multiplier (identical in
            # every shard); the slice's quota then follows its
            # surge-weighted share, and picks resolve over its own
            # blocks (the whole population reuses the global view).
            global_view = DayTraffic(traffic, day, all_blocks)
            sessions_global = max(1, int(round(
                sessions_global * global_view.volume_multiplier)))
            day_traffic = (
                global_view if population.blocks is all_blocks
                else DayTraffic(traffic, day, population.blocks))
        sessions_today = population.quota(sessions_global, traffic, day)
        spacing = (DAY_SECONDS / sessions_today if sessions_today
                   else DAY_SECONDS)

        # Bound once per day: the slice adds no per-session layer.
        pick_block = (day_traffic.pick_block if day_traffic is not None
                      else population.pick_block)
        beacons_before = len(result.rum)
        requests_today = 0
        failed_today = 0
        degraded_today = 0
        shifted_today = 0
        for index in range(sessions_today):
            now = day * DAY_SECONDS + index * spacing + rng.uniform(
                0, spacing * 0.5)
            block = pick_block(rng)
            provider = (day_traffic.pick_provider(rng, world.catalog)
                        if day_traffic is not None else None)
            session = simulate_session(world, block, now, rng,
                                       provider=provider)
            requests_today += session.requests
            if session.failed:
                # No page was loaded: nothing to beacon (real RUM
                # only reports from pages that rendered).
                failed_today += 1
                continue
            if session.degraded:
                degraded_today += 1
            if session.catchment_shifted:
                shifted_today += 1
            # Positional, in field order: keyword binding would cost
            # more than the beacon itself.
            result.rum.record(RumBeacon(
                day,
                block.prefix,
                block.country,
                session.domain,
                block.country in high_expectation,
                session.via_public_resolver,
                session.dns_ms,
                session.rtt_ms,
                session.ttfb_ms,
                session.download_ms,
                session.mapping_distance_miles,
                session.server_ip,
                session.ecs_used,
            ))
        result.sessions_per_day[day] = sessions_today
        result.requests_per_day[day] = requests_today
        result.failed_sessions_per_day[day] = failed_today
        result.degraded_sessions_per_day[day] = degraded_today
        result.catchment_shifted_per_day[day] = shifted_today
        registry.counter("rollout.sessions").inc(sessions_today)
        registry.counter("rollout.requests").inc(requests_today)
        if failed_today:
            registry.counter("rollout.failed_sessions").inc(failed_today)

        if observer is not None:
            log = world.query_log
            observer.on_day(DayRecord(
                day=day,
                registry=registry.clone(),
                beacons=tuple(result.rum.beacons[beacons_before:]),
                sessions=sessions_today,
                failed=failed_today,
                degraded=degraded_today,
                shifted=shifted_today,
                queries=log.bucket_count(day),
                queries_public=log.bucket_count(day, public_only=True),
                queries_total=log.total_queries,
                ecs_queries=log.ecs_queries))

    if injector is not None:
        injector.finish()
    return result
