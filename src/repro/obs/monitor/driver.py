"""Roll-out monitor: a fold over the day loop's per-day records.

The roll-out day loop (:func:`repro.api.run`, or
:func:`repro.api.run_rollout` with ``observer=``) hands its observer
one :class:`DayRecord` after each simulated day; the sharded engine
merges the shards' records of a day into one
(:func:`repro.parallel.merge.merge_day_records`) and hands the monitor
that.  :class:`RolloutMonitor` reads nothing else; per record it

1. ingests the day's RUM beacons into a
   :class:`~repro.obs.monitor.cohorts.CohortComparator` (the paper's
   high/low-expectation split over public-resolver clients, plus an
   ECS-on vs control split),
2. captures the record's :class:`~repro.obs.metrics.MetricsRegistry`
   snapshot into a :class:`~repro.obs.monitor.series.TimeSeriesStore`
   together with derived per-day gauges (authoritative DNS q/s from
   the query counts, edge/LDNS cache hit rates, per-cohort daily
   means),
3. evaluates the :class:`~repro.obs.monitor.alerts.AlertEngine`.

The default rule set (:func:`default_rollout_rules`) encodes the
Section 4 narrative as detections: ``mapping_distance_drop`` fires
when the high-expectation cohort's mapping distance collapses versus
its pre-roll-out baseline (the Figure 13 ~8x event),
``dns_qps_surge`` fires when public-resolver query rates inflate
(Figure 23), and regression guards (``ttfb_regression``,
``sessions_flatline``) stay silent unless the roll-out actually hurts.

This module deliberately imports nothing from ``repro.simulation`` --
the record is defined here, beside its consumer, and the config
arguments are duck-typed -- so ``repro.obs`` stays import-cycle-free
under ``repro.simulation.world``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor.alerts import (
    AlertEngine,
    AlertRule,
    RegressionRule,
    StuckRule,
    ThresholdRule,
)
from repro.obs.monitor.cohorts import CohortComparator
from repro.obs.monitor.series import TimeSeriesStore

SCHEMA = "monitor/v1"

#: RUM metrics tracked per cohort (a subset of repro.measurement.rum.METRICS).
COHORT_METRICS: Tuple[str, ...] = (
    "mapping_distance_miles", "rtt_ms", "ttfb_ms", "dns_ms")

#: Smoothing factor for the EWMA series exported alongside raw series.
EWMA_ALPHA = 0.3

#: One simulated day, in seconds: the query log's bucket width (kept in
#: sync with :data:`repro.simulation.rollout.DAY_SECONDS`; duplicated
#: so ``repro.obs`` stays import-free of ``repro.simulation``).
DAY_SECONDS = 86400.0


@dataclass(frozen=True)
class DayRecord:
    """Everything an observer learns about one simulated day.

    Self-contained: the registry is an end-of-day clone, so a record
    kept past its day still reads that day's state, and one day's
    records from several shards merge into the global record.
    """

    day: int
    registry: MetricsRegistry
    """End-of-day :meth:`~repro.obs.metrics.MetricsRegistry.clone`
    (collector-backed gauges materialized)."""
    beacons: Tuple
    """Today's RUM beacons, in arrival order."""
    sessions: int
    failed: int
    degraded: int
    shifted: int
    """Sessions anycast delivered off their build-time catchment."""
    queries: int
    """Authoritative queries in today's query-log bucket..."""
    queries_public: int
    """...of which from public resolvers."""
    queries_total: int
    """Authoritative queries since the run began..."""
    ecs_queries: int
    """...of which carried a client subnet."""


def rollout_windows(config) -> Dict[str, Tuple[int, int]]:
    """The before/during/after day windows of a roll-out config.

    ``config`` is duck-typed on :class:`repro.simulation.rollout.
    RolloutConfig`: ``day_index``, ``rollout_start``, ``rollout_end``,
    ``n_days``.
    """
    start = config.day_index(config.rollout_start)
    end = config.day_index(config.rollout_end)
    return {
        "before": (0, start),
        "during": (start, end + 1),
        "after": (end + 1, config.n_days),
    }


def default_rollout_rules(
        windows: Dict[str, Tuple[int, int]]) -> List[AlertRule]:
    """The Section 4 monitoring rule set against a window layout.

    Cohort rules evaluate the ``:ewma``-smoothed mirrors the monitor
    maintains, so one noisy low-volume day neither fires nor clears an
    event; hysteresis (``for_steps=2``) guards the remainder.
    """
    before = windows["before"]
    high = "cohort.high_expectation"
    return [
        # The Figure 13 event: high-expectation mapping distance
        # collapses several-fold once resolvers flip to ECS.
        RegressionRule(
            "mapping_distance_drop",
            f"{high}.mapping_distance_miles:ewma",
            baseline_window=before, factor=3.0, direction="drop",
            severity="info", for_steps=2),
        RegressionRule(
            "mapping_distance_drop_low",
            "cohort.low_expectation.mapping_distance_miles:ewma",
            baseline_window=before, factor=3.0, direction="drop",
            severity="info", for_steps=2),
        # Figures 15/17: RTT roughly halves for the high group.
        RegressionRule(
            "rtt_improvement", f"{high}.rtt_ms:ewma",
            baseline_window=before, factor=1.5, direction="drop",
            severity="info", for_steps=2),
        # Figure 23: ECS inflates public-resolver query rates.
        RegressionRule(
            "dns_qps_surge", "dns.qps_public",
            baseline_window=before, factor=2.0, direction="rise",
            severity="warning", for_steps=2),
        # Guards: these should stay silent in a healthy roll-out.
        RegressionRule(
            "ttfb_regression", f"{high}.ttfb_ms:ewma",
            baseline_window=before, factor=1.5, direction="rise",
            severity="critical", for_steps=2),
        StuckRule(
            "sessions_flatline", "sessions.completed", min_steps=3,
            severity="critical"),
        ThresholdRule(
            "edge_cache_hit_rate_low", "edge.cache.hit_rate",
            op="lt", threshold=0.05, severity="warning", for_steps=3),
        # Fault plane: silent in a healthy run, fire during injected
        # outages and resolve on recovery (the acceptance property of
        # the fault-injection suite).
        ThresholdRule(
            "auth_timeout_spike", "dns.timeout_failovers",
            op="gt", threshold=0.0, severity="warning", for_steps=2),
        ThresholdRule(
            "dns_servfail", "dns.servfails",
            op="gt", threshold=0.0, severity="critical", for_steps=2),
        ThresholdRule(
            "mapping_degraded", "mapping.degraded_share",
            op="gt", threshold=0.0, severity="warning", for_steps=2),
        ThresholdRule(
            "availability_low", "availability",
            op="lt", threshold=0.99, severity="critical", for_steps=2),
        # Resolver plane: ``resolver_pop_outage`` fires while any
        # provider PoP's anycast route is withdrawn and resolves on
        # restoration; ``resolver_anycast_flap`` mirrors route
        # instability; ``resolver_catchment_shift`` fires while any
        # completed session was delivered to a PoP other than its
        # build-time catchment -- the graceful-degradation ladder's
        # observable signature.
        ThresholdRule(
            "resolver_pop_outage", "resolver.pops_down",
            op="gt", threshold=0.0, severity="warning", for_steps=1),
        ThresholdRule(
            "resolver_anycast_flap", "resolver.providers_flapping",
            op="gt", threshold=0.0, severity="warning", for_steps=1),
        ThresholdRule(
            "resolver_catchment_shift", "mapping.catchment_shift_share",
            op="gt", threshold=0.0, severity="info", for_steps=1),
    ]


#: Degradation-ladder tiers mirrored as per-day share series (kept in
#: sync with :data:`repro.core.mapmaker.service.TIERS`; duplicated here
#: so ``repro.obs`` stays import-free of ``repro.core``).
CONTROL_PLANE_TIERS: Tuple[str, ...] = (
    "fresh_eu", "stale_eu", "ns", "ns_fallback", "static_geo")


def control_plane_rules(config) -> List[AlertRule]:
    """Alert rules for a world running the split control plane.

    ``config`` is duck-typed on :class:`repro.core.mapmaker.service.
    MapMakerConfig` (``fresh_age_days``).  ``map_stale`` fires while
    the published map is older than its fresh bound -- the signature of
    a dead/hung/slow/corrupting pipeline -- and resolves when a
    publication lands.  ``mapmaker_failover`` fires the day the
    watchdog promotes the standby.
    """
    return [
        ThresholdRule(
            "map_stale", "mapmaker.map_age_days",
            op="gt", threshold=float(config.fresh_age_days),
            severity="warning", for_steps=2),
        ThresholdRule(
            "mapmaker_failover", "mapmaker.failovers_today",
            op="gt", threshold=0.0, severity="critical", for_steps=1),
    ]


class RolloutMonitor:
    """Day-by-day monitoring plane over one roll-out run."""

    def __init__(self, windows: Dict[str, Tuple[int, int]],
                 rules: Optional[List[AlertRule]] = None) -> None:
        self.windows = dict(windows)
        self.store = TimeSeriesStore()
        self.cohorts = CohortComparator()
        self.engine = AlertEngine(
            default_rollout_rules(self.windows) if rules is None
            else rules)
        self._ewma: Dict[str, float] = {}
        self._prev_gauges: Dict[str, float] = {}
        self.days_observed = 0

    @classmethod
    def for_config(cls, config, **kwargs) -> "RolloutMonitor":
        """Build with windows/rules derived from a RolloutConfig."""
        return cls(rollout_windows(config), **kwargs)

    # -- the observer protocol the day loop drives -----------------------

    def on_day(self, record: DayRecord) -> None:
        """Fold one day's record into the series, cohorts and alerts."""
        day = record.day
        self._ingest_beacons(record.beacons)
        snapshot = record.registry.snapshot()
        self.store.capture(day, snapshot)
        self._derive_gauges(record, snapshot)
        self._cohort_series(day)
        self.engine.evaluate(day, self.store)
        self.days_observed += 1

    def _ingest_beacons(self, beacons) -> None:
        for beacon in beacons:
            # The paper's expectation split is defined over clients of
            # public resolvers (Section 4.1.1).
            if beacon.via_public_resolver:
                cohort = ("high_expectation" if beacon.high_expectation
                          else "low_expectation")
                self._observe_cohort(beacon, cohort)
            # ECS-on vs control: did this session's resolution actually
            # carry a client subnet end to end?
            self._observe_cohort(
                beacon, "ecs_on" if beacon.ecs_used else "control")

    def _observe_cohort(self, beacon, cohort: str) -> None:
        for metric in COHORT_METRICS:
            self.cohorts.observe(beacon.day, cohort, metric,
                                 beacon.metric(metric))

    def _derive_gauges(self, record: DayRecord, snapshot: Dict) -> None:
        """Per-day gauges not directly in the registry snapshot."""
        day = record.day
        self.store.record(day, "dns.qps", record.queries / DAY_SECONDS,
                          help="authoritative queries/s this day")
        self.store.record(day, "dns.qps_public",
                          record.queries_public / DAY_SECONDS,
                          help="...from public resolvers")
        self.store.record(day, "dns.ecs_share",
                          _ratio(record.ecs_queries, record.queries_total),
                          help="cumulative ECS share of auth queries")
        gauges = snapshot.get("gauges", {})
        self.store.record(
            day, "edge.cache.hit_rate",
            _ratio(gauges.get("edge.cache.hits", 0.0),
                   gauges.get("edge.cache.requests", 0.0)),
            help="cumulative edge-cache hit rate")
        self.store.record(
            day, "ldns.cache.hit_rate",
            _ratio(gauges.get("ldns.cache.hits", 0.0),
                   gauges.get("ldns.cache.lookups", 0.0)),
            help="cumulative LDNS-cache hit rate")

        # Fault/degradation plane.  The resolver fault counters are
        # cumulative gauges, so mirror their per-day deltas -- the
        # quantity the outage alert rules threshold on.
        for series, gauge, blurb in (
                ("dns.timeout_failovers", "ldns.timeout_failovers",
                 "authority UDP-timeout failovers today"),
                ("dns.servfails", "ldns.servfails",
                 "SERVFAIL answers handed to clients today"),
                ("dns.stale_served", "ldns.stale_served",
                 "serve-stale answers handed to clients today"),
                ("dns.retry_penalty_ms", "ldns.retry_penalty_ms",
                 "retry-timer backoff penalty ms charged today")):
            value = gauges.get(gauge, 0.0)
            self.store.record(day, series,
                              value - self._prev_gauges.get(gauge, 0.0),
                              help=blurb)
            self._prev_gauges[gauge] = value
        self._control_plane_series(day, snapshot, gauges)
        completed = record.sessions - record.failed
        self.store.record(
            day, "availability",
            _ratio(completed, record.sessions) if record.sessions else 1.0,
            help="share of sessions that completed today")
        self.store.record(
            day, "mapping.degraded_share",
            _ratio(record.degraded, completed),
            help="share of completed sessions that degraded today")
        self._resolver_plane_series(day, snapshot, record.shifted,
                                    completed)

    def _control_plane_series(self, day: int, snapshot: Dict,
                              gauges: Dict) -> None:
        """Derived map-publication series, for control-plane worlds.

        Presence of the ``mapmaker.map_version`` gauge is the opt-in
        signal; legacy worlds export none of these (so their reports
        stay byte-identical).  The raw ``mapmaker.map_age_days`` gauge
        is already captured as a series by the snapshot; derived here
        are the per-day failover count and the share of today's
        mapping decisions answered by each degradation-ladder tier.
        """
        if "mapmaker.map_version" not in gauges:
            return
        failovers = gauges.get("mapmaker.failovers", 0.0)
        self.store.record(
            day, "mapmaker.failovers_today",
            failovers - self._prev_gauges.get("mapmaker.failovers", 0.0),
            help="watchdog-driven standby promotions today")
        self._prev_gauges["mapmaker.failovers"] = failovers
        counters = snapshot.get("counters", {})
        deltas = {}
        for tier in CONTROL_PLANE_TIERS:
            counter = f"mapping.tier.{tier}"
            value = counters.get(counter, 0.0)
            deltas[tier] = value - self._prev_gauges.get(counter, 0.0)
            self._prev_gauges[counter] = value
        total = sum(deltas.values())
        for tier in CONTROL_PLANE_TIERS:
            self.store.record(
                day, f"mapping.tier_share.{tier}",
                _ratio(deltas[tier], total),
                help=f"share of today's decisions answered at "
                     f"the {tier} tier")

    def _resolver_plane_series(self, day: int, snapshot: Dict,
                               shifted: int, completed: int) -> None:
        """Derived resolver-plane series.  The raw fleet-health gauges
        are already captured by the snapshot; derived here are the
        catchment-shift share of today's completed sessions and the
        per-day deltas of the graceful-degradation counters."""
        self.store.record(
            day, "mapping.catchment_shift_share",
            _ratio(shifted, completed),
            help="share of today's completed sessions anycast "
                 "delivered off their build-time catchment")
        counters = snapshot.get("counters", {})
        for series, counter, blurb in (
                ("resolver.pop_failovers_today",
                 "resolver.pop_failovers",
                 "sessions re-homed to a surviving PoP today"),
                ("resolver.cold_cache_misses_today",
                 "resolver.cold_cache_misses",
                 "re-homed sessions that also missed the LDNS cache "
                 "today")):
            value = counters.get(counter, 0.0)
            self.store.record(day, series,
                              value - self._prev_gauges.get(counter, 0.0),
                              help=blurb)
            self._prev_gauges[counter] = value

    def _cohort_series(self, day: int) -> None:
        """Mirror today's cohort means into the store, raw plus an
        incrementally maintained ``:ewma`` smoothing (alert input)."""
        for cohort in self.cohorts.cohorts():
            for metric in COHORT_METRICS:
                stats = self.cohorts.window_stats(
                    cohort, metric, day, day + 1)
                if not stats.count:
                    continue
                name = f"cohort.{cohort}.{metric}"
                self.store.record(day, name, stats.mean)
                previous = self._ewma.get(name)
                smoothed = stats.mean if previous is None else (
                    EWMA_ALPHA * stats.mean
                    + (1 - EWMA_ALPHA) * previous)
                self._ewma[name] = smoothed
                self.store.record(day, f"{name}:ewma", smoothed)

    # -- report -----------------------------------------------------------

    def derived_series(self) -> Dict[str, Dict]:
        """Delta/rate views of the headline cumulative series (the
        ``:ewma`` smoothings live in the store itself, since alert
        rules evaluate them step by step)."""
        out: Dict[str, Dict] = {}
        for name in ("rollout.sessions", "rollout.requests"):
            series = self.store.get(name)
            if series is not None:
                delta = series.delta()
                out[delta.name] = delta.to_dict()
        total = self.store.get("querylog.queries")
        if total is not None:
            rate = total.rate(DAY_SECONDS)
            out[rate.name] = rate.to_dict()
        return out

    def report(self, scenario: Optional[Dict] = None) -> Dict:
        """The deterministic ``{series, cohorts, alerts}`` document."""
        return {
            "schema": SCHEMA,
            "scenario": dict(scenario or {}),
            "days_observed": self.days_observed,
            "windows": {label: [int(lo), int(hi)]
                        for label, (lo, hi) in sorted(self.windows.items())},
            "series": self.store.to_dict(),
            "derived": self.derived_series(),
            "cohorts": self.cohorts.to_dict(self.windows),
            "alerts": self.engine.to_dict(),
        }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0
