"""Map publication, watchdog failover, and the degradation ladder.

:class:`MapPublicationService` owns the control plane's moving parts:

* a primary :class:`~repro.core.mapmaker.maker.MapMaker` plus a hot
  standby, ticked once per simulated day;
* the publication store: the latest *accepted* map, guarded by the
  checksum gate (corrupt publications are rejected and counted; the
  previous map stays in force and ages);
* a watchdog that promotes the standby when the primary misses
  heartbeats for ``watchdog_timeout_days``;
* the mapping-unit set every publication compiles over, built once
  by the ``unit_scheme`` builder (``geo_as`` by default), its
  client-/24 -> unit index and the ``eu:``/``ns:`` map key of each
  unit and resolver;
* the **degradation ladder** the name-server path reads through
  (:meth:`lookup`): fresh EU -> stale EU -> NS fallback -> static
  geo map.  The ladder is age-bounded -- EU entries are trusted only
  while the map is at most ``stale_age_days`` old, NS entries up to
  ``ns_age_days``, and beyond that only geometry is trusted.

Registry metrics (all under ``mapmaker.``): ``map_version``,
``map_age_days``, ``failovers``, ``maps_published``, ``maps_rejected``,
plus the unit set's ``units.*`` gauges and per-tier decision counters
under ``mapping.tier.<tier>``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core import units as unit_api
from repro.core.mapmaker.maker import (
    MapMaker,
    ROLE_PRIMARY,
    ROLE_STANDBY,
    compile_entries,
    eu_key,
    ns_key,
)
from repro.core.mapmaker.published import PublishedMap, StaticGeoMap
from repro.obs import NOOP, Observability

#: Degradation-ladder tiers, best first.  ``ns`` is the *normal* tier
#: for queries without client-subnet data; ``ns_fallback`` marks an
#: ECS-carrying query that had to settle for resolver granularity.
TIERS: Tuple[str, ...] = (
    "fresh_eu", "stale_eu", "ns", "ns_fallback", "static_geo")

#: The unit-construction scheme a control plane compiles over when
#: none is named: one unit per client /24, at the block's geo and AS.
DEFAULT_UNIT_SCHEME = "geo_as"


@dataclass(frozen=True)
class MapMakerConfig:
    """Control-plane knobs: publication cadence and the age bounds."""

    publish_interval_days: int = 1
    fresh_age_days: int = 2
    """EU entries answer at full trust while the map is at most this
    old (the pipeline's normal staleness: compile + publish lag)."""
    stale_age_days: int = 6
    """...and at reduced trust (``stale_eu``) up to this age; past it
    the EU table is considered stale enough that resolver granularity
    from the same map is the safer bet."""
    ns_age_days: int = 12
    """NS entries -- coarser, hence more staleness-tolerant -- are
    served up to this age; past it only the static geo map remains."""
    watchdog_timeout_days: int = 2
    """Missed-heartbeat budget before the standby is promoted."""
    top_clusters: int = 8
    max_eu_units: int = 8192

    def __post_init__(self) -> None:
        if self.publish_interval_days < 1:
            raise ValueError("publish_interval_days must be >= 1")
        if self.fresh_age_days < 0:
            raise ValueError(
                f"age bounds must be >= 0 (fresh {self.fresh_age_days})")
        if not (self.fresh_age_days <= self.stale_age_days
                <= self.ns_age_days):
            raise ValueError(
                "age bounds must be ordered: fresh <= stale <= ns "
                f"({self.fresh_age_days}/{self.stale_age_days}/"
                f"{self.ns_age_days})")
        if self.watchdog_timeout_days < 1:
            raise ValueError("watchdog_timeout_days must be >= 1")
        if self.top_clusters < 1:
            raise ValueError("top_clusters must be >= 1")
        if self.max_eu_units < 1:
            raise ValueError("max_eu_units must be >= 1")


class MapPublicationService:
    """The live control plane wired into one world."""

    def __init__(self, config: MapMakerConfig, deployments, scorer,
                 internet, obs: Optional[Observability] = None,
                 unit_scheme: Optional[str] = None) -> None:
        self.config = config
        self.deployments = deployments
        self.scorer = scorer
        self.internet = internet
        self.obs = obs if obs is not None else NOOP
        self.unit_scheme = (DEFAULT_UNIT_SCHEME if unit_scheme is None
                            else unit_scheme)
        # The generated Internet is static for a run, so the unit
        # partition is built once and every publication compiles over
        # it; determinism rides on the builder seeding off
        # ``internet.seed`` alone.
        name, params = unit_api.parse_unit_scheme(self.unit_scheme)
        builder = unit_api.get_builder(name)
        self.units = builder.build(internet, **params)
        # Everything the read path looks up, built here and never
        # grown: no key is formatted per query.
        self._block_units = unit_api.block_index(self.units)
        self._eu_map_keys: Dict[str, str] = {
            unit.key: eu_key(unit.key) for unit in self.units}
        self._ns_map_keys: Dict[int, str] = {
            resolver.ip: ns_key(resolver.ip)
            for resolver in internet.resolvers.values()}
        self._unit_stats = unit_api.cohesion_stats(self.units)
        self.makers: List[MapMaker] = [
            MapMaker("mapmaker-0", ROLE_PRIMARY),
            MapMaker("mapmaker-1", ROLE_STANDBY),
        ]
        self.static_map = StaticGeoMap(deployments)
        self.failovers = 0
        self.maps_published = 0
        self.maps_rejected = 0
        self._version = 0
        self.current: PublishedMap = PublishedMap.build(0, 0, {})
        # Bootstrap: the world never starts without a map (production
        # ships the last known-good map with every name-server image).
        self.publish_from(self.primary, day=0)

    # -- roles -------------------------------------------------------------

    @property
    def primary(self) -> MapMaker:
        for maker in self.makers:
            if maker.role == ROLE_PRIMARY:
                return maker
        raise RuntimeError("no primary MapMaker configured")

    @property
    def standby(self) -> Optional[MapMaker]:
        for maker in self.makers:
            if maker.role == ROLE_STANDBY:
                return maker
        return None

    # -- publication -------------------------------------------------------

    def publish_from(self, maker: MapMaker, day: int) -> bool:
        """Compile and submit one map through the checksum gate."""
        entries = compile_entries(
            self.deployments, self.scorer, self.internet, self.units,
            top_clusters=self.config.top_clusters,
            max_eu_units=self.config.max_eu_units)
        candidate = PublishedMap.build(self._version + 1, day, entries)
        if maker.corrupting:
            # Model bit-rot between compile and publish: the payload
            # no longer matches its checksum.  Deterministic tamper so
            # replays stay byte-identical.
            candidate = PublishedMap(
                version=candidate.version,
                published_day=candidate.published_day,
                entries=candidate.entries,
                checksum="corrupt!" + candidate.checksum[8:])
        if not candidate.verify():
            # The gauge export carries the running total; no counter
            # here (one name cannot be both instrument kinds).
            self.maps_rejected += 1
            return False
        self._version = candidate.version
        self.current = candidate
        self.maps_published += 1
        maker.publishes += 1
        # Every shard of a sharded run replays the identical
        # publication schedule, so this merges by max, not sum.
        self.obs.registry.counter("mapmaker.maps_published",
                                  merge="max").inc()
        return True

    # -- the daily tick ----------------------------------------------------

    def tick(self, day: int) -> None:
        """Advance the control plane one day: makers, watchdog, gauges."""
        for maker in self.makers:
            maker.tick(day, self)
        primary = self.primary
        if day - primary.last_heartbeat_day >= (
                self.config.watchdog_timeout_days):
            standby = self.standby
            if standby is not None and standby.healthy:
                primary.role = ROLE_STANDBY
                standby.role = ROLE_PRIMARY
                standby.progress = 0.0
                self.failovers += 1
        self._export_gauges(day)

    def _export_gauges(self, day: int) -> None:
        # Control-plane state is replicated identically in every shard
        # of a sharded run: merge by max so a merged registry reports
        # the one control plane, not n_shards copies of it.
        registry = self.obs.registry
        registry.gauge("mapmaker.map_version",
                       merge="max").set(self.current.version)
        registry.gauge("mapmaker.map_age_days",
                       merge="max").set(self.map_age(day))
        registry.gauge("mapmaker.failovers",
                       merge="max").set(self.failovers)
        registry.gauge("mapmaker.maps_rejected",
                       merge="max").set(self.maps_rejected)
        registry.gauge("mapmaker.makers_healthy", merge="max").set(
            sum(1 for m in self.makers if m.healthy))
        registry.gauge("units.total", merge="max").set(len(self.units))
        registry.gauge("units.cohesion_miles_mean", merge="max").set(
            self._unit_stats["radius_miles"])
        if "rtt_ms" in self._unit_stats:
            registry.gauge("units.cohesion_rtt_ms_mean",
                           merge="max").set(self._unit_stats["rtt_ms"])

    def map_age(self, day: int) -> int:
        return self.current.age(day)

    # -- the degradation ladder (name-server read path) --------------------

    def lookup(self, client_prefix, ldns_ip: int,
               day: int) -> Tuple[Tuple[str, ...], str]:
        """(ranked cluster ids, tier) for one query.

        ``client_prefix`` is the query's client-subnet prefix, or None
        when it carried no ECS option; ``ldns_ip`` is the resolver that
        asked.  A prefix in no unit (or in one the map does not carry)
        walks to ``ns_fallback``.  The empty-id ``static_geo`` result
        tells the caller to fall back to :meth:`static_ranking`.
        """
        current = self.current
        age = current.age(day)
        config = self.config
        if client_prefix is not None and age <= config.stale_age_days:
            unit_key = self.unit_key_for(client_prefix)
            if unit_key is not None:
                ids = current.lookup(self._eu_map_keys[unit_key])
                if ids:
                    return ids, ("fresh_eu" if age <= config.fresh_age_days
                                 else "stale_eu")
        if age <= config.ns_age_days:
            # The map carries ``ns:`` entries for the Internet's
            # resolvers only, so any other address has none.
            key = self._ns_map_keys.get(ldns_ip)
            ids = current.lookup(key) if key is not None else ()
            if ids:
                return ids, ("ns" if client_prefix is None
                             else "ns_fallback")
        return (), "static_geo"

    def unit_key_for(self, prefix) -> Optional[str]:
        """Key of the mapping unit owning one client prefix, or None
        when the prefix is in no unit."""
        return unit_api.unit_key_in(self._block_units, prefix)

    def static_ranking(self, geo) -> List:
        """Bottom rung: live clusters by great-circle distance."""
        return self.static_map.rank(geo)

    def describe(self) -> dict:
        return {
            "map_version": self.current.version,
            "published_day": self.current.published_day,
            "entries": len(self.current),
            "failovers": self.failovers,
            "maps_published": self.maps_published,
            "maps_rejected": self.maps_rejected,
            "makers": [m.describe() for m in self.makers],
            "unit_scheme": self.unit_scheme,
            "units": dict(self._unit_stats),
        }
