"""The MapMaker: the periodic map-compiling process, made breakable.

Compilation itself is one :meth:`~repro.core.scoring.Scorer.rank`
pass -- the same kernel the per-query path ranks with -- over every
end-user mapping unit and every resolver, producing a top-K cluster
ranking per unit (paper Section 5's "map maker").  :func:`eu_key` and
:func:`ns_key` are the map's one key format: the compile writes with
them and the read path looks up with them.

:class:`MapMaker` wraps that compile in a *process model* with the
failure modes the fault plane injects:

* ``alive=False``   -- crashed: no heartbeats, no publications;
* ``hung=True``     -- wedged: the process exists but makes no
  progress and sends no heartbeats (indistinguishable from a crash to
  the watchdog, which is the point);
* ``slow_factor>1`` -- degraded: publications take ``slow_factor``
  times longer, so the published map ages between them;
* ``corrupting=True`` -- poisoned: publications are tampered in
  flight, so the store's checksum gate must reject them.

One maker is the *primary* (it compiles and publishes); the other is a
*hot standby* that only heartbeats until the watchdog promotes it.
"""

from __future__ import annotations

from typing import List

from repro.core.mapmaker.published import MapEntries
from repro.core.policies import MapTarget

ROLE_PRIMARY = "primary"
ROLE_STANDBY = "standby"


def eu_key(unit_key: str) -> str:
    """Published-map key of one end-user mapping unit."""
    return f"eu:{unit_key}"


def ns_key(ldns_ip: int) -> str:
    """Published-map key of one resolver (NS-granularity) unit."""
    return f"ns:{ldns_ip}"


def compile_entries(deployments, scorer, internet, units,
                    top_clusters: int = 8,
                    max_eu_units: int = 8192) -> MapEntries:
    """Compile the full published-map table in one matrix pass.

    Entries are one ``eu:<unit key>`` per mapping unit (``units``, from
    a :mod:`repro.core.units` builder; the heaviest ``max_eu_units`` by
    demand), scored at the unit's demand-weighted centroid and dominant
    AS, plus one ``ns:<ip>`` per geolocatable resolver.  Each entry
    is the first ``top_clusters`` of the ranking the per-query path
    would compute for that target over the live clusters.
    """
    geodb = internet.geodb
    keys: List[str] = []
    targets: List[MapTarget] = []

    ranked = sorted(units, key=lambda u: (-u.demand, u.key))
    for unit in ranked[:max_eu_units]:
        if not unit.members:
            continue
        keys.append(eu_key(unit.key))
        asn = unit.asn if unit.asn is not None else -1
        targets.append(MapTarget(geo=unit.centroid(), asn=asn))

    for resolver_id in sorted(internet.resolvers):
        meta = internet.resolvers[resolver_id]
        record = geodb.lookup(meta.ip)
        if record is None:
            continue
        keys.append(ns_key(meta.ip))
        targets.append(MapTarget(geo=record.geo, asn=record.asn))

    live = deployments.live_clusters()
    if not live or not targets:
        return {}
    ids = [cluster.cluster_id for cluster in live]
    order = scorer.rank(live, targets)[:, :max(1, top_clusters)]
    return {key: tuple(ids[i] for i in row)
            for key, row in zip(keys, order.tolist())}


class MapMaker:
    """One map-compiling process (primary or hot standby)."""

    def __init__(self, name: str, role: str = ROLE_STANDBY) -> None:
        if role not in (ROLE_PRIMARY, ROLE_STANDBY):
            raise ValueError(f"unknown MapMaker role {role!r}")
        self.name = name
        self.role = role
        # Fault-plane knobs (flipped by the injector, with exact revert).
        self.alive = True
        self.hung = False
        self.slow_factor = 1.0
        self.corrupting = False
        # Progress model: one tick of a healthy maker adds
        # ``1/slow_factor`` days of compile progress; a publication
        # completes when progress reaches the publish interval.
        self.progress = 0.0
        self.last_heartbeat_day = 0
        self.publishes = 0

    @property
    def healthy(self) -> bool:
        return self.alive and not self.hung

    def tick(self, day: int, service) -> None:
        """One simulated day of this process's life."""
        if not self.healthy:
            return
        self.last_heartbeat_day = day
        if self.role != ROLE_PRIMARY:
            return
        self.progress += 1.0 / max(self.slow_factor, 1e-9)
        if self.progress >= service.config.publish_interval_days:
            self.progress = 0.0
            service.publish_from(self, day)

    def describe(self) -> dict:
        return {
            "name": self.name,
            "role": self.role,
            "alive": self.alive,
            "hung": self.hung,
            "slow_factor": self.slow_factor,
            "corrupting": self.corrupting,
            "publishes": self.publishes,
        }
