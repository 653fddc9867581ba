"""The fault table: everything a fault kind *is*, declared once.

:data:`KINDS` holds one :class:`Kind` row per fault kind -- its plane,
its :class:`Targets` family (the target grammar plus the function that
finds the victims a target names in a live world), the attribute it
flips and that attribute's broken value, and the targets (and
parameter menus) the chaos soak may draw.  Every other part of the
fault plane reads this table: :class:`FaultKind`'s constants and plane
tuples, :meth:`FaultSchedule.validate`, the one generic apply/revert
in :class:`repro.faults.injector.FaultInjector`, the recovery audit
:func:`repro.faults.chaos.world_restored` and the soak menu.  Adding a
kind is adding a row.

Nine kinds are plain flag flips.  The three that are not --
``link_degradation``, ``mapmaker_slow_publish``, ``anycast_flap`` --
carry their own ``inject`` (returning its undo) and ``audit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.ipv4 import format_ipv4

# -- victim resolvers: (world, target) -> the objects a target names --------


def _nameservers(world, target: str) -> list:
    servers = world.nameservers
    if target in ("ns:*", "*"):
        return list(servers)
    if target.startswith("ns:"):
        index = int(target.split(":", 1)[1])
        if not 0 <= index < len(servers):
            raise KeyError(f"no nameserver {target!r}")
        return [servers[index]]
    raise KeyError(f"bad auth_outage target {target!r}")


def _cluster_servers(world, target: str) -> list:
    clusters = world.deployments.clusters
    group, _, rest = target.partition(":")
    if group == "cluster" and rest.isdigit():
        ids = sorted(clusters)
        if not int(rest) < len(ids):
            raise KeyError(f"no cluster {target!r}")
        return list(clusters[ids[int(rest)]].servers)
    if target in clusters:
        return list(clusters[target].servers)
    raise KeyError(f"unknown cluster {target!r}")


def _resolver_ids(world, target: str) -> List[str]:
    registry = world.ldns_registry
    public_ids = set(world.public_ldns_ids())
    public = sorted(public_ids)
    isp = [rid for rid in sorted(registry) if rid not in public_ids]
    if target == "public:*":
        return public
    if target == "isp:*":
        return isp
    if target == "*":
        return sorted(registry)
    group, _, rest = target.partition(":")
    if group == "public" and rest and not rest.isdigit():
        return _provider_pop_ids(world, target, rest)
    if group in ("public", "isp") and rest.isdigit():
        pool = public if group == "public" else isp
        if not int(rest) < len(pool):
            raise KeyError(f"no resolver {target!r}")
        return [pool[int(rest)]]
    rid = rest if group == "resolver" and rest else target
    if rid not in registry:
        raise KeyError(f"unknown resolver {target!r}")
    return [rid]


def _provider_pop_ids(world, target: str, rest: str) -> List[str]:
    """Resolve ``public:<provider>[:<city>]`` to PoP resolver ids."""
    from repro.topology.internet import _slug
    from repro.topology.resolvers import providers_by_name

    name, _, city = rest.partition(":")
    provider = providers_by_name(world.internet.providers).get(name)
    if provider is None:
        raise KeyError(f"unknown public provider in {target!r}")
    deployments = sorted(provider.deployments,
                         key=lambda dep: dep.resolver_id)
    if city:
        deployments = [dep for dep in deployments
                       if _slug(dep.city) == _slug(city)]
        if not deployments:
            raise KeyError(
                f"provider {name!r} has no PoP in city of {target!r}")
    return [dep.resolver_id for dep in deployments]


def _resolvers(world, target: str) -> list:
    return [world.ldns_registry[rid]
            for rid in _resolver_ids(world, target)]


def _pops(world, target: str) -> list:
    pops = world.resolver_fleets.pops
    return [pops[rid] for rid in _resolver_ids(world, target)
            if rid in pops]


def _pop_providers(world, target: str) -> list:
    """The providers owning the PoPs a target names (a city target
    flaps its whole provider), each once, in PoP order."""
    from repro.topology.resolvers import providers_by_name

    by_name = providers_by_name(world.internet.providers)
    names = dict.fromkeys(pop.resolver.provider
                          for pop in _pops(world, target))
    return [by_name[name] for name in names]


def _makers(world, target: str) -> list:
    service = world.control_plane
    if service is None:
        raise KeyError(
            f"mapmaker fault target {target!r} needs a world built "
            f"with a control plane "
            f"(ScenarioSpec.control_plane=MapMakerConfig())")
    makers = service.makers
    if target in ("mapmaker:*", "*"):
        return list(makers)
    _group, _, rest = target.partition(":")
    # Role targets resolve *at apply time*: after a failover,
    # "mapmaker:primary" addresses the promoted ex-standby.
    if rest == "primary":
        return [service.primary]
    if rest == "standby":
        if service.standby is None:
            raise KeyError(f"no standby MapMaker ({target!r})")
        return [service.standby]
    if rest.isdigit():
        if not int(rest) < len(makers):
            raise KeyError(f"no MapMaker {target!r}")
        return [makers[int(rest)]]
    raise KeyError(f"bad mapmaker target {target!r}")


# -- censuses: world -> every (label, object) a family could break ----------


def _all_nameservers(world) -> list:
    return [(f"nameserver {index}", ns)
            for index, ns in enumerate(world.nameservers)]


def _all_servers(world) -> list:
    clusters = world.deployments.clusters
    return [(f"cluster {cid} server {format_ipv4(server.ip)}", server)
            for cid in sorted(clusters) for server in clusters[cid].servers]


def _all_resolvers(world) -> list:
    return [(f"resolver {rid}", world.ldns_registry[rid])
            for rid in sorted(world.ldns_registry)]


def _all_pops(world) -> list:
    pops = world.resolver_fleets.pops
    return [(f"PoP {rid}", pops[rid]) for rid in sorted(pops)]


def _all_makers(world) -> list:
    service = world.control_plane
    return [] if service is None else [
        (maker.name, maker) for maker in service.makers]


@dataclass(frozen=True)
class Targets:
    """One family of fault targets: its grammar and its victims.

    ``prefixes`` are the legal ``<group>:`` heads; ``None`` in the set
    accepts a bare token (a raw cluster/resolver id), ``"*"`` the
    whole-world wildcard.  ``group_star`` says whether ``<group>:*``
    is a target.  ``resolve(world, target)`` returns the victims (it
    raises ``KeyError`` for a target the world does not have);
    ``census(world)`` lists every ``(label, object)`` the family could
    ever break, for the recovery audit.
    """

    prefixes: frozenset
    resolve: Callable
    census: Optional[Callable] = None
    group_star: bool = True


_NAMESERVERS = Targets(frozenset({"ns", "*"}), _nameservers,
                       _all_nameservers)
_CLUSTERS = Targets(frozenset({"cluster", None}), _cluster_servers,
                    _all_servers, group_star=False)
_RESOLVERS = Targets(frozenset({"public", "isp", "resolver", None, "*"}),
                     _resolvers, _all_resolvers)
_MAKERS = Targets(frozenset({"mapmaker", "*"}), _makers, _all_makers)
# The resolver plane takes the ``public:...`` spellings only (or ``*``).
_FLEET = frozenset({"public", "*"})
_FLEET_POPS = Targets(_FLEET, _pops, _all_pops)
_FLEET_RESOLVERS = Targets(_FLEET, _resolvers, _all_resolvers)
_FLEET_PROVIDERS = Targets(_FLEET, _pop_providers)


# -- the three kinds that are not flag flips --------------------------------


def _impair_link(world, ldns, event) -> Callable[[], None]:
    world.network.impair(
        ldns.ip,
        latency_factor=event.param("latency_factor", 3.0),
        loss_rate=event.param("loss_rate", 0.25))
    return lambda: world.network.clear_impairment(ldns.ip)


def _links_left(world) -> List[str]:
    left = len(world.network._impairments)
    return [f"{left} link impairments left"] if left else []


def _slow_maker(world, maker, event) -> Callable[[], None]:
    before = maker.slow_factor
    maker.slow_factor = event.param("slow_factor", 4.0)

    def undo() -> None:
        maker.slow_factor = before
    return undo


def _makers_slowed(world) -> List[str]:
    return [f"{label} still slowed" for label, maker in _all_makers(world)
            if maker.slow_factor != 1.0]


def _flap_provider(world, provider, event) -> Callable[[], None]:
    flapping = world.resolver_fleets.flapping
    flapping.add(provider.name)
    return lambda: flapping.discard(provider.name)


def _providers_flapping(world) -> List[str]:
    return [f"provider {name} still flapping"
            for name in sorted(world.resolver_fleets.flapping)]


# -- the table ---------------------------------------------------------------


@dataclass(frozen=True)
class Kind:
    """One fault kind.

    ``soak_targets`` is what the chaos soak may draw: targets that
    exist in every world it runs (the tiny scale has 4 name servers,
    40 clusters, 25 public and 172 ISP resolvers, a 2-maker control
    plane) and leave enough redundancy that the availability floor is
    *expected* to hold -- chaos probes the degradation ladders, not
    the laws of physics.  ``soak_params`` are ``(param, menu)`` pairs
    it draws one value each from.

    A flag-flip kind sets ``attr`` to ``broken`` on each victim
    (``symptom`` is the audit's word for one left that way).  The
    others carry ``inject(world, victim, event) -> undo`` and
    ``audit(world) -> [violation, ...]``.
    """

    name: str
    plane: str  # "data" | "control" | "resolver"
    targets: Targets
    soak_targets: Tuple[str, ...]
    attr: Optional[str] = None
    broken: object = None
    symptom: str = ""
    inject: Optional[Callable] = None
    audit: Optional[Callable] = None
    soak_params: Tuple[Tuple[str, Tuple[float, ...]], ...] = ()

    def apply(self, world, victim, event) -> Callable[[], None]:
        """Break ``victim``; the returned callable puts back exactly
        what was there."""
        if self.inject is not None:
            return self.inject(world, victim, event)
        attr, before = self.attr, getattr(victim, self.attr)
        setattr(victim, attr, self.broken)
        return lambda: setattr(victim, attr, before)

    def leftovers(self, world) -> List[str]:
        """Violation strings for anything of this kind still broken."""
        if self.audit is not None:
            return self.audit(world)
        return [f"{label} still {self.symptom}"
                for label, victim in self.targets.census(world)
                if getattr(victim, self.attr) == self.broken]


# The soak's resolver-plane targets name providers (never indices), so
# validate()'s pop_outage/ldns_blackout conflict check cannot trip
# against ldns_blackout's index targets.  A city target withdraws one
# PoP (silent re-home); a bare provider takes the whole fleet dark
# (the LDNS-failover ladder).
KINDS: Dict[str, Kind] = {row.name: row for row in (
    # Data plane: the failure modes Section 4 of the paper rolls out
    # around.  A dead name server makes recursives burn retry timers
    # and fail over; a dead cluster's demand moves to survivors; a
    # stripped ECS option degrades EU mapping to NS quality; a dark
    # LDNS fails stubs over to a public resolver after a timeout; a
    # degraded path inflates latency and drops packets.
    Kind("auth_outage", "data", _NAMESERVERS,
         ("ns:0", "ns:1", "ns:2"),
         attr="alive", broken=False, symptom="dead"),
    Kind("cluster_outage", "data", _CLUSTERS,
         ("cluster:0", "cluster:1", "cluster:2", "cluster:3"),
         attr="alive", broken=False, symptom="dead"),
    Kind("ecs_strip", "data", _RESOLVERS,
         ("public:*", "public:0", "public:1"),
         attr="ecs_stripped", broken=True, symptom="ECS-stripped"),
    Kind("ldns_blackout", "data", _RESOLVERS,
         ("public:0", "public:1", "isp:0", "isp:1"),
         attr="alive", broken=False, symptom="dead"),
    Kind("link_degradation", "data", _RESOLVERS,
         ("isp:*", "public:*", "isp:0"),
         inject=_impair_link, audit=_links_left,
         soak_params=(("latency_factor", (2.0, 3.0)),
                      ("loss_rate", (0.05, 0.10, 0.15)))),
    # Control plane (paper Section 5's split makes these injectable):
    # a crashed MapMaker sends no heartbeats and publishes nothing, so
    # the watchdog promotes the hot standby; a hung one is alive but
    # silent, which the watchdog treats the same; a slow one publishes
    # ``slow_factor`` times less often, so the map ages in between; a
    # corrupting one has its publications rejected by the store's
    # checksum gate and the old map ages in place.
    Kind("mapmaker_crash", "control", _MAKERS,
         ("mapmaker:primary", "mapmaker:standby", "mapmaker:*"),
         attr="alive", broken=False, symptom="dead"),
    Kind("mapmaker_hang", "control", _MAKERS,
         ("mapmaker:primary", "mapmaker:*"),
         attr="hung", broken=True, symptom="hung"),
    Kind("mapmaker_slow_publish", "control", _MAKERS,
         ("mapmaker:primary",),
         inject=_slow_maker, audit=_makers_slowed,
         soak_params=(("slow_factor", (2.0, 3.0, 4.0)),)),
    Kind("map_corruption", "control", _MAKERS,
         ("mapmaker:primary", "mapmaker:*"),
         attr="corrupting", broken=True, symptom="corrupting"),
    # Resolver plane (the anycast PoP fleets; what Kernan et al. and
    # Al-Dalky & Rabinovich measure public resolvers doing): a
    # withdrawn PoP silently re-homes its catchment to surviving PoPs
    # (cold caches, longer detours, no client-visible timeout);
    # flapping routes oscillate half of each PoP's catchment to the
    # next-nearest PoP; a provider that drops the CDN from its ECS
    # whitelist degrades mapping to NS quality while caches stay warm.
    Kind("pop_outage", "resolver", _FLEET_POPS,
         ("public:GloboDNS:dallas", "public:OpenFast:chicago",
          "public:UltraLevel"),
         attr="healthy", broken=False, symptom="withdrawn"),
    Kind("anycast_flap", "resolver", _FLEET_PROVIDERS,
         ("public:GloboDNS", "public:OpenFast"),
         inject=_flap_provider, audit=_providers_flapping),
    Kind("ecs_whitelist_revoke", "resolver", _FLEET_RESOLVERS,
         ("public:*", "public:GloboDNS"),
         attr="ecs_whitelisted", broken=False,
         symptom="whitelist-revoked"),
)}


def _plane(plane: str) -> Tuple[str, ...]:
    return tuple(row.name for row in KINDS.values() if row.plane == plane)


class FaultKind:
    """String constants naming the supported fault kinds: one
    ``FaultKind.<NAME>`` per :data:`KINDS` row (``AUTH_OUTAGE ==
    "auth_outage"``, ...), plus the per-plane tuples."""

    DATA_PLANE = _plane("data")
    CONTROL_PLANE = _plane("control")
    RESOLVER_PLANE = _plane("resolver")
    ALL = DATA_PLANE + CONTROL_PLANE + RESOLVER_PLANE


for _name in KINDS:
    setattr(FaultKind, _name.upper(), _name)
