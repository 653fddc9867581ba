"""The scenario facade: one spec, one entrypoint.

Three config surfaces accreted over the project's life --
:class:`~repro.simulation.world.WorldConfig` (what the ecosystem looks
like), :class:`~repro.simulation.rollout.RolloutConfig` (the timeline
driven over it), and now :class:`~repro.faults.FaultSchedule` (what
breaks along the way).  :class:`ScenarioSpec` composes all three plus
the monitoring options, and :func:`run` executes the whole scenario:

    from repro.api import ScenarioSpec, run

    spec = ScenarioSpec(world=WorldConfig.tiny())
    outcome = run(spec)
    outcome.result        # RolloutResult
    outcome.report()      # the monitor's deterministic report

The lower-level :func:`build_world` / :func:`run_rollout` here are the
only spellings of the hand-driven path (build a world, then drive the
timeline over it); :func:`run` is exactly that composition.
:func:`run_dnsload` drives dense DNS-only periods over the same spec's
world instead of the roll-out's sessions.

There is one day loop (:mod:`repro.simulation.rollout`).  ``run`` and
``run_rollout`` walk it over the whole population from one
``Random(seed)`` -- the outputs existing golden fixtures pin -- and
``run`` alone accepts ``workers=N`` to walk it sharded
(:mod:`repro.parallel`): the client population splits into ``shards``
closed slices, each run through the same loop in its own world, and
reports merge back deterministically -- byte-identical across worker
counts, since the shard plan (not the pool size) is the unit of
determinism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.codec import OMIT_DEFAULT, RUNTIME, decode, encode
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.core.policies import MappingPolicy
from repro.faults import FaultInjector, FaultKind, FaultSchedule
from repro.obs.monitor import RolloutMonitor
from repro.obs.monitor.driver import (
    control_plane_rules,
    default_rollout_rules,
    rollout_windows,
)
from repro.simulation.dnsload import (DnsLoadConfig, DnsLoadResult,
                                      _drive_dns_load)
from repro.simulation.rollout import (
    RolloutConfig,
    RolloutResult,
    _run_rollout,
)
from repro.simulation.world import World, WorldConfig, _build_world
from repro.topology.resolvers import ResolverPolicySet
from repro.topology.traffic import TrafficSchedule

__all__ = [
    "ScenarioRun",
    "ScenarioSpec",
    "build_world",
    "run",
    "run_dnsload",
    "run_rollout",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything one scenario needs, as declarative data."""

    world: WorldConfig = field(default_factory=WorldConfig.small)
    rollout: RolloutConfig = field(default_factory=RolloutConfig)
    faults: FaultSchedule = field(default_factory=FaultSchedule,
                                  metadata=OMIT_DEFAULT)
    policy: Optional[MappingPolicy] = field(default=None, metadata=RUNTIME)
    """Mapping policy override; None keeps the default EU mapping."""
    control_plane: Optional[MapMakerConfig] = field(
        default=None, metadata=OMIT_DEFAULT)
    """Opt into the split control plane: maps are compiled/published
    periodically and the name-server path reads them through the
    age-bounded degradation ladder.  None keeps per-query scoring."""
    unit_scheme: Optional[str] = field(default=None, metadata=OMIT_DEFAULT)
    """Unit-construction scheme for the published map (requires
    ``control_plane``): a registered :mod:`repro.core.units` scheme
    name, optionally ``routing_aware:<k>``.  The map compiles one
    ``eu:<unit key>`` entry per unit.  None means ``geo_as``: one unit
    per client /24."""
    monitor: bool = True
    """Attach a :class:`~repro.obs.monitor.RolloutMonitor` observer."""
    traffic: TrafficSchedule = field(default_factory=TrafficSchedule,
                                     metadata=OMIT_DEFAULT)
    """Surge-traffic shapes (flash crowds, regional events, diurnal
    waves, content surges) layered over the baseline demand.  An empty
    schedule (the default) replays the legacy draw sequence exactly."""
    load_feedback: Optional[LoadFeedbackConfig] = field(
        default=None, metadata=OMIT_DEFAULT)
    """Opt into the load-feedback mapping loop: clusters report
    smoothed utilization daily and the scorer penalizes (and past the
    overload threshold, demotes) hot clusters.  None keeps scoring
    load-blind, pinning every existing golden fixture."""
    resolver_policies: ResolverPolicySet = field(
        default_factory=ResolverPolicySet, metadata=OMIT_DEFAULT)
    """Per-provider ECS policy (whitelist on/off, scope-narrowing
    ceiling) of the public resolvers' anycast PoP fleets, which every
    world has.  Providers not named keep the default policy."""

    def __post_init__(self) -> None:
        if self.control_plane is None:
            if self.unit_scheme is not None:
                raise ValueError(
                    "unit_scheme requires a control plane: units only "
                    "exist in the published map (set control_plane)")
            needy = sorted({event.kind for event in self.faults.events
                            if event.kind in FaultKind.CONTROL_PLANE})
            if needy:
                raise ValueError(
                    f"fault kinds {needy} require a control plane: "
                    f"they break the map makers (set control_plane)")
        if self.unit_scheme is not None:
            from repro.core.units import parse_unit_scheme
            try:
                parse_unit_scheme(self.unit_scheme)
            except ValueError as exc:
                raise ValueError(f"bad unit_scheme: {exc}") from None

    def describe(self) -> Dict:
        """Deterministic scenario metadata for monitor reports."""
        doc = {
            "seed": self.rollout.seed,
            "world_seed": self.world.seed,
            "sessions_per_day": self.rollout.sessions_per_day,
        }
        if self.faults:
            doc["faults"] = len(self.faults)
        if self.control_plane is not None:
            doc["control_plane"] = True
        if self.unit_scheme is not None:
            doc["unit_scheme"] = self.unit_scheme
        if self.traffic:
            doc["traffic"] = len(self.traffic)
        if self.load_feedback is not None:
            doc["load_feedback"] = True
        if self.resolver_policies.policies:
            doc["resolver_policies"] = True
        return doc

    # -- the scenario/v1 wire format ------------------------------------

    def to_dict(self) -> Dict:
        """JSON-safe document of the whole spec (``scenario/v1``).

        Live objects have no declarative form: a spec carrying a
        ``policy`` override refuses to serialize rather than silently
        dropping behaviour.
        """
        if self.policy is not None:
            raise ValueError(
                "a live policy object cannot serialize; specs with "
                "policy overrides are in-process only")
        return {"schema": _SCHEMA, "schema_version": _SCHEMA_VERSION,
                **encode(self)}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, doc: Dict) -> "ScenarioSpec":
        """Parse and validate a ``scenario/v1`` document: the envelope
        here, the body through :func:`repro.codec.decode` (every
        malformed value is a ``ValueError`` naming its field)."""
        if not isinstance(doc, dict):
            raise ValueError("a scenario spec is a JSON object")
        body = dict(doc)
        schema = body.pop("schema", _SCHEMA)
        if schema != _SCHEMA:
            raise ValueError(f"unsupported scenario schema: {schema!r}")
        # Missing version means a pre-versioning v1 document; anything
        # other than the one supported version is a hard parse error so
        # future-format specs cannot silently round-trip corrupted.
        version = body.pop("schema_version", _SCHEMA_VERSION)
        if version != _SCHEMA_VERSION:
            raise ValueError(
                f"unsupported scenario schema_version: {version!r} "
                f"(this build reads version {_SCHEMA_VERSION})")
        return decode(cls, body)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


_SCHEMA = "scenario/v1"
_SCHEMA_VERSION = 1


@dataclass
class ScenarioRun:
    """A completed scenario: the spec plus everything it produced."""

    spec: ScenarioSpec
    world: World
    result: RolloutResult
    monitor: Optional[RolloutMonitor]
    injector: Optional[FaultInjector]

    def report(self, scenario: Optional[Dict] = None) -> Dict:
        """The monitor's deterministic report document."""
        if self.monitor is None:
            raise ValueError(
                "scenario ran without a monitor (spec.monitor=False)")
        return self.monitor.report(scenario if scenario is not None
                                   else self.spec.describe())


def build_world(config: Optional[WorldConfig] = None,
                policy: Optional[MappingPolicy] = None,
                control_plane: Optional[MapMakerConfig] = None,
                unit_scheme: Optional[str] = None,
                resolver_policies: Optional[ResolverPolicySet] = None,
                ) -> World:
    """Build and wire a complete world (canonical spelling); ``None``
    means the default of its :class:`ScenarioSpec` field."""
    return _build_world(ScenarioSpec(
        world=config or WorldConfig.small(), policy=policy,
        control_plane=control_plane, unit_scheme=unit_scheme,
        resolver_policies=resolver_policies or ResolverPolicySet()))


def _monitor_for_spec(spec: ScenarioSpec) -> RolloutMonitor:
    """The monitor a spec asks for (shared with the sharded engine,
    so a sharded monitor evaluates the same rule set)."""
    rules = None
    if spec.control_plane is not None:
        # A control-plane world also watches its map pipeline.
        rules = (default_rollout_rules(rollout_windows(spec.rollout))
                 + control_plane_rules(spec.control_plane))
    return RolloutMonitor.for_config(spec.rollout, rules=rules)


def run_rollout(world: World,
                config: Optional[RolloutConfig] = None,
                observer=None,
                injector: Optional[FaultInjector] = None
                ) -> RolloutResult:
    """Drive the roll-out timeline over a hand-built world, serially
    (canonical spelling).  Sharded execution starts from a spec:
    :func:`run` with ``workers=N``."""
    return _run_rollout(world, config=config, observer=observer,
                        injector=injector)


def run(spec: Optional[ScenarioSpec] = None,
        workers: Optional[int] = None,
        shards: Optional[int] = None):
    """Execute one scenario end to end from its spec.

    Returns a :class:`ScenarioRun` (serial, the default) or a
    :class:`repro.parallel.ShardedRun` when ``workers=N`` -- both
    expose ``spec`` / ``result`` / ``monitor`` / ``report()``.
    """
    spec = spec or ScenarioSpec()
    if workers is not None:
        from repro.parallel import DEFAULT_SHARDS, run_sharded

        return run_sharded(
            spec, workers=workers,
            n_shards=DEFAULT_SHARDS if shards is None else shards)
    if shards is not None:
        raise ValueError("shards=N requires workers=N")
    world = _build_world(spec)
    injector = FaultInjector(world, spec.faults) if spec.faults else None
    monitor = _monitor_for_spec(spec) if spec.monitor else None
    result = _run_rollout(world, config=spec.rollout, observer=monitor,
                          injector=injector, traffic=spec.traffic)
    return ScenarioRun(spec=spec, world=world, result=result,
                       monitor=monitor, injector=injector)


def run_dnsload(spec: ScenarioSpec, periods: Sequence[DnsLoadConfig]
                ) -> Tuple[World, List[DnsLoadResult]]:
    """Drive dense DNS-only periods, in order, over the spec's world
    (every plane wired, pairs tracked); each day ticks the control plane
    and takes the roll-out's ECS tranche.  Faults and traffic are refused
    before any world is built: a dense period has no day loop for them."""
    if spec.faults or spec.traffic:
        raise ValueError("a DNS-load period steps neither faults nor "
                         "traffic; run the spec through run() instead")
    world = _build_world(spec)
    world.query_log.track_pairs()
    return world, [_drive_dns_load(world, period, spec.rollout)
                   for period in periods]
