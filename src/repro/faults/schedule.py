"""Declarative fault schedules.

A :class:`FaultSchedule` is a list of :class:`FaultEvent` rows --
``(start_day, duration_days, target, kind)`` -- describing *when* a
piece of the simulated ecosystem breaks and when it recovers.  The
schedule itself is pure data: it draws no randomness and touches no
world state, so two runs with the same seed and schedule replay
byte-identically (the property the determinism tests pin).  Applying a
schedule to a live world is the job of
:class:`repro.faults.injector.FaultInjector`.

What a fault kind is -- its plane, target grammar, victims and what
breaking one means -- is its row of :data:`repro.faults.kinds.KINDS`;
this module only checks targets against that row's grammar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.codec import OMIT_DEFAULT
from repro.faults.kinds import KINDS, FaultKind


#: Indexed groups whose ``<group>:<suffix>`` suffix must be a number
#: or ``*``; ``mapmaker`` additionally accepts its role names.
_INDEXED_GROUPS = frozenset({"ns", "cluster", "public", "isp"})
_MAPMAKER_ROLES = frozenset({"primary", "standby"})


def _validate_target(kind: str, target: str) -> None:
    """Raise ``ValueError`` unless ``target`` parses for ``kind``."""
    group = KINDS[kind].targets
    allowed = group.prefixes
    if target == "*":
        if "*" in allowed:
            return
        raise ValueError(
            f"target '*' is not valid for {kind} events")
    head, sep, rest = target.partition(":")
    if not sep:
        if None in allowed:
            return  # bare cluster/resolver id, resolved at apply time
        raise ValueError(
            f"bad {kind} target {target!r}: expected one of "
            f"{_grammar_hint(kind)}")
    if head not in allowed:
        raise ValueError(
            f"bad {kind} target {target!r}: unknown prefix {head!r} "
            f"(expected {_grammar_hint(kind)})")
    if not rest:
        raise ValueError(f"bad {kind} target {target!r}: empty suffix")
    if head == "public" and not (rest == "*" or rest.isdigit()):
        # Two-level provider grammar: public:<provider>[:<city>].
        # Legal for every resolver-targeted kind so a whole provider
        # fleet (or one named PoP) can be addressed by name.
        parts = rest.split(":")
        if not 1 <= len(parts) <= 2 or not all(parts):
            raise ValueError(
                f"bad {kind} target {target!r}: public: takes an "
                f"index, '*', or <provider>[:<city>]")
    elif head in _INDEXED_GROUPS and not (
            rest.isdigit() or (rest == "*" and group.group_star)):
        star = " or '*'" if group.group_star else ""
        raise ValueError(
            f"bad {kind} target {target!r}: {head}: takes an index"
            f"{star} (expected {_grammar_hint(kind)})")
    if head == "mapmaker" and not (
            rest == "*" or rest.isdigit() or rest in _MAPMAKER_ROLES):
        raise ValueError(
            f"bad {kind} target {target!r}: mapmaker: takes "
            f"'primary', 'standby', an index, or '*'")


def _target_provider(target: str) -> Optional[str]:
    """The provider a ``public:<provider>[:<city>]`` target names.

    ``None`` for everything else -- wildcards, indices, and bare
    resolver ids stay exact-string spellings that the cross-kind
    conflict check below cannot (and does not try to) resolve.
    """
    head, sep, rest = target.partition(":")
    if head != "public" or not sep or rest in ("", "*"):
        return None
    provider = rest.split(":", 1)[0]
    return None if provider.isdigit() else provider


def _grammar_hint(kind: str) -> str:
    names = sorted(("<bare id>" if p is None else f"{p}:" if p != "*"
                    else "'*'") for p in KINDS[kind].targets.prefixes)
    return ", ".join(names)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault: a target breaks on ``start_day`` and
    recovers ``duration_days`` later.

    ``target`` addresses the thing that breaks, in the grammar of the
    kind's :data:`~repro.faults.kinds.KINDS` row: ``ns:<index>`` /
    ``ns:*``; a cluster id or ``cluster:<index>`` into the sorted ids;
    for resolvers an id, ``resolver:<id>``, ``public:<index>`` /
    ``isp:<index>`` into the sorted group, ``public:*`` / ``isp:*``,
    or ``public:<provider>[:<city>]`` (the only spellings the
    resolver-plane kinds take); ``mapmaker:primary|standby|<index>|*``;
    and ``*`` where the whole world is a target.  Index grammar lets
    schedules address worlds not yet built.

    ``params`` carries kind-specific numbers as a sorted tuple of
    ``(name, value)`` pairs so events stay hashable and their JSON
    round-trip is canonical.
    """

    start_day: int
    duration_days: int
    target: str
    kind: str
    params: Tuple[Tuple[str, float], ...] = field(default=(),
                                                  metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if self.start_day < 0:
            raise ValueError(f"start_day must be >= 0: {self.start_day}")
        if self.duration_days < 1:
            raise ValueError(
                f"duration_days must be >= 1: {self.duration_days}")
        if self.kind not in FaultKind.ALL:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        object.__setattr__(self, "params",
                           tuple(sorted(self.params)))

    @property
    def end_day(self) -> int:
        """First day the target is healthy again (exclusive bound)."""
        return self.start_day + self.duration_days

    def active(self, day: int) -> bool:
        return self.start_day <= day < self.end_day

    def param(self, name: str, default: float = 0.0) -> float:
        for key, value in self.params:
            if key == name:
                return value
        return default


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered collection of fault events for one scenario."""

    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.events,
            key=lambda e: (e.start_day, e.kind, e.target)))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def active(self, day: int) -> Tuple[FaultEvent, ...]:
        """Events in force on ``day``, in canonical order."""
        return tuple(e for e in self.events if e.active(day))

    def window(self, kind: str) -> Optional[Tuple[int, int]]:
        """[first start_day, last end_day) across events of ``kind``."""
        matching = [e for e in self.events if e.kind == kind]
        if not matching:
            return None
        return (min(e.start_day for e in matching),
                max(e.end_day for e in matching))

    def validate(self) -> "FaultSchedule":
        """Parse-time checks beyond per-event field validation.

        Raises :class:`ValueError` for targets outside the documented
        grammar of their kind and for overlapping events with the same
        ``(kind, target)`` -- both of which would otherwise surface as
        confusing errors (or silent double-application diffs) deep
        inside injector replay.  Targets are compared as exact
        strings; overlapping events addressing one resolver via two
        spellings are legal (the injector's per-victim holds keep both
        in force and their reverts exact).  Returns ``self`` for
        chaining.
        """
        for event in self.events:
            _validate_target(event.kind, event.target)
        previous: Dict[Tuple[str, str], FaultEvent] = {}
        for event in self.events:  # already sorted by start_day
            key = (event.kind, event.target)
            earlier = previous.get(key)
            if earlier is not None and event.start_day < earlier.end_day:
                raise ValueError(
                    f"overlapping {event.kind} events for target "
                    f"{event.target!r}: days "
                    f"[{earlier.start_day}, {earlier.end_day}) and "
                    f"[{event.start_day}, {event.end_day})")
            if earlier is None or event.end_day > earlier.end_day:
                previous[key] = event
        # Cross-kind conflict: an overlapping pop_outage (anycast route
        # withdrawn -- clients silently re-home) and ldns_blackout
        # (still routed to, but dead -- clients burn the stub timeout)
        # on the same *named* provider assert contradictory failure
        # modes for one fleet; reject at parse time.  Index, wildcard,
        # and bare-id spellings cannot be resolved to a provider here
        # and keep the exact-string doctrine above.
        outages = [(e, _target_provider(e.target)) for e in self.events
                   if e.kind == FaultKind.POP_OUTAGE]
        blackouts = [(e, _target_provider(e.target)) for e in self.events
                     if e.kind == FaultKind.LDNS_BLACKOUT]
        for outage, out_provider in outages:
            if out_provider is None:
                continue
            for blackout, dark_provider in blackouts:
                if dark_provider != out_provider:
                    continue
                if (outage.start_day < blackout.end_day
                        and blackout.start_day < outage.end_day):
                    raise ValueError(
                        f"conflicting pop_outage and ldns_blackout "
                        f"events overlap on provider "
                        f"{out_provider!r}: days "
                        f"[{outage.start_day}, {outage.end_day}) and "
                        f"[{blackout.start_day}, {blackout.end_day})")
        return self
