"""Declarative surge-traffic shapes: the scenario library.

A :class:`TrafficSchedule` is a list of :class:`TrafficShape` rows --
``(start_day, duration_days, target, kind, magnitude)`` -- describing
*when* client demand deviates from the world's baseline and by how
much.  Like its sibling :class:`repro.faults.FaultSchedule`, the
schedule itself is pure data: it draws no randomness and touches no
world state, so two runs with the same seed and schedule replay
byte-identically, and it composes freely with a fault schedule (a
flash crowd *during* a cluster outage is just two rows).

Shape kinds (the surge geometries real CDNs plan capacity around):

* ``flash_crowd`` -- a step surge on one geography: every client block
  in the target country/continent multiplies its demand by
  ``magnitude`` for the window (breaking news, a product launch).
* ``regional_event`` -- a triangular ramp on one geography peaking
  mid-window (a sports final: audiences build, peak, disperse).
* ``diurnal_wave`` -- a world-wide sinusoidal volume wave with period
  ``period_days``; demand *shares* are untouched, only the session
  volume breathes.
* ``content_surge`` -- one content provider's popularity multiplies by
  ``magnitude`` for the window (a viral release), biasing which
  provider each session requests without moving clients.

The runtime half of the module -- :class:`DayTraffic` -- resolves a
schedule against a block list for one simulated day: an effective
per-block weighting, a volume multiplier, and demand-weighted picks
that reduce *exactly* to the legacy single-draw pick when no shape is
active (same single ``rng.random()`` call, same bisect), so an empty
schedule is byte-identical to no schedule at all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.codec import OMIT_DEFAULT


class ShapeKind:
    """String constants naming the supported traffic shapes."""

    FLASH_CROWD = "flash_crowd"
    REGIONAL_EVENT = "regional_event"
    DIURNAL_WAVE = "diurnal_wave"
    CONTENT_SURGE = "content_surge"

    GEO = (FLASH_CROWD, REGIONAL_EVENT)
    ALL = (FLASH_CROWD, REGIONAL_EVENT, DIURNAL_WAVE, CONTENT_SURGE)


#: Target-grammar prefixes legal for each shape kind.  Geographic
#: surges address ``country:<CC>`` or ``continent:<code>``; the
#: diurnal wave is whole-world (``"*"``); content surges address
#: ``provider:<name>`` in the world's catalog.
_TARGET_GRAMMAR = {
    ShapeKind.FLASH_CROWD: frozenset({"country", "continent"}),
    ShapeKind.REGIONAL_EVENT: frozenset({"country", "continent"}),
    ShapeKind.DIURNAL_WAVE: frozenset({"*"}),
    ShapeKind.CONTENT_SURGE: frozenset({"provider"}),
}

#: Continent codes of the city gazetteer, for the deterministic
#: surge generator.
CONTINENTS = ("AF", "AS", "EU", "NA", "OC", "SA")


def _validate_target(kind: str, target: str) -> None:
    """Raise ``ValueError`` unless ``target`` parses for ``kind``."""
    allowed = _TARGET_GRAMMAR[kind]
    if target == "*":
        if "*" in allowed:
            return
        raise ValueError(f"target '*' is not valid for {kind} shapes")
    head, sep, rest = target.partition(":")
    if not sep or head not in allowed:
        raise ValueError(
            f"bad {kind} target {target!r}: expected "
            f"{_grammar_hint(kind)}")
    if not rest:
        raise ValueError(f"bad {kind} target {target!r}: empty suffix")


def _grammar_hint(kind: str) -> str:
    names = sorted("'*'" if p == "*" else f"{p}:<...>"
                   for p in _TARGET_GRAMMAR[kind])
    return " or ".join(names)


@dataclass(frozen=True)
class TrafficShape:
    """One scheduled demand deviation: ``target``'s demand follows the
    kind's envelope from ``start_day`` for ``duration_days``.

    ``magnitude`` is the peak demand multiplier (> 1); the envelope
    interpolates between 1 and it per kind.  ``period_days`` is the
    wavelength of a ``diurnal_wave`` and must be 0 for every other
    kind.
    """

    start_day: int
    duration_days: int
    target: str
    kind: str
    magnitude: float
    period_days: int = field(default=0, metadata=OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if self.start_day < 0:
            raise ValueError(f"start_day must be >= 0: {self.start_day}")
        if self.duration_days < 1:
            raise ValueError(
                f"duration_days must be >= 1: {self.duration_days}")
        if self.kind not in ShapeKind.ALL:
            raise ValueError(f"unknown traffic shape kind: {self.kind!r}")
        if not math.isfinite(self.magnitude) or self.magnitude <= 1.0:
            raise ValueError(
                f"magnitude must be a finite multiplier > 1: "
                f"{self.magnitude}")
        if self.kind == ShapeKind.DIURNAL_WAVE:
            if self.period_days < 1:
                raise ValueError(
                    f"diurnal_wave needs period_days >= 1: "
                    f"{self.period_days}")
        elif self.period_days != 0:
            raise ValueError(
                f"period_days is only valid for diurnal_wave shapes "
                f"(got {self.period_days} on {self.kind})")

    @property
    def end_day(self) -> int:
        """First day demand is back to baseline (exclusive bound)."""
        return self.start_day + self.duration_days

    def active(self, day: int) -> bool:
        return self.start_day <= day < self.end_day

    @property
    def provider_name(self) -> str:
        """The surged provider of a ``content_surge`` shape."""
        return self.target.partition(":")[2]

    def factor(self, day: int) -> float:
        """Demand multiplier this shape contributes on ``day``."""
        if not self.active(day):
            return 1.0
        if self.kind == ShapeKind.REGIONAL_EVENT:
            # Triangular ramp peaking mid-window (day midpoints, so a
            # one-day event peaks on its only day).
            position = (day - self.start_day + 0.5) / self.duration_days
            ramp = 1.0 - abs(2.0 * position - 1.0)
            return 1.0 + (self.magnitude - 1.0) * ramp
        if self.kind == ShapeKind.DIURNAL_WAVE:
            # Sinusoid from baseline up to ``magnitude`` and back each
            # ``period_days``; volume-only (shares untouched).
            phase = 2.0 * math.pi * (day - self.start_day) / self.period_days
            return 1.0 + (self.magnitude - 1.0) * 0.5 * (1.0 - math.cos(phase))
        # flash_crowd / content_surge: a step.
        return self.magnitude

    def matches_block(self, block) -> bool:
        """Does a client block fall inside this geographic surge?"""
        head, _, rest = self.target.partition(":")
        if head == "country":
            return block.country == rest
        if head == "continent":
            return block.continent == rest
        return False


@dataclass(frozen=True)
class TrafficSchedule:
    """An ordered collection of traffic shapes for one scenario."""

    shapes: Tuple[TrafficShape, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        ordered = tuple(sorted(
            self.shapes,
            key=lambda s: (s.start_day, s.kind, s.target)))
        object.__setattr__(self, "shapes", ordered)

    def __len__(self) -> int:
        return len(self.shapes)

    def __bool__(self) -> bool:
        return bool(self.shapes)

    def active(self, day: int) -> Tuple[TrafficShape, ...]:
        """Shapes in force on ``day``, in canonical order."""
        return tuple(s for s in self.shapes if s.active(day))

    def validate(self) -> "TrafficSchedule":
        """Parse-time checks beyond per-shape field validation.

        Rejects targets outside the documented grammar of their kind
        and overlapping shapes with the same ``(kind, target)`` --
        concurrent surges on one target have no single well-defined
        envelope, so they are an authoring error, not a composition.
        Distinct targets overlap freely (their factors stack).
        Returns ``self`` for chaining.
        """
        for shape in self.shapes:
            _validate_target(shape.kind, shape.target)
        previous: Dict[Tuple[str, str], TrafficShape] = {}
        for shape in self.shapes:  # already sorted by start_day
            key = (shape.kind, shape.target)
            earlier = previous.get(key)
            if earlier is not None and shape.start_day < earlier.end_day:
                raise ValueError(
                    f"overlapping {shape.kind} shapes for target "
                    f"{shape.target!r}: days "
                    f"[{earlier.start_day}, {earlier.end_day}) and "
                    f"[{shape.start_day}, {shape.end_day})")
            if earlier is None or shape.end_day > earlier.end_day:
                previous[key] = shape
        return self


# -- runtime resolution ------------------------------------------------------

class DayTraffic:
    """One day of a schedule resolved against one block list.

    The effective weight of each block is its base demand plus every
    active geographic surge's ``(factor - 1) * demand`` contribution;
    :meth:`pick_block` samples that mixture with a *single* uniform
    draw (mass below the base total falls through to the legacy
    bisect; mass above walks the per-shape extras), so a day with no
    active geographic shape reproduces
    :meth:`repro.topology.internet.Internet.pick_block` bit-for-bit.
    """

    def __init__(self, schedule: TrafficSchedule, day: int,
                 blocks: Sequence) -> None:
        self.day = day
        self._blocks = blocks
        cum: List[float] = []
        running = 0.0
        for block in blocks:
            running += block.demand
            cum.append(running)
        self._base_cum = cum
        self._base_total = running
        # Per active geographic shape: (extra weight, matched blocks,
        # cumulative matched demand).
        self._extras: List[Tuple[float, List, List[float]]] = []
        wave = 1.0
        provider_factors: Dict[str, float] = {}
        for shape in schedule.active(day):
            if shape.kind in ShapeKind.GEO:
                matched: List = []
                mcum: List[float] = []
                mrunning = 0.0
                for block in blocks:
                    if shape.matches_block(block):
                        matched.append(block)
                        mrunning += block.demand
                        mcum.append(mrunning)
                extra = (shape.factor(day) - 1.0) * mrunning
                if matched and extra > 0.0:
                    self._extras.append((extra, matched, mcum))
            elif shape.kind == ShapeKind.DIURNAL_WAVE:
                wave *= shape.factor(day)
            else:  # content_surge: biases the provider pick only
                name = shape.provider_name
                provider_factors[name] = (
                    provider_factors.get(name, 1.0) * shape.factor(day))
        self.extra_weight = sum(e for e, _, _ in self._extras)
        self.total_weight = self._base_total + self.extra_weight
        self._wave = wave
        self._provider_factors = provider_factors

    @property
    def volume_multiplier(self) -> float:
        """Today's session volume relative to the baseline."""
        if self._base_total <= 0.0:
            return self._wave
        return (self.total_weight / self._base_total) * self._wave

    def pick_block(self, rng):
        """Surge-weighted demand pick (one uniform draw)."""
        if not self._blocks:
            raise ValueError("DayTraffic has no client blocks")
        u = rng.random() * self.total_weight
        if u < self._base_total or not self._extras:
            index = bisect.bisect_right(self._base_cum, u)
            return self._blocks[min(index, len(self._blocks) - 1)]
        u -= self._base_total
        for extra, matched, mcum in self._extras:
            if u < extra:
                position = (u / extra) * mcum[-1]
                index = bisect.bisect_right(mcum, position)
                return matched[min(index, len(matched) - 1)]
            u -= extra
        # Float-roundoff edge: the draw landed on the last boundary.
        return self._extras[-1][1][-1]

    def pick_provider(self, rng, catalog):
        """Surge-weighted provider pick, or None when no content surge
        is active (callers then fall through to the catalog's own
        pick, preserving the legacy draw)."""
        if not self._provider_factors:
            return None
        providers = catalog.providers
        cum: List[float] = []
        running = 0.0
        for provider in providers:
            weight = provider.popularity * self._provider_factors.get(
                provider.name, 1.0)
            running += weight
            cum.append(running)
        u = rng.random() * running
        index = bisect.bisect_right(cum, u)
        return providers[min(index, len(providers) - 1)]


def day_weight(schedule: TrafficSchedule, day: int,
               blocks: Sequence) -> float:
    """Total effective demand weight of ``blocks`` on ``day``.

    The scalar the sharded engine apportions session quotas by:
    base demand plus every active geographic surge's extra mass over
    the blocks (diurnal waves scale volume globally, not shares, so
    they do not appear here).
    """
    total = sum(block.demand for block in blocks)
    for shape in schedule.active(day):
        if shape.kind not in ShapeKind.GEO:
            continue
        matched = sum(block.demand for block in blocks
                      if shape.matches_block(block))
        total += (shape.factor(day) - 1.0) * matched
    return total


def generate_surges(rng, n_days: int, max_shapes: int = 3,
                    n_providers: int = 4) -> TrafficSchedule:
    """Deterministic surge schedule from an rng (the soak menu).

    ``rng`` needs ``randrange``/``choice`` (both
    :class:`repro.faults.SplitMix64` and :class:`random.Random`
    qualify).  Magnitudes and durations come from small quantized
    menus so generated schedules are platform-stable; every shape
    starts on day >= 1 and ends with at least one baseline day left,
    mirroring :func:`repro.faults.chaos.generate_schedule`.
    """
    if n_days < 4:
        raise ValueError(f"need at least 4 days to place a surge: {n_days}")
    count = 1 + rng.randrange(max(max_shapes, 1))
    shapes: List[TrafficShape] = []
    used = set()
    for _ in range(count):
        kind = rng.choice(ShapeKind.ALL)
        if kind == ShapeKind.DIURNAL_WAVE:
            target = "*"
        elif kind == ShapeKind.CONTENT_SURGE:
            target = f"provider:provider{rng.randrange(max(n_providers, 1))}"
        else:
            target = f"continent:{rng.choice(CONTINENTS)}"
        if (kind, target) in used:
            continue  # same-target overlap would fail validate()
        used.add((kind, target))
        duration = 2 + rng.randrange(min(4, n_days - 3))
        start = 1 + rng.randrange(max(n_days - duration - 1, 1))
        magnitude = rng.choice((2.0, 3.0, 4.0, 6.0))
        period = 0
        if kind == ShapeKind.DIURNAL_WAVE:
            magnitude = rng.choice((1.5, 2.0))
            period = rng.choice((5, 7))
        shapes.append(TrafficShape(
            start_day=start, duration_days=duration, target=target,
            kind=kind, magnitude=magnitude, period_days=period))
    return TrafficSchedule(tuple(shapes)).validate()
