"""The fault table (``repro.faults.kinds.KINDS``), kind by kind.

Every test here is parametrised over ``FaultKind.ALL`` on one world
with every plane on, so a new row is covered the day it is added:

* **completeness** -- each ``FaultKind`` constant has a row whose soak
  targets its own grammar accepts;
* **exactness** -- inject, step past the end, and the recovery audit
  ``world_restored`` is empty; drop the kind's revert (the mutant) and
  the audit names every victim;
* **the hold oracle** -- over random nested/overlapping events of one
  kind, on each day a victim is broken iff an active event covers it,
  whatever order the events start and end in.
"""

import random

import pytest

from repro.api import build_world
from repro.codec import encode
from repro.core.mapmaker import MapMakerConfig
from repro.faults import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.faults.chaos import world_restored
from repro.faults.kinds import KINDS
from repro.simulation.world import WorldConfig


@pytest.fixture(scope="module")
def world():
    return build_world(WorldConfig.tiny(), control_plane=MapMakerConfig())


def _population(world, row):
    """Every object ``row`` could break."""
    if row.targets.census is None:  # anycast_flap: the providers
        return list(world.internet.providers)
    return [victim for _label, victim in row.targets.census(world)]


def _is_broken(world, row, victim) -> bool:
    if row.attr is not None:
        return getattr(victim, row.attr) == row.broken
    return {
        FaultKind.LINK_DEGRADATION:
            lambda: victim.ip in world.network._impairments,
        FaultKind.MAPMAKER_SLOW_PUBLISH:
            lambda: victim.slow_factor != 1.0,
        FaultKind.ANYCAST_FLAP:
            lambda: victim.name in world.resolver_fleets.flapping,
    }[row.name]()


def _expected_leftovers(world, row, victims):
    """What the audit must say when ``victims`` were never put back."""
    if row.attr is not None:
        return {f"{label} still {row.symptom}"
                for label, victim in row.targets.census(world)
                if any(victim is v for v in victims)}
    return {
        FaultKind.LINK_DEGRADATION:
            lambda: {f"{len(victims)} link impairments left"},
        FaultKind.MAPMAKER_SLOW_PUBLISH:
            lambda: {f"{maker.name} still slowed" for maker in victims},
        FaultKind.ANYCAST_FLAP:
            lambda: {f"provider {provider.name} still flapping"
                     for provider in victims},
    }[row.name]()


class TestTableCompleteness:
    def test_constants_and_rows_are_the_same_set(self):
        assert tuple(KINDS) == FaultKind.ALL
        assert len(set(FaultKind.ALL)) == 12
        for name in FaultKind.ALL:
            assert getattr(FaultKind, name.upper()) == name
        assert (FaultKind.DATA_PLANE + FaultKind.CONTROL_PLANE
                + FaultKind.RESOLVER_PLANE) == FaultKind.ALL

    @pytest.mark.parametrize("kind", FaultKind.ALL)
    def test_row_is_whole(self, kind):
        row = KINDS[kind]
        assert row.plane in ("data", "control", "resolver")
        assert kind in getattr(FaultKind, f"{row.plane.upper()}_PLANE")
        if row.attr is not None:
            assert row.symptom and row.targets.census is not None
            assert row.inject is None and row.audit is None
        else:
            assert row.inject is not None and row.audit is not None

    @pytest.mark.parametrize("kind", FaultKind.ALL)
    def test_soak_targets_pass_the_rows_own_grammar(self, kind):
        row = KINDS[kind]
        assert row.soak_targets
        for target in row.soak_targets:
            FaultSchedule((FaultEvent(1, 2, target, kind),)).validate()


class TestExactnessPerKind:
    @pytest.mark.parametrize("kind", FaultKind.ALL)
    def test_inject_then_recover_leaves_nothing(self, world, kind):
        row = KINDS[kind]
        for target in row.soak_targets:
            injector = FaultInjector(world, FaultSchedule((
                FaultEvent(1, 2, target, kind),)))
            injector.step(0)
            assert world_restored(world) == []
            injector.step(1)
            victims = row.targets.resolve(world, target)
            assert victims
            assert all(_is_broken(world, row, v) for v in victims)
            assert world_restored(world)
            injector.step(3)  # past the end
            assert world_restored(world) == []

    @pytest.mark.parametrize("kind", FaultKind.ALL)
    def test_dropped_revert_is_named_by_the_audit(self, world, kind,
                                                  monkeypatch):
        """The mutant: an injector that forgets this kind's undo."""
        row = KINDS[kind]
        undos = []

        def forget(self, event):
            for key in self._applied.pop(event):
                undos.append(self._holds.pop(key)[1])
        monkeypatch.setattr(FaultInjector, "_revert", forget)

        target = row.soak_targets[0]
        injector = FaultInjector(world, FaultSchedule((
            FaultEvent(1, 2, target, kind),)))
        injector.step(1)
        victims = row.targets.resolve(world, target)
        injector.step(3)
        try:
            expected = _expected_leftovers(world, row, victims)
            assert expected and set(world_restored(world)) == expected
        finally:
            for undo in undos:
                undo()
        assert world_restored(world) == []


def _wildcards(row):
    """The broad spellings ``row``'s grammar admits."""
    prefixes = row.targets.prefixes
    stars = ["*"] if "*" in prefixes else []
    if row.targets.group_star:
        stars += [f"{p}:*" for p in sorted(
            p for p in prefixes if p not in (None, "*", "resolver"))]
    return stars


class TestHoldOracle:
    @pytest.mark.parametrize("kind", FaultKind.ALL)
    def test_broken_iff_an_active_event_covers_it(self, world, kind):
        row = KINDS[kind]
        pool = sorted(set(row.soak_targets) | set(_wildcards(row)))
        population = _population(world, row)
        for seed in range(6):
            rng = random.Random(f"{kind}/{seed}")
            targets = rng.sample(pool, min(len(pool), 4))
            schedule = FaultSchedule(tuple(
                FaultEvent(rng.randrange(0, 8), rng.randrange(1, 7),
                           target, kind)
                for target in targets)).validate()
            injector = FaultInjector(world, schedule)
            for day in range(15):
                injector.step(day)
                covered = {id(victim)
                           for event in schedule.active(day)
                           for victim in row.targets.resolve(
                               world, event.target)}
                broken = {id(victim) for victim in population
                          if _is_broken(world, row, victim)}
                assert broken == covered, (seed, day, encode(schedule))
            assert not injector.active_events
            assert world_restored(world) == []

    def test_mismatched_parameters_still_restore_exactly(self, world):
        # Two slow-publish events with different factors, the second
        # starting later and ending later: stacked save/restore pairs
        # would leave the maker slowed; one hold per victim cannot.
        primary = world.control_plane.primary
        injector = FaultInjector(world, FaultSchedule((
            FaultEvent(1, 3, "mapmaker:*", FaultKind.MAPMAKER_SLOW_PUBLISH,
                       params=(("slow_factor", 2.0),)),
            FaultEvent(2, 4, "mapmaker:primary",
                       FaultKind.MAPMAKER_SLOW_PUBLISH,
                       params=(("slow_factor", 4.0),)),
        )))
        injector.step(1)
        injector.step(2)
        injector.step(4)  # the broad event ends first
        assert primary.slow_factor == 2.0  # first holder's factor
        injector.step(6)
        assert primary.slow_factor == 1.0
        assert world_restored(world) == []
