"""Digest, conservation and paper-shape checks on hand-made results."""

from types import SimpleNamespace

from perfbench import checks


def _beacon(day, miles, public=True):
    return SimpleNamespace(day=day, via_public_resolver=public,
                           mapping_distance_miles=miles)


def _result(beacons, sessions, failed):
    return SimpleNamespace(
        rum=SimpleNamespace(beacons=beacons),
        sessions_per_day=sessions, failed_sessions_per_day=failed,
        before_window=(0, 1), after_window=(2, 3))


def test_digest_ignores_key_order_and_sees_values():
    assert checks.digest({"a": 1, "b": [1, 2]}) == checks.digest(
        {"b": [1, 2], "a": 1})
    assert checks.digest({"a": 1}) != checks.digest({"a": 2})


def test_sessions_are_beacons_plus_failed():
    beacons = [_beacon(0, 10.0), _beacon(0, 10.0), _beacon(1, 10.0)]
    assert checks.rollout_conservation(
        _result(beacons, {0: 3, 1: 1}, {0: 1, 1: 0})) == []
    problems = checks.rollout_conservation(
        _result(beacons, {0: 3, 1: 2}, {0: 1, 1: 0}))
    assert len(problems) == 1 and "day 1" in problems[0]


def test_cache_lookups_are_hits_plus_misses():
    good = {"ldns.cache.hits": 3.0, "ldns.cache.misses": 4.0,
            "ldns.cache.lookups": 7.0}
    assert checks.cache_conservation(good) == []
    assert checks.cache_conservation(
        dict(good, **{"ldns.cache.lookups": 8.0}))


def test_paper_shape_needs_distance_to_halve():
    def result(after_miles):
        return _result(
            [_beacon(0, 2000.0), _beacon(0, 9000.0, public=False),
             _beacon(1, 5.0), _beacon(2, after_miles)], {}, {})

    assert checks.paper_shape(result(900.0)) == []
    assert checks.paper_shape(result(1100.0))
    # No via-public beacon after the roll-out is a failure, not a pass.
    assert checks.paper_shape(_result([_beacon(0, 2000.0)], {}, {}))
