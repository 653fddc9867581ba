"""The surge-traffic scenario library and the load-feedback loop.

Pins the declarative half (shape validation, target grammar, envelope
math, JSON round-trips through every kind, the deterministic soak
generator) and the runtime half: an empty schedule reproduces the
legacy demand draw bit-for-bit, content surges consume no extra draw
when inactive, and per-day server-load decay keeps a multi-day run's
utilization at a plateau instead of integrating forever.
"""

import json
import math
import random

import pytest

from repro.api import ScenarioSpec
from repro.codec import decode, encode
from repro.core.loadfeedback import LoadFeedbackConfig
from repro.core.mapmaker import MapMakerConfig
from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.topology.traffic import (CONTINENTS, DayTraffic, ShapeKind,
                                    TrafficSchedule, TrafficShape,
                                    day_weight, generate_surges)


def _shape(**overrides):
    base = dict(start_day=3, duration_days=4, target="continent:NA",
                kind=ShapeKind.FLASH_CROWD, magnitude=3.0)
    base.update(overrides)
    return TrafficShape(**base)


ONE_OF_EACH = (
    _shape(),
    _shape(start_day=9, kind=ShapeKind.REGIONAL_EVENT,
           target="country:DE", magnitude=4.0),
    _shape(start_day=1, duration_days=10, kind=ShapeKind.DIURNAL_WAVE,
           target="*", magnitude=1.5, period_days=5),
    _shape(start_day=5, kind=ShapeKind.CONTENT_SURGE,
           target="provider:provider1", magnitude=6.0),
)


class TestShapeValidation:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown traffic shape"):
            _shape(kind="tsunami")

    @pytest.mark.parametrize("magnitude",
                             (1.0, 0.5, -2.0, float("nan"),
                              float("inf")))
    def test_rejects_non_surge_magnitudes(self, magnitude):
        with pytest.raises(ValueError, match="magnitude"):
            _shape(magnitude=magnitude)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="start_day"):
            _shape(start_day=-1)
        with pytest.raises(ValueError, match="duration_days"):
            _shape(duration_days=0)

    def test_period_only_for_diurnal(self):
        with pytest.raises(ValueError, match="period_days"):
            _shape(period_days=5)
        with pytest.raises(ValueError, match="period_days"):
            _shape(kind=ShapeKind.DIURNAL_WAVE, target="*",
                   period_days=0)

    @pytest.mark.parametrize("kind,target", (
        (ShapeKind.FLASH_CROWD, "provider:provider0"),
        (ShapeKind.FLASH_CROWD, "*"),
        (ShapeKind.FLASH_CROWD, "continent:"),
        (ShapeKind.DIURNAL_WAVE, "continent:NA"),
        (ShapeKind.CONTENT_SURGE, "country:US"),
        (ShapeKind.REGIONAL_EVENT, "NA"),
    ))
    def test_grammar_rejects_mismatched_targets(self, kind, target):
        period = 5 if kind == ShapeKind.DIURNAL_WAVE else 0
        schedule = TrafficSchedule((_shape(
            kind=kind, target=target, period_days=period),))
        with pytest.raises(ValueError):
            schedule.validate()

    def test_same_target_overlap_rejected(self):
        schedule = TrafficSchedule((
            _shape(start_day=3, duration_days=4),
            _shape(start_day=5, duration_days=2)))
        with pytest.raises(ValueError, match="overlapping"):
            schedule.validate()

    def test_distinct_targets_overlap_freely(self):
        schedule = TrafficSchedule((
            _shape(start_day=3),
            _shape(start_day=3, target="continent:EU"),
            _shape(start_day=3, kind=ShapeKind.CONTENT_SURGE,
                   target="provider:provider0")))
        assert len(schedule.validate()) == 3


class TestEnvelopes:
    def test_flash_crowd_is_a_step(self):
        shape = _shape(magnitude=5.0)
        assert shape.factor(2) == 1.0
        assert all(shape.factor(day) == 5.0 for day in range(3, 7))
        assert shape.factor(7) == 1.0

    def test_regional_event_is_triangular(self):
        shape = _shape(kind=ShapeKind.REGIONAL_EVENT, start_day=0,
                       duration_days=4, magnitude=9.0)
        factors = [shape.factor(day) for day in range(4)]
        # Symmetric ramp peaking mid-window, never hitting baseline
        # inside the window.
        assert factors == pytest.approx(
            [factors[3], factors[2], factors[2], factors[3]][::-1])
        assert factors[1] == factors[2] == max(factors)
        assert min(factors) > 1.0

    def test_one_day_event_peaks_at_magnitude(self):
        shape = _shape(kind=ShapeKind.REGIONAL_EVENT, duration_days=1,
                       magnitude=4.0)
        assert shape.factor(shape.start_day) == pytest.approx(4.0)

    def test_diurnal_wave_cycles_between_baseline_and_peak(self):
        shape = _shape(kind=ShapeKind.DIURNAL_WAVE, target="*",
                       start_day=0, duration_days=20, magnitude=2.0,
                       period_days=4)
        assert shape.factor(0) == pytest.approx(1.0)
        assert shape.factor(2) == pytest.approx(2.0)  # half period
        assert shape.factor(4) == pytest.approx(1.0)  # full period
        for day in range(20):
            assert 1.0 <= shape.factor(day) <= 2.0 + 1e-12


class TestRoundTrip:
    @pytest.mark.parametrize("shape", ONE_OF_EACH,
                             ids=[s.kind for s in ONE_OF_EACH])
    def test_every_kind_round_trips(self, shape):
        assert decode(TrafficShape, encode(shape)) == shape

    def test_schedule_round_trips_through_json(self):
        schedule = TrafficSchedule(ONE_OF_EACH).validate()
        text = json.dumps(encode(schedule))
        assert decode(TrafficSchedule, json.loads(text)) == schedule

    def test_period_days_omitted_when_zero(self):
        assert "period_days" not in encode(_shape())

    def test_unknown_shape_field_rejected(self):
        doc = encode(_shape())
        doc["ramp"] = "linear"
        with pytest.raises(ValueError,
                           match=r"unknown fields in traffic\[0\]: "
                                 r"\['ramp'\]"):
            decode(TrafficSchedule, [doc], "traffic")

    def test_integer_magnitude_reads_as_a_float(self):
        doc = encode(_shape())
        doc["magnitude"] = 3
        shape = decode(TrafficShape, doc)
        assert shape == _shape() and type(shape.magnitude) is float

    def test_schedule_must_be_a_list(self):
        with pytest.raises(ValueError, match="traffic must be a JSON list"):
            decode(TrafficSchedule, json.loads('{"kind": "flash_crowd"}'),
                   "traffic")

    def test_from_dict_validates_grammar(self):
        doc = encode(_shape(target="continent:NA"))
        doc["target"] = "cluster:3"
        with pytest.raises(ValueError, match="bad flash_crowd target"):
            decode(TrafficSchedule, [doc])

    def test_scenario_spec_round_trips_with_traffic_and_feedback(self):
        spec = ScenarioSpec(
            faults=FaultSchedule((FaultEvent(
                start_day=2, duration_days=3, target="cluster:0",
                kind=FaultKind.CLUSTER_OUTAGE),)),
            control_plane=MapMakerConfig(publish_interval_days=2),
            traffic=TrafficSchedule(ONE_OF_EACH),
            load_feedback=LoadFeedbackConfig(overload_threshold=1.5))
        thawed = ScenarioSpec.from_json(spec.to_json())
        assert thawed == spec
        assert thawed.to_json() == spec.to_json()

    def test_scenario_spec_describe_flags_new_features(self):
        plain = ScenarioSpec().describe()
        assert "traffic" not in plain and "load_feedback" not in plain
        rich = ScenarioSpec(traffic=TrafficSchedule(ONE_OF_EACH),
                            load_feedback=LoadFeedbackConfig())
        doc = rich.describe()
        assert doc["traffic"] == len(ONE_OF_EACH)
        assert doc["load_feedback"] is True

    def test_load_feedback_config_rejects_unknown_keys(self):
        doc = encode(LoadFeedbackConfig())
        doc["boost"] = 2.0
        with pytest.raises(ValueError, match=r"unknown.*\['boost'\]"):
            decode(LoadFeedbackConfig, doc)


class TestGenerator:
    @pytest.mark.parametrize("seed", range(25))
    def test_deterministic_and_valid(self, seed):
        from repro.faults import SplitMix64

        n_days = 14
        first = generate_surges(SplitMix64(seed), n_days)
        again = generate_surges(SplitMix64(seed), n_days)
        assert first == again
        assert 1 <= len(first) <= 3
        for shape in first.shapes:
            assert 1 <= shape.start_day
            assert shape.end_day <= n_days - 1
            assert shape.kind in ShapeKind.ALL
        # validate() already ran inside the generator; idempotent.
        assert first.validate() == first

    def test_needs_room_for_a_surge(self):
        with pytest.raises(ValueError, match="at least 4 days"):
            generate_surges(random.Random(1), 3)


@pytest.fixture(scope="module")
def tiny_world():
    from repro.api import build_world
    from repro.simulation.world import WorldConfig

    return build_world(WorldConfig.tiny())


class TestDayTraffic:
    def test_empty_schedule_matches_legacy_pick(self, tiny_world):
        """The byte-identity contract: with no active shape, the
        surge-weighted pick is the same single draw and bisect as
        ``Internet.pick_block``."""
        internet = tiny_world.internet
        empty = DayTraffic(TrafficSchedule(), day=0,
                           blocks=internet.blocks)
        assert empty.volume_multiplier == pytest.approx(1.0)
        legacy_rng, surge_rng = random.Random(42), random.Random(42)
        for _ in range(300):
            assert (empty.pick_block(surge_rng).prefix
                    == internet.pick_block(legacy_rng).prefix)
        assert legacy_rng.getstate() == surge_rng.getstate()

    def test_inactive_day_matches_legacy_pick(self, tiny_world):
        schedule = TrafficSchedule((_shape(start_day=5),)).validate()
        view = DayTraffic(schedule, day=0,
                          blocks=tiny_world.internet.blocks)
        legacy_rng, surge_rng = random.Random(7), random.Random(7)
        for _ in range(100):
            assert (view.pick_block(surge_rng).prefix
                    == tiny_world.internet.pick_block(legacy_rng).prefix)

    def test_flash_crowd_skews_picks_and_volume(self, tiny_world):
        blocks = tiny_world.internet.blocks
        schedule = TrafficSchedule((_shape(
            start_day=0, duration_days=2, magnitude=5.0),)).validate()
        view = DayTraffic(schedule, day=0, blocks=blocks)
        assert view.volume_multiplier > 1.0
        rng = random.Random(3)
        base_rng = random.Random(3)
        surged = sum(view.pick_block(rng).continent == "NA"
                     for _ in range(600))
        baseline = sum(
            tiny_world.internet.pick_block(base_rng).continent == "NA"
            for _ in range(600))
        assert surged > baseline

    def test_pick_provider_draws_nothing_when_inactive(self, tiny_world):
        view = DayTraffic(TrafficSchedule(), day=0,
                          blocks=tiny_world.internet.blocks)
        rng = random.Random(11)
        before = rng.getstate()
        assert view.pick_provider(rng, tiny_world.catalog) is None
        assert rng.getstate() == before

    def test_content_surge_biases_provider(self, tiny_world):
        providers = tiny_world.catalog.providers
        target = providers[-1].name
        schedule = TrafficSchedule((_shape(
            start_day=0, duration_days=2, kind=ShapeKind.CONTENT_SURGE,
            target=f"provider:{target}", magnitude=6.0),)).validate()
        view = DayTraffic(schedule, day=0,
                          blocks=tiny_world.internet.blocks)
        # Volume and geographic shares are untouched by content surges.
        assert view.volume_multiplier == pytest.approx(1.0)
        rng = random.Random(5)
        picks = [view.pick_provider(rng, tiny_world.catalog)
                 for _ in range(400)]
        share = sum(p.name == target for p in picks) / len(picks)
        popularity = providers[-1].popularity / sum(
            p.popularity for p in providers)
        assert share > popularity

    def test_day_weight_tracks_active_surges(self, tiny_world):
        blocks = tiny_world.internet.blocks
        schedule = TrafficSchedule((_shape(
            start_day=0, duration_days=2, magnitude=3.0),)).validate()
        base = sum(block.demand for block in blocks)
        na = sum(block.demand for block in blocks
                 if block.continent == "NA")
        assert day_weight(schedule, 0, blocks) == pytest.approx(
            base + 2.0 * na)
        assert day_weight(schedule, 5, blocks) == pytest.approx(base)

    def test_diurnal_wave_moves_volume_not_shares(self, tiny_world):
        schedule = TrafficSchedule((_shape(
            start_day=0, duration_days=10, kind=ShapeKind.DIURNAL_WAVE,
            target="*", magnitude=2.0, period_days=4),)).validate()
        blocks = tiny_world.internet.blocks
        peak = DayTraffic(schedule, day=2, blocks=blocks)
        assert peak.volume_multiplier == pytest.approx(2.0)
        assert day_weight(schedule, 2, blocks) == pytest.approx(
            sum(block.demand for block in blocks))
        legacy_rng, surge_rng = random.Random(9), random.Random(9)
        for _ in range(100):
            assert (peak.pick_block(surge_rng).prefix
                    == tiny_world.internet.pick_block(legacy_rng).prefix)


class TestLoadDecay:
    def test_decay_halves_every_server(self):
        from repro.cdn.server import DAILY_LOAD_RETENTION, EdgeServer

        server = EdgeServer(ip=1, cluster_id=0, capacity_rps=10.0)
        server.add_load(8.0)
        server.decay_load(DAILY_LOAD_RETENTION)
        assert server.load_rps == pytest.approx(
            8.0 * DAILY_LOAD_RETENTION)

    def test_ten_day_run_reaches_a_load_plateau(self):
        """Regression: server load once integrated forever across a
        run (``add_load`` with no decay), so utilization on day N grew
        linearly with N.  With the overnight decay in the day loop, a
        constant workload must plateau at the geometric-series level
        rather than keep climbing."""
        import datetime

        from repro.simulation.rollout import RolloutConfig, _run_rollout
        from repro.api import build_world
        from repro.simulation.world import WorldConfig

        class LoadProbe:
            def __init__(self, deployments):
                self.deployments = deployments
                self.total_by_day = {}

            def on_day(self, record):
                self.total_by_day[record.day] = sum(
                    cluster.load_rps
                    for cluster in self.deployments.live_clusters())

        world = build_world(WorldConfig.tiny())
        probe = LoadProbe(world.deployments)
        _run_rollout(world, config=RolloutConfig(
            start_date=datetime.date(2014, 3, 1),
            end_date=datetime.date(2014, 3, 10),
            rollout_start=datetime.date(2014, 3, 2),
            rollout_end=datetime.date(2014, 3, 3),
            sessions_per_day=40, seed=5), observer=probe)
        totals = probe.total_by_day
        assert sorted(totals) == list(range(10))
        assert all(value > 0 for value in totals.values())
        # Without decay day 9 carries ~10 days of load (~2x day 4's 5);
        # with 0.5 retention the steady state is ~2x one day's input,
        # so late days sit within a whisker of the mid-run level.
        assert totals[9] < 1.5 * totals[4]
        # And the plateau is a plateau, not a slow ramp: the last
        # three days stay within 25% of each other.
        late = [totals[day] for day in (7, 8, 9)]
        assert max(late) < 1.25 * min(late)
