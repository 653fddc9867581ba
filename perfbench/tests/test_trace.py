"""The wrapper tracer: self-time arithmetic and exact restore."""

import importlib

import pytest

from perfbench import trace
from perfbench.tests import fakeprog

FAKE_LAYERS = {
    "top": ("perfbench.tests.fakeprog:top",),
    "middle": ("perfbench.tests.fakeprog:middle",),
    "leaf": ("perfbench.tests.fakeprog:leaf",),
    "codec": ("perfbench.tests.fakeprog:Codec.decode",
              "perfbench.tests.fakeprog:Codec.encode",
              "perfbench.tests.fakeprog:Codec.size"),
}


def _ticking_clock(monkeypatch, step_ns=10):
    """Every reading of the clock is ``step_ns`` after the last."""
    now = [0]

    def clock():
        now[0] += step_ns
        return now[0]

    monkeypatch.setattr(trace, "perf_counter_ns", clock)


def test_nested_spans_split_self_time_from_child_time(monkeypatch):
    _ticking_clock(monkeypatch)
    tracer = trace.Tracer(FAKE_LAYERS)
    with tracer, tracer.root():
        assert fakeprog.top(0) == 3
    metrics = tracer.metrics()

    # top -> middle -> leaf, leaf; then top -> leaf.  Each clock reading
    # is one 10 ns tick, a leaf span is one tick long, and every span's
    # self time is its ticks minus its children's.
    assert metrics["leaf.calls"] == 3
    assert metrics["middle.calls"] == 1
    assert metrics["top.calls"] == 1
    assert metrics["leaf.self_us"] == pytest.approx(0.010)
    # middle: start, (leaf: 2 readings) x2, end = 5 ticks, 2 in leaves.
    assert metrics["middle.self_us"] == pytest.approx(0.030)
    # top: 1 + middle's 6 readings + leaf's 2 = 9 ticks long; children
    # cover 5 + 1.
    assert metrics["top.self_us"] == pytest.approx(0.030)
    # Root: 11 ticks, 9 of them inside top.
    driver = f"{trace.DRIVER}"
    assert metrics[f"{driver}.self_us"] == pytest.approx(0.020)
    assert tracer.wall_ns == 110
    shares = sum(value for name, value in metrics.items()
                 if name.endswith(".share"))
    assert shares == pytest.approx(1.0)


def test_calls_are_reported_per_pass(monkeypatch):
    _ticking_clock(monkeypatch)
    tracer = trace.Tracer(FAKE_LAYERS)
    for _ in range(3):
        with tracer, tracer.root():
            fakeprog.middle(0)
    metrics = tracer.metrics(passes=3)
    assert metrics["leaf.calls"] == 2
    assert metrics["middle.calls"] == 1
    assert metrics["leaf.self_us"] == pytest.approx(0.010)


def test_classmethods_staticmethods_and_methods_are_wrapped():
    before = dict(vars(fakeprog.Codec))
    tracer = trace.Tracer(FAKE_LAYERS)
    with tracer, tracer.root():
        assert fakeprog.Codec.decode(b"x") == (fakeprog.Codec, b"x")
        assert fakeprog.Codec.encode(b"y") == b"y"
        assert fakeprog.Codec().size() == 1
    assert tracer.metrics()["codec.calls"] == 3
    for name in ("decode", "encode", "size"):
        assert vars(fakeprog.Codec)[name] is before[name]


def test_a_missing_target_is_skipped_and_named():
    layers = dict(FAKE_LAYERS, gone=("perfbench.tests.fakeprog:nope",
                                    "perfbench.tests.no_module:f"))
    tracer = trace.Tracer(layers)
    with tracer, tracer.root():
        fakeprog.leaf(0)
    assert tracer.missing == list(layers["gone"])
    assert tracer.metrics()["gone.calls"] == 0


def _targets():
    for targets in trace.LAYERS.values():
        for target in targets:
            yield target, trace._resolve(target)


#: Modules that bind a wrapped function by ``from x import f``.
ALIASES = (
    ("repro.simulation.rollout", "simulate_session"),
    ("repro.api", "_build_world"),
    ("repro.simulation.world", "build_internet"),
    ("repro.simulation.world", "build_deployments"),
    ("repro.parallel.engine", "plan_shards"),
    ("repro.parallel.engine", "merge_rum"),
    ("repro.parallel", "run_sharded"),
)


def _bindings():
    owned = {target: raw for target, (_, _, raw) in _targets()}
    aliased = {(module, name):
               vars(importlib.import_module(module))[name]
               for module, name in ALIASES}
    return owned, aliased


def test_every_layer_target_exists_in_this_checkout():
    tracer = trace.Tracer()
    with tracer:
        pass
    assert tracer.missing == []


@pytest.mark.parametrize("raises", [False, True])
def test_repro_is_restored_exactly(raises):
    owned_before, aliased_before = _bindings()
    tracer = trace.Tracer()
    try:
        with tracer:
            owned_during, aliased_during = _bindings()
            assert all(owned_during[key] is not owned_before[key]
                       for key in owned_before)
            assert all(aliased_during[key] is not aliased_before[key]
                       for key in aliased_before)
            if raises:
                raise KeyError("from the traced code")
    except KeyError:
        assert raises
    owned_after, aliased_after = _bindings()
    assert all(owned_after[key] is owned_before[key]
               for key in owned_before)
    assert all(aliased_after[key] is aliased_before[key]
               for key in aliased_before)


def test_the_real_classmethod_decodes_under_the_tracer():
    from repro.dnsproto.message import Message, make_query

    wire = make_query("www.example.com").encode()
    tracer = trace.Tracer()
    with tracer, tracer.root():
        decoded = Message.decode(wire)
        decoded.encode()
    assert decoded.question.name == "www.example.com"
    metrics = tracer.metrics()
    assert metrics["dnsproto.decode.calls"] == 1
    assert metrics["dnsproto.encode.calls"] == 1
