"""Outside-in span tracer: per-layer calls, self time and share.

The tracer wraps the callables named in :data:`LAYERS` from the
outside -- it replaces the attribute on the class or module that
defines them (and every ``from x import f`` alias other ``repro``
modules hold), and puts the originals back on exit.  It reads nothing
the program records about itself (``repro.obs.profile`` phase names are
inside the program and free to move), so two commits compare as long as
the wrapped names exist.

One span stack lives in memory.  A span's *self time* is its duration
minus the part of it covered by child spans; a layer's share is its
summed self time over the traced wall (the root span opened by
:meth:`Tracer.root`).  With one driver thread and nothing contending, a
layer with share *s* can save at most *s* of a rep.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
from time import perf_counter_ns
from typing import Dict, List, Tuple

#: The root span the benchmark opens around a traced region.  On the
#: roll-outs its self time is the call into ``repro.api.run`` (nothing);
#: on ``dns_hot`` it is the driver loop itself.
DRIVER = "perfbench.driver"

#: layer -> wrapped callables, each ``module:qualname``.  Two of them
#: are private because ``repro.api.run`` calls them directly rather than
#: through their public spelling: ``_build_world`` (what
#: ``repro.api.build_world`` delegates to) and ``_shard_worker`` (the
#: sharded day loop, the mirror of the serial one inside ``run``).
LAYERS: Dict[str, Tuple[str, ...]] = {
    "dnsproto.encode": ("repro.dnsproto.message:Message.encode",),
    "dnsproto.decode": ("repro.dnsproto.message:Message.decode",),
    "dnssrv.transport": ("repro.dnssrv.transport:Network.query",),
    "dnssrv.authoritative": (
        "repro.dnssrv.authoritative:AuthoritativeServer.handle_query",),
    "core.loadbalancer": (
        "repro.core.loadbalancer:GlobalLoadBalancer.pick_cluster",
        "repro.core.loadbalancer:LocalLoadBalancer.pick_servers"),
    "core.system": ("repro.core.system:MappingSystem.answer",),
    "core.mapmaker.lookup": (
        "repro.core.mapmaker.service:MapPublicationService.lookup",
        "repro.core.mapmaker.service:MapPublicationService.unit_key_for"),
    "dnssrv.stub": ("repro.dnssrv.stub:StubResolver.resolve",),
    "dnssrv.recursive": ("repro.dnssrv.recursive:RecursiveResolver.resolve",),
    "dnssrv.cache": (
        "repro.dnssrv.cache:EcsAwareCache.lookup",
        "repro.dnssrv.cache:EcsAwareCache.store",
        "repro.dnssrv.cache:EcsAwareCache.lookup_stale"),
    "simulation.session": ("repro.simulation.session:simulate_session",),
    "simulation.rollout": (
        "repro.api:run",
        "repro.parallel.engine:_shard_worker"),
    "simulation.world": ("repro.simulation.world:_build_world",),
    "topology.internet": ("repro.topology.internet:build_internet",),
    "cdn.deployments": ("repro.cdn.deployments:build_deployments",),
    "core.units": (
        "repro.core.units.builders:LdnsUnitBuilder.build",
        "repro.core.units.builders:BlockUnitBuilder.build",
        "repro.core.units.builders:BgpMergedUnitBuilder.build",
        "repro.core.units.builders:GeoAsUnitBuilder.build",
        "repro.core.units.routing:RoutingAwareUnitBuilder.build"),
    "core.scoring": ("repro.core.scoring:Scorer.score_targets",),
    "core.mapmaker.tick": (
        "repro.core.mapmaker.service:MapPublicationService.tick",),
    "parallel.plan": ("repro.parallel.plan:plan_shards",),
    "parallel.merge": (
        "repro.parallel.merge:merge_registries",
        "repro.parallel.merge:merge_rum",
        "repro.parallel.merge:merge_query_logs",
        "repro.parallel.merge:merge_traces"),
    "parallel.engine": ("repro.parallel.engine:run_sharded",),
    "faults.injector": ("repro.faults.injector:FaultInjector.step",),
    "core.loadfeedback": (
        "repro.core.loadfeedback:ClusterLoadTracker.observe_day",),
    "topology.resolvers": ("repro.topology.resolvers:ResolverFleets.route",),
    "topology.traffic": (
        "repro.topology.traffic:DayTraffic.pick_block",
        "repro.topology.traffic:DayTraffic.pick_provider"),
    "obs.monitor": ("repro.obs.monitor.driver:RolloutMonitor.on_day",),
    "measurement.rum": ("repro.measurement.rum:RumCollector.record",),
    "measurement.querylog": (
        "repro.measurement.querylog:QueryLog.record_query",),
}


def _resolve(target: str):
    """``module:qualname`` -> (owner, attribute name, raw attribute).

    The owner is the module or the defining class; the raw attribute is
    what its ``__dict__`` holds, so a classmethod stays a classmethod
    object and restoring it is an identity.
    """
    module_name, _, qualname = target.partition(":")
    owner = importlib.import_module(module_name)
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, vars(owner)[name]


def _repro_modules() -> List:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Install wrappers, keep the span stack, report per-layer numbers.

    Use as a context manager: wrappers go in on entry and the originals
    are put back on exit, whatever the traced code raised.
    """

    def __init__(self, layers: Dict[str, Tuple[str, ...]] = LAYERS) -> None:
        self._layers = layers
        self._index = {layer: i
                       for i, layer in enumerate((*layers, DRIVER))}
        self.calls: List[int] = [0] * len(self._index)
        self.self_ns: List[int] = [0] * len(self._index)
        self.wall_ns = 0
        """Summed duration of the root spans: the traced wall."""
        self._stack: List[int] = []
        """Child time (ns) of every open span, innermost last."""
        self._patched: List[Tuple[object, str, object]] = []
        """(owner, name, original attribute), in install order."""
        self._functions: List[Tuple[object, object]] = []
        """(wrapper, original) of module-level targets, which other
        modules may have imported by name."""
        self.missing: List[str] = []
        """Targets this checkout does not have; their time stays in the
        caller's self time."""

    # -- spans ---------------------------------------------------------------

    def _wrap(self, function, layer: str):
        index = self._index[layer]
        stack, calls, self_ns = self._stack, self.calls, self.self_ns
        clock = perf_counter_ns

        @functools.wraps(function)
        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                calls[index] += 1
                self_ns[index] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed

        return span

    @contextlib.contextmanager
    def root(self):
        """The root span around a traced region; its duration is the
        traced wall and its self time the driver's own."""
        self._stack.append(0)
        start = perf_counter_ns()
        try:
            yield
        finally:
            elapsed = perf_counter_ns() - start
            index = self._index[DRIVER]
            self.calls[index] += 1
            self.self_ns[index] += elapsed - self._stack.pop()
            self.wall_ns += elapsed

    # -- install / restore -----------------------------------------------------

    def __enter__(self) -> "Tracer":
        self._stack.clear()
        self.missing.clear()
        try:
            for layer, targets in self._layers.items():
                for target in targets:
                    self._install(layer, target)
            self._rebind_aliases(to_wrapper=True)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        # Modules first imported while tracing bound the wrappers by
        # name; sweep them before dropping the wrapper table.
        self._rebind_aliases(to_wrapper=False)
        while self._patched:
            owner, name, original = self._patched.pop()
            setattr(owner, name, original)
        self._functions.clear()

    def _install(self, layer: str, target: str) -> None:
        try:
            owner, name, raw = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            self.missing.append(target)
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapper = type(raw)(self._wrap(raw.__func__, layer))
        else:
            wrapper = self._wrap(raw, layer)
            if not isinstance(owner, type):
                self._functions.append((wrapper, raw))
        self._patched.append((owner, name, raw))
        setattr(owner, name, wrapper)

    def _rebind_aliases(self, to_wrapper: bool) -> None:
        """Point every ``from x import f`` copy of a wrapped module-level
        function at the wrapper (or back at the original)."""
        if to_wrapper:
            swap = {id(raw): wrapper for wrapper, raw in self._functions}
        else:
            swap = {id(wrapper): raw for wrapper, raw in self._functions}
        for module in _repro_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                replacement = swap.get(id(value))
                if replacement is not None:
                    namespace[name] = replacement

    # -- report ----------------------------------------------------------------

    def metrics(self, passes: int = 1) -> Dict[str, float]:
        """``L.calls`` / ``L.self_us`` / ``L.share`` for every layer.

        ``passes`` is how many identical traced regions were recorded;
        calls are reported per pass (they repeat exactly), self time
        per call, and share against the summed traced wall.
        """
        out: Dict[str, float] = {}
        for layer, index in self._index.items():
            calls = self.calls[index]
            self_ns = self.self_ns[index]
            out[f"{layer}.calls"] = calls / passes
            out[f"{layer}.self_us"] = (self_ns / calls / 1e3 if calls
                                       else 0.0)
            out[f"{layer}.share"] = (self_ns / self.wall_ns
                                     if self.wall_ns else 0.0)
        return out


def format_table(metrics: Dict[str, float]) -> str:
    """The per-layer table, largest share first, idle layers folded,
    then whatever other per-layer metrics ``metrics`` holds."""
    layers = [name[:-len(".share")] for name in metrics
              if name.endswith(".share") and name != "trace.overhead_share"]
    rows = sorted(((metrics[f"{layer}.share"], layer) for layer in layers
                   if metrics[f"{layer}.calls"]), reverse=True)
    lines = [f"  {'layer':<24}{'share':>8}{'calls':>12}{'self us/call':>14}"]
    for share, layer in rows:
        lines.append(f"  {layer:<24}{share:>8.1%}"
                     f"{metrics[f'{layer}.calls']:>12.0f}"
                     f"{metrics[f'{layer}.self_us']:>14.2f}")
    idle = [layer for layer in layers if not metrics[f"{layer}.calls"]]
    if idle:
        lines.append("  calls = 0: " + ", ".join(idle))
    layer_metrics = {f"{layer}.{kind}" for layer in layers
                     for kind in ("calls", "self_us", "share")}
    for name, value in metrics.items():
        if name not in layer_metrics:
            lines.append(f"  {name:<40}{value:>12.4f}")
    return "\n".join(lines)
