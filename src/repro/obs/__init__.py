"""Observability: metrics registry + per-query tracing.

``repro.obs`` is the monitoring plane of the reproduction -- the
substrate the paper's whole evaluation rests on (per-query logs,
mapping distance, RTT/TTFB deltas, DNS query-rate inflation, Sections
4-5).  It bundles:

* :class:`~repro.obs.metrics.MetricsRegistry` -- counters, gauges, and
  demand-weighted histograms (quantiles via the canonical
  :func:`repro.analysis.stats.weighted_quantiles`).
* :class:`~repro.obs.tracing.QueryTracer` -- structured per-query span
  trees (stub -> recursive -> authoritative -> mapping decision ->
  load-balancer pick), deterministic and bounded.
* :mod:`~repro.obs.collect` -- snapshot-time collectors turning
  component-internal counters into canonical registry metrics.
* ``python -m repro dump`` -- CLI that runs a scenario and dumps
  the metrics snapshot plus sample traces.

One :class:`Observability` instance is wired through a
:class:`~repro.simulation.world.World` at build time; components built
standalone fall back to a shared no-op instance whose tracer is
disabled, so instrumentation is always safe to call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.collect import register_world_collectors
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import NULL_SPAN, QueryTracer, Span


#: A default bundle's tracer records one session in this many (head
#: sampling by count, so replay never depends on it).  Span sites check
#: ``tracer.active`` before formatting attributes, so an unsampled
#: session costs a few attribute checks; ``dump`` and the golden trace
#: set ``sample_every = 1`` to record every session.
SAMPLE_EVERY = 64


@dataclass
class Observability:
    """The bundle every instrumented component receives."""

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: QueryTracer = field(
        default_factory=lambda: QueryTracer(sample_every=SAMPLE_EVERY))

    @classmethod
    def disabled(cls) -> "Observability":
        """An instance whose tracer never records (cheap no-op)."""
        return cls(tracer=QueryTracer(enabled=False))


#: Shared sink for components constructed without explicit wiring:
#: counters land in a registry nobody snapshots, spans are no-ops.
NOOP = Observability.disabled()

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP",
    "NULL_SPAN",
    "Observability",
    "QueryTracer",
    "SAMPLE_EVERY",
    "Span",
    "register_world_collectors",
]
