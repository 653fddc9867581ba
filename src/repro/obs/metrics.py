"""Metrics registry: counters, gauges, and weighted histograms.

The production mapping system is monitored as intensely as it monitors
the Internet (paper Section 2.2); its evaluation (Sections 4-5) is all
demand-weighted distributions over per-query observations.  This module
is the simulator's equivalent of that monitoring plane: a
zero-dependency (stdlib + the numpy already underpinning the kernels)
:class:`MetricsRegistry` holding three instrument kinds:

* :class:`Counter` -- monotonically increasing event counts.
* :class:`Gauge` -- point-in-time values (utilization, cache sizes).
* :class:`Histogram` -- weighted samples exported as demand-weighted
  quantiles through the canonical
  :func:`repro.analysis.stats.weighted_quantiles` implementation, so a
  histogram snapshot and a figure built from the same samples agree
  bit-for-bit.

Two usage styles coexist:

* **Direct instruments** for event-driven paths (sessions):
  ``registry.counter("sessions").inc()``.
* **Collectors** for component-internal state: a collector is a
  callable run at snapshot time that writes gauges into the registry,
  so hot paths keep their cheap local ints and the registry reads them
  only when someone looks (the pattern ``repro.obs.collect`` wires for
  a whole :class:`~repro.simulation.world.World`).

Snapshots are deterministic: instruments are exported sorted by name
and all floats are plain Python floats, so two identical runs produce
byte-identical JSON.

Registries also *merge* (:meth:`MetricsRegistry.merge`): the sharded
simulation engine (``repro.parallel``) runs one registry per worker
process and folds them back together.  Counters and gauges carry a
``merge`` mode -- ``"sum"`` (the default: shard-local activity adds
up) or ``"max"`` (state replicated identically in every closed
sub-world, e.g. the control plane's map version, where summing would
multiply-count).  Histograms merge exactly via their moment
accumulators (count / weighted total / weight) while the retained
samples concatenate in merge order and re-compact deterministically,
so merging shard registries in a fixed shard order yields
byte-identical snapshots regardless of how many processes ran.
"""

from __future__ import annotations

import json
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import weighted_quantiles

#: Quantiles every histogram snapshot exports (the paper's box-plot
#: five, footnote 6).
EXPORT_QUANTILES: Tuple[float, ...] = (0.05, 0.25, 0.50, 0.75, 0.95)

#: Valid scalar merge modes (see module docstring).
MERGE_MODES: Tuple[str, ...] = ("sum", "max")


def _check_merge_mode(name: str, merge: str) -> str:
    if merge not in MERGE_MODES:
        raise ValueError(
            f"metric {name!r}: unknown merge mode {merge!r} "
            f"(choose from {MERGE_MODES})")
    return merge


class Counter:
    """Monotonic event counter."""

    __slots__ = ("name", "help", "value", "merge")

    def __init__(self, name: str, help: str = "",
                 merge: str = "sum") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.merge = _check_merge_mode(name, merge)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name}: negative increment")
        self.value += amount


class Gauge:
    """Point-in-time value; freely settable."""

    __slots__ = ("name", "help", "value", "merge")

    def __init__(self, name: str, help: str = "",
                 merge: str = "sum") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.merge = _check_merge_mode(name, merge)

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Weighted sample accumulator with quantile export.

    Samples are held exactly up to ``max_samples``; beyond that the
    sample is compacted by merging adjacent (sorted) pairs into their
    weighted midpoint, halving the footprint while preserving the
    weighted quantiles to within one merged pair.  Compaction is
    deterministic, so identical runs export identical snapshots.
    """

    __slots__ = ("name", "help", "max_samples", "count", "total",
                 "weight_total", "_values", "_weights")

    def __init__(self, name: str, help: str = "",
                 max_samples: int = 65536) -> None:
        if max_samples < 2:
            raise ValueError("histogram needs max_samples >= 2")
        self.name = name
        self.help = help
        self.max_samples = max_samples
        self.count = 0
        self.total = 0.0
        self.weight_total = 0.0
        self._values: List[float] = []
        self._weights: List[float] = []

    def observe(self, value: float, weight: float = 1.0) -> None:
        # Bad samples would silently poison every quantile export
        # downstream (NaN sorts unpredictably, inf swallows the mean),
        # so they are rejected at the door.
        if not math.isfinite(weight):
            raise ValueError(
                f"histogram {self.name}: non-finite weight (NaN/inf)")
        if weight < 0:
            raise ValueError(f"histogram {self.name}: negative weight")
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name}: non-finite observation "
                "(NaN/inf)")
        self.count += 1
        self.total += value * weight
        self.weight_total += weight
        self._values.append(float(value))
        self._weights.append(float(weight))
        if len(self._values) > self.max_samples:
            self._compact()

    def _compact(self) -> None:
        paired = sorted(zip(self._values, self._weights))
        values: List[float] = []
        weights: List[float] = []
        for index in range(0, len(paired) - 1, 2):
            (v1, w1), (v2, w2) = paired[index], paired[index + 1]
            w = w1 + w2
            values.append((v1 * w1 + v2 * w2) / w if w else (v1 + v2) / 2)
            weights.append(w)
        if len(paired) % 2:
            values.append(paired[-1][0])
            weights.append(paired[-1][1])
        self._values = values
        self._weights = weights

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        The moment accumulators (count, weighted total, total weight)
        add exactly; the retained samples concatenate in call order and
        re-compact through the same deterministic pairwise scheme
        :meth:`observe` uses, so merging a fixed sequence of histograms
        always yields the same state.  A corrupted source -- non-finite
        moments, which :meth:`observe` can never produce -- is rejected
        rather than silently poisoning every downstream quantile.
        """
        if (not math.isfinite(other.total)
                or not math.isfinite(other.weight_total)):
            raise ValueError(
                f"histogram {self.name}: refusing to merge non-finite "
                f"accumulators from {other.name!r} (NaN/inf)")
        if other.weight_total < 0:
            raise ValueError(
                f"histogram {self.name}: refusing to merge negative "
                f"weight from {other.name!r}")
        for value, weight in zip(other._values, other._weights):
            if not (math.isfinite(value) and math.isfinite(weight)):
                raise ValueError(
                    f"histogram {self.name}: non-finite sample in "
                    f"{other.name!r} (NaN/inf)")
        self.count += other.count
        self.total += other.total
        self.weight_total += other.weight_total
        self._values.extend(other._values)
        self._weights.extend(other._weights)
        while len(self._values) > self.max_samples:
            self._compact()

    def quantiles(
        self, qs: Sequence[float] = EXPORT_QUANTILES
    ) -> List[float]:
        """Demand-weighted quantiles over the retained sample."""
        if not self._values or self.weight_total <= 0:
            return [0.0 for _ in qs]
        return weighted_quantiles(self._values, self._weights, qs)

    @property
    def mean(self) -> float:
        return self.total / self.weight_total if self.weight_total else 0.0

    def snapshot(self) -> Dict[str, float]:
        row = {
            "count": self.count,
            "weight": self.weight_total,
            "mean": self.mean,
        }
        for q, value in zip(EXPORT_QUANTILES, self.quantiles()):
            row[f"p{int(round(q * 100))}"] = value
        return row


class MetricsRegistry:
    """Named instruments plus snapshot-time collectors."""

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []

    # -- instrument access (get-or-create) ------------------------------

    def counter(self, name: str, help: str = "",
                merge: Optional[str] = None) -> Counter:
        self._check_free(name, self._counters)
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = Counter(name, help, merge=merge or "sum")
            self._counters[name] = instrument
        elif merge is not None:
            instrument.merge = _check_merge_mode(name, merge)
        return instrument

    def gauge(self, name: str, help: str = "",
              merge: Optional[str] = None) -> Gauge:
        self._check_free(name, self._gauges)
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = Gauge(name, help, merge=merge or "sum")
            self._gauges[name] = instrument
        elif merge is not None:
            instrument.merge = _check_merge_mode(name, merge)
        return instrument

    def histogram(self, name: str, help: str = "",
                  max_samples: int = 65536) -> Histogram:
        self._check_free(name, self._histograms)
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = Histogram(name, help, max_samples=max_samples)
            self._histograms[name] = instrument
        return instrument

    def _check_free(self, name: str, own: Dict) -> None:
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric {name!r} already registered as a "
                    f"different instrument kind")

    # -- collectors ------------------------------------------------------

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Add a callable run at every snapshot to refresh gauges."""
        self._collectors.append(collector)

    def collect(self) -> None:
        for collector in self._collectors:
            collector(self)

    def detach(self) -> None:
        """Drop every collector, keeping the instruments.

        Collectors are closures over live component objects (a whole
        :class:`~repro.simulation.world.World`); a detached registry is
        a passive record holding what the last :meth:`collect` left and
        pins none of them.  Shard workers collect, then detach, before
        handing the registry back.
        """
        self.__dict__.update(self._passive_state())

    def _passive_state(self) -> Dict:
        """The instance state with no collectors: what :meth:`detach`
        leaves and what pickling ships."""
        state = self.__dict__.copy()
        state["_collectors"] = []
        return state

    # -- merge / clone / pickling ----------------------------------------

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one.

        Counters and gauges combine per their ``merge`` mode (``sum``
        for shard-local activity, ``max`` for state replicated in every
        shard); histograms merge exactly through their moment
        accumulators.  Instruments missing on either side behave as the
        zero instrument -- merging an empty registry is the identity,
        and merging into an empty registry copies ``other``.  The mode
        travels with the source instrument, so a freshly created merge
        target needs no up-front declarations.  Collectors are *not*
        transferred: a merged registry is a passive aggregate, not a
        live view of any world.  Returns ``self`` for chaining.
        """
        for name in sorted(other._counters):
            source = other._counters[name]
            target = self.counter(name, source.help, merge=source.merge)
            if source.merge == "max":
                target.value = max(target.value, source.value)
            else:
                target.value += source.value
        for name in sorted(other._gauges):
            source = other._gauges[name]
            target = self.gauge(name, source.help, merge=source.merge)
            if source.merge == "max":
                target.value = max(target.value, source.value)
            else:
                target.value += source.value
        for name in sorted(other._histograms):
            source = other._histograms[name]
            target = self.histogram(name, source.help,
                                    max_samples=source.max_samples)
            target.merge(source)
        return self

    def clone(self) -> "MetricsRegistry":
        """Deep copy of every instrument, without the collectors.

        Runs the collectors first, so collector-backed gauges carry
        live component state into the copy (the day loop clones once
        per simulated day for its observer's day record).
        """
        self.collect()
        copy = MetricsRegistry()
        for name, counter in self._counters.items():
            duplicate = copy.counter(name, counter.help,
                                     merge=counter.merge)
            duplicate.value = counter.value
        for name, gauge in self._gauges.items():
            duplicate = copy.gauge(name, gauge.help, merge=gauge.merge)
            duplicate.value = gauge.value
        for name, hist in self._histograms.items():
            duplicate = copy.histogram(name, hist.help,
                                       max_samples=hist.max_samples)
            duplicate.count = hist.count
            duplicate.total = hist.total
            duplicate.weight_total = hist.weight_total
            duplicate._values = list(hist._values)
            duplicate._weights = list(hist._weights)
        return copy

    def __getstate__(self) -> Dict:
        """Pickle support for transport between processes: collectors
        cannot cross a process boundary, so a pickled registry arrives
        detached (see :meth:`detach`)."""
        return self._passive_state()

    def __setstate__(self, state: Dict) -> None:
        self.__dict__.update(state)

    # -- export ----------------------------------------------------------

    def value(self, name: str, default: float = 0.0) -> float:
        """Current value of a counter or gauge (collectors NOT run)."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    def snapshot(self) -> Dict[str, Dict]:
        """Run collectors, then export every instrument, sorted."""
        self.collect()
        return {
            "counters": {name: self._counters[name].value
                         for name in sorted(self._counters)},
            "gauges": {name: self._gauges[name].value
                       for name in sorted(self._gauges)},
            "histograms": {name: self._histograms[name].snapshot()
                           for name in sorted(self._histograms)},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def render_lines(self) -> List[str]:
        """Human-readable one-line-per-metric rendering."""
        snap = self.snapshot()
        out: List[str] = []
        for name, value in snap["counters"].items():
            out.append(f"counter    {name:<40} {value:g}")
        for name, value in snap["gauges"].items():
            out.append(f"gauge      {name:<40} {value:g}")
        for name, row in snap["histograms"].items():
            out.append(
                f"histogram  {name:<40} n={row['count']:g} "
                f"mean={row['mean']:.3f} p50={row['p50']:.3f} "
                f"p95={row['p95']:.3f}")
        return out

    def render_prom(self) -> List[str]:
        """Prometheus text exposition (``# HELP``/``# TYPE`` + sorted
        sample lines) so external scrapers can consume the registry.

        Counters get the conventional ``_total`` suffix; histograms
        export as summaries (quantile-labelled samples plus ``_sum`` /
        ``_count``, where ``_sum`` is the demand-weighted total the
        mean derives from).  Families are sorted by metric name, so
        identical registries render byte-identical expositions.
        """
        self.collect()
        out: List[str] = []
        for name in sorted(self._counters):
            counter = self._counters[name]
            prom = _prom_name(name) + "_total"
            out.append(f"# HELP {prom} {counter.help or name}")
            out.append(f"# TYPE {prom} counter")
            out.append(f"{prom} {_prom_value(counter.value)}")
        for name in sorted(self._gauges):
            gauge = self._gauges[name]
            prom = _prom_name(name)
            out.append(f"# HELP {prom} {gauge.help or name}")
            out.append(f"# TYPE {prom} gauge")
            out.append(f"{prom} {_prom_value(gauge.value)}")
        for name in sorted(self._histograms):
            hist = self._histograms[name]
            prom = _prom_name(name)
            out.append(f"# HELP {prom} {hist.help or name}")
            out.append(f"# TYPE {prom} summary")
            for q, value in zip(EXPORT_QUANTILES, hist.quantiles()):
                out.append(f'{prom}{{quantile="{q:g}"}} '
                           f"{_prom_value(value)}")
            out.append(f"{prom}_sum {_prom_value(hist.total)}")
            out.append(f"{prom}_count {_prom_value(hist.count)}")
        return out

    def reset(self) -> None:
        """Drop every instrument and collector."""
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()
        self._collectors.clear()


def _prom_name(name: str) -> str:
    """Registry name -> valid Prometheus metric name."""
    return name.replace(".", "_").replace("-", "_")


def _prom_value(value: float) -> str:
    """Deterministic sample rendering (ints stay integral)."""
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return format(value, ".10g")
