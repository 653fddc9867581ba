"""Engine self-profiling: hierarchical phase trees, three exports.

Every observability surface so far watches the *simulated* system --
mapping distance, query rates, cache hits.  This module watches the
**engine**: where the simulator itself spends its time, phase by phase
(world build, the roll-out day loop, per-session DNS resolution, the
scorer's batch kernels, map compilation, shard plan/execute/merge).
That is the data the scale roadmap needs -- which inner loop to batch
onto the vectorized kernels next -- and what turns a bench number into
an attribution.

Two strictly separated signal families live in one tree:

* **Deterministic work counters** -- ``calls`` per phase and named
  ``work`` counters (sessions simulated, scoring pairs, map entries,
  spans emitted).  These are pure functions of the scenario spec and
  shard plan: byte-identical across runs, machines, and worker counts.
  The golden fixture pins them.
* **Wall-clock timings** -- ``wall_s`` / ``self_wall_s`` per phase.
  Reported (hotspot tables, flamegraphs), never
  golden-pinned.  The ``profile/v1`` document *declares* which fields
  are timing (``timing_fields``) and which top-level sections are
  host-dependent (``volatile_fields``), so
  :func:`deterministic_view` strips them by schema, not by test
  convention.

Design rules (shared with :mod:`repro.obs.tracing`):

* **Zero behaviour change.**  The profiler observes; it touches no
  RNG, no registry, no component state.  With profiling off,
  :meth:`PhaseProfiler.phase` returns a shared no-op context
  (:data:`NULL_PHASE`) and every existing golden fixture stays
  byte-identical.
* **Deterministic merge.**  Per-shard profiles merge by phase name in
  fixed shard order (counts sum, structure is the union); the merged
  structural view is fixed by the shard plan, so ``--workers 1`` and
  ``--workers 4`` agree byte-for-byte.
* **Three exports.**  The ``profile/v1`` JSON tree
  (:func:`build_document`), collapsed stacks for flamegraph tooling
  (:func:`collapsed_stacks` -- pipe into ``flamegraph.pl``), and a
  self-time hotspot table (:func:`hotspot_rows` /
  :func:`render_hotspot_table`), surfaced by
  ``python -m repro profile <scenario>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: Schema tag of the exported profile document.
PROFILE_SCHEMA = "profile/v1"

#: Per-node fields that carry wall-clock time.  Declared in every
#: exported document so consumers (and the determinism tests) strip
#: them by schema rather than by hard-coded knowledge.
TIMING_FIELDS: Tuple[str, ...] = ("self_wall_s", "wall_s")

#: Top-level document sections derived from timings or the host
#: (hotspot ranking, run metadata); dropped from the deterministic view.
VOLATILE_FIELDS: Tuple[str, ...] = ("hotspots", "run")

#: Decimal places for exported wall-clock seconds.
EXPORT_WALL_DECIMALS = 6

#: Name of the implicit root phase.
ROOT_PHASE = "engine"

#: Column header of the hotspot attribution table (reused by
#: ``repro.obs.dump --format text``).
HOTSPOT_HEADER = (f"{'phase':<36} {'calls':>12} {'self_s':>10} "
                  f"{'total_s':>10} {'self%':>7}")


@dataclass(frozen=True)
class ProfileConfig:
    """Declarative profiler knobs (the ``ScenarioSpec.profile`` field).

    The config rides the scenario spec into shard workers, so every
    shard profiles identically; its JSON form is the ``--profile``
    payload of the CLIs.
    """

    max_depth: Optional[int] = None
    """Deepest phase nesting recorded; scopes below it fold into their
    ancestor (calls/work attach to the deepest recorded phase).  None
    records every scope."""
    hotspots: int = 10
    """Rows in the hotspot attribution table."""

    def __post_init__(self) -> None:
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError(
                f"max_depth must be >= 1 or None: {self.max_depth}")
        if self.hotspots < 1:
            raise ValueError(f"hotspots must be >= 1: {self.hotspots}")

    def to_dict(self) -> Dict:
        return {"max_depth": self.max_depth, "hotspots": self.hotspots}

    @classmethod
    def from_dict(cls, doc: Dict) -> "ProfileConfig":
        if not isinstance(doc, dict):
            raise ValueError("a profile config is a JSON object")
        unknown = set(doc) - {"max_depth", "hotspots"}
        if unknown:
            raise ValueError(
                f"unknown profile config fields: {sorted(unknown)}")
        kwargs: Dict = {}
        if "max_depth" in doc:
            value = doc["max_depth"]
            if value is not None and not isinstance(value, int):
                raise ValueError(f"max_depth must be an integer: {value!r}")
            kwargs["max_depth"] = value
        if "hotspots" in doc:
            if not isinstance(doc["hotspots"], int):
                raise ValueError(
                    f"hotspots must be an integer: {doc['hotspots']!r}")
            kwargs["hotspots"] = doc["hotspots"]
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ProfileConfig":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"not valid JSON: {exc}") from None
        return cls.from_dict(doc)


class PhaseNode:
    """One phase of the tree: a named scope with counts and wall time."""

    __slots__ = ("name", "calls", "work", "wall_s", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.calls = 0
        self.work: Dict[str, float] = {}
        self.wall_s = 0.0
        self.children: Dict[str, "PhaseNode"] = {}

    def child(self, name: str) -> "PhaseNode":
        node = self.children.get(name)
        if node is None:
            node = PhaseNode(name)
            self.children[name] = node
        return node

    def merge(self, other: "PhaseNode") -> None:
        """Fold another node's counts (and subtree) into this one."""
        self.calls += other.calls
        self.wall_s += other.wall_s
        for key, value in other.work.items():
            self.work[key] = self.work.get(key, 0) + value
        for name, child in other.children.items():
            self.child(name).merge(child)

    def walk(self, path: Tuple[str, ...] = ()
             ) -> Iterator[Tuple[Tuple[str, ...], "PhaseNode"]]:
        """(path, node) pairs, depth-first, children in name order."""
        here = path + (self.name,)
        yield here, self
        for name in sorted(self.children):
            yield from self.children[name].walk(here)

    @property
    def self_wall_s(self) -> float:
        """Wall time not attributed to recorded children.

        Clamped at zero: in a sharded run the parent's pool wait can
        undercut the sum of worker walls (workers run concurrently),
        and merged-worker subtrees carry no wall at their graft point.
        """
        return max(0.0, self.wall_s - sum(
            child.wall_s for child in self.children.values()))


class _PhaseContext:
    """Context manager pushing/popping one phase on the profiler."""

    __slots__ = ("_profiler", "_node", "_start")

    def __init__(self, profiler: "PhaseProfiler", node: PhaseNode) -> None:
        self._profiler = profiler
        self._node = node

    def __enter__(self) -> PhaseNode:
        self._profiler._stack.append(self._node)
        self._start = time.perf_counter()
        return self._node

    def __exit__(self, exc_type, exc, tb) -> None:
        self._node.wall_s += time.perf_counter() - self._start
        stack = self._profiler._stack
        assert stack and stack[-1] is self._node, "unbalanced phase exit"
        stack.pop()


class _NullPhase:
    """Shared no-op phase: absorbs scopes when profiling is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhase":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NULL_PHASE = _NullPhase()


class PhaseProfiler:
    """Records a hierarchical phase tree for one engine run."""

    def __init__(self, enabled: bool = True,
                 config: Optional[ProfileConfig] = None) -> None:
        self.enabled = enabled
        self.config = config or ProfileConfig()
        self.root = PhaseNode(ROOT_PHASE)
        self._stack: List[PhaseNode] = [self.root]

    # -- recording -------------------------------------------------------

    def phase(self, name: str):
        """Open (or re-enter) a named phase under the current scope.

        Re-entering a name under the same parent accumulates into the
        same node (``calls`` counts entries), so loops produce one row
        per phase, not one per iteration.
        """
        if not self.enabled:
            return NULL_PHASE
        depth = self.config.max_depth
        if depth is not None and len(self._stack) > depth:
            return NULL_PHASE
        node = self._stack[-1].child(name)
        node.calls += 1
        return _PhaseContext(self, node)

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a named work counter on the innermost open phase
        (the root when no phase is open).  Work counters are the
        deterministic half of the profile: only ever counts of work
        performed, never durations."""
        if not self.enabled:
            return
        work = self._stack[-1].work
        work[name] = work.get(name, 0) + amount

    # -- merge -----------------------------------------------------------

    def merge(self, other: "PhaseProfiler") -> None:
        """Fold another profiler's whole tree into this one."""
        self.root.merge(other.root)

    def graft(self, name: str, other: "PhaseProfiler") -> None:
        """Adopt another profiler's tree as one child phase.

        The sharded engine grafts each worker's profile (root and all)
        under ``shard.workers``: the adopted node's ``calls`` counts
        grafted profiles, its children/work are the merged worker
        trees.  Graft in fixed shard order so float accumulation --
        and hence every exported byte -- is order-stable.
        """
        node = self._stack[-1].child(name)
        node.calls += 1
        # A root node accrues no wall of its own (no phase scope ever
        # closes over it), so credit the adopted subtree's total: the
        # graft parent's self-time then reads as genuine coordination
        # overhead, not the workers' compute re-billed to it.
        node.wall_s += other.root.wall_s + sum(
            child.wall_s for child in other.root.children.values())
        for key, value in other.root.work.items():
            node.work[key] = node.work.get(key, 0) + value
        for child_name, child in other.root.children.items():
            node.child(child_name).merge(child)


#: Shared disabled profiler for components wired without one (the
#: :data:`repro.obs.NOOP` pattern): never records, safe to share.
DISABLED_PROFILER = PhaseProfiler(enabled=False)


# -- export: profile/v1 ------------------------------------------------------

def export_tree(node: PhaseNode) -> Dict:
    """JSON-ready node: sorted work keys, name-sorted children."""
    return {
        "name": node.name,
        "calls": node.calls,
        "work": {key: _export_number(node.work[key])
                 for key in sorted(node.work)},
        "wall_s": round(node.wall_s, EXPORT_WALL_DECIMALS),
        "self_wall_s": round(node.self_wall_s, EXPORT_WALL_DECIMALS),
        "children": [export_tree(node.children[name])
                     for name in sorted(node.children)],
    }


def _export_number(value: float):
    if isinstance(value, float) and value == int(value):
        return int(value)
    return value


def build_document(profiler: PhaseProfiler, scenario: Optional[Dict] = None,
                   run_info: Optional[Dict] = None) -> Dict:
    """The full ``profile/v1`` document for one run."""
    tree = export_tree(profiler.root)
    return {
        "schema": PROFILE_SCHEMA,
        "timing_fields": list(TIMING_FIELDS),
        "volatile_fields": list(VOLATILE_FIELDS),
        "scenario": scenario or {},
        "run": run_info or {},
        "tree": tree,
        "hotspots": hotspot_rows(profiler.root,
                                 limit=profiler.config.hotspots),
    }


def deterministic_view(doc: Dict) -> Dict:
    """The structural half of a document: work counters and tree shape.

    Strips exactly what the document itself declares volatile: every
    ``timing_fields`` entry from every tree node, and every
    ``volatile_fields`` top-level section.  What remains is a pure
    function of the scenario spec and shard plan -- the bytes the
    golden fixture and the cross-worker-count equality tests pin.
    """
    timing = set(doc.get("timing_fields", TIMING_FIELDS))
    volatile = set(doc.get("volatile_fields", VOLATILE_FIELDS))

    def _strip(node: Dict) -> Dict:
        out = {key: value for key, value in node.items()
               if key not in timing and key != "children"}
        out["children"] = [_strip(child) for child in node["children"]]
        return out

    view = {key: value for key, value in doc.items()
            if key not in volatile and key != "tree"}
    view["tree"] = _strip(doc["tree"])
    return view


def deterministic_json(doc: Dict) -> str:
    """Canonical bytes of the deterministic view (for ``cmp``)."""
    return json.dumps(deterministic_view(doc), indent=2,
                      sort_keys=True) + "\n"


# -- export: collapsed stacks (flamegraph) -----------------------------------

def collapsed_stacks(root: PhaseNode) -> List[str]:
    """Flamegraph-ready collapsed stacks: ``a;b;c <self-microseconds>``.

    One line per phase path with integer self-time values, the format
    ``flamegraph.pl`` and speedscope ingest directly.  Zero-self-time
    phases are kept: structure is part of the signal.
    """
    lines: List[str] = []
    for path, node in root.walk():
        lines.append(f"{';'.join(path)} "
                     f"{int(round(node.self_wall_s * 1e6))}")
    return lines


# -- export: hotspot attribution ---------------------------------------------

def hotspot_rows(root: PhaseNode, limit: int = 10) -> List[Dict]:
    """Self-time attribution, aggregated by phase name.

    The same phase name can occur at several tree positions (e.g.
    ``session`` under both the serial day loop and a grafted worker
    subtree); hotspot accounting charges the *name*, which is what an
    optimization targets.  Sorted by self time descending, name
    ascending on ties.
    """
    totals: Dict[str, Dict] = {}
    for path, node in root.walk():
        row = totals.setdefault(node.name, {
            "phase": node.name, "calls": 0,
            "self_wall_s": 0.0, "wall_s": 0.0})
        row["calls"] += node.calls
        row["self_wall_s"] += node.self_wall_s
        row["wall_s"] += node.wall_s
    del totals[ROOT_PHASE]["wall_s"], totals[ROOT_PHASE]["self_wall_s"]
    totals[ROOT_PHASE]["self_wall_s"] = root.self_wall_s
    totals[ROOT_PHASE]["wall_s"] = root.wall_s
    total_self = sum(row["self_wall_s"] for row in totals.values())
    rows = sorted(totals.values(),
                  key=lambda row: (-row["self_wall_s"], row["phase"]))
    out = []
    for row in rows[:limit]:
        out.append({
            "phase": row["phase"],
            "calls": row["calls"],
            "self_wall_s": round(row["self_wall_s"],
                                 EXPORT_WALL_DECIMALS),
            "wall_s": round(row["wall_s"], EXPORT_WALL_DECIMALS),
            "self_share": round(row["self_wall_s"] / total_self, 4)
            if total_self > 0 else 0.0,
        })
    return out


def render_hotspot_table(rows: Sequence[Dict]) -> List[str]:
    """The hotspot table as fixed-width text lines (header included)."""
    lines = [HOTSPOT_HEADER]
    for row in rows:
        lines.append(
            f"{row['phase']:<36} {row['calls']:>12,} "
            f"{row['self_wall_s']:>10.3f} {row['wall_s']:>10.3f} "
            f"{row['self_share']:>6.1%}")
    return lines


# -- export: prometheus ------------------------------------------------------

def render_profile_prom(root: PhaseNode) -> List[str]:
    """The ``profile_*`` counter families for Prometheus exposition.

    Only the deterministic work counters export (calls per phase path,
    named work totals): a scraped profile family is byte-stable across
    identical runs, like every other prom family the registry renders.
    """
    calls: List[str] = []
    work: List[str] = []
    for path, node in root.walk():
        label = ";".join(path)
        calls.append(f'profile_phase_calls_total{{phase="{label}"}} '
                     f"{node.calls}")
        for key in sorted(node.work):
            work.append(
                f'profile_phase_work_total{{phase="{label}",'
                f'unit="{key}"}} {_export_number(node.work[key])}')
    out = [
        "# HELP profile_phase_calls_total engine phase entry count",
        "# TYPE profile_phase_calls_total counter",
    ]
    out.extend(calls)
    out.append("# HELP profile_phase_work_total "
               "engine phase work counters")
    out.append("# TYPE profile_phase_work_total counter")
    out.extend(work)
    return out


# -- CLI: python -m repro profile --------------------------------------------

def _profile_config(text: str) -> ProfileConfig:
    """argparse type for ``--profile``: malformed payloads are usage
    errors (exit code 2), never a mid-run stack trace."""
    try:
        return ProfileConfig.from_json(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad profile config: {exc}") from None


def host_fingerprint() -> Dict:
    """Where a profile was measured (wall-clock is host-relative)."""
    affinity = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else None)
    return {
        "cpus": os.cpu_count(),
        "cpus_available": affinity,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def main(argv: Optional[List[str]] = None) -> int:
    # Function-scope imports: the module itself stays stdlib-only so
    # ``repro.obs`` can import it without cycles.
    from repro.experiments.scales import get_scale, scale_names
    from repro.simulation.cli import positive_int

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile the engine itself over one scenario: "
                    "phase tree, flamegraph stacks, hotspot table.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="formats:\n"
               "  text           hotspot attribution table (default)\n"
               "  json           the full profile/v1 document\n"
               "  deterministic  structural view only (byte-identical\n"
               "                 across runs and --workers counts)\n"
               "  collapsed      flamegraph collapsed stacks; render\n"
               "                 with: ... --format collapsed "
               "| flamegraph.pl > profile.svg")
    parser.add_argument("scenario",
                        help="scale name to profile (tiny/small/...)")
    parser.add_argument("--workers", type=positive_int, default=1,
                        help="worker processes (deterministic view is "
                             "byte-identical for any count)")
    parser.add_argument("--shards", type=positive_int, default=None,
                        help="shard count of the deterministic plan "
                             "(default 8)")
    parser.add_argument("--sessions", type=positive_int, default=None,
                        help="override the scale's sessions/day")
    parser.add_argument("--profile", type=_profile_config,
                        default=None, metavar="JSON",
                        help='profiler config overrides, e.g. '
                             '\'{"hotspots": 5, "max_depth": 4}\'')
    parser.add_argument("--format",
                        choices=("text", "json", "deterministic",
                                 "collapsed"),
                        default="text")
    parser.add_argument("--out", default=None,
                        help="write to this path instead of stdout")
    args = parser.parse_args(argv)
    if args.scenario not in scale_names():
        parser.error(f"unknown scenario {args.scenario!r}; choose from "
                     f"{', '.join(scale_names())}")

    from dataclasses import replace

    from repro.api import ScenarioSpec, run
    from repro.parallel import DEFAULT_SHARDS

    config = args.profile or ProfileConfig()
    scale = get_scale(args.scenario)
    rollout = scale.rollout
    if args.sessions is not None:
        rollout = replace(rollout, sessions_per_day=args.sessions)
    n_shards = args.shards or DEFAULT_SHARDS
    spec = ScenarioSpec(world=scale.world, rollout=rollout,
                        monitor=False, profile=config)
    print(f"profiling {args.scenario}: "
          f"{rollout.sessions_per_day:,} sessions/day x "
          f"{rollout.n_days} day(s), {n_shards} shards on "
          f"{args.workers} worker(s)...", file=sys.stderr)
    sharded = run(spec, workers=args.workers, shards=n_shards)
    doc = build_document(
        sharded.profiler,
        scenario={
            "scenario": args.scenario,
            "sessions_per_day": rollout.sessions_per_day,
            "n_days": rollout.n_days,
            "n_shards": n_shards,
            "profile": config.to_dict(),
        },
        run_info={"workers": args.workers,
                  "host": host_fingerprint()})

    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    elif args.format == "deterministic":
        text = deterministic_json(doc)
    elif args.format == "collapsed":
        text = "\n".join(collapsed_stacks(sharded.profiler.root)) + "\n"
    else:
        lines = [
            "profile    scenario={scenario} sessions/day="
            "{sessions_per_day} days={n_days} shards={n_shards}".format(
                **doc["scenario"]),
            f"run        workers={args.workers}",
            "",
        ]
        lines.extend(render_hotspot_table(doc["hotspots"]))
        text = "\n".join(lines) + "\n"

    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
