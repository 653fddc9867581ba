"""``python -m repro dump`` -- run a scenario, dump metrics + traces.

Operator-facing observability CLI: builds a world, drives a
deterministic batch of client sessions through the full DNS + download
stack, and prints the resulting metrics snapshot plus sample per-query
traces.

Usage::

    PYTHONPATH=src python -m repro dump --scale tiny --sessions 25
    PYTHONPATH=src python -m repro dump --format text
    PYTHONPATH=src python -m repro dump --format prom   # scrapable
    PYTHONPATH=src python -m repro dump --traces 2 --out obs.json

The JSON payload is ``{"scenario": {...}, "metrics": {...},
"traces": [...]}`` with sorted keys and rounded floats, so two runs
with the same arguments emit byte-identical output -- the property the
golden-trace suite pins.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from repro.cliutil import output, positive_int
from repro.experiments.scales import get_scale, scale_names


def run_scenario(scale: str = "tiny", sessions: int = 25, seed: int = 7,
                 ecs: bool = True, sample_every: int = 1):
    """Build a world and drive ``sessions`` deterministic sessions.

    Returns the world, with its registry populated and its tracer
    holding one trace per sampled session.
    """
    from repro.simulation.session import simulate_session
    from repro.api import build_world

    # Set by assignment below, which skips QueryTracer's own check.
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    spec = get_scale(scale)
    world = build_world(spec.world)
    world.obs.tracer.sample_every = sample_every
    world.enable_ecs(world.public_ldns_ids() if ecs else [])
    rng = random.Random(seed)
    for index in range(sessions):
        block = world.internet.pick_block(rng)
        simulate_session(world, block, now=index * 2.0, rng=rng)
    return world


def build_payload(world, scenario: dict, n_traces: int) -> dict:
    """JSON-ready dump: scenario echo, metrics snapshot, traces."""
    traces = world.obs.tracer.export()
    if n_traces >= 0:
        traces = traces[:n_traces]
    return {
        "scenario": scenario,
        "metrics": world.obs.registry.snapshot(),
        "traces": traces,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro dump", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scale", default="tiny", choices=scale_names())
    parser.add_argument("--sessions", type=positive_int, default=25)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--no-ecs", action="store_true",
                        help="leave every LDNS without client-subnet")
    parser.add_argument("--sample-every", type=positive_int, default=1,
                        help="trace every Nth session")
    parser.add_argument("--traces", type=int, default=3,
                        help="traces to include (-1 = all retained)")
    parser.add_argument("--format", choices=("json", "text", "prom"),
                        default="json",
                        help="json payload, human-readable table, or "
                             "Prometheus text exposition")
    parser.add_argument("--out", default=None,
                        help="write to this path instead of stdout")
    args = parser.parse_args(argv)

    print(f"running {args.sessions} sessions (scale={args.scale})...",
          file=sys.stderr)
    world = run_scenario(scale=args.scale, sessions=args.sessions,
                         seed=args.seed, ecs=not args.no_ecs,
                         sample_every=args.sample_every)
    scenario = {
        "scale": args.scale,
        "sessions": args.sessions,
        "seed": args.seed,
        "ecs": not args.no_ecs,
        "sample_every": args.sample_every,
    }

    if args.format == "text":
        tracer = world.obs.tracer
        # Header first: scenario seed + trace counts, so a byte-identity
        # smoke failure is diagnosable from the CI log alone.
        lines = [
            "scenario   scale={scale} sessions={sessions} seed={seed} "
            "ecs={ecs} sample_every={sample_every}".format(**scenario),
            f"traces     retained={len(tracer.traces)} "
            f"sampled={tracer.sampled} dropped={tracer.dropped}",
        ]
        lines.extend(world.obs.registry.render_lines())
        text = "\n".join(lines) + "\n"
    elif args.format == "prom":
        text = "\n".join(world.obs.registry.render_prom()) + "\n"
    else:
        payload = build_payload(world, scenario, args.traces)
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"

    with output(args.out) as stream:
        stream.write(text)
    return 0
