"""``python -m repro sim`` — drive custom scenarios.

Complements ``python -m repro experiment`` (which regenerates the
paper's figures): this tool runs ad-hoc simulations against a fresh
world.

Usage::

    python -m repro sim world-info --scale tiny
    python -m repro sim rollout --scale tiny --days 45 --sessions 150
    python -m repro sim dnsload --scale tiny --lookups 30000 --days 1 --ecs
    python -m repro sim status --scale tiny --sessions 500
"""

from __future__ import annotations

import argparse
import datetime
import sys
from functools import partial
from typing import List

from repro.api import ScenarioSpec, build_world, run, run_dnsload
from repro.cliutil import json_document, positive_int
from repro.codec import decode
from repro.core.reporting import build_status_report
from repro.experiments.scales import get_scale, scale_names
from repro.faults import FaultSchedule
from repro.simulation.dnsload import DnsLoadConfig
from repro.simulation.rollout import RolloutConfig
from repro.topology.traffic import TrafficSchedule


def _cmd_world_info(args) -> int:
    print(f"building world (scale={args.scale})...", file=sys.stderr)
    world = build_world(get_scale(args.scale).world)
    internet = world.internet
    print(f"client /24 blocks     {len(internet.blocks)}")
    print(f"autonomous systems    {len(internet.ases)}")
    print(f"LDNS deployments      {len(internet.resolvers)} "
          f"({len(internet.public_resolver_ids())} public)")
    print(f"public demand share   {internet.public_demand_share():.1%}")
    print(f"BGP announcements     {len(internet.bgp)}")
    print(f"CDN locations         {len(world.deployments)}")
    print(f"content providers     {len(world.catalog)}")
    print(f"authoritative servers {len(world.nameservers)}")
    return 0


def _rollout_spec(args) -> ScenarioSpec:
    """The scenario ``sim rollout`` runs; raises ``ValueError`` for a
    combination of planes no spec may carry."""
    start = datetime.date(2014, 3, 1)
    end = start + datetime.timedelta(days=args.days - 1)
    third = datetime.timedelta(days=max(args.days // 3, 1))
    config = RolloutConfig(
        start_date=start,
        end_date=end,
        rollout_start=start + third,
        rollout_end=start + 2 * third,
        sessions_per_day=args.sessions,
        seed=args.seed,
    )
    load_feedback = None
    if args.load_feedback:
        from repro.core.loadfeedback import LoadFeedbackConfig

        load_feedback = LoadFeedbackConfig()
    control_plane = None
    if args.control_plane:
        from repro.core.mapmaker import MapMakerConfig

        control_plane = MapMakerConfig()
    return ScenarioSpec(world=get_scale(args.scale).world,
                        rollout=config, monitor=False,
                        traffic=args.traffic or TrafficSchedule(),
                        load_feedback=load_feedback,
                        control_plane=control_plane,
                        unit_scheme=args.unit_scheme,
                        faults=args.faults or FaultSchedule())


def _cmd_rollout(args) -> int:
    spec = args.spec
    if args.workers is not None:
        # --workers only sizes the pool: --workers 1 and --workers 8
        # print identical reports (the shard plan fixes the output).
        print(f"running {args.shards} shards on {args.workers} "
              f"worker(s)...", file=sys.stderr)
        outcome = run(spec, workers=args.workers, shards=args.shards)
    else:
        outcome = run(spec)
    result = outcome.result
    print(f"{len(result.rum)} RUM beacons over {spec.rollout.n_days} days")
    if args.faults is not None:
        shifted = sum(result.catchment_shifted_per_day.values())
        print(f"{shifted} sessions re-homed off their build-time "
              f"catchment")
    for metric in ("mapping_distance_miles", "rtt_ms", "ttfb_ms",
                   "download_ms"):
        before = result.rum.metric_values(
            metric, via_public=True, day_range=result.before_window)
        after = result.rum.metric_values(
            metric, via_public=True, day_range=result.after_window)
        mean_b = sum(before) / len(before) if before else float("nan")
        mean_a = sum(after) / len(after) if after else float("nan")
        print(f"  {metric:<26} {mean_b:10.1f} -> {mean_a:10.1f} "
              f"({mean_b / mean_a if mean_a else 0:5.2f}x)")
    return 0


def _cmd_dnsload(args) -> int:
    scale = get_scale(args.scale)
    rollout = scale.rollout
    period = DnsLoadConfig(
        lookups_per_day=args.lookups, n_days=args.days, seed=args.seed,
        start_day=rollout.day_index(rollout.rollout_end) if args.ecs else 0)
    print(f"building world (scale={args.scale})...", file=sys.stderr)
    world, (result,) = run_dnsload(
        ScenarioSpec(world=scale.world, rollout=rollout, monitor=False),
        [period])
    enabled = max(result.ecs_resolvers_per_day.values())
    if enabled:
        print(f"enabled ECS at {enabled} public resolver deployments",
              file=sys.stderr)
    log = world.query_log
    print(f"lookups               {result.lookups}")
    print(f"LDNS cache hit rate   {result.hit_rate:.1%}")
    print(f"authoritative qps     {log.rate_in(*period.window):.4f}")
    print(f"  from public LDNS    "
          f"{log.rate_in(*period.window, public_only=True):.4f}")
    print(f"ECS queries           {log.ecs_queries}")
    return 0


def _cmd_status(args) -> int:
    from repro.obs import SAMPLE_EVERY
    from repro.obs.dump import run_scenario

    print(f"running {args.sessions} sessions (scale={args.scale})...",
          file=sys.stderr)
    world = run_scenario(scale=args.scale, sessions=args.sessions,
                         seed=args.seed, sample_every=SAMPLE_EVERY)
    for line in build_status_report(world).lines():
        print(line)
    return 0


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro sim",
        description="Ad-hoc scenarios against the end-user-mapping "
                    "simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--scale", default="tiny", choices=scale_names())
        p.add_argument("--seed", type=int, default=7)

    add_common(sub.add_parser("world-info",
                              help="print world composition"))

    rollout = sub.add_parser("rollout", help="run a custom roll-out")
    add_common(rollout)
    rollout.add_argument("--days", type=positive_int, default=45)
    rollout.add_argument("--sessions", type=positive_int, default=150,
                         help="sessions per day")
    rollout.add_argument("--workers", type=positive_int, default=None,
                         help="run sharded across N worker processes "
                              "(output is byte-identical for any N)")
    rollout.add_argument("--shards", type=positive_int, default=8,
                         help="shard count of the deterministic plan "
                              "(default 8); needs --workers")
    rollout.add_argument("--traffic", type=json_document(
                             partial(decode, TrafficSchedule, path="traffic"),
                             "traffic schedule"),
                         default=None, metavar="JSON|@FILE",
                         help="surge-traffic schedule (JSON list of "
                              "shapes, or @path to a file)")
    rollout.add_argument("--load-feedback", action="store_true",
                         help="turn on the load-feedback mapping loop "
                              "(cluster utilization penalizes and "
                              "demotes hot clusters)")
    rollout.add_argument("--control-plane", action="store_true",
                         help="run the split control plane (published "
                              "maps read through the degradation "
                              "ladder) with default knobs")
    rollout.add_argument("--unit-scheme", default=None,
                         metavar="SCHEME[:K]",
                         help="compile the published map over this "
                              "unit-construction scheme (ldns, geo_as, "
                              "routing_aware[:k], ...; default geo_as); "
                              "requires --control-plane")
    rollout.add_argument("--faults", type=json_document(
                             partial(decode, FaultSchedule, path="faults"),
                             "fault schedule"),
                         default=None, metavar="JSON|@FILE",
                         help="fault schedule (JSON list of events, or "
                              "@path to a file); control-plane kinds "
                              "require --control-plane")

    dnsload = sub.add_parser("dnsload", help="drive DNS-only load")
    add_common(dnsload)
    dnsload.add_argument("--lookups", type=positive_int,
                         default=30_000, help="lookups per day")
    dnsload.add_argument("--days", type=positive_int, default=1,
                         help="each day sends ECS from its roll-out "
                              "tranche: a run longer than the 27 "
                              "pre-roll-out days at tiny sees it begin")
    dnsload.add_argument("--ecs", action="store_true",
                         help="start on the roll-out's last day (every "
                              "public resolver sends ECS), not day 0")

    status = sub.add_parser(
        "status", help="run sessions then print the ops status report")
    add_common(status)
    status.add_argument("--sessions", type=positive_int, default=300)

    args = parser.parse_args(argv)
    if args.command == "rollout":
        try:
            args.spec = _rollout_spec(args)
        except ValueError as exc:
            # Planes the spec refuses to combine are a usage error
            # (exit code 2), before any world is built.
            rollout.error(str(exc))
    handlers = {
        "world-info": _cmd_world_info,
        "rollout": _cmd_rollout,
        "dnsload": _cmd_dnsload,
        "status": _cmd_status,
    }
    return handlers[args.command](args)
