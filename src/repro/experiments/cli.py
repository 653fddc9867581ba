"""``python -m repro experiment`` — regenerate the paper's figures.

Usage::

    python -m repro experiment list
    python -m repro experiment run fig13 --scale small
    python -m repro experiment run all --scale tiny
    python -m repro experiment run load_tradeoff --format json --out result.json
    python -m repro experiment report --scale paper   # EXPERIMENTS.md body

Exit status is non-zero if any executed experiment's shape checks fail.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List

from repro.cliutil import output
from repro.experiments.base import ExperimentResult, render_result
from repro.experiments.registry import (
    all_experiments,
    experiment_ids,
    get_experiment,
)
from repro.experiments.scales import scale_names


def _run_ids(ids: List[str], scale: str,
             out=None) -> List[ExperimentResult]:
    """Run each experiment; given a stream, print each as it ends."""
    results = []
    for experiment_id in ids:
        started = time.time()
        result = get_experiment(experiment_id).run(scale)
        elapsed = time.time() - started
        if out is not None:
            print(render_result(result), file=out)
            print(f"(took {elapsed:.1f}s)\n", file=out)
        results.append(result)
    return results


def render_markdown(results: List[ExperimentResult], scale: str) -> str:
    """Render results as the EXPERIMENTS.md body."""
    lines = [f"## Results (scale={scale})", ""]
    passed = sum(1 for r in results if r.passed)
    lines.append(f"**{passed}/{len(results)} experiments pass their "
                 "shape checks.**")
    lines.append("")
    for result in results:
        lines.append(f"### {result.experiment_id} — {result.title}")
        lines.append("")
        lines.append(f"*Paper:* {result.paper_claim}")
        lines.append("")
        if result.rows and len(result.rows) <= 30:
            columns = list(result.rows[0].keys())
            lines.append("| " + " | ".join(columns) + " |")
            lines.append("|" + "---|" * len(columns))
            for row in result.rows:
                cells = []
                for column in columns:
                    value = row.get(column, "")
                    if isinstance(value, float):
                        cells.append(f"{value:,.2f}")
                    else:
                        cells.append(str(value))
                lines.append("| " + " | ".join(cells) + " |")
            lines.append("")
        if result.summary:
            lines.append("| measured | value |")
            lines.append("|---|---|")
            for key, value in result.summary.items():
                if isinstance(value, float):
                    rendered = f"{value:,.2f}"
                else:
                    rendered = str(value)
                lines.append(f"| {key} | {rendered} |")
            lines.append("")
        for check in result.checks:
            marker = "x" if check.passed else " "
            lines.append(f"- [{marker}] {check.name}: {check.detail}")
        lines.append("")
    return "\n".join(lines)


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro experiment",
        description="Reproduce the figures of 'End-User Mapping' "
                    "(SIGCOMM 2015)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments")

    run_parser = sub.add_parser("run", help="run one experiment or 'all'")
    run_parser.add_argument("experiment",
                            choices=experiment_ids() + ["all"],
                            metavar="EXPERIMENT",
                            help="experiment id (e.g. fig13) or 'all'")
    run_parser.add_argument("--scale", default="tiny",
                            choices=scale_names())
    run_parser.add_argument("--format", default="text",
                            choices=["text", "json"],
                            help="json emits {experiment_id, scale, "
                                 "rows, summary, checks, passed} (a "
                                 "list of them for 'all')")
    run_parser.add_argument("--out", default=None,
                            help="write to this path instead of stdout")

    report_parser = sub.add_parser(
        "report", help="run everything and print a summary table")
    report_parser.add_argument("--scale", default="small",
                               choices=scale_names())
    report_parser.add_argument("--format", default="text",
                               choices=["text", "markdown"],
                               help="markdown emits the EXPERIMENTS.md "
                                    "body")

    args = parser.parse_args(argv)

    if args.command == "list":
        for module in all_experiments():
            print(f"{module.EXPERIMENT_ID}  {module.TITLE}")
        return 0

    if args.command == "run":
        ids = (experiment_ids() if args.experiment == "all"
               else [args.experiment])
        with output(args.out) as stream:
            results = _run_ids(
                ids, args.scale,
                out=stream if args.format == "text" else None)
            if args.format == "json":
                docs = [result.payload() for result in results]
                stream.write(json.dumps(
                    docs if args.experiment == "all" else docs[0],
                    indent=2, sort_keys=True) + "\n")
        return 0 if all(r.passed for r in results) else 1

    if args.command == "report":
        if args.format == "markdown":
            results = _run_ids(experiment_ids(), args.scale)
            print(render_markdown(results, args.scale))
            return 0 if all(r.passed for r in results) else 1
        results = _run_ids(experiment_ids(), args.scale,
                           out=sys.stdout)
        print("=== summary ===")
        failed = 0
        for result in results:
            status = "PASS" if result.passed else "FAIL"
            failed += 0 if result.passed else 1
            print(f"{status}  {result.experiment_id}  {result.title}")
        print(f"{len(results) - failed}/{len(results)} experiments pass "
              f"their shape checks at scale={args.scale}")
        return 0 if failed == 0 else 1

    parser.error(f"unknown command {args.command}")
    return 2
