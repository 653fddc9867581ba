"""Command line: ``rep`` (one contract run), ``run``, ``compare``."""

from __future__ import annotations

import argparse
import json
import os
import sys

from perfbench import ROOT


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m perfbench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    rep = commands.add_parser(
        "rep", help="one rep of one workload, in this process")
    rep.add_argument("--workload", required=True)
    rep.add_argument("--seed", type=int, required=True)
    rep.add_argument("--seconds", type=float, required=True)
    rep.add_argument("--trace", type=int, choices=(0, 1), required=True)
    rep.add_argument("--smoke", action="store_true",
                     help="tiny sizes, for the benchmark's own tests")

    run = commands.add_parser(
        "run", help="every workload: timed reps, then the traced pass")
    run.add_argument("--seed", type=int, default=99)
    run.add_argument("--out", required=True)
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes, for the benchmark's own tests")

    compare = commands.add_parser(
        "compare", help="judge report B against report A")
    compare.add_argument("a")
    compare.add_argument("b")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # One driver thread: numpy's BLAS pools would add cores the
    # single-threaded engine never asked for.  Set before numpy loads;
    # shard workers and rep subprocesses inherit it.
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)

    if args.command == "compare":
        from perfbench.compare import compare_files
        return compare_files(args.a, args.b)
    if args.command == "run":
        from perfbench.runner import run_all
        return run_all(args.seed, args.out, args.smoke)

    from perfbench.rep import Refused, run_rep
    from perfbench.workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              + ", ".join(WORKLOADS), file=sys.stderr)
        return 2
    try:
        result = run_rep(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.smoke)
    except Refused as refusal:
        print(f"refused: {refusal}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
