"""One front door for every CLI: ``python -m repro <subcommand>``.

Subcommands share the ``--seed`` / ``--format`` / ``--out`` flag
conventions; everything after the subcommand name is handed to the
subcommand's own parser unchanged.

Exit-code contract (pinned by ``tests/test_cli_exit_codes.py``):

* ``0`` -- the subcommand ran and its checks (if any) passed; also
  ``python -m repro --help``.
* ``1`` -- the subcommand ran but a gate failed: an experiment's
  shape check, a soak invariant violation, a nondeterministic replay.
* ``2`` -- usage errors: bare ``python -m repro``, an unknown
  subcommand, or bad flags (argparse's own convention).
"""

from __future__ import annotations

import sys
from typing import List, Optional

_SUBCOMMANDS = {
    "sim": ("repro.simulation.cli",
            "world building, roll-out, DNS-load scenarios"),
    "experiment": ("repro.experiments.cli",
                   "paper-figure experiments (list/run/report)"),
    "dump": ("repro.obs.dump",
             "metrics + trace dump of one seeded scenario"),
    "monitor": ("repro.obs.monitor.cli",
                "monitored roll-out: series, cohorts, alerts"),
    "soak": ("repro.faults.chaos",
             "seeded chaos soak: N random fault scenarios + invariants"),
}


def _usage() -> str:
    lines = ["usage: python -m repro <subcommand> [options]", "",
             "subcommands:"]
    for name in sorted(_SUBCOMMANDS):
        _, blurb = _SUBCOMMANDS[name]
        lines.append(f"  {name:<12} {blurb}")
    lines.append("")
    lines.append("run a subcommand with --help for its options; "
                 "--seed/--format/--out are shared conventions")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help"):
        print(_usage())
        return 0 if argv else 2
    name = argv[0]
    entry = _SUBCOMMANDS.get(name)
    if entry is None:
        print(f"unknown subcommand {name!r}\n\n{_usage()}",
              file=sys.stderr)
        return 2
    module_name, _ = entry
    import importlib

    module = importlib.import_module(module_name)
    return module.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main())
