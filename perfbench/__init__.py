"""perfbench: the repo's end-to-end and per-layer benchmark.

``BENCHMARK.json`` at the repo root names the command, the workloads
and every metric with its unit and bound; this package is that command.
It imports only ``repro``'s public API and lives beside it, so a change
to the program never has to touch the benchmark that judges it.

    python -m perfbench rep --workload W --seed N --seconds S --trace 0|1
    python -m perfbench run --seed 99 --out report.json
    python -m perfbench compare A.json B.json
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict

ROOT = Path(__file__).resolve().parent.parent

#: Schema stamp of the report ``run`` writes and ``compare`` reads.
SCHEMA = "perfbench/v1"


def load_benchmark() -> Dict:
    """``BENCHMARK.json``: the single home of metric names, units,
    directions and bounds."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)
