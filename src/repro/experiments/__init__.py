"""Experiment harness: one module per paper figure.

Every experiment implements the same contract (:mod:`base`): it runs at
a named scale (``tiny`` / ``small`` / ``paper``), returns an
:class:`~repro.experiments.base.ExperimentResult` with the figure's
rows, headline summary numbers, and *shape checks* comparing the
measured behaviour against the paper's qualitative claims.

``python -m repro experiment run fig13 --scale small`` renders a
figure's data as an ASCII table; ``run all`` regenerates everything
(this is how EXPERIMENTS.md is produced).
"""

from repro.experiments.base import (
    Check,
    Experiment,
    ExperimentResult,
    render_result,
)
from repro.experiments.registry import all_experiments, get_experiment
from repro.experiments.scales import ScaleSpec, get_scale

__all__ = [
    "Check",
    "Experiment",
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "get_scale",
    "render_result",
    "ScaleSpec",
]
