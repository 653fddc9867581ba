"""Named scales for experiments.

``tiny`` runs in seconds (the tier-1 figure gate), ``small`` in a few
minutes (interactive exploration), ``paper`` is the configuration the
EXPERIMENTS.md numbers were recorded at.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from repro.simulation.rollout import RolloutConfig
from repro.simulation.world import WorldConfig


@dataclass(frozen=True)
class Fig25Spec:
    """Parameters of the Section 6 deployment simulation."""

    universe_size: int
    n_targets: int
    n_client_samples: int
    n_runs: int
    deployment_counts: tuple


@dataclass(frozen=True)
class ScaleSpec:
    name: str
    world: WorldConfig
    rollout: RolloutConfig
    dnsload_lookups: int  # per day of each DNS-load period (figs 2, 23, 24)
    fig25: Fig25Spec


def _rollout(sessions: int, full_timeline: bool,
             seed: int = 99) -> RolloutConfig:
    if full_timeline:
        return RolloutConfig(sessions_per_day=sessions, seed=seed)
    # Short timeline for tiny scale: growth per month is raised so the
    # Figure 12 trend is visible above sampling noise in two months.
    return RolloutConfig(
        start_date=datetime.date(2014, 3, 1),
        end_date=datetime.date(2014, 4, 30),
        rollout_start=datetime.date(2014, 3, 28),
        rollout_end=datetime.date(2014, 4, 15),
        sessions_per_day=sessions,
        monthly_growth=0.30,
        seed=seed,
    )


_SCALES = {
    "tiny": ScaleSpec(
        name="tiny",
        world=WorldConfig.tiny(),
        rollout=_rollout(sessions=120, full_timeline=False),
        dnsload_lookups=70_000,
        fig25=Fig25Spec(universe_size=160, n_targets=300,
                        n_client_samples=500, n_runs=4,
                        deployment_counts=(10, 20, 40, 80, 160)),
    ),
    "small": ScaleSpec(
        name="small",
        world=WorldConfig.small(),
        rollout=_rollout(sessions=350, full_timeline=True),
        dnsload_lookups=150_000,
        fig25=Fig25Spec(universe_size=320, n_targets=800,
                        n_client_samples=1500, n_runs=10,
                        deployment_counts=(10, 20, 40, 80, 160, 320)),
    ),
    "paper": ScaleSpec(
        name="paper",
        world=WorldConfig.paper(),
        rollout=_rollout(sessions=900, full_timeline=True, seed=99),
        dnsload_lookups=400_000,
        fig25=Fig25Spec(universe_size=640, n_targets=2000,
                        n_client_samples=4000, n_runs=25,
                        deployment_counts=(10, 20, 40, 80, 160, 320, 640)),
    ),
}


def get_scale(name: str) -> ScaleSpec:
    try:
        return _SCALES[name]
    except KeyError:
        raise KeyError(
            f"unknown scale {name!r}; choose from {sorted(_SCALES)}"
        ) from None


def scale_names():
    return sorted(_SCALES)
