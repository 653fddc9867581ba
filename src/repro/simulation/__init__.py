"""Simulation: composing the full system and driving scenarios.

* :mod:`repro.simulation.world` -- builds a runnable world: synthetic
  Internet + CDN deployments + content + mapping system + authoritative
  name servers + the LDNS fleet, all wired over one in-memory network.
* :mod:`repro.simulation.session` -- the page-download model that turns
  one client session into RUM navigation-timing milestones.
* :mod:`repro.simulation.rollout` -- the Jan-Jun 2014 timeline with the
  EDNS0 client-subnet roll-out window (Mar 28 - Apr 15).
"""

from repro.simulation.session import SessionResult, simulate_session
from repro.simulation.rollout import RolloutConfig, RolloutResult
from repro.simulation.world import World, WorldConfig

__all__ = [
    "RolloutConfig",
    "RolloutResult",
    "SessionResult",
    "World",
    "WorldConfig",
    "simulate_session",
]
