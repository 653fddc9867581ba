"""Heavy-tailed demand sampling for ASes and client blocks.

Client demand on the real Internet is extremely skewed: the paper's
Figure 21 shows ~1800 LDNSes (of 584K) covering 50% of global demand and
~430K /24 blocks (of 3.76M) covering the same.  Pareto-distributed AS
sizes combined with lognormal within-AS block weights reproduce that
concentration.
"""

from __future__ import annotations

import math
import random
from typing import List


def pareto_weights(n: int, rng: random.Random, alpha: float = 1.1) -> List[float]:
    """n independent Pareto(alpha) weights (heavy-tailed, unnormalized).

    ``alpha`` near 1 gives the extreme skew seen in AS demand shares.
    """
    if n < 1:
        raise ValueError("need at least one weight")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    out = []
    for _ in range(n):
        u = rng.random()
        # Inverse-CDF sampling; clamp u away from 0 to bound the tail.
        u = max(u, 1e-9)
        out.append(math.pow(u, -1.0 / alpha))
    return out


def lognormal_weights(
    n: int, rng: random.Random, sigma: float = 1.2
) -> List[float]:
    """n lognormal weights for splitting an AS's demand across blocks."""
    if n < 1:
        raise ValueError("need at least one weight")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    return [math.exp(rng.gauss(0.0, sigma)) for _ in range(n)]


def zipf_weights(n: int, exponent: float = 0.9) -> List[float]:
    """Deterministic Zipf rank weights 1/r^exponent for r = 1..n.

    Used for domain-name popularity (Figure 24's popularity buckets).
    """
    if n < 1:
        raise ValueError("need at least one weight")
    return [1.0 / math.pow(rank, exponent) for rank in range(1, n + 1)]
