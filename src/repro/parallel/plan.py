"""Shard planning: a deterministic partition of the client population.

The paper's mapping system scales by partitioning the address space
into units that can be processed independently (the map units of
Section 5; Gursun's prefix clustering makes the same move for
measurement).  The simulator's analog: split the client /24 blocks
into ``n_shards`` *closed sub-populations* by hashing each block's
prefix address through the SplitMix64 finalizer.  The partition is a
pure function of (prefix, n_shards) -- independent of block order,
world scale, Python hash randomization, and, critically, of how many
worker processes execute the shards.

Closed-world invariant: a shard owns its blocks' *sessions*, but every
shard runs over a full world of the same spec -- the static ecosystem
(Internet, catalog) built once per worker task, a live world wired
fresh per shard -- so shared infrastructure -- published maps, the
fault schedule, the ECS roll-out timeline, name servers, cluster
geometry -- is replicated identically everywhere.  Only client-driven activity differs per shard, and that
is exactly the part the merge algebra can add back together.

Per-day load: the day loop computes one global session count per day.
Each shard must know its quota of it without coordinating, so the
planner apportions the global count across shards by demand share with
the largest-remainder method -- deterministic, exact (quotas always
sum to the global count), and stable under worker count.
:meth:`ShardPlan.population_slice` packages quota, block pick, and RNG
stream as the :class:`~repro.simulation.rollout.PopulationSlice` the
loop runs over; the whole population is the 1-shard case.
"""

from __future__ import annotations

import bisect
import itertools
import random
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from repro.net.latency import _mix64
from repro.simulation.rollout import PopulationSlice
from repro.topology.traffic import day_weight

#: Default shard count.  Fixed independently of ``workers`` so the
#: shard plan -- and therefore every merged report byte -- is identical
#: whether 1, 2, or 16 processes execute it.
DEFAULT_SHARDS = 8

def shard_of_prefix(prefix_addr: int, n_shards: int) -> int:
    """Which shard owns the client block at this prefix address."""
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    # One SplitMix64 step from the prefix address as the state.
    return _mix64(prefix_addr + 0x9E3779B97F4A7C15) % n_shards


def apportion(total: int, shares: Sequence[float]) -> List[int]:
    """Split ``total`` integer units across ``shares`` exactly.

    Largest-remainder apportionment: each bucket gets the floor of its
    proportional quota, then leftover units go to the largest
    fractional parts (ties broken by lower index).  Deterministic, and
    the result always sums to ``total``.
    """
    if total < 0:
        raise ValueError(f"cannot apportion a negative total: {total}")
    weight = sum(shares)
    if weight <= 0:
        # No demand anywhere: dump everything in bucket 0 so the total
        # is conserved (only reachable with a degenerate world).
        return [total] + [0] * (len(shares) - 1) if shares else []
    quotas = [total * share / weight for share in shares]
    floors = [int(quota) for quota in quotas]
    remainder = total - sum(floors)
    by_fraction = sorted(range(len(shares)),
                         key=lambda i: (floors[i] - quotas[i], i))
    for i in by_fraction[:remainder]:
        floors[i] += 1
    return floors


@dataclass(frozen=True)
class ShardPlan:
    """The partition of one world's client blocks into shards."""

    n_shards: int
    block_indices: Tuple[Tuple[int, ...], ...]
    """Per shard: indices into ``internet.blocks``, ascending."""
    demands: Tuple[float, ...]
    """Per shard: total client demand owned."""

    @property
    def total_demand(self) -> float:
        return sum(self.demands)

    def sessions_for_day(self, sessions_today: int) -> List[int]:
        """Per-shard session quotas for one day's global count."""
        return apportion(sessions_today, self.demands)

    def population_slice(self, shard: int, blocks: Sequence,
                         seed: int) -> PopulationSlice:
        """The slice of ``blocks`` one shard worker's day loop serves.

        * RNG: one independent stream per shard, seeded by (seed,
          shard).  String seeds hash through SHA-512 inside
          ``random.Random``, so the stream is stable across platforms
          and hash randomization.
        * Block pick: mirrors
          :meth:`repro.topology.internet.Internet.pick_block` (one
          uniform draw, bisect over cumulative demand) restricted to
          the shard's own blocks.
        * Quota: the global count apportioned by demand -- on a surge
          day by surge-weighted demand, so a shard holding the surging
          geo gets the extra sessions.
        """
        members = [[blocks[i] for i in indices]
                   for indices in self.block_indices]
        own = members[shard]
        cum = list(itertools.accumulate(block.demand for block in own))

        def pick_block(rng):
            if not own:
                raise ValueError(f"shard {shard} owns no client blocks")
            position = bisect.bisect_right(cum, rng.random() * cum[-1])
            return own[min(position, len(own) - 1)]

        def quota(sessions_global: int, traffic, day: int) -> int:
            if not traffic:
                return self.sessions_for_day(sessions_global)[shard]
            weights = [day_weight(traffic, day, shard_blocks)
                       for shard_blocks in members]
            return apportion(sessions_global, weights)[shard]

        return PopulationSlice(
            rng=random.Random(f"{seed}:shard:{shard}"),
            blocks=own, pick_block=pick_block, quota=quota)


def plan_shards(internet, n_shards: int = DEFAULT_SHARDS) -> ShardPlan:
    """Partition a built Internet's client blocks into shards.

    Pure function of (block prefixes, demands, n_shards): each worker
    task computes the identical plan once from its own Internet and
    shares it across the shards it runs, so no plan state ever needs to
    cross a process boundary.
    """
    if n_shards < 1:
        raise ValueError(f"need at least one shard, got {n_shards}")
    members: List[List[int]] = [[] for _ in range(n_shards)]
    demands = [0.0] * n_shards
    for index, block in enumerate(internet.blocks):
        shard = shard_of_prefix(block.prefix.network, n_shards)
        members[shard].append(index)
        demands[shard] += block.demand
    return ShardPlan(
        n_shards=n_shards,
        block_indices=tuple(tuple(m) for m in members),
        demands=tuple(demands),
    )
