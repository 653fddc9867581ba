"""Differential test: the compiled routing-aware build against the
straightforward k-medoids loop it replaced.

The oracle below is the original implementation, kept verbatim in
substance: one ``np.nonzero`` scan per medoid slot, per-chunk
temporaries with a strided ``argmin``, and one numpy call per member.
The compiled builder must give the same medoid rows and assignment
after every Lloyd round and the same ``MapUnit`` list, float for
float.  Synthetic Internets drive the edge paths: clusters with no
demand, twin medoids that lose every tie (within one distance chunk
and across two), one block, and none.
"""

import dataclasses
from typing import Dict, List, Tuple

import numpy as np
import pytest

from repro.core.units import MapUnit, MapUnitScheme
from repro.core.units.routing import (
    RoutingAwareUnitBuilder,
    _lloyd_rounds,
)
from repro.net.ipv4 import Prefix
from repro.topology import InternetConfig, build_internet
from tests.test_units import _SlicedInternet


# -- the oracle ----------------------------------------------------------

def _oracle_nearest_medoids(features, medoid_rows, chunk=256):
    block_norms = np.einsum("ij,ij->i", features, features)
    best_dist = np.full(features.shape[0], np.inf)
    best_index = np.zeros(features.shape[0], dtype=np.int64)
    for start in range(0, medoid_rows.size, chunk):
        rows = medoid_rows[start:start + chunk]
        centers = features[rows]
        dists = (np.einsum("ij,ij->i", centers, centers)[:, None]
                 - 2.0 * centers @ features.T + block_norms[None, :])
        local = np.argmin(dists, axis=0)
        local_best = dists[local, np.arange(features.shape[0])]
        better = local_best < best_dist
        best_dist[better] = local_best[better]
        best_index[better] = local[better] + start
    return best_index


def _oracle_initial_medoids(blocks, n_units):
    order = sorted(range(len(blocks)),
                   key=lambda i: (-blocks[i].demand,
                                  str(blocks[i].prefix)))
    stride = len(order) / n_units
    rows = sorted({order[int(k * stride)] for k in range(n_units)})
    return np.asarray(rows, dtype=np.int64)


def _oracle_update_medoids(features, demand, assignment, medoid_rows):
    updated = medoid_rows.copy()
    for slot in range(medoid_rows.size):
        members = np.nonzero(assignment == slot)[0]
        if members.size == 0:
            continue
        weights = demand[members]
        total = float(weights.sum())
        if total <= 0.0:
            weights = np.ones_like(weights)
            total = float(weights.sum())
        centroid = (weights[:, None] * features[members]).sum(
            axis=0) / total
        gaps = np.einsum("ij,ij->i", features[members] - centroid,
                         features[members] - centroid)
        updated[slot] = members[int(np.argmin(gaps))]
    return np.sort(updated)


def _oracle_materialize(blocks, features, medoid_rows, assignment):
    units: List[MapUnit] = []
    for slot in range(medoid_rows.size):
        members = np.nonzero(assignment == slot)[0]
        if members.size == 0:
            continue
        medoid = blocks[int(medoid_rows[slot])]
        unit = MapUnit(key=str(medoid.prefix),
                       scheme=MapUnitScheme.ROUTING_AWARE)
        demand_by_asn: Dict[int, float] = {}
        gaps: List[Tuple[float, float]] = []
        medoid_feature = features[int(medoid_rows[slot])]
        for row in members:
            block = blocks[int(row)]
            unit.add(block.geo, block.demand, network=block.prefix.network)
            demand_by_asn[block.asn] = demand_by_asn.get(
                block.asn, 0.0) + block.demand
            gap = float(np.sqrt(np.mean(
                (features[int(row)] - medoid_feature) ** 2)))
            gaps.append((gap, block.demand))
        total = sum(weight for _, weight in gaps)
        if total > 0:
            unit.cohesion_rtt_ms = sum(
                gap * weight for gap, weight in gaps) / total
        else:
            unit.cohesion_rtt_ms = 0.0
        unit.asn = min(demand_by_asn,
                       key=lambda asn: (-demand_by_asn[asn], asn))
        units.append(unit)
    return units


def _oracle(internet, n_units):
    """(medoid rows, assignment) per round, and the units."""
    blocks = internet.blocks
    features = RoutingAwareUnitBuilder()._features(internet)
    medoid_rows = _oracle_initial_medoids(blocks, n_units)
    assignment = _oracle_nearest_medoids(features, medoid_rows)
    rounds = [(medoid_rows, assignment)]
    for _ in range(8):
        updated = _oracle_update_medoids(
            features, internet.block_columns().demand, assignment,
            medoid_rows)
        if np.array_equal(updated, medoid_rows):
            break
        medoid_rows = updated
        assignment = _oracle_nearest_medoids(features, medoid_rows)
        rounds.append((medoid_rows, assignment))
    return rounds, _oracle_materialize(blocks, features, medoid_rows,
                                       assignment)


# -- worlds --------------------------------------------------------------

def _block_internet(blocks, like):
    """A duck-typed Internet over an explicit block list."""
    internet = _SlicedInternet(like, 0)
    internet.blocks = list(blocks)
    return internet


def _twins(internet, n_base):
    """``n_base`` blocks followed by a copy of each under a fresh
    prefix: every feature row has an exact twin ``n_base`` rows on."""
    base = internet.blocks[:n_base]
    top = max(block.prefix.network for block in internet.blocks)
    copies = [dataclasses.replace(block,
                                  prefix=Prefix(top + 256 * (i + 1), 24))
              for i, block in enumerate(base)]
    return _block_internet(base + copies, internet)


@pytest.fixture(scope="module")
def internets():
    cache = {}

    def get(scale, seed):
        if (scale, seed) not in cache:
            cache[scale, seed] = build_internet(
                getattr(InternetConfig, scale)(), seed=seed)
        return cache[scale, seed]
    return get


def _assert_same_build(internet, n_units=None):
    """Round-by-round and unit-by-unit equality; returns the units."""
    builder = RoutingAwareUnitBuilder()
    k = builder.default_units(internet) if n_units is None else n_units
    k = max(1, min(k, len(internet.blocks)))
    expected_rounds, expected = _oracle(internet, k)

    blocks = internet.blocks
    prefixes = [str(block.prefix) for block in blocks]
    seeds = builder._initial_medoids(blocks, prefixes, k)
    rounds = list(_lloyd_rounds(builder._features(internet),
                                internet.block_columns().demand, seeds))
    assert len(rounds) == len(expected_rounds)
    for index, ((medoids, assignment), (want_medoids, want_assignment)) \
            in enumerate(zip(rounds, expected_rounds)):
        assert np.array_equal(medoids, want_medoids), index
        assert np.array_equal(assignment, want_assignment), index

    units = builder.build(internet, n_units=n_units)
    assert len(units) == len(expected)
    for unit, want in zip(units, expected):
        assert unit.key == want.key
        assert unit.scheme == want.scheme
        assert unit.networks == want.networks
        assert unit.members == want.members
        assert unit.demand == want.demand
        assert unit.asn == want.asn
        assert unit.cohesion_rtt_ms == want.cohesion_rtt_ms
        assert unit == want
    return units


# -- cases ---------------------------------------------------------------

@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("seed", [2014, 7])
@pytest.mark.parametrize("n_units", [1, 4, 16, 32, None])
def test_generated_worlds_match_the_oracle(internets, scale, seed,
                                           n_units):
    _assert_same_build(internets(scale, seed), n_units)


def test_zero_demand_clusters_weigh_members_alike(internets):
    net = internets("tiny", 2014)
    blocks = [dataclasses.replace(block, demand=0.0)
              if block.continent in ("EU", "AF") else block
              for block in net.blocks]
    units = _assert_same_build(_block_internet(blocks, net), 32)
    assert any(unit.demand == 0.0 for unit in units)
    assert any(unit.demand > 0.0 for unit in units)


def test_all_zero_demand(internets):
    net = internets("tiny", 7)
    blocks = [dataclasses.replace(block, demand=0.0)
              for block in net.blocks[:200]]
    units = _assert_same_build(_block_internet(blocks, net), 16)
    assert all(unit.cohesion_rtt_ms == 0.0 for unit in units)


def test_twin_medoid_loses_every_tie(internets):
    net = _twins(internets("tiny", 2014), 20)
    units = _assert_same_build(net, len(net.blocks))
    # Each twin pair seeds two medoids at one feature row; the later
    # one wins no block and its empty slot makes no unit.
    assert len(units) == 20
    assert all(len(unit.members) == 2 for unit in units)


def test_twins_across_distance_chunks(internets):
    # 300 medoids span two 256-row chunks; the twins of rows 106-149
    # sit in the second, so the earlier chunk must keep the tie.
    net = _twins(internets("tiny", 7), 150)
    units = _assert_same_build(net, len(net.blocks))
    assert len(units) == 150


def test_twins_under_fewer_medoids(internets):
    _assert_same_build(_twins(internets("tiny", 7), 60), 24)


def test_one_block(internets):
    net = internets("tiny", 2014)
    units = _assert_same_build(_block_internet(net.blocks[:1], net), 4)
    assert len(units) == 1


def test_no_blocks(internets):
    net = internets("tiny", 2014)
    empty = _block_internet([], net)
    assert RoutingAwareUnitBuilder().build(empty) == []
    assert RoutingAwareUnitBuilder().build(empty, n_units=3) == []
