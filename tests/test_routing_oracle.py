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
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import MapUnit, MapUnitScheme, routing
from repro.core.units.routing import (
    RoutingAwareUnitBuilder,
    _lloyd_rounds,
    _NearestMedoids,
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
                (features[int(row)] - medoid_feature) ** 2)) / 1000.0)
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


def _oracle_rounds(features, demand, medoid_rows):
    """(medoid rows, assignment) per round, every round recomputed in
    full."""
    assignment = _oracle_nearest_medoids(features, medoid_rows)
    rounds = [(medoid_rows, assignment)]
    for _ in range(8):
        updated = _oracle_update_medoids(features, demand, assignment,
                                         medoid_rows)
        if np.array_equal(updated, medoid_rows):
            break
        medoid_rows = updated
        assignment = _oracle_nearest_medoids(features, medoid_rows)
        rounds.append((medoid_rows, assignment))
    return rounds


def _oracle(internet, n_units):
    """(medoid rows, assignment) per round, and the units."""
    blocks = internet.blocks
    features = RoutingAwareUnitBuilder()._features(internet)
    rounds = _oracle_rounds(features, internet.block_columns().demand,
                            _oracle_initial_medoids(blocks, n_units))
    medoid_rows, assignment = rounds[-1]
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

    demand = internet.block_columns().demand
    seeds = builder._initial_medoids(internet.blocks, demand, k)
    rounds = list(_lloyd_rounds(builder._features(internet), demand,
                                seeds))
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
    # 300 medoids span two of the oracle's 256-medoid chunks; the twins
    # of rows 106-149 sit in the second, so the earlier chunk must keep
    # the tie -- under any BLAS thread count.
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


# -- the incremental assignment against a full recompute -----------------

@st.composite
def _feature_matrices(draw):
    """Small whole-µs feature matrices, close values so distances tie
    often, with some rows copied to later rows as exact twins."""
    n_base = draw(st.integers(0, 14))
    columns = draw(st.integers(1, 4))
    base = draw(st.lists(
        st.lists(st.integers(0, 6), min_size=columns, max_size=columns),
        min_size=n_base, max_size=n_base))
    twins = draw(st.lists(st.integers(0, max(n_base - 1, 0)),
                          max_size=6 if n_base else 0))
    rows = base + [base[row] for row in twins]
    return np.asarray(rows, dtype=float).reshape(len(rows), columns)


def _medoid_steps(draw, n_blocks):
    """A seed medoid set and a few next sets, each moving a random
    subset of the last one out and random blocks in."""
    steps = []
    rows = set(draw(st.sets(st.integers(0, max(n_blocks - 1, 0)),
                            min_size=min(n_blocks, 1),
                            max_size=n_blocks)) if n_blocks else ())
    for _ in range(draw(st.integers(1, 5))):
        steps.append(np.asarray(sorted(rows), dtype=np.int64))
        out = draw(st.sets(st.sampled_from(sorted(rows)))) if rows else set()
        into = (draw(st.sets(st.integers(0, n_blocks - 1), max_size=4))
                if n_blocks else set())
        rows = (rows - out) | into or rows
    return steps


@settings(max_examples=300, deadline=None)
@given(features=_feature_matrices(), data=st.data(),
       chunk=st.sampled_from([1, 2, 5, 1 << 16]))
def test_incremental_assignment_equals_a_full_recompute(features, data,
                                                        chunk):
    """Random medoid sets moved by random subsets, with twins within
    and across block chunks of any size (a chunk of 1 puts every block
    in its own product), one block and none: each call equals the
    chunked full recompute and a fresh build's first call."""
    with mock.patch.object(routing, "ASSIGN_CHUNK", chunk):
        nearest = _NearestMedoids(features)
        for medoid_rows in _medoid_steps(data.draw, features.shape[0]):
            got = nearest(medoid_rows)
            assert np.array_equal(
                got, _oracle_nearest_medoids(features, medoid_rows))
            assert np.array_equal(
                got, _NearestMedoids(features)(medoid_rows))


@settings(max_examples=300, deadline=None)
@given(features=_feature_matrices(), data=st.data())
def test_incremental_rounds_equal_full_rounds(features, data):
    """Lloyd rounds that assign and update only what moved equal rounds
    recomputed in full, with zero-demand members and clusters."""
    n_blocks = features.shape[0]
    demand = np.asarray(data.draw(st.lists(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.25]),
        min_size=n_blocks, max_size=n_blocks)), dtype=float)
    seeds = _medoid_steps(data.draw, n_blocks)[0]
    rounds = list(_lloyd_rounds(features, demand, seeds))
    expected = _oracle_rounds(features, demand, seeds)
    assert len(rounds) == len(expected)
    for (medoids, assignment), (want_medoids, want_assignment) in zip(
            rounds, expected):
        assert np.array_equal(medoids, want_medoids)
        assert np.array_equal(assignment, want_assignment)


def test_a_moved_in_twin_below_the_kept_medoid_takes_the_tie():
    features = np.asarray([[0.0], [5.0], [5.0], [9.0]])
    nearest = _NearestMedoids(features)
    assert nearest(np.asarray([0, 2])).tolist() == [0, 1, 1, 1]
    # Row 1 moves in: it ties row 2, which stays, at every block that
    # row 2 held, and the lower row wins.
    assert nearest(np.asarray([0, 1, 2])).tolist() == [0, 1, 1, 1]
    assert nearest.best_row.tolist() == [0, 1, 1, 1]


def test_features_past_the_exact_bound_are_refused():
    # 4 x 24 columns x (2^24)^2 = 96 x 2^48 > 2^53: some partial sum of
    # a distance could round.
    with pytest.raises(ValueError, match=r"2\^53"):
        _NearestMedoids(np.full((3, 24), 2.0 ** 24))
    with pytest.raises(ValueError, match=r"2\^53"):
        list(_lloyd_rounds(np.full((3, 24), -(2.0 ** 24)), np.ones(3),
                           np.asarray([0])))
    # Whole-µs RTTs sit far inside the bound.
    _NearestMedoids(np.full((3, 24), 2.0 ** 21))
