"""The routing-aware build: partition invariants over generated and
synthetic Internets, and the Lloyd kernels against full recomputes.

A unit is a union of routed CIDRs, so the partition is checked by what
it must be, not against a previous build: every /24 of a CIDR sits in
that CIDR's unit, every CIDR in exactly one unit, demand is conserved,
a unit is keyed by one of its own CIDRs, and the partition is the same
across processes, BLAS thread counts and block orders.  The kernels do
not depend on what a row is: the incremental Lloyd rounds must equal
the straightforward full recompute kept below (one ``np.nonzero`` scan
per medoid slot, per-chunk temporaries with a strided ``argmin``)
round by round.  Synthetic Internets drive the edge paths: clusters
with no demand, twin CIDRs that lose every tie (within one distance
chunk and across two), one block, and none.
"""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.units import build_units, routing
from repro.core.units.routing import (
    RoutingAwareUnitBuilder,
    _Cidrs,
    _lloyd_rounds,
    _NearestMedoids,
)
from repro.net.ipv4 import Prefix
from repro.topology import InternetConfig, build_internet
from repro.topology.addressing import AddressAllocator, BGPTable
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


def assert_rounds_match_the_oracle(internet, n_units=None):
    """The build's Lloyd rounds over the Internet's CIDR rows,
    incremental, equal the full recompute round by round; returns the
    round count."""
    builder = RoutingAwareUnitBuilder()
    k = builder.default_units(internet) if n_units is None else n_units
    cidrs = _Cidrs(internet)
    features = builder._features(internet, cidrs.representative)
    seeds = builder._initial_medoids(cidrs.demand,
                                     max(1, min(k, len(cidrs))))
    rounds = list(_lloyd_rounds(features, cidrs.demand, seeds))
    expected = _oracle_rounds(features, cidrs.demand, seeds)
    assert len(rounds) == len(expected)
    for index, ((medoids, assignment), (want_medoids, want_assignment)) \
            in enumerate(zip(rounds, expected)):
        assert np.array_equal(medoids, want_medoids), index
        assert np.array_equal(assignment, want_assignment), index
    return len(rounds)


# -- the invariants ------------------------------------------------------

def _cidr_members(internet):
    """Covering CIDR text -> the set of its blocks' networks, found by
    a lookup in the BGP table, not through the builder's column."""
    members = {}
    for block in internet.blocks:
        cidr = str(internet.bgp.covering_cidr(block.prefix))
        members.setdefault(cidr, set()).add(block.prefix.network)
    return members


def assert_partition_invariants(internet, units, n_units=None):
    """Each unit a union of whole CIDRs keyed by one of them, each CIDR
    in exactly one unit, at most ``n_units`` units, demand conserved."""
    blocks = {block.prefix.network: block for block in internet.blocks}
    cidrs = _cidr_members(internet)
    cidr_of = {network: cidr for cidr, nets in cidrs.items()
               for network in nets}
    if n_units is not None:
        assert len(units) <= n_units
    seen = set()
    for unit in units:
        assert len(unit.networks) == len(unit.members) > 0, unit.key
        networks = set(unit.networks)
        assert len(networks) == len(unit.networks), unit.key
        assert not networks & seen, unit.key
        seen |= networks
        held = {cidr_of[network] for network in networks}
        # Every /24 of each CIDR the unit touches is in the unit.
        assert networks == set().union(*(cidrs[c] for c in held))
        assert unit.key in held
        members = [blocks[network] for network in unit.networks]
        assert unit.members == [(b.geo, b.demand) for b in members]
        assert unit.demand == pytest.approx(
            sum(b.demand for b in members), rel=1e-12, abs=0.0)
        by_asn = {}
        for block in members:
            by_asn[block.asn] = by_asn.get(block.asn, 0.0) + block.demand
        top = max(by_asn.values())
        assert by_asn[unit.asn] == pytest.approx(top, rel=1e-12, abs=0.0)
        assert unit.cohesion_rtt_ms >= 0.0
    assert seen == set(blocks)
    assert sum(unit.demand for unit in units) == pytest.approx(
        sum(block.demand for block in internet.blocks))


def partition_digest(units):
    """SHA-256 over each unit's key, networks, demand, AS and cohesion,
    floats by ``.hex()``."""
    lines = [f"{u.key} {u.asn} {u.demand.hex()} "
             f"{u.cohesion_rtt_ms.hex()} "
             + ",".join(map(str, u.networks)) for u in units]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


# -- worlds --------------------------------------------------------------

def _block_internet(blocks, like, bgp=None):
    """A duck-typed Internet over an explicit block list."""
    internet = _SlicedInternet(like, 0)
    internet.blocks = list(blocks)
    if bgp is not None:
        internet.bgp = bgp
    return internet


def _twins(internet, n_base):
    """The blocks of the first ``n_base`` CIDRs, then each of those
    CIDRs again at a fresh aligned prefix with copies of its blocks:
    every CIDR's feature row has an exact twin ``n_base`` rows on."""
    announcements = list(internet.bgp.announcements())
    rows = internet.block_columns().cidr.tolist()
    base_rows = sorted(set(rows))[:n_base]
    bgp = BGPTable()
    for ann in announcements:
        bgp.announce(ann.cidr, ann.asn)
    alloc = AddressAllocator((100 << 24) >> 8)
    base, copies = [], []
    for row in base_rows:
        cidr = announcements[row].cidr
        twin = alloc.allocate_chunk(1 << (24 - cidr.length))
        bgp.announce(twin, announcements[row].asn)
        for block, block_row in zip(internet.blocks, rows):
            if block_row == row:
                base.append(block)
                copies.append(dataclasses.replace(block, prefix=Prefix(
                    twin.network + block.prefix.network - cidr.network,
                    24)))
    return _block_internet(base + copies, internet, bgp)


@pytest.fixture(scope="module")
def internets():
    cache = {}

    def get(scale, seed):
        if (scale, seed) not in cache:
            cache[scale, seed] = build_internet(
                getattr(InternetConfig, scale)(), seed=seed)
        return cache[scale, seed]
    return get


def _assert_sound_build(internet, n_units=None):
    """The rounds against the oracle and the partition invariants;
    returns the units."""
    assert_rounds_match_the_oracle(internet, n_units)
    units = RoutingAwareUnitBuilder().build(internet, n_units=n_units)
    assert_partition_invariants(internet, units, n_units)
    return units


# -- cases ---------------------------------------------------------------

@pytest.mark.parametrize("scale", ["tiny", "small"])
@pytest.mark.parametrize("seed", [2014, 7])
@pytest.mark.parametrize("n_units", [1, 4, 16, 32, None])
def test_generated_worlds_match_the_oracle(internets, scale, seed,
                                           n_units):
    _assert_sound_build(internets(scale, seed), n_units)


def test_zero_demand_clusters_weigh_members_alike(internets):
    net = internets("tiny", 2014)
    blocks = [dataclasses.replace(block, demand=0.0)
              if block.continent in ("EU", "AF") else block
              for block in net.blocks]
    units = _assert_sound_build(_block_internet(blocks, net), 32)
    assert any(unit.demand == 0.0 for unit in units)
    assert any(unit.demand > 0.0 for unit in units)


def test_all_zero_demand(internets):
    net = internets("tiny", 7)
    blocks = [dataclasses.replace(block, demand=0.0)
              for block in net.blocks[:200]]
    units = _assert_sound_build(_block_internet(blocks, net), 16)
    assert all(unit.cohesion_rtt_ms == 0.0 for unit in units)


def _assert_twins_pair_up(net, n_base):
    units = _assert_sound_build(net, 2 * n_base)
    # Each twin pair seeds two medoids at one feature row; the later
    # one wins no CIDR and its empty slot makes no unit.
    assert len(units) == n_base
    cidrs = _cidr_members(net)
    for unit in units:
        held = [c for c, nets in cidrs.items() if nets & set(unit.networks)]
        assert len(held) == 2 and unit.key == min(
            held, key=lambda text: Prefix.parse(text).network)


def test_twin_medoid_loses_every_tie(internets):
    _assert_twins_pair_up(_twins(internets("tiny", 2014), 20), 20)


def test_twins_across_distance_chunks(internets):
    # 300 medoids span two of the oracle's 256-medoid chunks; the twins
    # of rows 106-149 sit in the second, so the earlier chunk must keep
    # the tie -- under any BLAS thread count.
    _assert_twins_pair_up(_twins(internets("tiny", 7), 150), 150)


def test_twins_under_fewer_medoids(internets):
    _assert_sound_build(_twins(internets("tiny", 7), 60), 24)


def test_one_block(internets):
    net = internets("tiny", 2014)
    units = _assert_sound_build(_block_internet(net.blocks[:1], net), 4)
    assert len(units) == 1
    assert units[0].key == str(net.bgp.covering_cidr(net.blocks[0].prefix))


def test_no_blocks(internets):
    net = internets("tiny", 2014)
    empty = _block_internet([], net)
    assert RoutingAwareUnitBuilder().build(empty) == []
    assert RoutingAwareUnitBuilder().build(empty, n_units=3) == []


def test_a_permuted_block_order_builds_the_same_units(internets):
    net = internets("tiny", 2014)
    shuffled = list(net.blocks)
    random.Random(3).shuffle(shuffled)
    for n_units in (16, None):
        want = RoutingAwareUnitBuilder().build(net, n_units=n_units)
        got = RoutingAwareUnitBuilder().build(
            _block_internet(shuffled, net), n_units=n_units)
        assert got == want
        assert [u.cohesion_rtt_ms for u in got] == (
            [u.cohesion_rtt_ms for u in want])


def test_one_unit_per_cidr_when_k_exceeds_the_cidrs(internets):
    net = internets("tiny", 2014)
    units = build_units("routing_aware:100000", net)
    assert len(units) == len(set(net.block_cidrs)) == 257
    assert_partition_invariants(net, units)
    assert all(unit.cohesion_rtt_ms == 0.0 for unit in units)
    # bgp_merged's /24 end is the same partition under "cidr:" keys.
    merged = build_units("bgp_merged", net, prefix_len=24)
    assert sorted((f"cidr:{u.key}", u.networks) for u in units) == sorted(
        (u.key, u.networks) for u in merged)


def test_one_pass_geometry_matches_each_units_own(internets):
    """The build's one-pass centroids and radii against each unit's
    lazy computation; one-member units keep their member's geo."""
    for spec in ("routing_aware", "routing_aware:100000"):
        for unit in build_units(spec, internets("small", 2014)):
            centroid, radius = unit.centroid(), unit.radius_miles()
            unit._centroid = unit._radius = None
            assert centroid.lat == pytest.approx(unit.centroid().lat,
                                                 abs=1e-9)
            assert centroid.lon == pytest.approx(unit.centroid().lon,
                                                 abs=1e-9)
            assert radius == pytest.approx(unit.radius_miles(), rel=1e-9)
            if len(unit.members) == 1:
                assert centroid == unit.members[0][0] and radius == 0.0


_DIGEST_SCRIPT = """
import sys
from repro.core.units import build_units
from repro.topology import InternetConfig, build_internet
from tests.test_routing_oracle import partition_digest
net = build_internet(InternetConfig.tiny(), seed=2014)
print(partition_digest(build_units("routing_aware", net)))
"""


@pytest.mark.parametrize("threads", ["1", None])
def test_the_same_partition_in_another_process(internets, threads):
    """A fresh process, pinned to one BLAS thread or not, builds the
    partition this one does."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(root))))
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env.pop(name, None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT], env=env,
                         capture_output=True, text=True, check=True)
    want = partition_digest(build_units("routing_aware",
                                        internets("tiny", 2014)))
    assert out.stdout.strip() == want


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
