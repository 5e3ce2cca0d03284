import bisect
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_graphs import edge_lists
from tests_support_pairs import cycle_dfs as _cycle_dfs
from turan_forge import rich_collections
from turan_forge.errors import InputError, IntegrityError, ResourceError
from turan_forge.generators import polarity_graph, random_graph
from turan_forge.graphs import build_graph
from turan_forge.matching import max_disjoint_edges
from turan_forge.rich_collections import (LabeledCollection, PruneAudit,
                                          _enumerate_cycles,
                                          _enumerate_paths, build_good_paths,
                                          build_rich_cycles, build_rich_paths,
                                          good_suffix_restriction,
                                          layered_good_paths,
                                          layered_rich_cycles,
                                          layered_rich_paths, replay_audit,
                                          verify_collection)


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


K6 = complete(6)
K44 = complete_bipartite(4, 4)
C6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])


def all_labeled_paths(g, k):
    out = set()
    for tup in itertools.permutations(list(g.vertices()), k):
        if all(g.has_edge(a, b) for a, b in zip(tup, tup[1:])):
            out.add(tup)
    return out


def test_rich_paths_k6():
    coll, audit = build_rich_paths(K6, 3, 4)
    assert len(coll) == 120
    ok, ce = verify_collection(coll, K6, 4)
    assert ok, ce
    coll5, audit5 = build_rich_paths(K6, 3, 5)
    assert len(coll5) == 0 and audit5.entries


def test_rich_paths_audit_replays():
    seed = all_labeled_paths(K6, 3)
    for alpha in (4, 5):
        coll, audit = build_rich_paths(K6, 3, alpha)
        assert replay_audit(seed, audit, "path", 3) == set(coll.iter_members())


def test_rich_paths_edgeless_and_errors():
    coll, _ = build_rich_paths(build_graph(5, []), 3, 1)
    assert len(coll) == 0
    with pytest.raises(InputError):
        build_rich_paths(K6, 2, 1)
    with pytest.raises(ResourceError):
        build_rich_paths(K6, 3, 4, cap=10)


def test_rich_cycles_examples():
    coll, audit = build_rich_cycles(K44, 2, 2)
    assert len(coll) == 36
    ok, ce = verify_collection(coll, K44, 2)
    assert ok, ce
    # fills include the vertex currently in place
    m = coll.first_member()
    assert len(coll.fills(m, 0)) == 3
    empty, _ = build_rich_cycles(polarity_graph(3), 2, 1)
    assert len(empty) == 0
    one, _ = build_rich_cycles(C6, 3, 1)
    assert len(one) == 1
    gone, audit = build_rich_cycles(C6, 3, 2)
    assert len(gone) == 0 and audit.entries


def test_rich_cycles_audit_replays():
    seeds = set()
    for sub in itertools.permutations(range(8), 4):
        if all(K44.has_edge(sub[i], sub[(i + 1) % 4]) for i in range(4)):
            canon = min(sub[r:] + sub[:r]
                        for s in (sub, sub[::-1]) for r in range(4)
                        for sub in (s,))
            seeds.add(canon)
    coll, audit = build_rich_cycles(K44, 2, 4)
    assert replay_audit(seeds, audit, "cycle", 4) == set(coll.iter_members())


def test_collection_membership_and_labelings():
    coll, _ = build_rich_cycles(K44, 2, 2)
    m = coll.first_member()
    # all rotations and reflections answer membership
    for s in (m, m[::-1]):
        for r in range(4):
            assert (s[r:] + s[:r]) in coll
    assert (0, 1, 2, 3) not in coll


def test_monotone_membership():
    coll, _ = build_rich_paths(K6, 3, 4)
    seed = all_labeled_paths(K6, 3)
    assert set(coll.iter_members()) <= seed


def test_index_consistency_rebuild():
    coll, _ = build_rich_cycles(K44, 2, 2)
    rebuilt = LabeledCollection.from_members("cycle", 4, coll.iter_members(),
                                             alpha=2)
    assert set(map(tuple, rebuilt.members.tolist())) == \
        set(map(tuple, coll.members.tolist()))
    for m in coll.iter_members():
        for pos in range(4):
            assert coll.fills(m, pos) == rebuilt.fills(m, pos)


def test_serialization_roundtrip(tmp_path):
    coll, _ = build_rich_paths(K6, 3, 4)
    text = coll.to_text()
    assert text.splitlines()[0] == "path 3 120"
    back = LabeledCollection.from_text(text)
    assert set(back.iter_members()) == set(coll.iter_members())
    assert back.alpha == 4
    good = LabeledCollection.from_members("path", 4, [(0, 1, 2, 3)],
                                          good=True, alpha=1)
    assert good.to_text().splitlines()[0] == "good-path 4 1"
    back = LabeledCollection.from_text(good.to_text())
    assert back.good and back.length == 4


def test_good_paths_case1_k88():
    k88 = complete_bipartite(8, 8)
    coll, audit, case = build_good_paths(k88, 1, 4, 16.0, 64.0)
    assert case == 1 and len(coll) == 2 * 8 * 8 * 7
    ok, ce = verify_collection(coll, k88, 4)
    assert ok, ce


def test_good_paths_case2_c6_empty():
    coll, audit, case = build_good_paths(C6, 1, 2, 0.5, 4.0)
    assert case == 2 and len(coll) == 0
    assert audit.diagnostics["cherries"] == 12


def test_good_paths_case2_runs_deletions():
    # K_{6,6} with C below the codegree forces Case 2 through the pivot
    k66 = complete_bipartite(6, 6)
    coll, audit, case = build_good_paths(k66, 1, 2, 3.0, 4.0)
    assert case == 2
    ok, ce = verify_collection(coll, k66, 2)
    assert ok, ce


def test_good_paths_edgeless():
    coll, _, _ = build_good_paths(build_graph(4, []), 1, 2, 1.0, 4.0)
    assert len(coll) == 0


def test_good_suffix_restriction():
    k88 = complete_bipartite(8, 8)
    coll, _, _ = build_good_paths(k88, 1, 4, 16.0, 64.0)
    restricted, v = good_suffix_restriction(coll)
    assert restricted.length == 2 and restricted.good
    assert all(m[-1] != v for m in restricted.iter_members())
    ok, ce = verify_collection(restricted, k88, 4)
    assert ok, ce


def test_verify_collection_counterexamples():
    singleton = LabeledCollection.from_members("path", 3, [(0, 1, 2)])
    ok, ce = verify_collection(singleton, K6, 2)
    assert not ok and ce["fills"] == 1
    bad_edge = LabeledCollection.from_members("path", 3, [(0, 1, 2)])
    host = build_graph(3, [(0, 1)])
    ok, ce = verify_collection(bad_edge, host, 1)
    assert not ok and "missing edge" in ce["reason"]


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 5))
def test_rich_path_fixpoint_property(seed, alpha):
    g = random_graph(9, 0.55, seed)
    coll, audit = build_rich_paths(g, 3, alpha)
    ok, ce = verify_collection(coll, g, alpha)
    assert ok, ce
    seed_paths = all_labeled_paths(g, 3)
    assert set(coll.iter_members()) <= seed_paths
    assert replay_audit(seed_paths, audit, "path", 3) == set(coll.iter_members())


def test_layered_constructors_verified():
    g = random_graph(240, 0.85, 11, bipartite=True)
    paths = layered_rich_paths(g, 5, 9, seed=2)
    assert len(paths) > 0
    ok, ce = verify_collection(paths, g, 9)
    assert ok, ce
    cycles = layered_rich_cycles(g, 2, 8, seed=2)
    assert len(cycles) > 0
    ok, ce = verify_collection(cycles, g, 8)
    assert ok, ce
    good = layered_good_paths(g, 3, 12, seed=2)
    assert len(good) > 0
    ok, ce = verify_collection(good, g, 12)
    assert ok, ce


def test_layered_deterministic():
    g = random_graph(150, 0.9, 4, bipartite=True)
    a = layered_rich_cycles(g, 2, 6, seed=5)
    b = layered_rich_cycles(g, 2, 6, seed=5)
    assert a.members.tolist() == b.members.tolist()


def test_layered_builders_on_degenerate_hosts():
    # one vertex: no pair to sample a density from; star: no second
    # endpoint on the centre's side for k = 5
    one = build_graph(1, [])
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    for g in (one, star, build_graph(0, [])):
        paths = layered_rich_paths(g, 5, 2, seed=0)
        assert len(paths) == 0 and paths.members.shape == (0, 5)
        assert len(layered_rich_cycles(g, 2, 2, seed=0)) == 0
        assert len(layered_good_paths(g, 2, 2, seed=0)) == 0


# -- array fast paths against their references, on small and tombstoned hosts

def _host(args):
    (n, edges), victims, tombstoned = args
    g = build_graph(n, edges)
    if tombstoned:
        g = g.remove(vertices=victims, edges=list(g.edges())[::3])
    return g


hosts = st.tuples(edge_lists, st.sets(st.integers(0, 3), max_size=2),
                  st.booleans()).map(_host)


def _rows(tuples, width):
    return np.array(sorted(tuples), dtype=np.uint32).reshape(-1, width)


def _cycle_key(m, j):
    rest = m[j + 1:] + m[:j]
    return min(rest, rest[::-1])


def naive_fixpoint(members, kind, length, alpha):
    """Drop every member of a signature group smaller than alpha, repeat."""
    positions = range(1, length - 1) if kind == "path" else range(length)
    members = set(members)
    while True:
        groups: dict = {}
        for m in members:
            for j in positions:
                key = ((j, m[:j] + m[j + 1:]) if kind == "path"
                       else _cycle_key(m, j))
                groups.setdefault(key, set()).add(m)
        doomed = set().union(*(grp for grp in groups.values()
                               if len(grp) < alpha))
        if not doomed:
            return members
        members -= doomed


@settings(max_examples=60, deadline=None)
@given(hosts)
def test_cycle_enumerator_matches_dfs(g):
    for ell in (2, 3):
        rows = _enumerate_cycles(g, ell, 10 ** 6)
        assert rows.dtype == np.uint32
        expect = np.array(list(_cycle_dfs(g, 2 * ell)), dtype=np.uint32)
        assert np.array_equal(rows, expect.reshape(-1, 2 * ell))


@settings(max_examples=40, deadline=None)
@given(hosts, st.integers(3, 4), st.sampled_from([None, 0, 1, 2]))
def test_path_enumerator_matches_permutations(g, k, bound):
    expect = [p for p in itertools.permutations(list(g.vertices()), k)
              if all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
              and (bound is None or all(g.codegree(p[i], p[i + 2]) <= bound
                                        for i in range(k - 2)))]
    rows = _enumerate_paths(g, k, 10 ** 6, second_codegree_max=bound)
    assert np.array_equal(rows, _rows(expect, k))


@pytest.mark.parametrize("join_rows", [8, 1 << 20])
def test_enumerators_in_chunks_and_capped(monkeypatch, join_rows):
    g = random_graph(30, 0.5, 3, bipartite=True)
    expect = (np.array(list(_cycle_dfs(g, 4)), dtype=np.uint32),
              _rows(all_labeled_paths(g, 4), 4))
    monkeypatch.setattr(rich_collections, "_JOIN_ROWS", join_rows)
    assert np.array_equal(_enumerate_cycles(g, 2, 10 ** 6), expect[0])
    assert np.array_equal(_enumerate_paths(g, 4, 10 ** 6), expect[1])
    k6 = complete(6)
    assert len(_enumerate_cycles(k6, 2, 45)) == 45
    with pytest.raises(ResourceError):
        _enumerate_cycles(k6, 2, 44)
    assert len(_enumerate_paths(k6, 3, 120)) == 120
    with pytest.raises(ResourceError):
        _enumerate_paths(k6, 3, 119)


@settings(max_examples=40, deadline=None)
@given(hosts, st.integers(1, 4))
# the path 1-0-3-2: its two signatures pack to one code unless the base of
# path signatures, whose blank is 0 and vertex v is v + 1, is n + 1
@example(build_graph(4, [(1, 0), (0, 3), (3, 2)]), 2)
def test_rich_builders_match_naive_fixpoint_and_replay(g, alpha):
    for k in (3, 4):
        seed = all_labeled_paths(g, k)
        coll, audit = build_rich_paths(g, k, alpha)
        final = naive_fixpoint(seed, "path", k, alpha)
        assert np.array_equal(coll.members, _rows(final, k))
        assert replay_audit(seed, audit, "path", k) == final
        assert audit.diagnostics == {"seed": len(seed), "final": len(final)}
    for ell in (2, 3):
        seed = set(_cycle_dfs(g, 2 * ell))
        coll, audit = build_rich_cycles(g, ell, alpha)
        final = naive_fixpoint(seed, "cycle", 2 * ell, alpha)
        assert np.array_equal(coll.members, _rows(final, 2 * ell))
        assert replay_audit(seed, audit, "cycle", 2 * ell) == final
        assert all(tag == "rich" and 0 < cnt < alpha
                   for tag, _, cnt in audit.entries)


@settings(max_examples=40, deadline=None)
@given(hosts, st.randoms(use_true_random=False))
def test_collection_from_unsorted_rows(g, rnd):
    paths = _rows(all_labeled_paths(g, 3), 3)
    cycles = _rows(_cycle_dfs(g, 4), 4)
    for kind, rows in (("path", paths), ("cycle", cycles)):
        width = rows.shape[1]
        ref = LabeledCollection(kind, width, rows, alpha=1)
        messy = []
        for row in rows.tolist() * 2:
            if kind == "cycle":  # any rotation, either direction
                r = rnd.randrange(width)
                row = row[r:] + row[:r]
                if rnd.random() < 0.5:
                    row = row[::-1]
            messy.append(row)
        rnd.shuffle(messy)
        coll = LabeledCollection(kind, width,
                                 np.array(messy, dtype=np.int64).reshape(-1, width),
                                 alpha=1)
        assert np.array_equal(coll.members, ref.members)
        probes = messy + [tuple(rnd.randrange(g.n) for _ in range(width))
                          for _ in range(20)]
        stored = set(map(tuple, rows.tolist()))
        for m in probes:
            m = tuple(m)
            canon = m if kind == "path" else min(
                s[r:] + s[:r] for s in (m, m[::-1]) for r in range(width))
            assert (m in coll) == (m in ref) == (canon in stored)
            for pos in (range(width) if kind == "cycle" else range(1, width - 1)):
                assert coll.fills(m, pos) == ref.fills(m, pos)
        for m in ref.iter_members():
            assert m in coll


# -- goodness: the pair-group predicate, the good prune and verification

def test_verify_good_collection_keys_groups_by_pair_position():
    # the position-1 signature (0, 10, 40, 50) of a C2 member equals the
    # position-2 signature of C1 members, whose group has a 2-matching
    sides = ([0, 20, 21, 40, 41, 70, 71], [10, 11, 30, 31, 50, 60])
    g = build_graph(72, [(a, b) for a in sides[0] for b in sides[1]])
    c1 = itertools.product([0], [10, 11], [20, 21], [30, 31], [40, 41], [50])
    c2 = itertools.product([0], [60], [70, 71], [10, 11], [40, 41], [50])
    coll = LabeledCollection.from_members("path", 6, list(c1) + list(c2),
                                          good=True, alpha=2)
    assert len(coll.pair_fills((0, 60, 70, 10, 40, 50), 1)) == 2
    ok, ce = verify_collection(coll, g, 2)
    assert not ok
    assert ce == {"member": (0, 60, 70, 10, 40, 50), "pair_position": 1,
                  "matching": 1}


def _pair_group_rows(groups):
    """Rows (100 + i, first, second, 200), group i at pair position 1.
    Bipartite groups draw firsts from 10.. and seconds from 30..; the
    others draw both from 10.., so a fill can be a first and a second."""
    rows = set()
    for i, (overlap, pairs) in enumerate(groups):
        for a, b in pairs:
            if not (overlap and a == b):
                rows.add((100 + i, 10 + a, (10 if overlap else 30) + b, 200))
    return _rows(rows, 4)


def _pair_index(rows, alive):
    """The pair index of the rows at pair position 1, with the dead rows
    left, as the deletion engine leaves them."""
    grp = rich_collections._PairIndex(rows, 1, int(rows.max()) + 1)
    grp.leave(np.flatnonzero(~alive))
    return grp


def _matching(pairs):
    pairs = [tuple(p) for p in pairs]
    return max_disjoint_edges(pairs, {a for a, _ in pairs},
                              {b for _, b in pairs})


# a triangle (not bipartite: one matching edge, though every fill has
# degree 1 as a first and as a second); a 2-vertex cover with 3 firsts,
# 3 seconds, 4 pairs and maximum degree 2; a perfect 3-matching
_TRIANGLE = (True, [(1, 2), (2, 3), (3, 1)])
_COVERED = (False, [(1, 2), (1, 3), (2, 1), (3, 1)])
_PERFECT = (False, [(0, 0), (1, 1), (2, 2)])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.booleans(),
                          st.lists(st.tuples(st.integers(0, 5),
                                             st.integers(0, 5)),
                                   min_size=1, max_size=24)),
                min_size=1, max_size=5),
       st.integers(1, 6), st.integers(0, 2 ** 64 - 1))
@example([_TRIANGLE], 2, 2 ** 64 - 1)
@example([_COVERED], 3, 2 ** 64 - 1)
@example([_PERFECT], 3, 2 ** 64 - 1)
def test_pair_group_predicate_matches_matching(groups, alpha, bits):
    rows = _pair_group_rows(groups)
    assume(len(rows))
    alive = np.array([bits >> (i % 64) & 1 for i in range(len(rows))],
                     dtype=bool)
    grp = _pair_index(rows, alive)
    failing = (grp.groups.live > 0) & grp.unmatched(alive, alpha)
    sigs = sorted({(r[0], r[3]) for r in rows.tolist()})  # pair signatures
    assert failing.shape == (len(sigs),)
    for g, (a, b) in enumerate(sigs):
        live = rows[alive & (rows[:, 0] == a) & (rows[:, 3] == b)]
        good = len(_matching(live[:, 1:3])) >= alpha
        assert failing[g] == (len(live) > 0 and not good)


def test_pair_group_predicate_routes(monkeypatch):
    calls = []

    def counted(edges, left, right):
        calls.append(edges)
        return max_disjoint_edges(edges, left, right)

    monkeypatch.setattr(rich_collections, "max_disjoint_edges", counted)
    hexagon = (True, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    groups = [(False, [(0, 0), (1, 1)]),  # 2 pairs: fails by the upper bound
              _PERFECT,  # ceil(3 / 1) >= 3: passes by the lower bound
              _COVERED,  # matching 2, between the bounds
              _TRIANGLE,  # matching 1, not bipartite
              hexagon,  # matching 3, not bipartite
              (False, [(0, 0), (1, 1), (2, 2), (0, 3)])]
    rows = _pair_group_rows(groups)
    # with (2, 2) dead the last group has 2 live firsts: the upper bound
    alive = ~((rows[:, 0] == 105) & (rows[:, 1] == 12))
    grp = _pair_index(rows, alive)
    failing = (grp.groups.live > 0) & grp.unmatched(alive, 3)
    assert failing.tolist() == [True, False, True, True, False, True]
    assert grp.bipartite.tolist() == [True, True, True, False, False, True]
    assert len(calls) == 3


def naive_good_fixpoint(members, length, alpha):
    """Drop every member of a pair-signature group whose fill edges admit
    no alpha disjoint edges, repeat."""
    members = set(members)
    while True:
        groups: dict = {}
        for m in members:
            for j in range(1, length - 2):
                groups.setdefault((j, m[:j] + m[j + 2:]), set()).add(m)
        doomed = set()
        for (j, _), grp in groups.items():
            if len(_matching([(m[j], m[j + 1]) for m in grp])) < alpha:
                doomed |= grp
        if not doomed:
            return members
        members -= doomed


def first_bad_pair(members, length, alpha):
    groups: dict = {}
    for m in members:
        for j in range(1, length - 2):
            groups.setdefault((j, m[:j] + m[j + 2:]), []).append((m[j], m[j + 1]))
    for m in sorted(members):
        for j in range(1, length - 2):
            size = len(_matching(groups[(j, m[:j] + m[j + 2:])]))
            if size < alpha:
                return m, j, size
    return None


def _two_sided(args):
    """The host of ``hosts`` keeping only edges between even and odd ids."""
    (n, edges), victims, tombstoned = args
    return _host(((n, [e for e in edges if (e[0] + e[1]) % 2]), victims,
                  tombstoned))


good_hosts = st.one_of(
    hosts, st.tuples(edge_lists, st.sets(st.integers(0, 3), max_size=2),
                     st.booleans()).map(_two_sided))


# needs two rounds at alpha = 2 and keeps 16 of its 312 five-vertex paths
_CASCADE = _host(((7, [(0, 2), (0, 3), (1, 2), (1, 4), (1, 5), (1, 6), (2, 3),
                       (2, 4), (2, 5), (3, 5), (3, 6), (4, 6), (5, 6)]),
                  set(), False))


@settings(max_examples=40, deadline=None)
@given(good_hosts, st.integers(1, 4))
@example(_CASCADE, 2)
def test_good_prune_matches_naive_fixpoint_and_verify(g, alpha):
    for k in (4, 5, 6):
        rows = _enumerate_paths(g, k, 10 ** 6)
        seed = set(map(tuple, rows.tolist()))
        final = naive_good_fixpoint(seed, k, alpha)
        pruned = rich_collections._np_prune_good(rows, alpha)[0]
        assert np.array_equal(pruned, _rows(final, k))
        coll = LabeledCollection("path", k, rows, good=True, alpha=alpha)
        ok, ce = verify_collection(coll, g, alpha)
        bad = first_bad_pair(seed, k, alpha)
        assert ok == (bad is None)
        if bad is not None:
            assert ce == {"member": bad[0], "pair_position": bad[1],
                          "matching": bad[2]}
        assert verify_collection(LabeledCollection(
            "path", k, pruned, good=True, alpha=alpha), g, alpha) == (True, None)


def test_good_paths_integrity_error_names_first_bad_pair(monkeypatch):
    # without the case-1 deletions the seed of K_{4,4} is not 3-good
    k44 = complete_bipartite(4, 4)
    monkeypatch.setattr(rich_collections, "_case1_rules", lambda *args: [])
    seed = all_labeled_paths(k44, 5)
    m, j, size = first_bad_pair(seed, 5, 3)
    with pytest.raises(IntegrityError) as err:
        build_good_paths(k44, 2, 3, 16.0, 64.0)
    assert str(err.value) == (
        f"good-path fixpoint is not 3-good: member {m} pair position {j} "
        f"only supports {size} disjoint fills")


def naive_case_fixpoint(members, length, case, threshold):
    """Delete every class that a rule of the good-path case fails, repeat.
    Case 1: a pair class with at most threshold fill edges.  Case 2: an odd
    position with at most threshold fills (type 1), an odd pair position
    with at most threshold distinct second fills (type 2), an even pair
    position with at most threshold distinct first fills (type 3)."""
    members = set(members)
    while True:
        classes: dict = {}
        for m in members:
            counted = []
            for j in range(1, length - 2):
                fill = ((m[j], m[j + 1]) if case == 1
                        else m[j + 1] if j % 2 else m[j])
                counted.append(((j, m[:j] + m[j + 2:]), fill))
            if case == 2:
                counted += [((j, m[:j] + (None,) + m[j + 1:]), m[j])
                            for j in range(1, length - 1, 2)]
            for key, fill in counted:
                fills, grp = classes.setdefault(key, (set(), set()))
                fills.add(fill)
                grp.add(m)
        doomed = set().union(*(grp for fills, grp in classes.values()
                               if len(fills) <= threshold))
        if not doomed:
            return members
        members -= doomed


# the case-1 fixpoint takes 4 rounds at threshold 2 and keeps 164 of 428
# five-vertex paths; the case-2 fixpoint takes 4 rounds at threshold 1
_CASE1_CASCADE = _host(((7, [(0, 1), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3),
                             (1, 6), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4),
                             (3, 6), (5, 6)]), set(), False))
_CASE2_CASCADE = _host(((7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                             (1, 4), (1, 6), (2, 3), (2, 4), (2, 5), (2, 6),
                             (3, 5), (4, 5), (5, 6)]), set(), False))


@settings(max_examples=40, deadline=None)
@given(good_hosts, st.integers(0, 5), st.sampled_from([None, 1, 2]))
@example(_CASE1_CASCADE, 2, None)
@example(_CASE2_CASCADE, 1, None)
def test_good_case_fixpoints_match_naive_and_replay(g, threshold, bound):
    for k in (1, 2):
        length = 2 * k + 1
        rows = _enumerate_paths(g, length, 10 ** 6, second_codegree_max=bound)
        seed = set(map(tuple, rows.tolist()))
        for case, rules in ((1, rich_collections._case1_rules),
                            (2, rich_collections._case2_rules)):
            alive, entries = rich_collections._prune_case(
                rows, rules(rows, threshold))
            final = naive_case_fixpoint(seed, length, case, threshold)
            assert np.array_equal(rows[alive], _rows(final, length))
            assert replay_audit(seed, PruneAudit(entries), "path",
                                length) == final
            tags = {"pair"} if case == 1 else {"type1", "type2", "type3"}
            assert all(tag in tags and cnt > 0 for tag, _, cnt in entries)


# -- the deletion engine, round by round, against a naive recount

def _round_specs(rows, kind, param):
    """The engine's rules of one kind over the rows, and for each a naive
    spec (signature of a member at a position, its positions, whether a
    class of live members fails)."""
    L = rows.shape[1]
    base = int(rows.max()) + 1
    rc = rich_collections

    def blank(j):
        return lambda m, _: m[:j] + (None,) + m[j + 1:]

    def pair(j):
        return lambda m, _: (j,) + m[:j] + m[j + 2:]

    def at_most(count):
        return lambda grp: count(grp) <= param

    if kind == "path":
        return [(rc._count_rule(rc._Index(rows, "path", j, 1, base), param),
                 (blank(j), [0], at_most(len))) for j in range(1, L - 1)]
    if kind == "cycle":
        return [(rc._count_rule(rc._Index(rows, "cycle", 0, 1, base), param),
                 (_cycle_key, range(L), at_most(len)))]
    if kind == "pair":
        return [(rc._pair_rule(ix, param), (pair(j), [0], lambda grp, j=j: len(
            _matching([m[j:j + 2] for m in grp])) < param))
                for j, ix in rc._pair_indexes(rows, base).items()]
    rules = (rc._case1_rules if kind == "case1" else rc._case2_rules)(
        rows, param)
    specs = {"pair": lambda j: (pair(j), [0], at_most(len)),
             "type1": lambda j: (blank(j), [0], at_most(len)),
             "type2": lambda j: (pair(j), [0], at_most(
                 lambda grp: len({m[j + 1] for m in grp}))),
             "type3": lambda j: (pair(j), [0], at_most(
                 lambda grp: len({m[j] for m in grp})))}
    return [(rule, specs[tag](j)) for tag, j, rule in rules]


def _naive_rounds(members, specs):
    """Each round's failing classes {signature: live size} per spec, from a
    recount over the live members, and the live members at the end."""
    live, rounds = set(members), []
    while True:
        failed = []
        for key, positions, fails in specs:
            classes: dict = {}
            for m in live:
                for p in positions:
                    classes.setdefault(key(m, p), []).append(m)
            failed.append({sig: len(grp) for sig, grp in classes.items()
                           if fails(grp)})
        if not any(failed):
            return live, rounds
        rounds.append(failed)
        live -= {m for (key, positions, _), bad in zip(specs, failed)
                 for m in live for p in positions if key(m, p) in bad}


# the rich 4-vertex path fixpoint at alpha = 2 takes 7 rounds and keeps
# 582 of 908 paths
_SEVEN_ROUNDS = _host(((11, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 6), (0, 7),
                             (0, 8), (0, 9), (1, 3), (1, 4), (1, 6), (1, 7),
                             (1, 8), (1, 10), (2, 9), (3, 4), (3, 8), (3, 9),
                             (4, 5), (4, 6), (4, 10), (5, 6), (5, 8), (5, 10),
                             (7, 8), (7, 9), (7, 10)]), set(), False))


@pytest.mark.parametrize("lexsorted", [False, True])
@settings(max_examples=30, deadline=None)
@given(good_hosts, st.integers(1, 3))
@example(_CASCADE, 2)
@example(_SEVEN_ROUNDS, 2)
@example(_CASE1_CASCADE, 2)
@example(_CASE2_CASCADE, 1)
def test_fixpoint_rounds_match_a_naive_recount(lexsorted, g, param):
    seeds = {"path": _enumerate_paths(g, 4, 10 ** 6),
             "cycle": _enumerate_cycles(g, 2, 10 ** 6),
             "pair": _enumerate_paths(g, 5, 10 ** 6)}
    seeds["case1"] = seeds["case2"] = seeds["pair"]
    with pytest.MonkeyPatch.context() as mp:
        if lexsorted:  # every base**width passes the limit: the lexsort keys
            mp.setattr(rich_collections, "_PACK_LIMIT", 1)
        for kind, rows in seeds.items():
            if not len(rows):
                continue
            threshold = param - 1 if kind in ("path", "cycle") else param
            rules, specs = zip(*_round_specs(rows, kind, threshold))
            for ix, _ in rules:
                assert ix.keys.ndim == (2 if lexsorted else 1)
            m = len(rows)
            alive, rounds = rich_collections._fixpoint(m, list(rules))
            got = [[{spec[0](tuple(rows[r % m].tolist()), r // m): size
                     for r, size in zip(ix.first(ids).tolist(), sizes.tolist())}
                    for (ix, _), spec, (ids, sizes) in zip(rules, specs, failed)]
                   for failed in rounds]
            live, expect = _naive_rounds(map(tuple, rows.tolist()), specs)
            assert got == expect
            if g is _SEVEN_ROUNDS and kind == "path":
                assert (len(rounds), len(live)) == (7, 582)
            assert set(map(tuple, rows[alive].tolist())) == live


def test_fixpoint_with_stale_counts_raises():
    # counts that never fall leave a failing group with no live member
    rows = _enumerate_paths(_SEVEN_ROUNDS, 4, 10 ** 6)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rich_collections._Index, "leave", lambda self, rows: None)
        with pytest.raises(IntegrityError, match="no live member"):
            rich_collections._np_prune_rich(rows, "path", 4, 2)


@settings(max_examples=60, deadline=None)
@given(hosts, st.integers(1, 4))
@example(random_graph(9, 0.5, 1), 2)
def test_pivot_paths_match_permutations(g, c_thresh):
    pivot = max(g.vertices(), key=g.degree, default=None)
    assume(pivot is not None)
    others = [v for v in g.vertices() if v != pivot]
    for k in (1, 2):
        expect = [p for p in itertools.permutations(others, 2 * k + 1)
                  if all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                  and all(g.has_edge(pivot, p[i]) for i in range(0, 2 * k + 1, 2))
                  and all(g.codegree(p[i - 2], p[i]) > c_thresh
                          for i in range(2, 2 * k + 1, 2))]
        rows = rich_collections._enumerate_pivot_paths(g, pivot, k, c_thresh,
                                                       10 ** 6)
        assert np.array_equal(rows, _rows(expect, 2 * k + 1))


def test_good_paths_case2_weights_and_audit():
    g = random_graph(14, 0.8, 3, bipartite=True)
    coll, audit, case = build_good_paths(g, 2, 1, 4.0, 10 ** 6)
    assert case == 2 and 0 < len(coll) < audit.diagnostics["seed"]
    pivot = audit.diagnostics["pivot"]
    seed = set(map(tuple, rich_collections._enumerate_pivot_paths(
        g, pivot, 2, 4.0, 10 ** 6).tolist()))

    def weight(members):
        return math.fsum(1.0 / g.codegree(m[0], m[2]) / g.codegree(m[2], m[4])
                         for m in members)

    assert audit.diagnostics["seed_weight"] == weight(seed)
    assert audit.diagnostics["final_weight"] == weight(coll.iter_members())
    assert replay_audit(seed, audit, "path", 5) == set(coll.iter_members())
    ok, ce = verify_collection(coll, g, 1)
    assert ok, ce


# -- the packed signature index against a naive dict, packed and lexsorted

def _index_oracle(kind, good, members):
    """(position, signature) -> ascending fills, from the members alone."""
    L = len(members[0]) if members else 0
    index: dict = {}
    for m in members:
        if kind == "cycle":
            for j in range(L):
                index.setdefault((0, _cycle_key(m, j)), []).append(m[j])
        elif good:
            for j in range(1, L - 2):
                index.setdefault((j, m[:j] + m[j + 2:]), []).append(m[j:j + 2])
        else:
            for j in range(1, L - 1):
                index.setdefault((j, m[:j] + m[j + 1:]), []).append(m[j])
    return {key: sorted(fills) for key, fills in index.items()}


def _check_index(coll, members, probes):
    kind, L = coll.kind, coll.length
    index = _index_oracle(kind, coll.good, members)
    stored = set(members)
    for m in probes:
        if kind == "cycle":
            assert (m in coll) == (_canon(m) in stored)
            for j in range(L):
                seq = m[j + 1:] + m[:j]
                expect = index.get((0, min(seq, seq[::-1])), [])
                assert coll.fills(m, j) == expect
                assert coll.fills_for_open_path(seq) == expect
        elif coll.good:
            assert (m in coll) == (m in stored)
            for j in range(1, L - 2):
                assert coll.pair_fills(m, j) == index.get(
                    (j, m[:j] + m[j + 2:]), [])
        else:
            assert (m in coll) == (m in stored)
            for j in range(1, L - 1):
                assert coll.fills(m, j) == index.get((j, m[:j] + m[j + 1:]), [])


def _canon(m):
    return min(s[r:] + s[:r] for s in (m, m[::-1]) for r in range(len(m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 8), st.integers(0, 40), st.sampled_from([np.uint32, np.int64]),
       st.randoms(use_true_random=False))
def test_canon_cycles_matches_least_rotation_or_reflection(width, count, dtype,
                                                           rnd):
    rows = np.array([rnd.sample(range(3 * width), width) for _ in range(count)],
                    dtype=dtype).reshape(count, width)
    got = rich_collections._canon_cycles_np(rows)
    assert got.dtype == rows.dtype
    assert [tuple(r) for r in got.tolist()] == [_canon(tuple(r))
                                                for r in rows.tolist()]


@settings(max_examples=40, deadline=None)
@given(good_hosts, st.booleans(), st.randoms(use_true_random=False))
@example(_CASCADE, True, random.Random(0))
def test_index_matches_naive_dict(g, lexsorted, rnd):
    collections = [("path", False, _enumerate_paths(g, k, 10 ** 6)) for k in (3, 4)]
    collections += [("path", True, _enumerate_paths(g, k, 10 ** 6)) for k in (4, 5)]
    collections += [("cycle", False, _enumerate_cycles(g, ell, 10 ** 6))
                    for ell in (2, 3)]
    with pytest.MonkeyPatch.context() as mp:
        if lexsorted:  # every base**width passes the limit: the lexsort keys
            mp.setattr(rich_collections, "_PACK_LIMIT", 1)
        for kind, good, rows in collections:
            width = rows.shape[1]
            coll = LabeledCollection(kind, width, rows, good=good, alpha=1)
            members = list(map(tuple, rows.tolist()))
            probes = [m for m in members if rnd.random() < 0.5]
            probes += [p[r:] + p[:r] for p in probes[:5] for r in range(width)]
            probes += [tuple(rnd.randrange(g.n + 2) for _ in range(width))
                       for _ in range(10)]
            _check_index(coll, members, probes)
            for key in coll._keys.values():  # lexsorted: one row per column
                assert key.ndim == (2 if lexsorted else 1)
                assert not lexsorted or key.shape[0] == width


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6).flatmap(lambda w: st.tuples(st.just(w), st.lists(
    st.lists(st.integers(0, 7), min_size=w, max_size=w), max_size=30))),
    st.lists(st.integers(0, 7), min_size=6, max_size=6))
def test_grouping_same_packed_and_lexsorted(data, probe):
    width, rows = data
    rows = np.array(rows, dtype=np.uint32).reshape(-1, width)
    out = {}
    for limit in (2 ** 63, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rich_collections, "_PACK_LIMIT", limit)
            order, keys = rich_collections._sorted_keys(rows.T, 8)
            got = []
            for tail in (0, 1):  # whole rows, then rows without the last digit
                runs = rich_collections._Runs(keys, 8, tail)
                at = np.repeat(np.arange(len(runs.live)), runs.live)
                assert np.array_equal(runs.find(keys), at)  # each key's run
                gid = np.empty(len(rows), dtype=np.int64)
                gid[order] = at
                got += [gid, runs.start]
            # where probe rows would go, against bisect on the sorted rows
            probes = np.array([probe[:width], [7] * width, [0] * width],
                              dtype=np.uint32)
            query = (rich_collections._codes(probes.T, 8) if keys.ndim == 1
                     else probes.T)
            ordered = sorted(map(tuple, rows.tolist()))
            assert rich_collections._search(keys, query).tolist() == [
                bisect.bisect_left(ordered, tuple(p)) for p in probes.tolist()]
            gid, start, head_gid, head_start = got
            out[limit] = (gid, rows[order], start,
                          rich_collections._sorted_unique(rows),
                          head_gid, head_start)
            if limit > 1:  # the row number rides along: equal rows in row order
                same = ~rich_collections._boundaries(keys)[1:]
                assert (np.diff(order)[same] > 0).all()
    for a, b in zip(out[2 ** 63], out[1]):
        assert np.array_equal(a, b)
    gid, ordered, start, unique, head_gid, head_start = out[1]
    assert list(map(tuple, ordered.tolist())) == sorted(map(tuple, rows.tolist()))
    assert list(map(tuple, unique.tolist())) == sorted(set(map(tuple, rows.tolist())))
    assert np.array_equal(unique[gid], rows)
    assert np.array_equal(start[1:] - start[:-1], np.bincount(gid))
    # without the last digit: groups of rows equal in all other columns
    heads = sorted({tuple(r[:-1]) for r in rows.tolist()})
    assert head_gid.tolist() == [heads.index(tuple(r[:-1])) for r in rows.tolist()]
    assert np.array_equal(head_start[1:] - head_start[:-1],
                          np.bincount(head_gid, minlength=len(heads)))


def test_packing_limit_is_exclusive():
    # base 2**21 and width 3 make base**width exactly 2**63: lexsorted keys
    top = 2 ** 21 - 1
    rows = np.array([[top, 0, top], [top, top, top], [0, top, 1],
                     [top, top, top - 1], [0, 0, 0]], dtype=np.uint32)
    order, keys = rich_collections._sorted_keys(rows.T, top + 1)
    assert keys.ndim == 2
    assert np.array_equal(keys, rows[[4, 2, 0, 3, 1]].T)
    # one less fits: the largest code is (2**21 - 1)**3 - 1 < 2**63
    small = np.minimum(rows, top - 1)
    order, keys = rich_collections._sorted_keys(small.T, top)
    assert keys.ndim == 1 and keys[-1] == top ** 3 - 1
    members = [(top - 2, top, top - 1), (top - 2, 5, top - 1),
               (top - 1, top, top - 2), (5, top, top - 2)]
    for drop in (0, 1):  # largest vertex top (lexsorted), top - 1 (packed)
        kept = [m for m in members if top not in m or not drop]
        coll = LabeledCollection.from_members("path", 3, kept, alpha=1)
        _check_index(coll, kept, members + [(top - 2, 7, top - 1), (1, 2, 3)])
        assert coll._keys[1].ndim == 2 - drop


def test_replay_of_a_large_good_path_audit():
    g = random_graph(40, 0.5, 1, bipartite=True)
    coll, audit, case = build_good_paths(g, 2, 3, 2.0, 256.0)
    seed = rich_collections._enumerate_pivot_paths(
        g, audit.diagnostics["pivot"], 2, 2.0, 10 ** 6)
    assert case == 2 and len(seed) == 55560 and len(audit.entries) == 24248
    final = replay_audit(map(tuple, seed.tolist()), audit, "path", 5)
    assert final == set(coll.iter_members())


# -- the builders hand their prune's sorted index to the collection

# K_{3,3} on {0, 1, 2} x {3, 4, 5} with a pendant 4-cycle 0-3-6-7 and a
# pendant path 5-8: the prunes drop every member through 6, 7 and 8, so the
# survivors' largest vertex (5) is below the seed's (8)
_PRUNED_TOP = build_graph(9, [(a, b) for a in range(3) for b in range(3, 6)]
                          + [(3, 6), (6, 7), (7, 0), (5, 8)])

_HANDOVER_BUILDERS = {
    "rich paths": lambda g, alpha: build_rich_paths(g, 4, alpha)[0],
    "rich cycles": lambda g, alpha: build_rich_cycles(g, 2, alpha)[0],
    "layered rich paths": lambda g, alpha: layered_rich_paths(g, 4, alpha, 1),
    "layered rich cycles": lambda g, alpha: layered_rich_cycles(g, 2, alpha, 1),
    "layered good paths": lambda g, alpha: layered_good_paths(g, 2, alpha, 1),
    "good paths, case 1": lambda g, alpha: build_good_paths(
        g, 2, alpha, 4.0, 1.0)[0],
    "good paths, case 2": lambda g, alpha: build_good_paths(
        g, 2, alpha, 2.0, 1000.0)[0],
}


def _index_positions(coll):
    """The positions a collection is indexed at, and the fill width."""
    if coll.kind == "cycle":
        return [0], 1
    if coll.good:
        return list(range(1, coll.length - 2)), 2
    return list(range(1, coll.length - 1)), 1


def _index_digits(coll, pos):
    """The sorted (signature, fill) rows of a collection's index, whatever
    base its codes were packed in."""
    keys = coll._keys[pos]
    if keys.ndim == 2:
        return keys.T.astype(np.int64)
    powers = coll._base ** np.arange(coll.length, dtype=np.int64)[::-1]
    return keys[:, None] // powers % coll._base


def _answers(coll, probes):
    if coll.kind == "cycle":
        return [coll.fills(m, j) for m in probes for j in range(coll.length)]
    if coll.good:
        return [coll.pair_fills(m, j) for m in probes
                for j in range(1, coll.length - 2)]
    return [coll.fills(m, j) for m in probes for j in range(1, coll.length - 1)]


@pytest.mark.parametrize("lexsorted", [False, True])
@pytest.mark.parametrize("builder", sorted(_HANDOVER_BUILDERS))
@settings(max_examples=25, deadline=None)
@given(good_hosts, st.integers(1, 3))
@example(_PRUNED_TOP, 2)
@example(complete_bipartite(5, 5), 1)  # 720 good paths survive case 2
@example(random_graph(10, 0.85, 6), 1)  # case 2 keeps 8766 of 9246
def test_builders_hand_over_the_fresh_index(builder, lexsorted, g, alpha):
    with pytest.MonkeyPatch.context() as mp:
        if lexsorted:  # every base**width passes the limit: the lexsort keys
            mp.setattr(rich_collections, "_PACK_LIMIT", 1)
        coll = _HANDOVER_BUILDERS[builder](g, alpha)
        positions, tail = _index_positions(coll)
        probes = list(coll.iter_members())[:6]
        probes += [tuple(v % g.n for v in range(s, s + coll.length))
                   for s in range(3)]
        fresh = LabeledCollection(coll.kind, coll.length, coll.members,
                                  good=coll.good, alpha=coll.alpha)
        with pytest.MonkeyPatch.context() as lazy:  # no lookup sorts anew
            lazy.setattr(rich_collections, "_index_keys", None)
            got = _answers(coll, probes)
        assert got == _answers(fresh, probes)
        if not len(coll):
            return
        assert sorted(coll._keys) == positions
        assert coll._base > int(coll.members.max())
        for pos in positions:
            assert coll._keys[pos].ndim == (2 if lexsorted else 1)
            assert np.array_equal(_index_digits(coll, pos),
                                  _index_digits(fresh, pos))
            assert fresh._base == int(coll.members.max()) + 1


def test_handover_keeps_the_seed_base():
    for coll, base in ((build_rich_cycles(_PRUNED_TOP, 2, 2)[0], 8),
                       (build_rich_paths(_PRUNED_TOP, 3, 3)[0], 9),
                       (build_rich_paths(_PRUNED_TOP, 4, 2)[0], 9),
                       (layered_rich_cycles(_PRUNED_TOP, 2, 2, 1), 8)):
        assert len(coll) and int(coll.members.max()) == 5 and coll._base == base
        fresh = LabeledCollection(coll.kind, coll.length, coll.members)
        assert fresh._base == 6
        probes = list(coll.iter_members()) + [(6, 7, 0, 3), (0, 3, 6, 7),
                                              (3, 0, 8), (8, 5, 0)]
        probes = [p[:coll.length] for p in probes]
        assert _answers(coll, probes) == _answers(fresh, probes)


def test_public_constructor_skips_the_sort_of_sorted_rows(monkeypatch):
    rows = _enumerate_paths(K44, 4, 10 ** 6)
    shuffled = rows[np.random.default_rng(1).permutation(len(rows))]
    calls = []
    sorted_keys = rich_collections._sorted_keys
    monkeypatch.setattr(rich_collections, "_sorted_keys",
                        lambda *a, **k: calls.append(1) or sorted_keys(*a, **k))
    assert LabeledCollection("path", 4, rows).members is rows
    assert not calls
    again = LabeledCollection("path", 4, np.vstack([shuffled, shuffled]))
    assert calls and np.array_equal(again.members, rows)
    with pytest.raises(InputError, match="distinct vertices"):
        LabeledCollection("path", 4, np.array([[0, 4, 0, 5]], dtype=np.uint32))
    cycles = _enumerate_cycles(K44, 2, 10 ** 6)
    assert LabeledCollection("cycle", 4, cycles).members is cycles
