import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from test_graphs import edge_lists
from turan_forge import rich_collections
from turan_forge.counting import _cycle_dfs
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
    grp = rich_collections._PairGroups(rows, 1)
    failing = grp.failing(alive, alpha)
    assert failing.shape == (grp.groups,)
    for g in range(grp.groups):
        live = rows[alive & (grp.gid == g)]
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
    grp = rich_collections._PairGroups(rows, 1)
    failing = grp.failing(alive, 3)
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
        pruned = rich_collections._np_prune_good(rows, alpha)
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
