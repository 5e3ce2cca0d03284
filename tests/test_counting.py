"""Counting tests with brute-force oracles (walk enumeration, permutation
cycle enumeration) computed in this file, and the cycle enumerator against
the depth-first reference of ``tests_support_pairs``."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from test_graphs import edge_lists
from tests_support_pairs import cycle_dfs
from turan_forge import rich_collections
from turan_forge.counting import (check_path_inequality, classify_c4, count_c4,
                                  count_even_cycles, enumerate_even_cycles,
                                  hom_path_count,
                                  is_rich_tuple, prism_path_weight_report,
                                  verify_rich_witness)
from turan_forge.errors import InputError
from turan_forge.generators import polarity_graph, random_graph
from turan_forge.graphs import build_graph
from turan_forge.rich_collections import (_enumerate_cycles, build_good_paths,
                                          build_rich_cycles, build_rich_paths)


def brute_walks(g, k):
    if k == 1:
        return g.num_vertices
    total = 0
    frontier = {v: 1 for v in g.vertices()}
    for _ in range(k - 1):
        nxt = {}
        for v, c in frontier.items():
            for u in g.neighbors(v):
                nxt[u] = nxt.get(u, 0) + c
        frontier = nxt
    return sum(frontier.values())


def brute_walks_product(g, k):
    # literal enumeration over vertex tuples; only for very small inputs
    count = 0
    verts = list(g.vertices())
    for tup in itertools.product(verts, repeat=k):
        if all(g.has_edge(a, b) for a, b in zip(tup, tup[1:])):
            count += 1
    return count


def brute_cycles(g, length):
    out = set()
    for sub in itertools.combinations(list(g.vertices()), length):
        for perm in itertools.permutations(sub[1:]):
            cyc = (sub[0],) + perm
            if all(g.has_edge(cyc[i], cyc[(i + 1) % length])
                   for i in range(length)):
                canon = min(cyc, cyc[:1] + tuple(reversed(cyc[1:])))
                out.add(canon)
    return out


K3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
K33 = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])


def test_hom_examples():
    g = random_graph(8, 0.5, 1)
    assert hom_path_count(g, 1) == 8
    assert hom_path_count(K3, 2) == 6
    assert hom_path_count(K3, 3) == 12
    assert hom_path_count(K3, 3) == brute_walks_product(K3, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 8), st.integers(1, 5))
def test_hom_matches_brute_force(seed, n, k):
    g = random_graph(n, 0.45, seed)
    assert hom_path_count(g, k) == brute_walks_product(g, k)


def test_path_inequality_examples():
    ok, lhs, rhs = check_path_inequality(K3, 2, 1)
    assert ok and lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0)
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ok, lhs, rhs = check_path_inequality(c4, 2, 1)
    assert ok and lhs == rhs == 2.0
    g = random_graph(12, 0.4, 3)
    assert check_path_inequality(g, 4, 2)[0]
    with pytest.raises(InputError):
        check_path_inequality(K3, 3, 1)
    with pytest.raises(InputError):
        check_path_inequality(K3, 2, 2)


def test_count_c4_examples():
    assert count_c4(build_graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)])) == 1
    k4 = build_graph(4, list(itertools.combinations(range(4), 2)))
    assert count_c4(k4) == len(brute_cycles(k4, 4)) == 3
    k23 = build_graph(5, [(a, 2 + b) for a in range(2) for b in range(3)])
    assert count_c4(k23) == len(brute_cycles(k23, 4)) == 3


def test_count_even_cycles_examples():
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert count_even_cycles(c6, 3) == (1, False)
    assert count_even_cycles(K33, 2)[0] == 9
    assert count_even_cycles(K33, 3)[0] == 6
    assert count_even_cycles(K33, 2, cap=4) == (4, True)


def test_truncated_only_above_the_cap():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert count_even_cycles(c4, 2, cap=1) == (1, False)
    k23 = build_graph(5, [(a, 2 + b) for a in range(2) for b in range(3)])
    assert count_even_cycles(k23, 2, cap=1) == (1, True)
    assert count_even_cycles(k23, 2, cap=3) == (3, False)
    assert enumerate_even_cycles(c4, 2, cap=1) == ([(0, 1, 2, 3)], False)
    assert not classify_c4(c4, 10.0, cap=1).truncated
    assert classify_c4(k23, 10.0, cap=2).truncated
    # K_{3,3} has 72 labeled ladder copies with 3 rungs
    for cap, truncated in ((72, False), (71, True)):
        rep = prism_path_weight_report(K33, 2, 2.0, cap=cap)
        assert (rep.copies_enumerated, rep.truncated) == (cap, truncated)


@pytest.mark.parametrize("seed", range(12))
def test_cycle_counts_match_brute_force(seed):
    g = random_graph(11, 0.45, seed)
    assert count_c4(g) == count_even_cycles(g, 2)[0] == len(brute_cycles(g, 4))
    assert count_c4(g) == sum(1 for _ in cycle_dfs(g, 4))
    assert count_even_cycles(g, 3)[0] == len(brute_cycles(g, 6))


def test_classify_c4():
    assert not classify_c4(polarity_graph(3), 1.0).thin
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cls = classify_c4(c4, 10.0)
    assert len(cls.thin) == 1 and not cls.thick
    m = 50
    k50 = build_graph(2 * m, [(a, m + b) for a in range(m) for b in range(m)])
    cls = classify_c4(k50, 0.1, cap=2000)
    assert cls.truncated and not cls.thin and len(cls.thick) == 2000
    # partition property on a mixed graph
    g = random_graph(14, 0.5, 4)
    cls = classify_c4(g, 1.0)
    assert len(cls.thin) + len(cls.thick) == count_c4(g)


def test_rich_tuple():
    m = 20
    km = build_graph(2 * m, [(a, m + b) for a in range(m) for b in range(m)])
    ok, wit = is_rich_tuple(km, 0, m, 1, m + 1, 2)
    assert ok and len(wit) >= 8
    assert verify_rich_witness(km, 0, m, 1, m + 1, wit)
    c8 = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    ok, wit = is_rich_tuple(c8, 0, 1, 4, 5, 2)
    assert not ok
    with pytest.raises(InputError):
        is_rich_tuple(km, 0, 1, 2, 3, 2)  # (0,1) is not an edge
    with pytest.raises(InputError):
        is_rich_tuple(km, 0, m, 0, m, 2)


def test_weight_report_k33():
    rep = prism_path_weight_report(K33, 2, 2.0)
    # oracle: 72 labeled ladder copies, each with both rung diagonals 3,
    # d^2/n = 1.5, so every copy weighs 1/9
    brute = 0
    for tup in itertools.permutations(range(6), 6):
        x0, y0, x1, y1, x2, y2 = tup
        if (K33.has_edge(x0, y0) and K33.has_edge(x1, y1)
                and K33.has_edge(x2, y2) and K33.has_edge(x0, x1)
                and K33.has_edge(x1, x2) and K33.has_edge(y0, y1)
                and K33.has_edge(y1, y2)):
            brute += 1
    assert brute == 72
    assert rep.copies_enumerated == 72
    assert rep.total_weight == pytest.approx(72 / 9)
    assert rep.counts["nice"] == 72
    assert rep.nice_weight == pytest.approx(rep.total_weight)
    assert rep.d_ref == pytest.approx(3.0)


def test_weight_report_weights_recomputable():
    g = random_graph(18, 0.5, 9)
    rep = prism_path_weight_report(g, 2, 1.0, cap=500)
    d = g.average_degree
    floor = d * d / g.num_vertices
    # spot-recompute: enumerate the same copies and refold the weights
    total = 0.0
    count = 0
    from turan_forge.counting import _ladder_copies

    for xs, ys in _ladder_copies(g, 2, 500):
        w = 1.0
        for i in (1, 2):
            w /= max(g.codegree(xs[i - 1], ys[i]), floor)
        total += w
        count += 1
    assert count == rep.copies_enumerated
    assert rep.total_weight == pytest.approx(total, rel=1e-12)


def test_weight_report_c4_free_host():
    rep = prism_path_weight_report(polarity_graph(3), 2, 2.0)
    assert rep.copies_enumerated == 0 and rep.total_weight == 0.0
    c8 = build_graph(8, [(i, (i + 1) % 8) for i in range(8)])
    rep = prism_path_weight_report(c8, 2, 2.0)
    assert rep.copies_enumerated == 0


# -- the one cycle enumerator against the DFS reference

def _spread(args):
    """Vertex v of the edge list becomes id v * spread, so the ids between
    are isolated among live ones; bipartite keeps the edges between the
    parity classes; the victims are tombstoned."""
    (n, edges), bipartite, spread, victims = args
    g = build_graph(n * spread, [(u * spread, v * spread) for u, v in edges
                                 if not bipartite or (u + v) % 2])
    return g.remove(vertices=[v * spread for v in victims if v < n])


enum_hosts = st.one_of(
    st.tuples(edge_lists, st.booleans(), st.integers(1, 3),
              st.sets(st.integers(0, 11), max_size=3)).map(_spread),
    st.tuples(st.integers(4, 16), st.floats(0.2, 0.9), st.integers(0, 999),
              st.booleans()).map(
        lambda a: random_graph(*a[:3], bipartite=a[3])))

# K(4, 4): every (b, d) group on a side has four centres, and the least b
# of each side has 12 wedges, more than the patched chunk limit of 8
K44 = build_graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])


def _dfs_rows(g, length):
    rows = np.array(list(cycle_dfs(g, length)), dtype=np.uint32)
    return rows.reshape(-1, length)


@settings(max_examples=80, deadline=None)
@given(enum_hosts, st.sampled_from([8, 1 << 20]))
@example(K44, 8)
def test_four_cycles_equal_dfs_row_for_row(g, join_rows):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rich_collections, "_JOIN_ROWS", join_rows)
        rows = _enumerate_cycles(g, 2, 10 ** 6)
    assert rows.dtype == np.uint32
    assert np.array_equal(rows, _dfs_rows(g, 4))


@settings(max_examples=60, deadline=None)
@given(enum_hosts, st.integers(0, 40), st.sampled_from([8, 1 << 20]))
@example(K44, 17, 8)
def test_truncation_keeps_the_first_cap_rows(g, cap, join_rows):
    for ell in (2, 3):
        expect = list(cycle_dfs(g, 2 * ell))
        over = len(expect) > cap
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rich_collections, "_JOIN_ROWS", join_rows)
            assert enumerate_even_cycles(g, ell, cap) == (expect[:cap], over)
            assert count_even_cycles(g, ell, cap) == (min(len(expect), cap),
                                                      over)


@settings(max_examples=60, deadline=None)
@given(enum_hosts, st.floats(0.05, 2.0),
       st.one_of(st.integers(0, 40), st.just(10 ** 8)))
def test_classify_c4_equals_per_cycle_codegrees(g, t_factor, cap):
    tau = t_factor * math.sqrt(g.average_degree)
    cycles = list(cycle_dfs(g, 4))
    thin = [len(g.common_neighbors(a, c)) <= tau
            and len(g.common_neighbors(b, d)) <= tau for a, b, c, d in cycles]
    cls = classify_c4(g, t_factor, cap)
    assert cls.threshold == tau and cls.truncated == (len(cycles) > cap)
    assert cls.thin == [c for c, ok in zip(cycles[:cap], thin) if ok]
    assert cls.thick == [c for c, ok in zip(cycles[:cap], thin) if not ok]


@pytest.mark.parametrize("pendants", [False, True])
def test_star_is_counted_in_bounded_memory(pendants):
    # K(1, 4000) has C(4000, 2) wedges and no 4-cycle; with a pendant edge
    # at every leaf, the leaves have degree 2 and the wedges stay
    edges = [(0, v) for v in range(1, 4001)]
    if pendants:
        edges += [(v, 4000 + v) for v in range(1, 4001)]
    star = build_graph(8001, edges)
    tracemalloc.start()
    try:
        assert count_even_cycles(star, 2) == (0, False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20


K23 = build_graph(5, [(a, 2 + b) for a in range(2) for b in range(3)])


@pytest.mark.parametrize("call", [
    lambda cap: count_even_cycles(K23, 2, cap),
    lambda cap: count_even_cycles(K23, 3, cap),
    lambda cap: enumerate_even_cycles(K23, 2, cap),
    lambda cap: classify_c4(K23, 1.0, cap),
    lambda cap: prism_path_weight_report(K23, 2, 2.0, cap),
    lambda cap: build_rich_paths(K23, 3, 1, cap),
    lambda cap: build_rich_cycles(K23, 2, 1, cap),
    lambda cap: build_good_paths(K23, 1, 1, 1.0, 256.0, cap),
], ids=["count", "count_ell3", "enumerate", "classify", "weights",
        "rich_paths", "rich_cycles", "good_paths"])
def test_negative_cap_is_input_error(call):
    with pytest.raises(InputError, match="cap must be at least 0"):
        call(-1)
