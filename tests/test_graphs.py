import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tests_support_pairs as pairs
from turan_forge.errors import InputError
from turan_forge.graphs import (Graph, build_graph, dense_blocks, read_edge_list,
                               two_coloring, write_edge_list)


def test_build_c4():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.n == 4 and g.edge_count == 4
    assert g.neighbors(0) == (1, 3)


def test_build_empty_and_dedup():
    assert build_graph(3, []).edge_count == 0
    assert build_graph(4, [(0, 1), (1, 0)]).edge_count == 1
    assert build_graph(4, [(0, 1), (0, 1), (1, 0)]).edge_count == 1


def test_build_rejects_bad_input():
    with pytest.raises(InputError):
        build_graph(3, [(0, 3)])
    with pytest.raises(InputError):
        build_graph(3, [(1, 1)])


def test_common_neighbors_examples():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert c4.common_neighbors(0, 2) == [1, 3]
    assert c4.codegree(0, 2) == 2
    k33 = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
    assert k33.codegree(0, 1) == 3
    path = build_graph(3, [(0, 1), (1, 2)])
    assert path.common_neighbors(0, 2) == [1]
    with pytest.raises(InputError):
        path.common_neighbors(1, 1)


def test_remove_examples():
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    g = k3.remove(vertices=[0])
    assert g.edge_count == 1 and g.num_vertices == 2 and not g.is_alive(0)
    assert g.n == 3  # ids preserved
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    p4 = c4.remove(edges=[(0, 1)])
    assert p4.edge_count == 3 and p4.num_vertices == 4
    same = c4.remove()
    assert same.edge_count == 4 and list(same.edges()) == list(c4.edges())


edge_lists = st.integers(4, 12).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                 .filter(lambda e: e[0] != e[1]), max_size=40)))


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_degree_sum_is_twice_edges(data):
    n, edges = data
    g = build_graph(n, edges)
    assert sum(g.degrees()) == 2 * g.edge_count


@settings(max_examples=60, deadline=None)
@given(edge_lists)
def test_codegree_counts_two_paths(data):
    n, edges = data
    g = build_graph(n, edges)
    for u in range(n):
        for v in range(u + 1, n):
            brute = sum(1 for w in range(n)
                        if w not in (u, v) and g.has_edge(u, w)
                        and g.has_edge(w, v))
            assert g.codegree(u, v) == brute


@settings(max_examples=40, deadline=None)
@given(edge_lists)
def test_remove_recount(data):
    n, edges = data
    g = build_graph(n, edges)
    victim = 0
    lost = g.degree(victim)
    h = g.remove(vertices=[victim])
    assert h.edge_count == g.edge_count - lost
    for v in h.vertices():
        expect = g.degree(v) - (1 if g.has_edge(victim, v) else 0)
        assert h.degree(v) == expect


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.sets(st.integers(0, 3), max_size=2))
def test_codegree_matrix_matches_merge(data, victims):
    n, edges = data
    g = build_graph(n, edges)
    # tombstoned hosts too: some vertices and every third edge deleted
    for h in (g, g.remove(vertices=victims, edges=list(g.edges())[::3])):
        m = h.codegree_matrix()
        assert m.dtype == np.int32
        for u in range(n):
            assert int(m[u, u]) == h.degree(u)
            for v in range(u + 1, n):
                assert int(m[u, v]) == int(m[v, u]) == len(h.common_neighbors(u, v))


def a_squared(g):
    """Reference codegree matrix: A @ A of the adjacency matrix built from
    the edge list (float64 BLAS, exact below 2**53)."""
    a = np.zeros((g.n, g.n))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1
    return (a @ a).astype(np.int64)


@settings(max_examples=100, deadline=None)
@given(edge_lists, st.sampled_from(["general", "bipartite", "halves", "tombstoned",
                                    "one-side-isolated", "edgeless"]),
       st.randoms(use_true_random=False))
def test_codegree_matrix_equals_a_squared(data, kind, rnd):
    n, edges = data
    if kind == "halves":  # sides {0..n/2-1} and the rest, consecutive ids
        edges = [(u, v) for (u, v) in edges if (2 * u < n) != (2 * v < n)]
    elif kind != "general":  # even ids on one side, odd ids on the other
        edges = [(u, v) for (u, v) in edges if (u - v) % 2]
    g = build_graph(n, [] if kind == "edgeless" else edges)
    if kind == "tombstoned":
        g = g.remove(vertices=rnd.sample(range(n), 2))
    if kind == "one-side-isolated":  # strip some even ids, which stay alive
        evens = set(rnd.sample(range(0, n, 2), rnd.randint(1, n // 2)))
        g = g.remove(edges=[(u, v) for (u, v) in g.edges()
                            if u in evens or v in evens])
    m = g.codegree_matrix()
    assert m.dtype == np.int32 and np.array_equal(m, a_squared(g))
    # the blocks: the non-isolated vertices, as two sides exactly when the
    # graph is bipartite, with every edge joining a row to a column
    blocks = [(r.tolist(), c.tolist()) for r, c in dense_blocks(g)]
    live = [v for v in range(n) if g.degree(v)]
    if kind == "general" and two_coloring(g) is None:
        assert blocks == [(live, live)]
    else:
        (x, y), (y2, x2) = blocks
        assert (x, y) == (x2, y2) and sorted(x + y) == live
        assert all((u in x) != (v in x) for (u, v) in g.edges())


@pytest.mark.parametrize("gap", [None, 1000])
def test_codegree_matrix_in_several_slabs(gap):
    # more than 2048 live rows take several slabs, written whole when the
    # rows are consecutive and scattered when an isolated vertex splits them
    n = 2200
    rng = random.Random(5)
    edges = [(v, v + 1) for v in range(n - 1)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)]
    g = build_graph(n, [(u, v) for (u, v) in edges
                        if u != v and gap not in (u, v)])
    assert two_coloring(g) is None and len(dense_blocks(g)[0][0]) == n - (gap is not None)
    assert np.array_equal(g.codegree_matrix(), a_squared(g))


def test_codegree_same_with_and_without_matrix():
    c4 = build_graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    cached = build_graph(4, list(c4.edges()))
    cached.codegree_matrix()
    for g in (c4, cached):
        assert g.codegree(1, 1) == 2  # the diagonal holds the degree
        assert g.codegree(0, 2) == 2 and g.codegree(0, 1) == 0
        for bad in ((-1, 0), (0, -1), (4, 0), (0, 4)):
            with pytest.raises(InputError):
                g.codegree(*bad)


def test_edge_list_roundtrip(tmp_path):
    g = build_graph(6, [(0, 1), (2, 5), (3, 4)])
    path = tmp_path / "g.el"
    write_edge_list(g, path)
    h = read_edge_list(path)
    assert h.n == g.n and list(h.edges()) == list(g.edges())


def test_edge_list_parsing():
    g = read_edge_list(["# comment", "n 5", "0 1", "", "3 4"])
    assert g.n == 5 and g.edge_count == 2
    g = read_edge_list(["0 1", "1 2"])
    assert g.n == 3
    with pytest.raises(InputError):
        read_edge_list(["0 1 2"])


def test_two_coloring():
    k33 = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])
    side = two_coloring(k33)
    assert side is not None
    assert all(side[u] != side[v] for (u, v) in k33.edges())
    k3 = build_graph(3, [(0, 1), (1, 2), (0, 2)])
    assert two_coloring(k3) is None


def reference_coloring(n, adj, alive):
    """The breadth-first 2-coloring over sets that two_coloring replaced."""
    side = [-1] * n
    for s in sorted(alive):
        if side[s] != -1:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for v in sorted(adj[u]):
                    if side[v] == -1:
                        side[v] = 1 - side[u]
                        nxt.append(v)
                    elif side[v] == side[u]:
                        return None
            queue = nxt
    return [max(s, 0) for s in side]


def assert_matches_sets(g, n, adj, alive):
    edges = sorted((u, v) for u in adj for v in adj[u] if u < v)
    assert (g.n, g.num_vertices, g.edge_count) == (n, len(alive), len(edges))
    assert list(g.edges()) == edges
    assert g.degrees() == [len(adj[v]) for v in range(n)]
    assert list(g.vertices()) == sorted(alive)
    assert [g.is_alive(v) for v in range(-1, n + 1)] == \
        [v in alive for v in range(-1, n + 1)]
    assert g.max_degree() == max((len(adj[v]) for v in range(n)), default=0)
    assert g.min_degree_alive() == min((len(adj[v]) for v in alive), default=0)
    m = g.block(np.arange(n), np.arange(n))
    for u in range(n):
        assert g.neighbors(u) == tuple(sorted(adj[u]))
        for v in range(n):
            assert g.has_edge(u, v) == (v in adj[u]) == bool(m[u, v])
    assert two_coloring(g) == reference_coloring(n, adj, alive)


@settings(max_examples=80, deadline=None)
@given(edge_lists, st.booleans(), st.randoms(use_true_random=False))
def test_csr_graph_matches_sets_under_chained_removes(data, bipartite, rnd):
    n, edges = data
    if bipartite:  # even ids on one side, odd ids on the other
        edges = [(u, v) for (u, v) in edges if (u - v) % 2]
    g = build_graph(n, edges)
    adj = {v: set() for v in range(n)}
    for (u, v) in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    assert_matches_sets(g, n, adj, alive)
    for _ in range(3):
        present = sorted((u, v) for u in adj for v in adj[u] if u < v)
        dead = rnd.sample(range(n), rnd.randint(0, 2))
        gone = rnd.sample(present, min(len(present), rnd.randint(0, 3)))
        gone = [(v, u) if rnd.random() < 0.5 else (u, v) for (u, v) in gone]
        absent = [(u, v) for u in range(n) for v in range(n)
                  if u != v and v not in adj[u]]
        if absent and rnd.random() < 0.3:
            u, v = rnd.choice(absent)
            with pytest.raises(InputError, match=rf"edge \({u},{v}\) not present"):
                g.remove(vertices=dead, edges=gone + [(u, v)])
        if rnd.random() < 0.2:
            with pytest.raises(InputError, match="out of range"):
                g.remove(vertices=dead + [n])
        g = g.remove(vertices=dead, edges=gone)
        for (u, v) in gone:
            adj[u].discard(v)
            adj[v].discard(u)
        for v in dead:
            for u in adj[v]:
                adj[u].discard(v)
            adj[v] = set()
            alive.discard(v)
        assert_matches_sets(g, n, adj, alive)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.sets(st.integers(0, 3), max_size=2))
def test_common_neighbors_match_merge(data, victims):
    n, edges = data
    g = build_graph(n, edges)
    for h in (g, g.remove(vertices=victims, edges=list(g.edges())[::3])):
        expect = {(u, v): sorted(set(h.neighbors(u)) & set(h.neighbors(v)))
                  for u in range(n) for v in range(n) if u != v}
        for cached in (False, True):
            if cached:  # codegrees answer from the matrix from here on
                h.codegree_matrix()
            for (u, v), common in expect.items():
                got = h.common_neighbors(u, v)
                assert got == common and all(type(x) is int for x in got)
                assert h.codegree(u, v) == len(common)
            for u in range(n):
                assert h.codegree(u, u) == h.degree(u)


@settings(max_examples=60, deadline=None)
@given(edge_lists, st.sets(st.integers(0, 3), max_size=2))
def test_find_entries_matches_has_edge(data, victims):
    # every ordered pair, on hosts with tombstones and without edges; a hit's
    # position holds the pair's entry
    n, edges = data
    for g in (build_graph(n, edges), build_graph(n, edges).remove(victims),
              build_graph(n, [])):
        u, v = (a.ravel() for a in np.indices((n, n)))
        at, hit = g._find_entries(u, v)
        assert hit.tolist() == [g.has_edge(a, b) for a, b in zip(u, v)]
        assert (g._sources()[at[hit]] == u[hit]).all()
        assert (g.indices[at[hit]] == v[hit]).all()


def _outcome(remove, g, vertices, edges):
    try:
        h = remove(g, vertices=vertices, edges=edges)
    except InputError as exc:
        return str(exc)
    return (h.n, h.edge_count, list(h.edges()), list(h.vertices()),
            h.indptr.tolist(), h.indices.tolist())


@settings(max_examples=120, deadline=None)
@given(edge_lists, st.randoms(use_true_random=False))
def test_remove_matches_pair_reference(data, rnd):
    # the one-search remove against the edge-by-edge has_edge loop, on hosts
    # with tombstones, for lists and arrays, repeated and reversed pairs, a
    # missing edge, a self-loop and out-of-range ids
    n, edges = data
    g = build_graph(n, edges).remove(vertices=rnd.sample(range(n), min(n, 2)))
    present = list(g.edges())
    gone = [rnd.choice(present) for _ in range(rnd.randint(0, 5))] if present else []
    gone = [(v, u) if rnd.random() < 0.5 else (u, v) for (u, v) in gone]
    dead = rnd.sample(range(n), rnd.randint(0, min(n, 3)))
    absent = [(u, v) for u in range(n) for v in range(n) if not g.has_edge(u, v)]
    cases = [(dead, gone), (dead, []), ([], gone),
             (dead + [n + rnd.randrange(3)], gone + [(0, -1)]),
             (dead, gone + [(rnd.randrange(n), n + rnd.randrange(3))]),
             (dead, gone + [(-2, 10 ** 30)])]
    for _ in range(2):
        at = rnd.randint(0, len(gone))
        cases.append((dead, gone[:at] + [rnd.choice(absent)] + gone[at:]
                      + [rnd.choice(absent)]))
    for vs, es in cases:
        expect = _outcome(pairs.remove, g, vs, es)
        assert _outcome(Graph.remove, g, vs, es) == expect
        assert _outcome(Graph.remove, g, iter(vs), iter(es)) == expect
        if all(abs(x) <= n + 2 for e in es for x in e):
            assert _outcome(Graph.remove, g, np.array(vs, dtype=np.int64),
                            np.array(es, dtype=np.int64).reshape(-1, 2)) == expect
