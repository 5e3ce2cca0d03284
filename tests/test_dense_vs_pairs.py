"""The dense block kernels against the pair-by-pair reference kernels.

Each ``_both`` test runs the same call twice on freshly built hosts: once
with the kernels of ``tests_support_pairs`` patched in, where every codegree
is an intersection of two sorted neighbour rows, and once as shipped.  Both
runs must give identical graphs, reports and certificates.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import tests_support_pairs as pairs
from turan_forge import embedders, transforms
from turan_forge.counting import count_c4
from turan_forge.embedders import (_thick_extension_counts, find_prism,
                                   find_prism_path)
from turan_forge.errors import InputError
from turan_forge.generators import random_graph
from turan_forge.graphs import build_graph
from turan_forge.oracle import verify_certificate
from turan_forge.rich_collections import _count_high_codegree_cherries
from turan_forge.transforms import clean_subgraph, is_clean

densities = st.sampled_from([0.3, 0.5, 0.7, 0.9, 1.0])


def _random_edges(n, p, seed, bipartite_at=None):
    rng = random.Random(seed)
    return [(u, v) for u in range(n) for v in range(u + 1, n)
            if (bipartite_at is None or (u < bipartite_at) != (v < bipartite_at))
            and rng.random() < p]


# (n, edges, tombstones): general hosts, some with deleted vertices
hosts = st.tuples(st.integers(2, 18), densities, st.integers(0, 2 ** 20),
                  st.sets(st.integers(0, 3), max_size=2))
# (n, |X|, edges, tombstones): bipartite hosts with X = {0..|X|-1}
bipartite_hosts = st.tuples(st.integers(1, 10), st.integers(1, 10), densities,
                            st.integers(0, 2 ** 20),
                            st.sets(st.integers(0, 3), max_size=2))


def _general(data):
    n, p, seed, victims = data
    g = build_graph(n, _random_edges(n, p, seed))
    return g.remove(vertices=[v for v in victims if v < n])


def _bipartite(data):
    a, b, p, seed, victims = data
    g = build_graph(a + b, _random_edges(a + b, p, seed, bipartite_at=a))
    return g.remove(vertices=[v for v in victims if v < a + b]), a


def _both(make, run):
    """run(make()) with the reference kernels, then with the block kernels."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(transforms, "_clean_block", pairs.clean_pairs)
        mp.setattr(embedders, "_prism_path_residue", pairs.prism_path_residue)
        mp.setattr(embedders, "_thick_extension_counts",
                   pairs.thick_extension_counts)
        ref = run(make())
    return ref, run(make())


def _graph_key(g):
    return (g.n, g.edge_count, list(g.edges()), list(g.vertices()))


def _cert_json(cert):
    return None if cert is None else cert.to_json()


@settings(max_examples=120, deadline=None)
@given(hosts, bipartite_hosts, st.booleans(), st.sampled_from(["fixed", "self"]))
def test_clean_subgraph_dense_equals_pairs(general, two_sided, bip, mode):
    def make():
        return _bipartite(two_sided)[0] if bip else _general(general)

    def run(g):
        h, rep = clean_subgraph(g, mode=mode)
        return _graph_key(h), rep.to_json(), h, g

    (key0, rep0, _, _), (key1, rep1, h, g) = _both(make, run)
    assert key0 == key1 and rep0 == rep1
    if mode == "fixed":
        assert is_clean(h, g.average_degree)  # clean at the input degree
    else:
        assert is_clean(h)  # clean at its own final degree
    for d in (g.average_degree / 2, g.average_degree, 2 * g.average_degree):
        if g.edge_count:
            assert is_clean(g, d) == (not pairs.unclean_pairs(g, d, g.num_vertices))


@settings(max_examples=120, deadline=None)
@given(hosts, bipartite_hosts, st.booleans(), st.sampled_from([1.5, 2.5]))
def test_is_clean_above_floor_one_equals_pairs(general, two_sided, bip, over):
    # d^2 = 128 n * over gives the codegree floor ceil(over), 2 or 3: the
    # hot-row products, where the floor-1 hosts above take the degree rule
    g = _bipartite(two_sided)[0] if bip else _general(general)
    if g.edge_count:
        n = g.num_vertices
        d = (128 * n * over) ** 0.5
        assert math.ceil(d * d / (128 * n)) == math.ceil(over)
        assert is_clean(g, d) == (not pairs.unclean_pairs(g, d, n))


@settings(max_examples=80, deadline=None)
@given(bipartite_hosts, st.integers(1, 3), st.booleans())
def test_find_prism_path_dense_equals_pairs(data, t, explicit_parts):
    def run(g_a):
        g, a = g_a
        parts = (list(range(a)), list(range(a, g.n))) if explicit_parts else None
        cert = find_prism_path(g, t, parts=parts)
        if cert is not None:
            assert verify_certificate(g, cert)[0]
        return _cert_json(cert)

    ref, dense = _both(lambda: _bipartite(data), run)
    assert ref == dense


@settings(max_examples=60, deadline=None)
@given(hosts, st.sampled_from([0.5, 1.0, 8.0]), st.integers(0, 3))
def test_find_prism_dense_equals_pairs(data, t_factor, seed):
    def run(g):
        cert, diag = find_prism(g, 2, t_factor, budget=2000, seed=seed)
        return _cert_json(cert), diag

    ref, dense = _both(lambda: _general(data), run)
    assert ref == dense


@settings(max_examples=80, deadline=None)
@given(hosts, bipartite_hosts, st.booleans(), st.sampled_from([0, 0.5, 1, 2, 3.5]))
def test_high_codegree_cherries_dense_equals_pairs(general, two_sided, bip,
                                                   c_thresh):
    g = _bipartite(two_sided)[0] if bip else _general(general)
    assert _count_high_codegree_cherries(g, c_thresh) == \
        pairs.high_codegree_cherries(g, c_thresh)


@settings(max_examples=80, deadline=None)
@given(hosts, bipartite_hosts, st.booleans())
def test_count_c4_equals_wedge_count(general, two_sided, bip):
    g = _bipartite(two_sided)[0] if bip else _general(general)
    assert count_c4(g) == pairs.wedge_c4(g)


def test_find_prism_path_matches_reference_on_gnp():
    def run(g):
        cert = find_prism_path(g, 2)
        assert cert is not None and verify_certificate(g, cert)[0]
        return cert.to_json()

    ref, dense = _both(lambda: random_graph(60, 0.6, 5, bipartite=True), run)
    assert ref == dense


def test_find_prism_thick_branch_dense_equals_pairs():
    # a low threshold sends K(12,12) down the thick branch first
    def run(g):
        cert, diag = find_prism(g, 2, 0.5, budget=2000, seed=1)
        return _cert_json(cert), diag

    ref, dense = _both(
        lambda: build_graph(24, [(i, 12 + j) for i in range(12)
                                 for j in range(12)]), run)
    assert ref == dense
    assert dense[1]["branch_order"] == "thick,thin"
    assert dense[1]["thick"]["ladder_found"] and dense[0] is not None


@pytest.mark.parametrize("a, b, p, t, hot", [
    (6, 10, 1.0, 6, "none"),  # every x has degree 10 < 2t
    (8, 12, 0.9, 2, "all"),
    (10, 12, 0.8, 1, "all"),
    (14, 9, 0.6, 3, "some")])
def test_find_prism_path_hot_rows_equal_pairs(a, b, p, t, hot):
    # only the x of degree >= 2t can hold a pair of codegree >= 2t
    def make():
        return build_graph(a + b, _random_edges(a + b, p, a * b + t,
                                                bipartite_at=a))

    g = make()
    degs = [g.degree(x) for x in range(a)]
    share = sum(deg >= 2 * t for deg in degs)
    assert {"none": share == 0, "all": share == a,
            "some": 0 < share < a}[hot]

    def run(g):
        residue = embedders._prism_path_residue(
            g, np.arange(a), np.arange(a, a + b), t)
        cert = find_prism_path(g, t, parts=(list(range(a)),
                                            list(range(a, a + b))))
        return _graph_key(residue[0]), residue[1:], _cert_json(cert)

    ref, dense = _both(make, run)
    assert ref == dense
    if hot != "none":
        assert dense[2] is not None


def test_prism_path_residue_kills_degree_at_tau1():
    # e = 25, |Y| = 4: tau1 = 25/16, so y = 11 of degree 1 is deleted as a
    # vertex, and the three full y keep all 24 edges
    def run(g):
        cert = find_prism_path(g, 1, parts=(list(range(8)), [8, 9, 10, 11]))
        return cert.method["residue"]

    def make():
        return build_graph(12, [(x, y) for x in range(8) for y in (8, 9, 10)]
                           + [(0, 11)])

    assert _both(make, run) == ({"n": 11, "e": 24}, {"n": 11, "e": 24})


def test_find_prism_path_rejects_bad_parts():
    g = build_graph(6, [(0, 3), (0, 4), (1, 3), (1, 5), (2, 4), (0, 1)])
    with pytest.raises(InputError):  # edge (0, 1) lies inside X
        find_prism_path(g, 1, parts=([0, 1, 2], [3, 4, 5]))
    h = g.remove(edges=[(0, 1)])
    with pytest.raises(InputError):  # 4 is in neither part
        find_prism_path(h, 1, parts=([0, 1, 2], [3, 5]))
    with pytest.raises(InputError):  # the parts overlap
        find_prism_path(h, 1, parts=([0, 1, 2, 3], [3, 4, 5]))
    with pytest.raises(InputError):  # an id outside the graph
        find_prism_path(h, 1, parts=([0, 1, 2, 6], [3, 4, 5]))
    # valid parts; no two vertices of X share two neighbors, so no ladder
    assert find_prism_path(h, 1, parts=([0, 1, 2], [3, 4, 5])) is None


@settings(max_examples=80, deadline=None)
@given(hosts, st.lists(st.integers(0, 2), min_size=18, max_size=18))
def test_find_prism_path_checks_parts_like_the_edge_loop(data, labels):
    # label 0 puts a vertex in X, 1 in Y, 2 in neither part
    g = _general(data)
    xs = [v for v in range(g.n) if labels[v] == 0]
    ys = [v for v in range(g.n) if labels[v] == 1]
    joins = all((u in xs) != (v in xs) and (u in ys) != (v in ys)
                for u, v in g.edges())
    if joins:
        find_prism_path(g, 1, parts=(xs, ys))
    else:
        with pytest.raises(InputError, match="^every edge of the host must "
                                             "join the two parts$"):
            find_prism_path(g, 1, parts=(xs, ys))


@settings(max_examples=60, deadline=None)
@given(hosts, bipartite_hosts, st.booleans(), st.sampled_from([0, 0.5, 1, 2, 3.5]))
def test_thick_extension_counts_match_the_definition(general, two_sided, bip,
                                                     tau):
    g = _bipartite(two_sided)[0] if bip else _general(general)
    oriented = np.array([(u, v) for (p, q) in g.edges()
                         for (u, v) in ((p, q), (q, p))], dtype=np.int64)
    us, vs = oriented.reshape(-1, 2).T
    assert _thick_extension_counts(g, tau, us, vs).tolist() == \
        pairs.thick_extension_counts(g, tau, us, vs)
    for top in (g.max_degree(), g.max_degree() + 0.5):  # no hot row: all 0
        counts = _thick_extension_counts(g, top, us, vs)
        assert not counts.any()
        assert counts.tolist() == pairs.thick_extension_counts(g, top, us, vs)


# (|X|, |Y|, ...) bipartite hosts as above whose X vertices share 20 or
# more neighbours: the drawn positions reach deep into long common rows
wide_hosts = st.tuples(st.integers(2, 5), st.integers(23, 27),
                       st.sampled_from([0.95, 1.0]), st.integers(0, 2 ** 20),
                       st.sets(st.integers(0, 3), max_size=2))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["general", "bipartite", "wide"]), hosts,
       bipartite_hosts, wide_hosts, st.integers(0, 2 ** 32),
       st.sampled_from([0, 0.25, 0.5, 0.75, 1, 1.5]))
def test_sample_thin_fraction_equals_the_per_sample_loop(kind, general,
                                                         two_sided, wide,
                                                         seed, scale):
    g = (_general(general) if kind == "general" else
         _bipartite(two_sided if kind == "bipartite" else wide)[0])
    tau = scale * g.max_degree()  # 0 up to above the largest degree
    ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert embedders._sample_thin_fraction(g, tau, ours) == \
        pairs.sample_thin_fraction(g, tau, ref)
    assert ours.bit_generator.state == ref.bit_generator.state  # same draws
