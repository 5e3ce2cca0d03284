import itertools

import pytest

from turan_forge import embedders, oracle
from turan_forge.embedders import (embed_cylinder, embed_grid, embed_honeycomb,
                                   embed_torus, find_prism, find_prism_path)
from turan_forge.errors import InputError
from turan_forge.generators import PatternSpec, pattern, polarity_graph, random_graph
from turan_forge.graphs import Graph, build_graph
from turan_forge.oracle import verify_certificate
from turan_forge.rich_collections import (LabeledCollection, build_rich_cycles,
                                          build_rich_paths, layered_good_paths,
                                          layered_rich_cycles, verify_collection)


def complete(n):
    return build_graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite(a, b):
    return build_graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def checked(host, cert):
    assert cert is not None
    ok, why = verify_certificate(host, cert)
    assert ok, why
    return cert


def test_embed_grid_t2_from_k6():
    k6 = complete(6)
    coll, _ = build_rich_paths(k6, 3, 4)
    cert = checked(k6, embed_grid(k6, coll, 2))
    assert len(set(cert.host_vertices())) == 4


def test_embed_grid_t3():
    k13 = complete(13)
    coll, _ = build_rich_paths(k13, 5, 9, cap=10 ** 6)
    cert = checked(k13, embed_grid(k13, coll, 3))
    assert len(set(cert.host_vertices())) == 9


def test_embed_grid_edge_cases():
    k6 = complete(6)
    coll, _ = build_rich_paths(k6, 3, 4)
    assert embed_grid(k6, LabeledCollection.from_members("path", 3, [],
                                                         alpha=4), 2) is None
    cert = embed_grid(k6, coll, 1)
    assert cert is not None and len(cert.mapping) == 1
    with pytest.raises(InputError):
        embed_grid(k6, coll, 3)  # wrong length for t=3
    weak = LabeledCollection.from_members("path", 3, coll.iter_members(),
                                          alpha=3)
    with pytest.raises(InputError):
        embed_grid(k6, weak, 2)  # alpha below t^2


def test_embed_cylinder():
    k88 = complete_bipartite(8, 8)
    c6 = build_rich_cycles(k88, 3, 6, cap=10 ** 6)[0]
    cert = checked(k88, embed_cylinder(k88, c6, 2, 3))
    assert len(set(cert.host_vertices())) == 6
    c4 = build_rich_cycles(k88, 2, 6)[0]
    cert = checked(k88, embed_cylinder(k88, c4, 3, 2))
    assert len(set(cert.host_vertices())) == 6
    k99 = complete_bipartite(9, 9)
    c4 = build_rich_cycles(k99, 2, 8)[0]
    cert = checked(k99, embed_cylinder(k99, c4, 4, 2))
    assert len(set(cert.host_vertices())) == 8


def test_embed_cylinder_not_found_and_errors():
    empty, _ = build_rich_cycles(polarity_graph(3), 2, 1)
    assert embed_cylinder(polarity_graph(3), empty, 2, 2) is None
    k88 = complete_bipartite(8, 8)
    c4 = build_rich_cycles(k88, 2, 6)[0]
    with pytest.raises(InputError):
        embed_cylinder(k88, c4, 4, 2)  # needs alpha >= 8, collection has 6


def test_embed_torus_small_and_deterministic():
    k99 = complete_bipartite(9, 9)
    coll = build_rich_cycles(k99, 2, 8)[0]
    cert = checked(k99, embed_torus(k99, coll, 4, 2, budget=10 ** 6, seed=5))
    assert len(set(cert.host_vertices())) == 8
    for _ in range(2):
        again = embed_torus(k99, coll, 4, 2, budget=10 ** 6, seed=5)
        assert again.to_json() == cert.to_json()
    assert "prop_threshold" in cert.method


def test_embed_torus_dense_random():
    g = random_graph(300, 0.9, 21, bipartite=True)
    coll = layered_rich_cycles(g, 2, 8, seed=3)
    cert = checked(g, embed_torus(g, coll, 4, 2, budget=10 ** 7, seed=2))
    assert len(set(cert.host_vertices())) == 8


def test_embed_torus_labels_from_slots(monkeypatch):
    # the label map comes from the tuple cycle itself: no subgraph search
    def boom(*args, **kwargs):
        raise AssertionError("embed_torus must not search for the torus")

    monkeypatch.setattr(embedders, "find_subgraph", boom, raising=False)
    monkeypatch.setattr(oracle, "find_subgraph", boom)
    k99 = complete_bipartite(9, 9)
    coll = build_rich_cycles(k99, 2, 8)[0]
    checked(k99, embed_torus(k99, coll, 4, 2, budget=10 ** 6, seed=5))
    # ell = 3 on a host that is not complete, where a wrong column shift of
    # one row would map a torus edge onto a non-edge
    g = random_graph(24, 0.6, 2, bipartite=True)
    cycles = build_rich_cycles(g, 3, 2)[0]
    for k in (4, 6):
        cert = checked(g, embed_torus(g, cycles, k, 3, budget=10 ** 5, seed=0))
        assert len(set(cert.host_vertices())) == 3 * k


def test_embed_torus_pigeonhole_and_errors():
    k22 = complete_bipartite(2, 2)
    tiny = build_rich_cycles(k22, 2, 1)[0]
    assert embed_torus(k22, tiny, 4, 2, budget=10 ** 4, seed=0) is None
    k3 = complete(3)
    coll = build_rich_cycles(complete_bipartite(9, 9), 2, 8)[0]
    with pytest.raises(InputError):
        embed_torus(k3, coll, 4, 2)


def product_good_collection():
    # layered complete join inside K(32,32): a | B | C | D | E | z
    host = complete_bipartite(32, 32)
    a, z = 0, 56
    B = range(32, 44)
    C = range(1, 13)
    D = range(44, 56)
    E = range(13, 25)
    members = [(a, b, c, d, e, z) for b in B for c in C for d in D for e in E]
    coll = LabeledCollection.from_members("path", 6, members, good=True,
                                          alpha=12)
    return host, coll


def test_embed_honeycomb():
    host, coll = product_good_collection()
    ok, ce = verify_collection(coll, host, 12)
    assert ok, ce
    cert = checked(host, embed_honeycomb(host, coll, 3, 4))
    assert len(set(cert.host_vertices())) == 10  # k*ell - ell + 2


def test_embed_honeycomb_trivial_and_errors():
    host = complete_bipartite(4, 4)
    edge = LabeledCollection.from_members("path", 2, [(0, 4)], good=True,
                                          alpha=2)
    cert = checked(host, embed_honeycomb(host, edge, 1, 2))
    assert len(cert.mapping) == 2
    empty = LabeledCollection.from_members("path", 6, [], good=True, alpha=12)
    assert embed_honeycomb(host, empty, 3, 4) is None
    _, coll = product_good_collection()
    with pytest.raises(InputError):
        embed_honeycomb(host, coll, 3, 8)  # alpha 12 < k*ell = 24


def test_embed_honeycomb_accepts_longer_good_collection():
    # a good collection of (2k+1)-paths is auto-restricted by last vertex
    k88 = complete_bipartite(8, 8)
    from turan_forge.rich_collections import build_good_paths

    coll, _, _ = build_good_paths(k88, 1, 2, 16.0, 64.0)
    assert coll.length == 3
    cert = checked(k88, embed_honeycomb(k88, coll, 1, 2))
    assert len(cert.mapping) == 2


def test_embed_honeycomb_layered_random():
    g = random_graph(300, 0.9, 31, bipartite=True)
    coll = layered_good_paths(g, 3, 12, seed=8)
    cert = checked(g, embed_honeycomb(g, coll, 3, 4))
    assert len(set(cert.host_vertices())) == 10


def test_find_prism_path_kmm():
    for m, t in ((10, 2), (20, 3), (40, 5)):
        kmm = complete_bipartite(m, m)
        cert = checked(kmm, find_prism_path(kmm, t))
        assert len(set(cert.host_vertices())) == 2 * t
    matching = build_graph(8, [(i, 4 + i) for i in range(4)])
    assert find_prism_path(matching, 2) is None


def test_find_prism_path_explicit_parts():
    kmm = complete_bipartite(12, 12)
    xs = list(range(12))
    ys = list(range(12, 24))
    cert = checked(kmm, find_prism_path(kmm, 4, parts=(xs, ys)))
    assert cert.method["residue"]["e"] == 144


def test_find_prism_k2020():
    k = complete_bipartite(20, 20)
    cert, diag = find_prism(k, 4, 8.0, budget=10 ** 6, seed=3)
    checked(k, cert)
    assert diag["thin_fraction"] == 1.0


@pytest.mark.parametrize("make, ell, t_factor", [
    (lambda: complete_bipartite(12, 12), 2, 0.5),
    (lambda: random_graph(200, 0.9, 1, bipartite=True), 4, 8.0)],
    ids=["K12,12", "gnp"])
def test_thick_first_prism_builds_no_codegree_matrix(monkeypatch, make, ell,
                                                     t_factor):
    # the classifier and the thick branch read only the codegrees they use
    cert, diag = find_prism(make(), ell, t_factor, budget=2000, seed=1)
    assert diag["branch_order"] == "thick,thin"
    assert cert.method["branch"] == "thick"

    def refuse(self):
        raise AssertionError("codegree matrix built")

    monkeypatch.setattr(Graph, "codegree_matrix", refuse)
    g = make()
    again, diag_again = find_prism(g, ell, t_factor, budget=2000, seed=1)
    assert checked(g, again).to_json() == cert.to_json()
    assert diag_again == diag


def test_find_prism_polarity_not_found():
    for q in (3, 5, 7):
        cert, diag = find_prism(polarity_graph(q), 4, 8.0, budget=10 ** 5,
                                seed=1)
        assert cert is None


def test_find_prism_dense_random_deterministic():
    g = random_graph(420, 0.85, 17, bipartite=True)
    cert, _ = find_prism(g, 4, 8.0, budget=10 ** 7, seed=9)
    checked(g, cert)
    cert2, _ = find_prism(g, 4, 8.0, budget=10 ** 7, seed=9)
    assert cert2.to_json() == cert.to_json()


def test_find_prism_thin_branch_on_moderate_host():
    g = random_graph(420, 12.5 / 420 ** 0.5, 23, bipartite=True)
    cert, diag = find_prism(g, 4, 8.0, budget=10 ** 7, seed=4)
    checked(g, cert)
    assert cert.method["branch"] == "thin"


def test_find_prism_success_rate_over_seeds():
    # bipartite hosts with average degree around 8*sqrt(n)
    n = 600
    p = 16.0 / n ** 0.5
    hits = 0
    for s in range(10):
        g = random_graph(n, p, 900 + s, bipartite=True)
        cert, _ = find_prism(g, 4, 8.0, budget=10 ** 7, seed=s)
        if cert is not None:
            checked(g, cert)
            hits += 1
    assert hits >= 9


def test_embed_torus_spec_density():
    # d ~ 6*sqrt(n) bipartite host
    n = 400
    g = random_graph(n, 12.0 / n ** 0.5, 41, bipartite=True)
    coll = layered_rich_cycles(g, 2, 8, seed=6)
    assert len(coll) > 0
    cert = checked(g, embed_torus(g, coll, 4, 2, budget=10 ** 7, seed=1))
    assert len(set(cert.host_vertices())) == 8
