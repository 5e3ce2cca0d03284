import itertools

import pytest

from turan_forge.certificates import EmbeddingCertificate
from turan_forge.errors import InputError
from turan_forge.generators import PatternSpec, pattern, polarity_graph, random_graph
from turan_forge.graphs import build_graph
from turan_forge.oracle import (_pattern, find_subgraph, max_edges_exhaustive,
                               verify_certificate)


def cycle_pattern(length):
    return pattern(PatternSpec("even_cycle", {"ell": length // 2}))[0]


def brute_contains(host, pat):
    hv = list(host.vertices())
    pv = list(pat.vertices())
    for tup in itertools.permutations(hv, len(pv)):
        lookup = dict(zip(pv, tup))
        if all(host.has_edge(lookup[a], lookup[b]) for (a, b) in pat.edges()):
            return True
    return False


def test_find_subgraph_examples():
    c4 = cycle_pattern(4)
    mapping, stats = find_subgraph(c4, c4)
    assert mapping is not None and stats.result == "found"
    mapping, stats = find_subgraph(polarity_graph(3), c4)
    assert mapping is None and stats.result == "exhausted"
    f33 = pattern(PatternSpec("grid", {"t": 3}))[0]
    f44 = pattern(PatternSpec("grid", {"t": 4}))[0]
    mapping, _ = find_subgraph(f44, f33)
    assert mapping is not None
    # found mappings are embeddings
    assert len(set(mapping.values())) == f33.num_vertices
    for (a, b) in f33.edges():
        assert f44.has_edge(mapping[a], mapping[b])


@pytest.mark.parametrize("seed", range(8))
def test_find_subgraph_matches_brute_force(seed):
    host = random_graph(8, 0.4, seed)
    for length in (4, 6):
        pat = cycle_pattern(length)
        mapping, stats = find_subgraph(host, pat)
        assert (mapping is not None) == brute_contains(host, pat)
        if mapping is None:
            assert stats.result == "exhausted"


def test_find_subgraph_budget():
    host = random_graph(60, 0.5, 1)
    pat = pattern(PatternSpec("grid", {"t": 4}))[0]
    mapping, stats = find_subgraph(host, pat, budget=5)
    if mapping is None:
        assert stats.result == "budget"
    assert stats.nodes <= 6


def test_verify_certificate():
    c4_spec = PatternSpec("even_cycle", {"ell": 2})
    host = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)])
    good = EmbeddingCertificate(c4_spec, [("1,1", 0), ("1,2", 1),
                                          ("1,3", 2), ("1,4", 3)])
    ok, why = verify_certificate(host, good)
    assert ok, why
    dup = EmbeddingCertificate(c4_spec, [("1,1", 0), ("1,2", 1),
                                         ("1,3", 0), ("1,4", 3)])
    ok, why = verify_certificate(host, dup)
    assert not ok and "injective" in why
    nonedge = EmbeddingCertificate(c4_spec, [("1,1", 0), ("1,2", 1),
                                             ("1,3", 2), ("1,4", 4)])
    ok, why = verify_certificate(host, nonedge)
    assert not ok and "non-edge" in why
    short = EmbeddingCertificate(c4_spec, [("1,1", 0)])
    ok, why = verify_certificate(host, short)
    assert not ok


def test_verify_certificate_builds_each_pattern_once():
    spec = PatternSpec("prism", {"ell": 2})
    pat, labels = _pattern("prism", None, 2, None)
    again = _pattern("prism", None, 2, None)
    assert again[0] is pat and again[1] is labels
    assert dict(labels) == pattern(spec)[1]
    with pytest.raises(TypeError):  # the shared label map is read-only
        labels["1,1"] = 5
    # parameters the kind does not read, unhashable ones too, share the build
    odd = PatternSpec("prism", {"ell": 2, "k": [1], "note": [1]})
    host = build_graph(8, list(pattern(spec)[0].edges()))
    misses = _pattern.cache_info().misses
    for s in (odd, spec):
        cert = EmbeddingCertificate(s, sorted(labels.items()))
        assert verify_certificate(host, cert) == (True, None)
    assert _pattern.cache_info().misses == misses


def brute_max_edges(n, pat):
    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for bits in range(1 << len(pairs)):
        if bin(bits).count("1") <= best:
            continue
        g = build_graph(n, [pairs[i] for i in range(len(pairs))
                            if bits >> i & 1])
        if not brute_contains(g, cycle_pattern(4)):
            best = g.edge_count
    return best


def test_max_edges_exhaustive_small():
    c4 = cycle_pattern(4)
    values = {}
    for n in range(3, 8):
        e, witness = max_edges_exhaustive(n, c4)
        values[n] = e
        assert witness.edge_count == e
        assert find_subgraph(witness, c4)[0] is None
        bound = int((n / 4) * (1 + (4 * n - 3) ** 0.5))
        assert e <= bound
    assert values[3] == 3 and values[4] == 4
    assert all(values[n] <= values[n + 1] for n in range(3, 7))
    # independent 2^C(n,2) brute force for the smallest cases
    assert values[3] == brute_max_edges(3, c4)
    assert values[4] == brute_max_edges(4, c4)
    assert values[5] == brute_max_edges(5, c4)


@pytest.mark.parametrize("seed", range(6))
def test_cross_module_cycle_consistency(seed):
    from turan_forge.counting import count_even_cycles

    host = random_graph(14, 0.35, 7000 + seed)
    for ell in (2, 3):
        pat = cycle_pattern(2 * ell)
        mapping, _ = find_subgraph(host, pat)
        assert (mapping is not None) == (count_even_cycles(host, ell)[0] > 0)


def test_max_edges_caps_and_errors():
    c4 = cycle_pattern(4)
    with pytest.raises(InputError):
        max_edges_exhaustive(10, c4)
    with pytest.raises(InputError):
        max_edges_exhaustive(4, build_graph(3, []))
