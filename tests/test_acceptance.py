"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with -s to see them) and enforcing its stated time budget."""

import itertools
import json
import time

import numpy as np
import pytest

from tests_support_pairs import cycle_dfs
from turan_forge.certificates import EmbeddingCertificate
from turan_forge.cli import run_pipeline
from turan_forge.counting import (check_path_inequality, count_c4,
                                  count_even_cycles, hom_path_count)
from turan_forge.embedders import find_prism, find_prism_path
from turan_forge.generators import PatternSpec, pattern, polarity_graph, random_graph
from turan_forge.graphs import build_graph, two_coloring
from turan_forge.oracle import find_subgraph, max_edges_exhaustive, verify_certificate
from turan_forge.rich_collections import (build_rich_cycles, build_rich_paths,
                                          build_good_paths, replay_audit,
                                          verify_collection)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    assert ok, f"acceptance {num}: {detail}"


def test_acceptance_1_polarity_suite():
    worst = 0.0
    for q in (2, 3, 4, 5, 7, 8, 11, 13):
        t0 = time.perf_counter()
        g = polarity_graph(q)
        assert g.n == q * q + q + 1
        assert g.edge_count == q * (q + 1) ** 2 // 2
        m = g.codegree_matrix()
        off_diag = m - np.diag(np.diag(m))
        assert off_diag.max() <= 1
        worst = max(worst, time.perf_counter() - t0)
    _report(1, worst < 1.0,
            f"polarity graphs q in 2..13: counts and codegree<=1, "
            f"slowest case {worst:.2f}s (< 1s)")


def test_acceptance_2_pattern_suite():
    t0 = time.perf_counter()
    from tests_support_patterns import oracle_counts  # noqa: F401

    cases = ([("grid", {"t": t}) for t in range(1, 6)]
             + [("prism", {"ell": e}) for e in range(2, 7)]
             + [("cylinder", {"k": k, "ell": e})
                for k in range(2, 6) for e in range(2, 6)]
             + [("torus", {"k": k, "ell": e})
                for k in (4, 6) for e in (2, 3, 4)]
             + [("honeycomb", {"k": k, "ell": e})
                for (k, e) in ((1, 2), (3, 2), (3, 4), (5, 4))])
    for kind, params in cases:
        g, labels = pattern(PatternSpec(kind, params))
        nv, ne = oracle_counts(kind, **params)
        assert (g.n, g.edge_count) == (nv, ne), (kind, params)
        assert set(labels.values()) == set(range(g.n))
        if kind == "prism":
            assert set(g.degrees()) == {3} and two_coloring(g) is not None
        if kind == "torus":
            assert set(g.degrees()) == {4}
    h34, _ = pattern(PatternSpec("honeycomb", {"k": 3, "ell": 4}))
    c6, _ = pattern(PatternSpec("even_cycle", {"ell": 3}))
    assert find_subgraph(h34, c6)[0] is not None
    dt = time.perf_counter() - t0
    _report(2, dt < 5.0,
            f"{len(cases)} patterns match independent enumeration, prism "
            f"3-regular bipartite, torus 4-regular, C6 in H(3,4); "
            f"{dt:.2f}s (< 5s)")


def _hom_matrix_oracle(g, k):
    n = g.n
    a = np.zeros((n, n), dtype=object)
    for (u, v) in g.edges():
        a[u, v] = a[v, u] = 1
    vec = np.ones(n, dtype=object)
    for _ in range(k - 1):
        vec = a @ vec
    return int(vec.sum())


def _brute_cycles(g, length):
    out = set()
    for sub in itertools.combinations(list(g.vertices()), length):
        for perm in itertools.permutations(sub[1:]):
            cyc = (sub[0],) + perm
            if all(g.has_edge(cyc[i], cyc[(i + 1) % length])
                   for i in range(length)):
                out.add(min(cyc, cyc[:1] + tuple(reversed(cyc[1:]))))
    return len(out)


def test_acceptance_3_counting_equivalence():
    t0 = time.perf_counter()
    rng_cases = [(2000 + i, 2 + i % 9, 1 + i % 6) for i in range(200)]
    for seed, n, k in rng_cases:
        g = random_graph(n, 0.2 + (seed % 5) * 0.15, seed)
        assert hom_path_count(g, k) == _hom_matrix_oracle(g, k)
    for i in range(100):
        g = random_graph(5 + i % 21, 0.15 + (i % 4) * 0.1, 3000 + i)
        # the DFS shares no code with the codegree sum or the wedge pairs
        assert count_c4(g) == count_even_cycles(g, 2)[0] == sum(
            1 for _ in cycle_dfs(g, 4))
    for i in range(50):
        g = random_graph(8 + i % 7, 0.3 + (i % 3) * 0.1, 4000 + i)
        assert count_even_cycles(g, 3)[0] == _brute_cycles(g, 6)
    dt = time.perf_counter() - t0
    _report(3, dt < 60.0,
            f"hom vs matrix power on 200 graphs, c4 vs wedge pairs and DFS "
            f"on 100, hexagons vs permutation brute force on 50; {dt:.1f}s "
            f"(< 60s)")


def test_acceptance_4_path_inequality():
    t0 = time.perf_counter()
    checked = 0
    for i in range(500):
        g = random_graph(3 + i % 22, 0.1 + (i % 8) * 0.1, 5000 + i)
        if g.edge_count == 0:
            continue
        for k in (2, 4, 6):
            for l in range(1, k):
                ok, lhs, rhs = check_path_inequality(g, k, l)
                assert ok, (i, k, l, lhs, rhs)
                checked += 1
    dt = time.perf_counter() - t0
    _report(4, dt < 30.0,
            f"walk-count inequality holds in all {checked} cases over "
            f"500 graphs; {dt:.1f}s (< 30s)")


def test_acceptance_5_collection_builders():
    t0 = time.perf_counter()
    k6 = build_graph(6, list(itertools.combinations(range(6), 2)))
    coll, audit = build_rich_paths(k6, 3, 4)
    assert len(coll) == 120
    ok, ce = verify_collection(coll, k6, 4)
    assert ok, ce
    seed_paths = {p for p in itertools.permutations(range(6), 3)
                  if k6.has_edge(p[0], p[1]) and k6.has_edge(p[1], p[2])}
    assert replay_audit(seed_paths, audit, "path", 3) == set(coll.iter_members())
    empty, audit5 = build_rich_paths(k6, 3, 5)
    assert len(empty) == 0
    assert replay_audit(seed_paths, audit5, "path", 3) == set()

    k44 = build_graph(8, [(a, 4 + b) for a in range(4) for b in range(4)])
    cyc, cyc_audit = build_rich_cycles(k44, 2, 2)
    assert len(cyc) == 36
    ok, ce = verify_collection(cyc, k44, 2)
    assert ok, ce
    assert len(build_rich_cycles(polarity_graph(3), 2, 1)[0]) == 0
    c6 = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert len(build_rich_cycles(c6, 3, 2)[0]) == 0

    k88 = build_graph(16, [(a, 8 + b) for a in range(8) for b in range(8)])
    good, _, case = build_good_paths(k88, 1, 4, 16.0, 64.0)
    assert case == 1 and len(good) == 896
    ok, ce = verify_collection(good, k88, 4)
    assert ok, ce
    good2, _, case2 = build_good_paths(c6, 1, 2, 0.5, 4.0)
    assert case2 == 2 and len(good2) == 0
    dt = time.perf_counter() - t0
    _report(5, dt < 10.0,
            f"builders match module examples, verify, and replay; "
            f"{dt:.1f}s (< 10s)")


def test_acceptance_6_embedder_soundness():
    t0 = time.perf_counter()
    n_hosts = 50
    budget = 10 ** 7
    legs = {
        "grid": ({"kind": "grid", "t": 3},
                 {"alpha": 9, "strategy": "layered"}),
        "cylinder": ({"kind": "cylinder", "k": 4, "ell": 2},
                     {"alpha": 8, "strategy": "layered"}),
        "torus": ({"kind": "torus", "k": 4, "ell": 2},
                  {"alpha": 8, "strategy": "layered"}),
        "honeycomb": ({"kind": "honeycomb", "k": 3, "ell": 4},
                      {"alpha": 12, "strategy": "layered"}),
        "prism_path": ({"kind": "prism_path", "t": 5}, {}),
        "prism": ({"kind": "prism", "ell": 4}, {"T": 8.0}),
    }
    successes = {name: 0 for name in legs}
    invalid = 0
    for i in range(n_hosts):
        n = 200 + 8 * i
        p = min(0.9, 18.0 / n ** 0.5)
        host_cfg = {"kind": "gnp", "n": n, "p": p, "seed": 5000 + i,
                    "bipartite": True}
        host = random_graph(n, p, 5000 + i, bipartite=True)
        assert host.average_degree >= 6 * n ** 0.5
        for name, (target, builder) in legs.items():
            cfg = {"host": host_cfg, "target": target, "builder": builder,
                   "embedder": {"budget": budget, "seed": 100 + i}}
            code, report = run_pipeline(cfg)
            assert code in (0, 3), (name, i, code)
            if code == 0:
                cert = EmbeddingCertificate.from_json(report["certificate"])
                ok, why = verify_certificate(host, cert)
                if not ok:
                    invalid += 1
                else:
                    successes[name] += 1
    dt = time.perf_counter() - t0
    rates = {name: successes[name] / n_hosts for name in legs}
    ok = (invalid == 0 and all(r >= 0.9 for r in rates.values())
          and dt < 600.0)
    _report(6, ok,
            f"50 dense hosts, zero invalid certificates, success rates "
            f"{ {k: round(v, 2) for k, v in rates.items()} }; "
            f"{dt:.0f}s (< 600s)")


def test_acceptance_7_negative_controls():
    t0 = time.perf_counter()
    from turan_forge.embedders import embed_cylinder

    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13):
        host = polarity_graph(q)
        cert, _ = find_prism(host, 4, 8.0, budget=10 ** 5, seed=1)
        assert cert is None, q
        coll, _ = build_rich_cycles(host, 2, 1)
        assert len(coll) == 0
        assert embed_cylinder(host, coll, 2, 2) is None
    dt = time.perf_counter() - t0
    _report(7, dt < 30.0,
            f"prism and cylinder honestly not-found on all 9 C4-free "
            f"polarity hosts q <= 13; {dt:.1f}s (< 30s)")


def test_acceptance_8_prism_path_contract():
    t0 = time.perf_counter()
    for m in (10, 20, 40):
        host = build_graph(2 * m, [(a, m + b) for a in range(m)
                                   for b in range(m)])
        for t in (1, 2, 3, 4, 5):
            cert = find_prism_path(host, t)
            assert cert is not None, (m, t)  # residue invariant asserted inside
            ok, why = verify_certificate(host, cert)
            assert ok, why
            assert cert.method["residue"]["e"] == m * m
    dt = time.perf_counter() - t0
    _report(8, dt < 10.0,
            f"ladder finder succeeds on K(m,m) for m in 10/20/40, t <= 5, "
            f"residue invariant asserted; {dt:.1f}s (< 10s)")


def test_acceptance_9_extremal_values():
    t0 = time.perf_counter()
    c4, _ = pattern(PatternSpec("even_cycle", {"ell": 2}))
    values = {}
    for n in range(3, 8):
        e, witness = max_edges_exhaustive(n, c4)
        values[n] = e
        mapping, _ = find_subgraph(witness, c4)
        assert mapping is None  # witness verified C4-free by the oracle
        assert e <= int((n / 4) * (1 + (4 * n - 3) ** 0.5))
    assert values[3] == 3 and values[4] == 4
    assert all(values[n] <= values[n + 1] for n in range(3, 7))
    dt = time.perf_counter() - t0
    _report(9, dt < 300.0,
            f"ex(n, C4) for n=3..7 = {[values[n] for n in range(3, 8)]}, "
            f"monotone, within the codegree bound, witnesses verified; "
            f"{dt:.1f}s (< 300s)")


def test_acceptance_10_pipeline_determinism(tmp_path):
    t0 = time.perf_counter()
    report = tmp_path / "rep.json"
    cert = tmp_path / "cert.json"
    config = {
        "host": {"kind": "gnp", "n": 240, "p": 0.9, "seed": 11,
                 "bipartite": True},
        "target": {"kind": "torus", "k": 4, "ell": 2},
        "builder": {"alpha": 8, "strategy": "layered"},
        "embedder": {"budget": 10 ** 6, "seed": 3},
        "out": {"report": str(report), "certificate": str(cert)},
    }
    blobs = set()
    for _ in range(6):
        code, _rep = run_pipeline(json.loads(json.dumps(config)))
        assert code == 0
        blobs.add((report.read_bytes(), cert.read_bytes()))
    dt = time.perf_counter() - t0
    _report(10, len(blobs) == 1,
            f"6 pipeline runs produced byte-identical report and "
            f"certificate; {dt:.1f}s")
