"""Tests for the benchmark's output check and tracer.

    python3 -m pytest -q perfbench
"""

import json
import sys
from pathlib import Path

import pytest

import check
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
TARGETS = {json.dumps(leg.target, sort_keys=True): leg.target
           for wl in WORKLOADS.values() for leg in wl.legs}


def embedded(target, spread=3):
    """A host holding exactly one copy of the pattern, on vertex ids spread
    apart so that unused ids exist, and a certificate for that copy."""
    g, alias = check.pattern(target)
    image = {node: spread * i + 1 for i, node in enumerate(sorted(g.nodes))}
    n = spread * len(image) + 2
    edges = {min(image[a], image[b]) * n + max(image[a], image[b])
             for a, b in g.edges}
    first = {}
    for label, node in alias.items():
        first.setdefault(node, label)
    cert = {"pattern": dict(target), "method": {},
            "mapping": sorted([label, image[node]] for node, label in first.items())}
    return n, edges, cert


@pytest.mark.parametrize("key", sorted(TARGETS))
def test_pattern_checks_hold_for_every_workload_target(key):
    assert check.pattern_problems(TARGETS[key]) == []


@pytest.mark.parametrize("key", sorted(TARGETS))
def test_known_good_certificate_passes(key):
    n, edges, cert = embedded(TARGETS[key])
    assert check.certificate_problem(cert, TARGETS[key], n, edges) is None


@pytest.mark.parametrize("key", sorted(TARGETS))
def test_vertex_moved_onto_non_neighbour_is_rejected(key):
    target = TARGETS[key]
    n, edges, cert = embedded(target)
    used = {v for _, v in cert["mapping"]}
    spare = next(v for v in range(n) if v not in used)  # isolated in the host
    cert["mapping"][0][1] = spare
    why = check.certificate_problem(cert, target, n, edges)
    assert why is not None and "non-edge" in why


@pytest.mark.parametrize("key", sorted(TARGETS))
def test_vertex_used_twice_is_rejected(key):
    target = TARGETS[key]
    n, edges, cert = embedded(target)
    cert["mapping"][1][1] = cert["mapping"][0][1]
    why = check.certificate_problem(cert, target, n, edges)
    assert why is not None and "share a host vertex" in why


def test_wrong_pattern_missing_label_and_outside_vertex_are_rejected():
    target = {"kind": "prism", "ell": 4}
    n, edges, cert = embedded(target)
    other = dict(cert, pattern={"kind": "prism", "ell": 3})
    assert "not the target" in check.certificate_problem(other, target, n, edges)
    short = dict(cert, mapping=cert["mapping"][1:])
    assert "covers" in check.certificate_problem(short, target, n, edges)
    outside = json.loads(json.dumps(cert))
    outside["mapping"][0][1] = n
    assert "outside" in check.certificate_problem(outside, target, n, edges)


def test_honeycomb_aliases_must_agree():
    target = {"kind": "honeycomb", "k": 3, "ell": 4}
    n, edges, cert = embedded(target)
    v = dict(cert["mapping"])["1,2"]  # apex v also answers to "1,4"
    agree = dict(cert, mapping=cert["mapping"] + [["1,4", v]])
    assert check.certificate_problem(agree, target, n, edges) is None
    clash = dict(cert, mapping=cert["mapping"] + [["1,4", v + 1]])
    assert "disagrees" in check.certificate_problem(clash, target, n, edges)


def test_pattern_checks_catch_a_broken_construction(monkeypatch):
    real = check._rows_zigzag

    def missing_edge(k, ell, torus):
        g = real(k, ell, torus)
        g.remove_edge(*next(iter(g.edges)))
        return g

    monkeypatch.setattr(check, "_rows_zigzag", missing_edge)
    assert check.pattern_problems({"kind": "torus", "k": 4, "ell": 2})
    assert check.pattern_problems({"kind": "cylinder", "k": 4, "ell": 2})


def test_tracer_counts_nested_calls_and_restores(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import turan_forge.cli as cli
    import turan_forge.embedders as embedders
    from tracer import Tracer

    host = tmp_path / "k10_10.el"
    host.write_text("n 20\n" + "".join(f"{a} {10 + b}\n" for a in range(10)
                                       for b in range(10)))
    config = {"host": {"kind": "file", "path": str(host)},
              "target": {"kind": "prism_path", "t": 2}}
    originals = (cli.run_pipeline, embedders.find_prism_path,
                 embedders.verify_certificate)
    tracer = Tracer()
    tracer.install()
    try:
        code, report = cli.run_pipeline(config)
    finally:
        tracer.uninstall()
    assert (cli.run_pipeline, embedders.find_prism_path,
            embedders.verify_certificate) == originals
    assert code == 0
    assert tracer.calls["cli.run_pipeline"] == 1
    assert tracer.calls["embedders.find_prism_path"] == 1
    # once inside the embedder, once more by the pipeline
    assert tracer.calls["oracle.verify_certificate"] == 2
    assert tracer.calls["graphs.read_edge_list"] == 1
    assert tracer.metric("graphs.codegree_matrix_builds") >= 1
    assert all(s >= 0 for s in tracer.self_s.values())
    n, edges = 20, {a * 20 + 10 + b for a in range(10) for b in range(10)}
    assert check.certificate_problem(report["certificate"],
                                     config["target"], n, edges) is None
