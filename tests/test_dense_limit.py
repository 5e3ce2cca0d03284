"""Hosts above ``graphs.DENSE_LIMIT`` ids refuse up front.

Nothing is patched: the host has the limit plus one ids (all but a few of
them isolated) and a K(4, 4), so every codegree kernel would need an array
of more than 1 GiB.  Each entry point must raise ``ResourceError`` within a
second, without allocating that array, and the CLI must exit 1 with a
one-line message.
"""

import time
import tracemalloc

import pytest

from turan_forge.cli import main
from turan_forge.counting import classify_c4, count_c4
from turan_forge.embedders import find_prism, find_prism_path
from turan_forge.errors import ResourceError
from turan_forge.graphs import DENSE_LIMIT, build_graph, write_edge_list
from turan_forge.rich_collections import build_good_paths, layered_rich_cycles
from turan_forge.transforms import clean_subgraph, is_clean

EDGES = [(x, 4 + y) for x in range(4) for y in range(4)]
CALLS = {
    "clean_subgraph": clean_subgraph,
    "is_clean": is_clean,
    "find_prism_path": lambda g: find_prism_path(g, 2),
    "find_prism": lambda g: find_prism(g, 2),
    "count_c4": count_c4,
    "classify_c4": lambda g: classify_c4(g, 1.0),
    "build_good_paths": lambda g: build_good_paths(g, 1, 2, 1.0, 256.0),
    "layered_rich_cycles": lambda g: layered_rich_cycles(g, 2, 2, seed=0),
}


def _refusal_time(call):
    t0 = time.perf_counter()
    with pytest.raises(ResourceError, match=f"at most {DENSE_LIMIT} ids$"):
        call()
    return time.perf_counter() - t0


@pytest.mark.parametrize("name", sorted(CALLS))
def test_host_above_limit_refuses_fast(name):
    g = build_graph(DENSE_LIMIT + 1, EDGES)
    assert _refusal_time(lambda: CALLS[name](g)) < 1.0
    tracemalloc.start()
    try:
        _refusal_time(lambda: CALLS[name](build_graph(DENSE_LIMIT + 1, EDGES)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20  # the codegree matrix alone would be 1 GiB


@pytest.mark.parametrize("argv", [["count", "c4"], ["transform", "clean"]])
def test_cli_refuses_host_above_limit(tmp_path, capsys, argv):
    host = tmp_path / "host.txt"
    write_edge_list(build_graph(DENSE_LIMIT + 1, EDGES), host)
    t0 = time.perf_counter()
    code = main(argv + ["--in", str(host), "--out", str(tmp_path / "out")])
    assert time.perf_counter() - t0 < 1.0
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("resource error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_host_at_limit_builds_its_blocks():
    # DENSE_LIMIT ids is within the limit: a block of the edge's ends is read
    g = build_graph(DENSE_LIMIT, EDGES)
    assert g.block([0, 1], [4, 5, 0]).tolist() == [[1, 1, 0], [1, 1, 0]]
