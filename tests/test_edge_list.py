"""Contract of the edge-list reader and writer.

``reference_read`` is the line-by-line reader (and the set-based checks of
the graph builder) of earlier versions; ``read_edge_list`` must give the
same graph, or the same ``InputError`` message, on every file, whether it
takes its one-call path for the layout ``edge_list_text`` writes or reads
line by line.
"""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from turan_forge import cli, graphs
from turan_forge.errors import InputError, ResourceError
from turan_forge.graphs import (build_graph, edge_list_text, read_edge_list,
                                write_edge_list)

fromstring = np.fromstring


def reference_read(path_or_lines):
    """(n, sorted edges) of an edge list, or InputError, the old way."""
    if isinstance(path_or_lines, (str, os.PathLike)):
        with open(path_or_lines, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    else:
        lines = list(path_or_lines)
    n_decl = None
    edges = []
    max_id = -1
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or n_decl is not None:
                raise InputError(f"bad header line: {raw!r}")
            try:
                n_decl = int(parts[1])
            except ValueError:
                raise InputError(f"bad header line: {raw!r}") from None
            continue
        if len(parts) != 2:
            raise InputError(f"bad edge line: {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"bad edge line: {raw!r}") from None
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = n_decl if n_decl is not None else max_id + 1
    if n < 0:
        raise InputError("vertex count must be non-negative")
    seen = set()
    for (u, v) in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop at {u} rejected")
        seen.add((u, v) if u < v else (v, u))
    return n, sorted(seen)


def outcome(read, source):
    try:
        got = read(source)
    except InputError as exc:
        return "error", str(exc)
    if isinstance(got, tuple):
        return "graph", got
    return "graph", (got.n, list(got.edges()))


pad = st.sampled_from(["", " ", "\t", " \t"])
sep = st.sampled_from([" ", "\t", "  ", "\t "])


def edge_lines(ids):
    return st.builds("{}{}{}{}{}".format, pad, ids, sep, ids, pad)


comments = st.builds("{}#{}".format, pad, st.text(" \t#n01x", max_size=6))
malformed = st.sampled_from([
    "0", "0 1 2", "x y", "1.5 2", "n", "n 3 4", "n x", "0 #1", "nn 1",
    "0x1 2", "- 1", "1 2 # c"])
eols = st.sampled_from(["\n", "\r\n"])
# well-formed lines over a small id space, with "n 12" inserted at most once
good_files = st.tuples(
    st.lists(st.one_of(*[edge_lines(st.integers(0, 9))] * 4, comments, pad),
             max_size=30),
    st.one_of(st.none(), st.integers(0, 30)), eols, st.booleans())
# anything: malformed lines, repeated headers, negative and far ids
any_files = st.tuples(
    st.lists(st.one_of(*[edge_lines(st.integers(-2, 14))] * 3, comments, pad,
                       malformed,
                       st.builds("{}n{}{}".format, pad, sep, st.integers(-1, 14))),
             max_size=20),
    st.none(), eols, st.booleans())


def render(parts) -> str:
    lines, header_at, eol, trailing = parts
    lines = list(lines)
    if header_at is not None:  # the header anywhere
        lines.insert(min(header_at, len(lines)), "n 12")
    return eol.join(lines) + (eol if trailing and lines else "")


@settings(max_examples=300, deadline=None)
@given(st.one_of(good_files, any_files))
@example((["0 1", "1 0", "0 1", "2\t3"], 2, "\r\n", True))
@example((["n 5", "0 1", "n 6"], None, "\n", False))
@example((["0 1", "0 1 2"], None, "\n", False))
@example((["n -1"], None, "\n", True))
@example((["-2 -2"], None, "\n", False))  # n is 0, not -1
@example((["12", "0 1"], None, "\n", True))  # no "n " before the count
@example((["n 3", "2 1", "3 1"], None, "\n", True))  # an id equal to n
def test_reader_matches_reference(tmp_path_factory, parts):
    text = render(parts)
    path = tmp_path_factory.mktemp("el") / "g.el"
    path.write_bytes(text.encode("utf-8"))
    expect = outcome(reference_read, path)
    assert outcome(read_edge_list, path) == expect
    lines = text.splitlines()
    assert outcome(read_edge_list, lines) == outcome(reference_read, lines)


# the layout edge_list_text writes, with ids that are out of range, equal,
# zero-padded, too long or not ASCII, which the one-call path leaves alone
plain_ids = st.one_of(st.integers(0, 12).map(str), st.sampled_from(
    ["007", "13", "99", "0" * 18, "9" * 18, "1" + "0" * 18, "0" * 19, "٣"]))
plain_files = st.tuples(
    st.sampled_from(["0", "1", "12", "012", "9" * 18, "1" + "0" * 18]),
    st.lists(st.tuples(plain_ids, plain_ids), max_size=20), st.booleans(),
    st.sampled_from([" ", " ", "\t", "\xa0"]))


@settings(max_examples=200, deadline=None)
@given(plain_files)
@example(("12", [], True, " "))
@example(("3", [("0", "1"), ("1", "0"), ("0", "1")], False, " "))
def test_reader_matches_reference_on_written_layout(tmp_path_factory, parts):
    n, pairs, trailing, sep = parts
    text = f"n {n}\n" + "".join(f"{u}{sep}{v}\n" for u, v in pairs)
    text = text if trailing else text[:-1]  # the last line may lack its "\n"
    path = tmp_path_factory.mktemp("el") / "g.el"
    path.write_bytes(text.encode("utf-8"))
    expect = outcome(reference_read, path)
    calls = []
    with pytest.MonkeyPatch.context() as mp:  # see which path reads the file
        mp.setattr(np, "fromstring",
                   lambda *a, **k: calls.append(a) or fromstring(*a, **k))
        if expect[0] == "graph" and expect[1][0] > 10 ** 6:  # a header of 10**18 - 1
            with pytest.raises(ResourceError):
                read_edge_list(path)
        else:
            assert outcome(read_edge_list, path) == expect
    plain = all(len(x) <= 18 and x.isascii() for x in (n, *sum(pairs, ())))
    assert bool(calls) == (plain and (sep == " " or not pairs)
                           and bool(pairs or trailing))


# text over every kind of line boundary and separator, signs, '_' and a
# non-ASCII digit; at most four digits a token keeps the reference's rows small
spaced_text = st.text(st.sampled_from(list(
    "0123456789 \t\r\n\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u2028\u2029\u3000n#+-_x٣")),
    max_size=60).filter(lambda s: all(len(re.findall(r"\d", tok)) <= 4
                                      for tok in s.split()))


@settings(max_examples=300, deadline=None)
@given(spaced_text)
@example("n 4\x85\u3000 1\xa03\u2028# c\r\n2\x1f0\r")
def test_reader_matches_reference_on_unicode_spacing(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("el") / "g.el"
    path.write_bytes(text.encode("utf-8"))
    assert outcome(read_edge_list, path) == outcome(reference_read, path)


@pytest.mark.parametrize("lines, n, edges", [
    (["+0 1"], 2, [(0, 1)]),
    (["0 1_000"], 1001, [(0, 1000)]),
    (["٣ 0"], 4, [(0, 3)]),  # ARABIC-INDIC DIGIT THREE, as int() reads it
    (["0 1", "n 5"], 5, [(0, 1)]),  # a header after the edges
    ([], 0, []),
])
def test_pinned_answers(lines, n, edges):
    assert outcome(read_edge_list, lines) == ("graph", (n, edges))
    assert outcome(reference_read, lines) == ("graph", (n, edges))


def test_huge_ids():
    big = 10 ** 23
    lines = ["n 4", f"0 {big}"]
    msg = f"edge (0,{big}) has an endpoint outside 0..3"
    assert outcome(read_edge_list, lines) == ("error", msg)
    assert outcome(reference_read, lines) == ("error", msg)
    # without a header the id space has 10**23 + 1 ids, which no array holds
    with pytest.raises(ResourceError):
        read_edge_list([f"0 {big}"])
    with pytest.raises(ResourceError):
        read_edge_list(["n 100000000000000000000000000000", f"0 {big}"])


def test_non_utf8_host_is_input_error(tmp_path, capsys):
    host = tmp_path / "h.el"
    host.write_bytes(b"n 3\n0 1\n\xff\xfe 2\n")
    with pytest.raises(InputError, match="can.t decode byte 0xff"):
        read_edge_list(host)
    code = cli.main(["pipeline", "--host-file", str(host), "--target",
                     '{"kind": "grid", "t": 2}'])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("input error:") and "Traceback" not in err


def test_huge_header_is_resource_error(tmp_path):
    # the CSR offsets alone need 3.2 GB here; the child process may map 2 GB
    host = tmp_path / "h.el"
    host.write_text("n 400000000\n0 1\n")
    script = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (2_000_000_000,) * 2)\n"
        "from turan_forge.cli import main\n"
        "sys.exit(main(['pipeline', '--host-file', sys.argv[1], '--target',"
        " '{\"kind\": \"grid\", \"t\": 2}']))\n")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script, str(host)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stderr
    assert done.stderr.startswith("resource error:"), done.stderr


def old_text(n, edges) -> str:
    return f"n {n}\n" + "".join(f"{u} {v}\n" for (u, v) in edges)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 12).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
    .filter(lambda e: e[0] != e[1]), max_size=30))))
def test_write_is_byte_identical_and_round_trips(tmp_path_factory, data):
    n, edges = data
    g = build_graph(n, edges)
    expect = old_text(n, sorted({(min(e), max(e)) for e in edges}))
    assert edge_list_text(g) == expect
    path = tmp_path_factory.mktemp("w") / "g.el"
    write_edge_list(g, path)
    assert path.read_bytes() == expect.encode("utf-8")
    h = read_edge_list(path)
    assert (h.n, list(h.edges())) == (n, list(g.edges()))


def test_cli_writes_the_same_bytes(tmp_path, capsys):
    out = tmp_path / "g.el"
    assert cli.main(["gen", "pattern", "--kind", "grid", "--t", "3",
                     "--out", str(out)]) == 0
    assert cli.main(["gen", "pattern", "--kind", "grid", "--t", "3"]) == 0
    g = read_edge_list(out)
    assert out.read_text() == capsys.readouterr().out == old_text(9, g.edges())


# the regular expression that once found the first line of a text that is
# not an edge of the written layout; graphs._edge_lines must accept exactly
# the texts in which it finds none
_NON_EDGE = re.compile(r"(?m)^(?!\Z)(?![0-9]{1,18} [0-9]{1,18}$)")
_ids = st.integers(1, 20).map(lambda w: "9" * w)
layout_lines = st.one_of(
    st.builds("{} {}".format, _ids, _ids), st.builds("{} {}".format,
                                                     st.integers(0, 99),
                                                     st.integers(0, 99)),
    st.text(st.sampled_from(list("0123456789 \t\r\n\xa0٣x")), max_size=8))


@settings(max_examples=400, deadline=None)
@given(st.lists(layout_lines, max_size=8),
       st.sampled_from(["\n", "\r\n", " \n", "\n\n", "\r"]), st.booleans())
@example(["1 2", "3 4"], "\n", False)
@example([], "\n", False)
@example([""], "\n", True)
def test_edge_line_check_matches_the_line_pattern(lines, eol, trailing):
    body = eol.join(lines) + (eol if trailing else "")
    assert graphs._edge_lines(body.encode("utf-8")) == (
        _NON_EDGE.search(body) is None)


@pytest.mark.parametrize("body, one_call", [
    ("0 1\n2 3\n", True),
    ("0 1\n2 3", True),  # a missing final newline
    ("", True),
    ("0 1\r\n2 3\r\n", False),
    ("0 1 \n2 3\n", False),  # a trailing space
    ("0 1\n2 " + "0" * 18 + "3\n", False),  # a 19-digit id
    ("0 1\n\n2 3\n", False),  # an empty middle line
    ("0 1\n2 3\n\n", False),  # an empty last line
])
def test_one_call_path_takes_exactly_the_written_layout(tmp_path, body,
                                                        one_call):
    path = tmp_path / "g.el"
    path.write_bytes(("n 4\n" + body).encode("utf-8"))
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "fromstring",
                   lambda *a, **k: calls.append(a) or fromstring(*a, **k))
        assert outcome(read_edge_list, path) == outcome(reference_read, path)
    assert bool(calls) == one_call
