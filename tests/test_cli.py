import argparse
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turan_forge import cli, counting, rich_collections
from turan_forge.cli import _tuple_estimate, build_parser, main, run_pipeline
from turan_forge.graphs import build_graph
from turan_forge.errors import InputError
from turan_forge.generators import random_graph
from turan_forge.graphs import read_edge_list, write_edge_list


def test_gen_pattern_and_labels(tmp_path):
    out = tmp_path / "g.el"
    labels = tmp_path / "labels.json"
    assert main(["gen", "pattern", "--kind", "grid", "--t", "3",
                 "--out", str(out), "--labels", str(labels)]) == 0
    g = read_edge_list(out)
    assert g.n == 9 and g.edge_count == 12
    side = json.loads(labels.read_text())
    assert len(side["labels"]) == 9


def test_gen_polarity_and_gnp(tmp_path):
    out = tmp_path / "p.el"
    assert main(["gen", "polarity", "--q", "3", "--out", str(out)]) == 0
    assert read_edge_list(out).edge_count == 24
    assert main(["gen", "polarity", "--q", "6", "--out", str(out)]) == 1
    out2 = tmp_path / "h.el"
    assert main(["gen", "gnp", "--n", "30", "--p", "0.4", "--seed", "7",
                 "--out", str(out2)]) == 0
    g1 = read_edge_list(out2)
    main(["gen", "gnp", "--n", "30", "--p", "0.4", "--seed", "7",
          "--out", str(out2)])
    assert list(read_edge_list(out2).edges()) == list(g1.edges())


def test_transform_count_build_embed_chain(tmp_path):
    host = tmp_path / "h.el"
    main(["gen", "gnp", "--n", "40", "--p", "0.5", "--seed", "3",
          "--out", str(host)])
    peeled = tmp_path / "p.el"
    assert main(["transform", "peel", "--in", str(host),
                 "--out", str(peeled)]) == 0
    count_out = tmp_path / "c4.json"
    assert main(["count", "c4", "--in", str(host), "--out",
                 str(count_out)]) == 0
    assert json.loads(count_out.read_text())["c4"] > 0
    coll = tmp_path / "coll.txt"
    assert main(["build", "rich-paths", "--in", str(host), "--k", "3",
                 "--alpha", "6", "--out", str(coll)]) == 0
    cert = tmp_path / "cert.json"
    assert main(["embed", "grid", "--coll", str(coll), "--host", str(host),
                 "--t", "2", "--out", str(cert)]) == 0
    payload = json.loads(cert.read_text())
    assert payload["found"] and payload["pattern"]["kind"] == "grid"
    verify_out = tmp_path / "v.json"
    cert_only = tmp_path / "cert_only.json"
    cert_only.write_text(json.dumps({k: payload[k] for k in
                                     ("pattern", "mapping", "method")}))
    assert main(["oracle", "verify", "--host", str(host), "--cert",
                 str(cert_only), "--out", str(verify_out)]) == 0
    assert json.loads(verify_out.read_text())["valid"]


def test_oracle_cli(tmp_path):
    host = tmp_path / "h.el"
    main(["gen", "polarity", "--q", "3", "--out", str(host)])
    out = tmp_path / "o.json"
    assert main(["oracle", "find", "--host", str(host), "--pattern", "c4",
                 "--out", str(out)]) == 3
    assert json.loads(out.read_text())["result"] == "exhausted"
    assert main(["oracle", "exmax", "--n", "4", "--pattern", "c4",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["max_edges"] == 4


def test_find_cli(tmp_path):
    host = tmp_path / "k.el"
    main(["gen", "gnp", "--n", "24", "--p", "1.0", "--seed", "0",
          "--bipartite", "--out", str(host)])
    out = tmp_path / "pp.json"
    assert main(["find", "prismpath", "--in", str(host), "--t", "3",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["found"]
    pol = tmp_path / "pol.el"
    main(["gen", "polarity", "--q", "5", "--out", str(pol)])
    assert main(["find", "prism", "--in", str(pol), "--ell", "4",
                 "--budget", "1e5", "--seed", "1", "--out", str(out)]) == 3


def test_pipeline_examples(tmp_path):
    report = tmp_path / "rep.json"
    cert = tmp_path / "cert.json"
    config = {
        "host": {"kind": "gnp", "n": 400, "p": 0.3, "seed": 7,
                 "bipartite": True},
        "target": {"kind": "cylinder", "k": 3, "ell": 2},
        "builder": {"alpha": 6},
        "embedder": {"budget": 10 ** 6, "seed": 3},
        "out": {"report": str(report), "certificate": str(cert)},
    }
    code, rep = run_pipeline(config)
    assert code == 0 and rep["outcome"] == "found"
    assert json.loads(report.read_text())["certificate"] is not None

    code, rep = run_pipeline({
        "host": {"kind": "polarity", "q": 5},
        "target": {"kind": "prism", "ell": 4},
        "embedder": {"budget": 10 ** 5, "seed": 1},
    })
    assert code == 3 and rep["outcome"] == "not-found"

    with pytest.raises(InputError):
        run_pipeline({"host": {"kind": "gnp", "n": 20, "p": 0.5, "seed": 1,
                               "bipartite": True},
                      "target": {"kind": "torus", "k": 5, "ell": 2}})
    # via the CLI entry point the same config exits 1
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({
        "host": {"kind": "gnp", "n": 20, "p": 0.5, "seed": 1,
                 "bipartite": True},
        "target": {"kind": "torus", "k": 5, "ell": 2}}))
    assert main(["pipeline", "--config", str(cfg_path)]) == 1


def _input_error(argv, capsys):
    code = main(argv)
    err = capsys.readouterr().err
    return code == 1 and err.startswith("input error:") and "Traceback" not in err


def test_missing_input_files_are_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "missing.el")
    assert _input_error(["pipeline", "--host-file", missing, "--target",
                         '{"kind": "grid", "t": 2}'], capsys)
    assert _input_error(["count", "c4", "--in", missing], capsys)


def test_malformed_config_is_input_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"host": ')
    assert _input_error(["pipeline", "--config", str(cfg)], capsys)


def test_bad_collection_header_is_input_error(tmp_path, capsys):
    host = tmp_path / "h.el"
    host.write_text("n 3\n0 1\n1 2\n")
    coll = tmp_path / "coll.txt"
    coll.write_text("path 3 x\n0 1 2\n")
    assert _input_error(["embed", "grid", "--coll", str(coll), "--host",
                         str(host), "--t", "2"], capsys)


K23_EDGES = [(a, 2 + b) for a in range(2) for b in range(3)]  # 3 4-cycles


@pytest.mark.parametrize("command", [["count", "cycles"],
                                     ["build", "rich-cycles", "--alpha", "1"]])
@pytest.mark.parametrize("cap", ["nan", "inf", "-inf", "-1", "1.5", "abc"])
def test_bad_cap_flag_is_input_error(tmp_path, capsys, command, cap):
    host = tmp_path / "h.el"
    write_edge_list(build_graph(5, K23_EDGES), host)
    assert _input_error([*command, "--in", str(host), f"--cap={cap}"], capsys)


@pytest.mark.parametrize("argv", [
    ["find", "prism", "--ell", "2"],
    ["pipeline", "--target", '{"kind": "grid", "t": 2}']])
@pytest.mark.parametrize("budget", ["inf", "nan", "1.5", "-1", "x"])
def test_bad_budget_flag_is_input_error(tmp_path, capsys, argv, budget):
    host = tmp_path / "h.el"
    write_edge_list(build_graph(5, K23_EDGES), host)
    flag = "--in" if argv[0] == "find" else "--host-file"
    assert _input_error([*argv, flag, str(host), f"--budget={budget}"], capsys)


@pytest.mark.parametrize("cap, out", [("1e8", (3, False)), ("3", (3, False)),
                                      ("2.0", (2, True)), ("0", (0, True))])
def test_cap_flag_takes_whole_numbers(tmp_path, cap, out):
    host, res = tmp_path / "h.el", tmp_path / "out.json"
    write_edge_list(build_graph(5, K23_EDGES), host)
    assert main(["count", "cycles", "--in", str(host), "--cap", cap,
                 "--out", str(res)]) == 0
    got = json.loads(res.read_text())
    assert (got["count"], got["truncated"]) == out


@pytest.mark.parametrize("section, key, value", [
    ("builder", "cap", "abc"), ("builder", "cap", None),
    ("builder", "cap", float("inf")), ("builder", "cap", -1),
    ("builder", "cap", 2.5), ("builder", "alpha", "x"),
    ("embedder", "budget", "x"), ("embedder", "seed", 0.5)])
def test_bad_pipeline_number_is_input_error(section, key, value):
    config = {"host": {"kind": "gnp", "n": 12, "p": 0.5, "seed": 1},
              "target": {"kind": "cylinder", "k": 2, "ell": 2},
              "builder": {"strategy": "exhaustive"}}
    config.setdefault(section, {})[key] = value
    with pytest.raises(InputError, match=f"{section}.{key} must be a whole"):
        run_pipeline(config)


@pytest.mark.parametrize("host, field", [
    ({"kind": "gnp", "n": "abc", "p": 0.5}, "host.n"),
    ({"kind": "gnp", "n": 12.5, "p": 0.5}, "host.n"),
    ({"kind": "gnp", "n": 12, "p": None}, "host.p"),
    ({"kind": "gnp", "n": 12, "p": "x"}, "host.p"),
    ({"kind": "gnp", "n": 12, "p": 0.5, "seed": "x"}, "host.seed"),
    ({"kind": "polarity", "q": "x"}, "host.q"),
    ({"kind": "polarity", "q": None}, "host.q")])
def test_bad_host_number_is_input_error(host, field):
    config = {"host": host, "target": {"kind": "cylinder", "k": 2, "ell": 2}}
    with pytest.raises(InputError, match=f"^{field} must be a"):
        run_pipeline(config)


@pytest.mark.parametrize("config, field", [
    ({"target": {"kind": "prism", "ell": 2}, "builder": {"T": None}},
     "builder.T"),
    ({"target": {"kind": "prism", "ell": 2}, "builder": {"T": "x"}},
     "builder.T")])
def test_bad_pipeline_real_is_input_error(config, field):
    config["host"] = {"kind": "gnp", "n": 12, "p": 0.5, "seed": 1}
    with pytest.raises(InputError, match=f"^{field} must be a finite number"):
        run_pipeline(config)


@pytest.mark.parametrize("section, key, value", [
    ("builder", "strategy", "layred"), ("builder", "strategy", None),
    ("builder", "strategy", 5), ("host", "bipartite", "false"),
    ("host", "bipartite", 1), ("host", "bipartite", None)])
def test_bad_pipeline_choice_is_input_error(section, key, value):
    config = {"host": {"kind": "gnp", "n": 12, "p": 0.5, "seed": 1},
              "target": {"kind": "cylinder", "k": 2, "ell": 2}}
    config.setdefault(section, {})[key] = value
    allowed = {"strategy": '"auto", "exhaustive", "layered"',
               "bipartite": "true, false"}[key]
    with pytest.raises(InputError) as exc:
        run_pipeline(config)
    assert str(exc.value) == (f"{section}.{key} must be one of {allowed}, "
                              f"not {value!r}")


@pytest.mark.parametrize("chain, field", [
    ({"op": "peel"}, "transforms"), ("peel", "transforms"),
    (None, "transforms"), (["peel"], r"transforms\[0\]"),
    ([None], r"transforms\[0\]"), ([{"op": "peel"}, 3], r"transforms\[1\]"),
    ([{"op": "clean", "mode": "fast"}], r"transforms\[0\]\.mode"),
    ([{"op": "clean", "mode": None}], r"transforms\[0\]\.mode"),
    ([{"op": "shrink"}], r"transforms\[0\]\.op"),
    ([{"op": "regularize", "epsilon": "x"}], r"transforms\[0\]\.epsilon"),
    ([{"op": "peel"}, {"op": "regularize", "c": None}], r"transforms\[1\]\.c"),
    ([{"op": "regularize", "K": "big"}], r"transforms\[0\]\.K"),
    # on this host no band [2^j, 2^j] holds a regular subgraph dense enough
    ([{"op": "regularize", "epsilon": 0.5, "c": 1.0, "K": 1.0}],
     r"transforms\[0\]"),
    # the range and density checks of the step itself: its 46 edges are
    # fewer than c * n^(1 + epsilon) = 62.4
    ([{"op": "regularize", "epsilon": 2}],
     r"transforms\[0\] cannot regularize: need 0 < epsilon < 1,"),
    ([{"op": "regularize", "c": 1.5}],
     r"transforms\[0\] cannot regularize: input too sparse:")])
def test_bad_transforms_are_input_errors(tmp_path, capsys, chain, field):
    config = {"host": {"kind": "gnp", "n": 12, "p": 0.7, "seed": 1},
              "transforms": chain, "target": {"kind": "grid", "t": 2}}
    with pytest.raises(InputError, match=f"^{field} "):
        run_pipeline(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert _input_error(["pipeline", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("change, section", [
    ([], "config"), ({"host": "x"}, "host"), ({"builder": "x"}, "builder"),
    ({"target": "grid"}, "target"), ({"embedder": []}, "embedder"),
    ({"out": "r.json"}, "out")])
def test_config_sections_of_the_wrong_type_are_input_errors(tmp_path, capsys,
                                                            change, section):
    config = {"host": {"kind": "gnp", "n": 12, "p": 0.5, "seed": 1},
              "target": {"kind": "grid", "t": 2}}
    config = {**config, **change} if isinstance(change, dict) else change
    with pytest.raises(InputError, match=f"^{section} must be an object, "):
        run_pipeline(config)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert _input_error(["pipeline", "--config", str(cfg)], capsys)
    assert _input_error(["pipeline", "--config", str(cfg), "--alpha", "4",
                         "--report", str(tmp_path / "r.json")], capsys)


@pytest.mark.parametrize("argv", [
    ["count", "c4", "--in", "x", "--k", "abc"],
    ["count", "c4", "--in", "x", "--no-such-flag"],
    ["pipeline", "--alpha", "x"],
    []])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


def test_bad_gnp_flag_is_input_error(capsys):
    assert _input_error(["pipeline", "--gnp", "abc", "0.5", "--target",
                         '{"kind": "grid", "t": 2}'], capsys)
    assert _input_error(["pipeline", "--gnp", "12", "nan", "--target",
                         '{"kind": "grid", "t": 2}'], capsys)


def test_config_file_overflow_is_input_error(tmp_path, capsys):
    # JSON's 1e400 reads as inf
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"host": {"kind": "gnp", "n": 12, "p": 0.5}, "target": '
                   '{"kind": "cylinder", "k": 2, "ell": 2}, '
                   '"builder": {"cap": 1e400}}')
    assert _input_error(["pipeline", "--config", str(cfg)], capsys)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 24), st.floats(0.1, 1.0), st.booleans(),
       st.sampled_from([4, 6, 8]), st.integers(0, 2 ** 20))
def test_closed_estimate_equals_walk_trace(n, p, bipartite, tuple_len, seed):
    # the estimate against the closed-walk count trace(A^tuple_len) of the
    # adjacency matrix, on general and bipartite hosts; for 4-cycles it is
    # the exact count, half the sum of C(codeg(u, v), 2) over pairs u < v
    rng = random.Random(seed)
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if (not bipartite or (u - v) % 2) and rng.random() < p])
    a = g.block(np.arange(n), np.arange(n)).astype(np.float64)
    if tuple_len == 4:
        c = np.triu(a @ a, 1)
        assert _tuple_estimate(g, 4, closed=True) == counting.count_c4(g) \
            == int((c * (c - 1)).sum()) // 4
    else:
        walks = np.trace(np.linalg.matrix_power(a, tuple_len))
        assert _tuple_estimate(g, tuple_len, closed=True) == \
            float(walks) / (2 * tuple_len)


def test_auto_takes_the_exhaustive_builder_on_the_exact_c4_count(monkeypatch):
    # a cap between the 4-cycle count and trace(A^4) / 8, which also counts
    # the closed walks that are no cycles: auto builds exhaustively
    host = {"kind": "gnp", "n": 16, "p": 0.6, "seed": 1, "bipartite": True}
    g = random_graph(16, 0.6, 1, bipartite=True)
    a = g.block(np.arange(16), np.arange(16)).astype(np.float64)
    c4 = counting.count_c4(g)
    assert 0 < c4 < np.trace(np.linalg.matrix_power(a, 4)) / 8
    monkeypatch.setattr(cli, "_EXHAUSTIVE_ESTIMATE_CAP", c4)
    built = []

    def exhaustive(*args, **kwargs):
        built.append(args[1:3])
        return build(*args, **kwargs)

    def layered(*args, **kwargs):
        raise AssertionError("auto took the layered builder")

    build = rich_collections.build_rich_cycles
    monkeypatch.setattr(rich_collections, "build_rich_cycles", exhaustive)
    monkeypatch.setattr(rich_collections, "layered_rich_cycles", layered)
    code, report = run_pipeline({"host": host,
                                 "target": {"kind": "cylinder", "k": 2,
                                            "ell": 2},
                                 "builder": {"strategy": "auto"}})
    assert built == [(2, 4)]
    assert code in (0, 3) and report["collection"]["kind"] == "cycle"
    monkeypatch.setattr(cli, "_EXHAUSTIVE_ESTIMATE_CAP", c4 - 1)
    with pytest.raises(AssertionError, match="layered"):
        run_pipeline({"host": host, "target": {"kind": "torus", "k": 4,
                                               "ell": 2}})


@pytest.mark.parametrize("change, message", [
    ({"out": {"report": 1}}, "out.report must be a path string, not 1"),
    ({"out": {"certificate": True}},
     "out.certificate must be a path string, not True"),
    ({"out": {"collection": ["c.txt"]}},
     "out.collection must be a path string, not ['c.txt']"),
    ({"host": {"kind": "file", "path": 3}},
     "host.path must be a path string, not 3"),
    ({"host": {"kind": "pattern", "pattern": "grid"}},
     "host.pattern must be an object, not 'grid'"),
    ({"target": {"kind": "prism", "ell": 2}, "builder": {"strategy": "bogus"}},
     'builder.strategy must be one of "auto", "exhaustive", "layered", '
     "not 'bogus'"),
    ({"target": {"kind": "prism_path", "t": 2}, "builder": {"alpha": "x"}},
     "builder.alpha must be a whole number >= 0, not 'x'"),
    ({"target": {"kind": "grid", "t": 2}, "builder": {"T": "x"}},
     "builder.T must be a finite number, not 'x'")])
def test_config_values_of_the_wrong_type_are_input_errors(monkeypatch, change,
                                                          message):
    # each is found before a host is made
    def no_host(*args, **kwargs):
        raise AssertionError("host made")

    monkeypatch.setattr(cli, "random_graph", no_host)
    config = {"host": {"kind": "gnp", "n": 12, "p": 0.5, "seed": 1},
              "target": {"kind": "cylinder", "k": 2, "ell": 2}, **change}
    with pytest.raises(InputError) as exc:
        run_pipeline(config)
    assert str(exc.value) == message


# the options that a subcommand accepted and never read, with a command
# line that the subcommand accepts without them
_UNREAD_FLAGS = {
    ("gen", "pattern", "--kind", "grid", "--t", "2"): ["--json", "--seed"],
    ("gen", "polarity", "--q", "3"): ["--json", "--seed"],
    ("gen", "gnp", "--n", "5", "--p", "0.5"): ["--json"],
    ("transform", "peel", "--in", "h.el", "--out", "o.el"): ["--seed"],
    ("count", "c4", "--in", "h.el"): ["--json", "--seed"],
    ("build", "rich-paths", "--in", "h.el", "--alpha", "1"): ["--json"],
    ("embed", "grid", "--coll", "c.txt", "--host", "h.el"): ["--json"],
    ("find", "prismpath", "--in", "h.el"): ["--json"],
    ("oracle", "find", "--host", "h.el", "--pattern", "c4"): ["--json",
                                                             "--seed"],
    ("oracle", "verify", "--host", "h.el", "--cert", "c.json"): ["--json",
                                                                "--seed"],
    ("oracle", "exmax", "--n", "4", "--pattern", "c4"): ["--json", "--seed"],
    ("pipeline", "--host-file", "h.el"): ["--out"],
}


@pytest.mark.parametrize("argv, flag", [
    (argv, flag) for argv, flags in _UNREAD_FLAGS.items() for flag in flags],
    ids=lambda v: " ".join(v[:2]) if isinstance(v, tuple) else v)
def test_options_a_subcommand_does_not_read_are_usage_errors(capsys, argv,
                                                            flag):
    build_parser().parse_args(argv)
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag] + ([] if flag == "--json" else ["1"]))
    assert exc.value.code == 1
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# SHA-256 of the audit and collection files that `build` writes on fixed
# hosts.  The audit lists each round's failing signatures in sorted order and
# replays against the seed, so its bytes are a contract like the reports'.
_BUILD_DIGESTS = [
    ((14, 0.5, 1, False), ["rich-paths", "--k", "4", "--alpha", "3"],
     "ae5a5f495eaeacabd616ebb4ff0272b3426849da1ec483bd5bcf3cbf032bda24",
     "43515c988f38e3dcf3a783ebf7197ab00ecece00d0d06e962c7ac12971a64ca0"),
    ((18, 0.4, 2, True), ["rich-paths", "--k", "5", "--alpha", "2"],
     "68d7d383b174290a33f297bce29c9e0c24754ac52aeff7e1de00a097c2dc768d",
     "875ca376508e9fd07066cb165cab9cce7ba01da63e35c2e60c2b11478c5dd812"),
    ((14, 0.6, 4, False), ["rich-cycles", "--ell", "2", "--alpha", "3"],
     "29f8e2ca6dee6a56a614329b50b0fd16f134ddd0ace6882319f17b3f63f1bb5a",
     "c4593caf35a94c5babc251b9aa1314b259b90103328c4d418ed504639f9ac5fa"),
    ((14, 0.6, 4, False), ["rich-cycles", "--ell", "3", "--alpha", "2"],
     "e218d4840af2e4b5d8b7a754f8c6c1e56265f213a64ee1ff2df2f2f7908aaa3c",
     "1ec3aff40ebd76bf7981f4ab7c63492babb6371e05213160e89ddbe77e4858f7"),
    ((16, 0.8, 1, True), ["good-paths", "--k", "2", "--alpha", "2",
                          "--C", "5", "--L", "1"],  # case 1
     "33351c53708505c10c51b3cba000188655e0194aee513daa6d72478fed14c151",
     "35222870d5281dee38abfe2ef127ab78225577c12152cdd99e5e98b68f356e63"),
    ((14, 0.7, 1, False), ["good-paths", "--k", "2", "--alpha", "1",
                           "--C", "2", "--L", "1000"],  # case 2
     "0361c3b89102681a8df11b170f1f222445631254ef39cd15868d49e71e413581",
     "f2bd7bf5ed250365aaee93fcfc7296287a43f61b6a51eb6070f93bdc74591bd1"),
]


@pytest.mark.parametrize("host, args, audit_sha, coll_sha", _BUILD_DIGESTS)
def test_build_audit_and_collection_bytes_are_pinned(tmp_path, host, args,
                                                     audit_sha, coll_sha):
    n, p, seed, bipartite = host
    path = tmp_path / "h.el"
    write_edge_list(random_graph(n, p, seed, bipartite=bipartite), path)
    audit, coll = tmp_path / "audit.json", tmp_path / "coll.txt"
    assert main(["build", *args, "--in", str(path), "--audit", str(audit),
                 "--out", str(coll)]) == 0
    assert hashlib.sha256(audit.read_bytes()).hexdigest() == audit_sha
    assert hashlib.sha256(coll.read_bytes()).hexdigest() == coll_sha


def _chung_lu_text(n, mean, exponent, seed):
    """Edge-list text of a bipartite Chung-Lu host: side sizes n//2 and
    n - n//2, expected degrees (i + 1)^(-1/(exponent - 1)) scaled to
    ``mean`` on each side, pairs drawn with ``random.Random(seed)``."""
    rng = random.Random(seed)
    a = n // 2

    def weights(m):
        w = [(i + 1.0) ** (-1.0 / (exponent - 1.0)) for i in range(m)]
        return [x * mean * m / sum(w) for x in w]

    left, right = weights(a), weights(n - a)
    scale = (sum(left) + sum(right)) / 2.0
    return f"n {n}\n" + "".join(
        f"{u} {a + v}\n" for u in range(a) for v in range(n - a)
        if rng.random() < min(1.0, left[u] * right[v] / scale))


# SHA-256 of `pipeline` reports of the prism embedders on two fixed hosts: a
# bipartite G(200, 0.9), the acceptance-6 density at n = 200, and a peeled
# and cleaned Chung-Lu host.  Both prism runs take the thick branch and its
# 4000-edge sample, and the skewed host's prism_path residue is built by
# deletions.
_PRISM_HOSTS = {
    "gnp": ({"kind": "gnp", "n": 200, "p": 0.9, "seed": 1, "bipartite": True},
            []),
    "skewed": ({"kind": "file", "path": "skewed.el"},
               [{"op": "peel"}, {"op": "clean"}]),
}
_PRISM_DIGESTS = [
    ("gnp", {"kind": "prism", "ell": 4},
     "a1ef3707fc2f88c342a9f74ad8a70d9f38b2f9ea6c93477728c1e8df77381806"),
    ("gnp", {"kind": "prism_path", "t": 5},
     "3b2a52555df95bcbac3f89f400680d888b14b9c5e701c0c24eb973b8479f9951"),
    ("skewed", {"kind": "prism", "ell": 4},
     "7670be452bf881c6cc8a2907043494eff319e82daf7de1838e239f50ed4da486"),
    ("skewed", {"kind": "prism_path", "t": 5},
     "86687b9b0d84dfef15a95ead406ec52e7b3c4224ff82be4be964f25f3b568d56"),
]


@pytest.mark.parametrize("host, target, sha", _PRISM_DIGESTS)
def test_prism_report_bytes_are_pinned(tmp_path, monkeypatch, host, target,
                                       sha):
    monkeypatch.chdir(tmp_path)  # the report holds the config's relative paths
    (tmp_path / "skewed.el").write_text(_chung_lu_text(400, 40.0, 2.1, 7))
    spec, chain = _PRISM_HOSTS[host]
    config = {"host": spec, "transforms": chain, "target": target,
              "builder": {"T": 8.0} if target["kind"] == "prism" else {},
              "embedder": {"seed": 1}, "out": {"report": "report.json"}}
    code, report = run_pipeline(config)
    assert code == 0
    if target["kind"] == "prism":
        assert report["certificate"]["method"]["branch"] == "thick"
        assert report["diagnostics"]["thick"]["sampled_edges"] == 4000
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == sha


# SHA-256 of `pipeline` reports of the collection legs that no digest above
# covers: the layered torus and cylinder, whose embedders look members and
# open-path fills up by their canonical forms, and the exhaustive honeycomb,
# which restricts a good collection to its most common last vertex.
_GNP_200 = {"kind": "gnp", "n": 200, "p": 0.9, "seed": 1, "bipartite": True}
_LEG_DIGESTS = [
    (_GNP_200, {"kind": "torus", "k": 4, "ell": 2},
     {"alpha": 8, "strategy": "layered"},
     "7c5899a31b13f687185298f7e4a43d0665265a5b2667e476474464283df067c4"),
    (_GNP_200, {"kind": "cylinder", "k": 4, "ell": 2},
     {"alpha": 8, "strategy": "layered"},
     "259623e875855ca9136dd31156e4fcf92c1ba179a13ddddbe08f0e52ac39c135"),
    ({"kind": "gnp", "n": 40, "p": 0.6, "seed": 1, "bipartite": True},
     {"kind": "honeycomb", "k": 1, "ell": 4},
     {"alpha": 4, "strategy": "exhaustive"},
     "9f5104037278f8b6b4035ea3da841ac826c4150c12b1687ef7a89cacaa6febe3"),
]


@pytest.mark.parametrize("host, target, builder, sha", _LEG_DIGESTS)
def test_collection_leg_report_bytes_are_pinned(tmp_path, monkeypatch, host,
                                                target, builder, sha):
    monkeypatch.chdir(tmp_path)
    code, _ = run_pipeline({"host": host, "target": target, "builder": builder,
                            "embedder": {"seed": 1},
                            "out": {"report": "report.json"}})
    assert code == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == sha


def _leaf_parsers(parser, words=()):
    """(command words, parser) of every subcommand that takes no further
    subcommand."""
    subs = [a for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield words, parser
    for sub in subs:
        for name, child in sub.choices.items():
            yield from _leaf_parsers(child, words + (name,))


# a value for each required option without choices; {} is the sweep's
# directory
_REQUIRED_VALUES = {"in": "{}/h.el", "host": "{}/h.el", "coll": "{}/coll.txt",
                    "cert": "{}/cert.json", "pattern": "c4", "alpha": "1",
                    "q": "3", "n": "5", "p": "0.5"}


def _minimal_argvs():
    """Every subcommand with only its required arguments, once for each
    value of each positional or required option with choices."""
    for words, parser in _leaf_parsers(build_parser()):
        slots = []
        for a in parser._actions:
            if not a.option_strings and a.choices is not None:
                slots.append([[c] for c in a.choices])
            elif a.option_strings and a.required:
                values = a.choices or [_REQUIRED_VALUES[a.dest]]
                slots.append([[a.option_strings[0], v] for v in values])
        for chosen in itertools.product(*slots):
            yield [*words, *itertools.chain(*chosen)]


@pytest.mark.parametrize("argv", list(_minimal_argvs()), ids=" ".join)
def test_every_subcommand_ends_in_a_contract_outcome(tmp_path, monkeypatch,
                                                     capsys, argv):
    # a 12-vertex host keeps every default-sized search small
    monkeypatch.chdir(tmp_path)
    write_edge_list(random_graph(12, 0.5, 1, bipartite=True), tmp_path / "h.el")
    (tmp_path / "coll.txt").write_text("path 3 1\n0 1 2\n")
    (tmp_path / "cert.json").write_text(json.dumps(
        {"pattern": {"kind": "grid", "t": 1}, "mapping": [["1,1", 0]]}))
    try:
        code = main([arg.replace("{}", str(tmp_path)) for arg in argv])
    except SystemExit as exc:  # usage errors
        code = exc.code
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in capsys.readouterr().err


def test_cli_import_loads_no_numpy_random_or_networkx():
    # the package's import is part of every run's start-up: numpy loads
    # numpy.random lazily, and matching imports networkx only for the
    # general-graph matchings that need it
    script = ("import sys, turan_forge.cli\n"
              "print(sorted(m for m in ('numpy.random', 'networkx')"
              " if m in sys.modules))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
