import hashlib
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from turan_forge.cli import _tuple_estimate, main, run_pipeline
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
     "builder.T"),
    ({"target": {"kind": "grid", "t": 2},
      "transforms": [{"op": "regularize", "epsilon": "x"}]},
     "regularize epsilon")])
def test_bad_pipeline_real_is_input_error(config, field):
    config["host"] = {"kind": "gnp", "n": 12, "p": 0.5, "seed": 1}
    with pytest.raises(InputError, match=f"^{field} must be a finite number"):
        run_pipeline(config)


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
    # the estimate from the codegree matrix against the closed-walk count
    # trace(A^tuple_len) of the adjacency matrix, on general and bipartite hosts
    rng = random.Random(seed)
    g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                        if (not bipartite or (u - v) % 2) and rng.random() < p])
    a = g.block(np.arange(n), np.arange(n)).astype(np.float64)
    old = float(np.trace(np.linalg.matrix_power(a, tuple_len))) / (2 * tuple_len)
    assert _tuple_estimate(g, tuple_len, closed=True) == old


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
