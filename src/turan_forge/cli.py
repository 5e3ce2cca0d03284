"""Command-line interface: generators, transforms, counting, collection
builders, embedders, oracle, and the end-to-end pipeline runner.

Exit statuses: 0 verified find / success, 1 input or resource error,
2 integrity error, 3 honest not-found.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import counting, embedders, oracle, rich_collections, transforms
from .certificates import EmbeddingCertificate
from .errors import (EXIT_FOUND, EXIT_INPUT, EXIT_INTEGRITY, EXIT_NOT_FOUND,
                     InputError, IntegrityError, ResourceError)
from .generators import PatternSpec, pattern, polarity_graph, random_graph
from .graphs import Graph, read_edge_list, write_edge_list
from .rich_collections import LabeledCollection


def _dump(obj: dict, args) -> None:
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_graph(g: Graph, args) -> None:
    if getattr(args, "out", None):
        write_edge_list(g, args.out)
    else:
        sys.stdout.write(f"n {g.n}\n")
        for (u, v) in g.edges():
            sys.stdout.write(f"{u} {v}\n")


def _load_host(path: str) -> Graph:
    return read_edge_list(path)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {what}: {exc}") from None


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"malformed {what}: {exc}") from None


def _pattern_spec_from_args(args) -> PatternSpec:
    params = {}
    for key in ("t", "k", "ell"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return PatternSpec(args.kind, params)


# -- gen ---------------------------------------------------------------------

def cmd_gen_pattern(args) -> int:
    spec = _pattern_spec_from_args(args)
    g, labels = pattern(spec)
    _write_graph(g, args)
    if args.labels:
        with open(args.labels, "w", encoding="utf-8") as fh:
            json.dump({"labels": sorted([lab, vid]
                                        for lab, vid in labels.items())},
                      fh, sort_keys=True, indent=2)
    return EXIT_FOUND


def cmd_gen_polarity(args) -> int:
    _write_graph(polarity_graph(args.q), args)
    return EXIT_FOUND


def cmd_gen_gnp(args) -> int:
    g = random_graph(args.n, args.p, args.seed, bipartite=args.bipartite)
    _write_graph(g, args)
    return EXIT_FOUND


# -- transform ---------------------------------------------------------------

def cmd_transform(args) -> int:
    g = _load_host(getattr(args, "in"))
    if args.step == "peel":
        out, rep = transforms.peel_min_degree(g, keep_audit=bool(args.audit))
    elif args.step == "half":
        out, side = transforms.bipartite_half(g)
        rep = transforms.TransformReport(
            {"n": g.num_vertices, "e": g.edge_count},
            {"n": out.num_vertices, "e": out.edge_count},
            extras={"sides": [int(s) for s in side]})
    elif args.step == "regularize":
        out, rep = transforms.almost_regular_subgraph(
            g, args.epsilon, args.c, args.K)
        if out is None:
            sys.stderr.write("no feasible degree band\n")
            _dump(rep.to_json(), args if args.json else argparse.Namespace(out=None))
            return EXIT_NOT_FOUND
    else:
        out, rep = transforms.clean_subgraph(g, mode=args.mode)
    write_edge_list(out, args.out)
    if args.audit:
        with open(args.audit, "w", encoding="utf-8") as fh:
            json.dump(rep.to_json(), fh, sort_keys=True, indent=2)
    if args.json:
        sys.stdout.write(json.dumps(rep.to_json(), sort_keys=True, indent=2)
                         + "\n")
    return EXIT_FOUND


# -- count -------------------------------------------------------------------

def cmd_count(args) -> int:
    g = _load_host(getattr(args, "in"))
    if args.what == "homp":
        out = {"k": args.k, "hom": counting.hom_path_count(g, args.k)}
    elif args.what == "c4":
        out = {"c4": counting.count_c4(g)}
    elif args.what == "cycles":
        cnt, truncated = counting.count_even_cycles(g, args.ell,
                                                    int(args.cap))
        out = {"ell": args.ell, "count": cnt, "truncated": truncated}
    else:
        rep = counting.prism_path_weight_report(g, args.ell, args.C0,
                                                int(args.cap))
        out = rep.to_json()
    _dump(out, args)
    return EXIT_FOUND


# -- build -------------------------------------------------------------------

def _save_collection(coll: LabeledCollection, audit, args) -> None:
    text = coll.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.audit and audit is not None:
        with open(args.audit, "w", encoding="utf-8") as fh:
            json.dump(audit.to_json(), fh, sort_keys=True, indent=2)


def cmd_build(args) -> int:
    g = _load_host(getattr(args, "in"))
    cap = int(args.cap)
    if args.family == "rich-paths":
        if args.strategy == "layered":
            coll, audit = rich_collections.layered_rich_paths(
                g, args.k, args.alpha, seed=args.seed), None
        else:
            coll, audit = rich_collections.build_rich_paths(
                g, args.k, args.alpha, cap)
    elif args.family == "rich-cycles":
        if args.strategy == "layered":
            coll, audit = rich_collections.layered_rich_cycles(
                g, args.ell, args.alpha, seed=args.seed), None
        else:
            coll, audit = rich_collections.build_rich_cycles(
                g, args.ell, args.alpha, cap)
    else:
        if args.strategy == "layered":
            coll, audit = rich_collections.layered_good_paths(
                g, args.k, args.alpha, seed=args.seed), None
        else:
            coll, audit, case = rich_collections.build_good_paths(
                g, args.k, args.alpha, args.C, args.L, cap)
            audit.diagnostics["case"] = case
    _save_collection(coll, audit, args)
    return EXIT_FOUND


# -- embed / find -------------------------------------------------------------

def _emit_certificate(cert: Optional[EmbeddingCertificate], args,
                      extra: Optional[dict] = None) -> int:
    if cert is None:
        out = {"found": False}
        if extra:
            out["diagnostics"] = extra
        _dump(out, args)
        return EXIT_NOT_FOUND
    out = {"found": True, **cert.to_json()}
    if extra:
        out["diagnostics"] = extra
    _dump(out, args)
    return EXIT_FOUND


def cmd_embed(args) -> int:
    host = _load_host(args.host)
    coll = LabeledCollection.from_text(_read_text(args.coll, "collection"))
    if args.target == "grid":
        cert = embedders.embed_grid(host, coll, args.t)
    elif args.target == "cylinder":
        cert = embedders.embed_cylinder(host, coll, args.k, args.ell)
    elif args.target == "torus":
        cert = embedders.embed_torus(host, coll, args.k, args.ell,
                                     budget=int(args.budget), seed=args.seed)
    else:
        cert = embedders.embed_honeycomb(host, coll, args.k, args.ell)
    return _emit_certificate(cert, args)


def cmd_find(args) -> int:
    host = _load_host(getattr(args, "in"))
    if args.what == "prism":
        cert, diag = embedders.find_prism(host, args.ell, args.T,
                                          budget=int(args.budget),
                                          seed=args.seed)
        return _emit_certificate(cert, args, extra=diag)
    cert = embedders.find_prism_path(host, args.t)
    return _emit_certificate(cert, args)


# -- oracle --------------------------------------------------------------------

def _load_pattern_arg(value: str) -> Graph:
    if value.startswith("c") and value[1:].isdigit():
        m = int(value[1:])
        if m < 4 or m % 2 != 0:
            raise InputError("cycle shorthand needs an even length >= 4")
        return pattern(PatternSpec("even_cycle", {"ell": m // 2}))[0]
    return read_edge_list(value)


def cmd_oracle_find(args) -> int:
    host = _load_host(args.host)
    pat = _load_pattern_arg(args.pattern)
    mapping, stats = oracle.find_subgraph(host, pat, budget=int(args.budget))
    out = {"result": stats.result, "nodes": stats.nodes}
    if mapping is not None:
        out["mapping"] = sorted([int(k), int(v)] for k, v in mapping.items())
    _dump(out, args)
    return EXIT_FOUND if mapping is not None else EXIT_NOT_FOUND


def cmd_oracle_verify(args) -> int:
    host = _load_host(args.host)
    obj = _parse_json(_read_text(args.cert, "certificate"), "certificate")
    cert = EmbeddingCertificate.from_json(obj)
    ok, why = oracle.verify_certificate(host, cert)
    _dump({"valid": ok, "violation": why}, args)
    return EXIT_FOUND if ok else EXIT_INTEGRITY


def cmd_oracle_exmax(args) -> int:
    pat = _load_pattern_arg(args.pattern)
    best, witness = oracle.max_edges_exhaustive(args.n, pat)
    _dump({"n": args.n, "max_edges": best,
           "witness": sorted([int(u), int(v)] for (u, v) in witness.edges())},
          args)
    return EXIT_FOUND


# -- pipeline -------------------------------------------------------------------

_EXHAUSTIVE_ESTIMATE_CAP = 250_000


def _make_host(cfg: dict) -> Graph:
    kind = cfg.get("kind")
    if kind == "gnp":
        return random_graph(int(cfg["n"]), float(cfg["p"]),
                            int(cfg.get("seed", 0)),
                            bipartite=bool(cfg.get("bipartite", False)))
    if kind == "polarity":
        return polarity_graph(int(cfg["q"]))
    if kind == "pattern":
        spec = PatternSpec.from_json(cfg["pattern"])
        return pattern(spec)[0]
    if kind == "file":
        return read_edge_list(cfg["path"])
    raise InputError(f"unknown host kind {kind!r}")


def _apply_transforms(g: Graph, chain: list) -> tuple[Graph, list]:
    stats = []
    for step in chain:
        op = step.get("op")
        if op == "peel":
            g, rep = transforms.peel_min_degree(g)
        elif op == "half":
            g, _side = transforms.bipartite_half(g)
            rep = None
        elif op == "regularize":
            g2, rep = transforms.almost_regular_subgraph(
                g, float(step.get("epsilon", 0.5)), float(step.get("c", 1.0)),
                float(step.get("K", 32.0)))
            if g2 is None:
                raise InputError("regularize found no feasible degree band")
            g = g2
        elif op == "clean":
            g, rep = transforms.clean_subgraph(g, mode=step.get("mode", "fixed"))
        else:
            raise InputError(f"unknown transform {op!r}")
        stats.append({"op": op, "n": g.num_vertices, "e": g.edge_count})
    return g, stats


def _choose_strategy(cfg: dict, g: Graph, tuple_len: int, closed: bool) -> str:
    strategy = cfg.get("strategy", "auto")
    if strategy in ("exhaustive", "layered"):
        return strategy
    if closed:
        # closed walks of the right length bound the labeled cycle count
        if g.n <= 1500:
            import numpy as np

            a = g.adjacency_matrix().astype(np.float64)
            est = float(np.trace(np.linalg.matrix_power(a, tuple_len)))
        else:
            est = g.num_vertices * max(g.average_degree, 1.0) ** (tuple_len - 1)
        est /= 2 * tuple_len
    else:
        est = float(counting.hom_path_count(g, tuple_len))
    return "exhaustive" if est <= _EXHAUSTIVE_ESTIMATE_CAP else "layered"


def run_pipeline(config: dict, threads: int = 1) -> tuple[int, dict]:
    """generate -> transform -> build collection -> embed -> verify.

    Returns (exit status, report).  The report carries every intermediate
    statistic plus the exact seeds and is byte-stable across reruns.
    ``threads`` is accepted for compatibility; every search runs in one
    thread, so it changes neither the report nor the speed.
    """
    report: dict = {"config": config}
    try:
        host = _make_host(config.get("host", {}))
    except KeyError as exc:
        raise InputError(f"host config missing {exc}") from None
    report["host"] = {"n": host.num_vertices, "e": host.edge_count,
                      "avg_degree": host.average_degree}
    g, tstats = _apply_transforms(host, config.get("transforms", []))
    report["transforms"] = tstats

    target = PatternSpec.from_json(config.get("target", {}))
    builder = config.get("builder", {})
    embedcfg = config.get("embedder", {})
    budget = int(embedcfg.get("budget", 10 ** 7))
    seed = int(embedcfg.get("seed", 0))
    cap = int(builder.get("cap", rich_collections.DEFAULT_CAP))
    cert = None
    coll = None
    diagnostics: dict = {}

    kind = target.kind
    p = target.params
    if kind == "grid":
        t = p["t"]
        alpha = int(builder.get("alpha", t * t))
        k = 2 * t - 1
        strategy = _choose_strategy(builder, g, k, closed=False)
        if strategy == "layered":
            coll = rich_collections.layered_rich_paths(g, k, alpha, seed=seed)
        else:
            coll, _ = rich_collections.build_rich_paths(g, k, alpha, cap)
        cert = embedders.embed_grid(g, coll, t) if len(coll) else None
    elif kind in ("cylinder", "torus"):
        k, ell = p["k"], p["ell"]
        alpha = int(builder.get("alpha", k * ell))
        strategy = _choose_strategy(builder, g, 2 * ell, closed=True)
        if strategy == "layered":
            coll = rich_collections.layered_rich_cycles(g, ell, alpha,
                                                        seed=seed)
        else:
            coll, _ = rich_collections.build_rich_cycles(g, ell, alpha, cap)
        if len(coll) == 0:
            cert = None
        elif kind == "cylinder":
            cert = embedders.embed_cylinder(g, coll, k, ell)
        else:
            cert = embedders.embed_torus(g, coll, k, ell, budget=budget,
                                         seed=seed)
    elif kind == "honeycomb":
        k, ell = p["k"], p["ell"]
        alpha = int(builder.get("alpha", k * ell))
        strategy = _choose_strategy(builder, g, 2 * k + 1, closed=False)
        if strategy == "layered":
            coll = rich_collections.layered_good_paths(g, k, alpha, seed=seed)
        else:
            full, audit, case = rich_collections.build_good_paths(
                g, k, alpha, float(builder.get("C", 32.0)),
                float(builder.get("L", 256.0)), cap)
            diagnostics["good_case"] = case
            coll, pivot = rich_collections.good_suffix_restriction(full)
            diagnostics["suffix_vertex"] = pivot
        cert = embedders.embed_honeycomb(g, coll, k, ell) if len(coll) else None
    elif kind == "prism":
        cert, diag = embedders.find_prism(
            g, p["ell"], float(builder.get("T", 8.0)), budget=budget,
            seed=seed)
        diagnostics.update(diag)
    elif kind == "prism_path":
        cert = embedders.find_prism_path(g, p["t"])
    else:
        raise InputError(f"pipeline cannot target pattern kind {kind!r}")

    if coll is not None:
        report["collection"] = {"members": len(coll), "alpha": coll.alpha,
                                "kind": coll.kind, "length": coll.length,
                                "good": coll.good}
    report["diagnostics"] = diagnostics
    if cert is not None:
        ok, why = oracle.verify_certificate(host, cert)
        if not ok:
            raise IntegrityError(f"pipeline certificate invalid: {why}")
        report["certificate"] = cert.to_json()
        report["outcome"] = "found"
        code = EXIT_FOUND
    else:
        report["certificate"] = None
        report["outcome"] = "not-found"
        code = EXIT_NOT_FOUND
    report["exit_status"] = code

    out = config.get("out", {})
    if out.get("collection") and coll is not None:
        with open(out["collection"], "w", encoding="utf-8") as fh:
            fh.write(coll.to_text())
    if out.get("certificate") and cert is not None:
        with open(out["certificate"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(cert.to_json(), sort_keys=True, indent=2)
                     + "\n")
    if out.get("report"):
        with open(out["report"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code, report


def cmd_pipeline(args) -> int:
    if args.config:
        config = _parse_json(_read_text(args.config, "config"), "config")
    else:
        config = {}
    # flag overrides for the fully-flag-driven form
    if args.host_file:
        config["host"] = {"kind": "file", "path": args.host_file}
    if args.gnp:
        n, p = args.gnp
        config["host"] = {"kind": "gnp", "n": int(n), "p": float(p),
                          "seed": args.seed,
                          "bipartite": bool(args.bipartite)}
    if args.polarity_q is not None:
        config["host"] = {"kind": "polarity", "q": args.polarity_q}
    if args.target:
        config["target"] = _parse_json(args.target, "--target")
    if args.alpha is not None:
        config.setdefault("builder", {})["alpha"] = args.alpha
    if args.strategy:
        config.setdefault("builder", {})["strategy"] = args.strategy
    if args.budget is not None:
        config.setdefault("embedder", {})["budget"] = int(args.budget)
    if args.seed is not None:
        config.setdefault("embedder", {}).setdefault("seed", args.seed)
    if args.report:
        config.setdefault("out", {})["report"] = args.report
    if args.cert:
        config.setdefault("out", {})["certificate"] = args.cert
    code, report = run_pipeline(config, threads=args.threads)
    if args.json or not config.get("out", {}).get("report"):
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    return code


# -- parser ----------------------------------------------------------------------

def _common(sub):
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument("--json", action="store_true",
                     help="print the JSON report to stdout")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--threads", type=int, default=1,
                     help="accepted for compatibility; changes neither "
                          "results nor speed")
    return sub


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="turan-forge",
        description="pattern generators, host cleanup, rich collections and "
                    "shifting embedders for dense-graph substructure search")
    subs = ap.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate patterns and hosts")
    gsub = gen.add_subparsers(dest="what", required=True)
    gp = _common(gsub.add_parser("pattern"))
    gp.add_argument("--kind", required=True,
                    choices=["grid", "prism", "prism_path", "cylinder",
                             "torus", "honeycomb", "even_cycle"])
    gp.add_argument("--t", type=int)
    gp.add_argument("--k", type=int)
    gp.add_argument("--ell", type=int)
    gp.add_argument("--labels", help="write the label map as a JSON sidecar")
    gp.set_defaults(func=cmd_gen_pattern)
    gq = _common(gsub.add_parser("polarity"))
    gq.add_argument("--q", type=int, required=True)
    gq.set_defaults(func=cmd_gen_polarity)
    gg = _common(gsub.add_parser("gnp"))
    gg.add_argument("--n", type=int, required=True)
    gg.add_argument("--p", type=float, required=True)
    gg.add_argument("--bipartite", action="store_true")
    gg.set_defaults(func=cmd_gen_gnp)

    tr = subs.add_parser("transform", help="host preprocessing steps")
    tr.add_argument("step", choices=["peel", "half", "regularize", "clean"])
    tr.add_argument("--in", required=True)
    tr.add_argument("--epsilon", type=float, default=0.5)
    tr.add_argument("--c", type=float, default=1.0)
    tr.add_argument("--K", type=float, default=32.0)
    tr.add_argument("--mode", choices=["fixed", "self"], default="fixed")
    tr.add_argument("--audit")
    _common(tr)
    tr.set_defaults(func=cmd_transform)

    ct = subs.add_parser("count", help="homomorphism/cycle counting and "
                                       "weight reports")
    ct.add_argument("what", choices=["homp", "c4", "cycles", "weights"])
    ct.add_argument("--in", required=True)
    ct.add_argument("--k", type=int, default=5)
    ct.add_argument("--ell", type=int, default=2)
    ct.add_argument("--C0", type=float, default=8.0)
    ct.add_argument("--cap", type=float, default=1e8)
    _common(ct)
    ct.set_defaults(func=cmd_count)

    bd = subs.add_parser("build", help="rich/good collection builders")
    bd.add_argument("family", choices=["rich-paths", "rich-cycles",
                                       "good-paths"])
    bd.add_argument("--in", required=True)
    bd.add_argument("--k", type=int, default=5)
    bd.add_argument("--ell", type=int, default=2)
    bd.add_argument("--alpha", type=int, required=True)
    bd.add_argument("--C", type=float, default=32.0)
    bd.add_argument("--L", type=float, default=256.0)
    bd.add_argument("--cap", type=float, default=1e8)
    bd.add_argument("--strategy", choices=["exhaustive", "layered"],
                    default="exhaustive",
                    help="layered good-paths build the 2k-vertex suffix form "
                         "directly")
    bd.add_argument("--audit")
    _common(bd)
    bd.set_defaults(func=cmd_build)

    em = subs.add_parser("embed", help="shifting embedders over collections")
    em.add_argument("target", choices=["grid", "cylinder", "torus",
                                       "honeycomb"])
    em.add_argument("--coll", required=True)
    em.add_argument("--host", required=True)
    em.add_argument("--t", type=int, default=2)
    em.add_argument("--k", type=int, default=2)
    em.add_argument("--ell", type=int, default=2)
    em.add_argument("--budget", type=float, default=1e6)
    _common(em)
    em.set_defaults(func=cmd_embed)

    fd = subs.add_parser("find", help="direct searches on the host")
    fd.add_argument("what", choices=["prism", "prismpath"])
    fd.add_argument("--in", required=True)
    fd.add_argument("--ell", type=int, default=4)
    fd.add_argument("--T", type=float, default=8.0)
    fd.add_argument("--t", type=int, default=3)
    fd.add_argument("--budget", type=float, default=1e7)
    _common(fd)
    fd.set_defaults(func=cmd_find)

    orc = subs.add_parser("oracle", help="brute-force ground truth")
    osub = orc.add_subparsers(dest="what", required=True)
    of = _common(osub.add_parser("find"))
    of.add_argument("--host", required=True)
    of.add_argument("--pattern", required=True,
                    help="edge-list file or shorthand like c4")
    of.add_argument("--budget", type=float, default=1e8)
    of.set_defaults(func=cmd_oracle_find)
    ov = _common(osub.add_parser("verify"))
    ov.add_argument("--host", required=True)
    ov.add_argument("--cert", required=True)
    ov.set_defaults(func=cmd_oracle_verify)
    ox = _common(osub.add_parser("exmax"))
    ox.add_argument("--n", type=int, required=True)
    ox.add_argument("--pattern", required=True)
    ox.set_defaults(func=cmd_oracle_exmax)

    pl = subs.add_parser("pipeline", help="end-to-end runner with persisted "
                                          "reports")
    pl.add_argument("--config", help="JSON config document")
    pl.add_argument("--host-file")
    pl.add_argument("--gnp", nargs=2, metavar=("N", "P"))
    pl.add_argument("--bipartite", action="store_true")
    pl.add_argument("--polarity-q", type=int)
    pl.add_argument("--target", help='pattern JSON, e.g. '
                                     '\'{"kind":"cylinder","k":3,"ell":2}\'')
    pl.add_argument("--alpha", type=int)
    pl.add_argument("--strategy", choices=["auto", "exhaustive", "layered"])
    pl.add_argument("--budget", type=float)
    pl.add_argument("--report")
    pl.add_argument("--cert")
    _common(pl)
    pl.set_defaults(func=cmd_pipeline)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return EXIT_INPUT
    except ResourceError as exc:
        sys.stderr.write(f"resource error: {exc}\n")
        return EXIT_INPUT
    except IntegrityError as exc:
        sys.stderr.write(f"integrity error: {exc}\n")
        return EXIT_INTEGRITY


if __name__ == "__main__":
    sys.exit(main())
