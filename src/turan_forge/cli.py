"""Command-line interface: generators, transforms, counting, collection
builders, embedders, oracle, and the end-to-end pipeline runner.

Exit statuses: 0 verified find / success, 1 input or resource error,
2 integrity error, 3 honest not-found.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import counting, embedders, oracle, rich_collections, transforms
from .certificates import EmbeddingCertificate
from .errors import (EXIT_FOUND, EXIT_INPUT, EXIT_INTEGRITY, EXIT_NOT_FOUND,
                     InputError, IntegrityError, ResourceError)
from .generators import PatternSpec, pattern, polarity_graph, random_graph
from .graphs import Graph, edge_list_text, read_edge_list, write_edge_list
from .rich_collections import LabeledCollection


def _emit(text: str, path: Optional[str]) -> None:
    """``text`` into the file at ``path``, or to stdout without a path."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


def _dump(obj, path: Optional[str]) -> None:
    _emit(_json(obj) + "\n", path)


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


def _whole(value, what: str, low: Optional[int] = 0) -> int:
    """``value`` as an int: a finite whole number, at least ``low`` unless
    that is None, given as a number or as text such as "1e8"; an
    ``InputError`` otherwise."""
    if isinstance(value, str):
        for parse in (int, float):
            try:
                value = parse(value)
                break
            except ValueError:
                pass
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if (isinstance(value, bool) or not isinstance(value, int)
            or (low is not None and value < low)):
        at_least = "" if low is None else f" >= {low}"
        raise InputError(f"{what} must be a whole number{at_least}, "
                         f"not {value!r}")
    return value


def _real(value, what: str) -> float:
    """``value`` as a finite float, given as a number or as text; an
    ``InputError`` otherwise."""
    try:
        real = float(value)
    except (TypeError, ValueError, OverflowError):
        real = math.nan
    if isinstance(value, bool) or not math.isfinite(real):
        raise InputError(f"{what} must be a finite number, not {value!r}")
    return real


def _choice(value, what: str, allowed: tuple):
    """``value`` if it is one of ``allowed``, of the same type (1 is not
    true); an ``InputError`` naming the allowed values otherwise."""
    if not any(type(value) is type(a) and value == a for a in allowed):
        names = ", ".join(json.dumps(a) for a in allowed)
        raise InputError(f"{what} must be one of {names}, not {value!r}")
    return value


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
    _emit(edge_list_text(g), args.out)
    if args.labels:
        _emit(_json({"labels": sorted([lab, vid]
                                      for lab, vid in labels.items())}),
              args.labels)
    return EXIT_FOUND


def cmd_gen_polarity(args) -> int:
    _emit(edge_list_text(polarity_graph(args.q)), args.out)
    return EXIT_FOUND


def cmd_gen_gnp(args) -> int:
    g = random_graph(args.n, args.p, args.seed, bipartite=args.bipartite)
    _emit(edge_list_text(g), args.out)
    return EXIT_FOUND


# -- transform ---------------------------------------------------------------

def cmd_transform(args) -> int:
    if args.out is None:
        raise InputError("transform needs --out for the output host")
    g = read_edge_list(getattr(args, "in"))
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
            _dump(rep.to_json(), args.out if args.json else None)
            return EXIT_NOT_FOUND
    else:
        out, rep = transforms.clean_subgraph(g, mode=args.mode)
    write_edge_list(out, args.out)
    if args.audit:
        _emit(_json(rep.to_json()), args.audit)
    if args.json:
        _dump(rep.to_json(), None)
    return EXIT_FOUND


# -- count -------------------------------------------------------------------

def cmd_count(args) -> int:
    g = read_edge_list(getattr(args, "in"))
    if args.what == "homp":
        out = {"k": args.k, "hom": counting.hom_path_count(g, args.k)}
    elif args.what == "c4":
        out = {"c4": counting.count_c4(g)}
    elif args.what == "cycles":
        cnt, truncated = counting.count_even_cycles(
            g, args.ell, _whole(args.cap, "--cap"))
        out = {"ell": args.ell, "count": cnt, "truncated": truncated}
    else:
        rep = counting.prism_path_weight_report(
            g, args.ell, args.C0, _whole(args.cap, "--cap"))
        out = rep.to_json()
    _dump(out, args.out)
    return EXIT_FOUND


# -- one dispatch from target to search -------------------------------------

def _collection_of(target: PatternSpec) -> tuple[Optional[str], int, int]:
    """(family, its k or ell, default alpha) of the collection a target is
    embedded from; the family is None for the targets found by a direct
    search."""
    kind, p = target.kind, target.params
    if kind == "grid":
        return "rich_paths", 2 * p["t"] - 1, p["t"] * p["t"]
    if kind in ("cylinder", "torus"):
        return "rich_cycles", p["ell"], p["k"] * p["ell"]
    if kind == "honeycomb":
        return "good_paths", p["k"], p["k"] * p["ell"]
    if kind in ("prism", "prism_path"):
        return None, 0, 0
    raise InputError(f"pipeline cannot target pattern kind {kind!r}")


def _build(family: str, strategy: str, g: Graph, size: int, alpha: int,
           cap: int, seed: int, c_thresh: float, l_factor: float):
    """(collection, audit, good-path case) from ``build_<family>`` or
    ``layered_<family>``; the layered builders keep no audit, and only
    ``build_good_paths`` has a case."""
    if strategy == "layered":
        build = getattr(rich_collections, f"layered_{family}")
        return build(g, size, alpha, seed=seed), None, None
    build = getattr(rich_collections, f"build_{family}")
    if family == "good_paths":
        return build(g, size, alpha, c_thresh, l_factor, cap)
    return (*build(g, size, alpha, cap), None)


def _embed(kind: str, p: dict, g: Graph, coll: LabeledCollection,
           budget: int, seed: int) -> Optional[EmbeddingCertificate]:
    """The shifting embedder of a collection target."""
    if kind == "grid":
        return embedders.embed_grid(g, coll, p["t"])
    if kind == "torus":
        return embedders.embed_torus(g, coll, p["k"], p["ell"],
                                     budget=budget, seed=seed)
    return getattr(embedders, f"embed_{kind}")(g, coll, p["k"], p["ell"])


def _find(kind: str, p: dict, g: Graph, t_factor: float, budget: int,
          seed: int) -> tuple[Optional[EmbeddingCertificate], dict]:
    """The direct search of a prism or prism_path target, and its
    diagnostics."""
    if kind == "prism":
        return embedders.find_prism(g, p["ell"], t_factor, budget=budget,
                                    seed=seed)
    return embedders.find_prism_path(g, p["t"]), {}


# -- build / embed / find ------------------------------------------------------

def cmd_build(args) -> int:
    g = read_edge_list(getattr(args, "in"))
    family = args.family.replace("-", "_")
    size = args.ell if family == "rich_cycles" else args.k
    coll, audit, case = _build(family, args.strategy, g, size, args.alpha,
                               _whole(args.cap, "--cap"), args.seed, args.C,
                               args.L)
    if case is not None:
        audit.diagnostics["case"] = case
    _emit(coll.to_text(), args.out)
    if args.audit and audit is not None:
        _emit(_json(audit.to_json()), args.audit)
    return EXIT_FOUND


def _emit_certificate(cert: Optional[EmbeddingCertificate], args,
                      extra: Optional[dict] = None) -> int:
    out = {"found": cert is not None, **(cert.to_json() if cert else {})}
    if extra:
        out["diagnostics"] = extra
    _dump(out, args.out)
    return EXIT_NOT_FOUND if cert is None else EXIT_FOUND


def cmd_embed(args) -> int:
    host = read_edge_list(args.host)
    coll = LabeledCollection.from_text(_read_text(args.coll, "collection"))
    cert = _embed(args.target, {"t": args.t, "k": args.k, "ell": args.ell},
                  host, coll, _whole(args.budget, "--budget"), args.seed)
    return _emit_certificate(cert, args)


def cmd_find(args) -> int:
    host = read_edge_list(getattr(args, "in"))
    cert, diag = _find("prism_path" if args.what == "prismpath" else "prism",
                       {"ell": args.ell, "t": args.t}, host, args.T,
                       _whole(args.budget, "--budget"), args.seed)
    return _emit_certificate(cert, args, extra=diag)


# -- oracle --------------------------------------------------------------------

def _load_pattern_arg(value: str) -> Graph:
    if value.startswith("c") and value[1:].isdigit():
        m = int(value[1:])
        if m < 4 or m % 2 != 0:
            raise InputError("cycle shorthand needs an even length >= 4")
        return pattern(PatternSpec("even_cycle", {"ell": m // 2}))[0]
    return read_edge_list(value)


def cmd_oracle_find(args) -> int:
    host = read_edge_list(args.host)
    pat = _load_pattern_arg(args.pattern)
    mapping, stats = oracle.find_subgraph(
        host, pat, budget=_whole(args.budget, "--budget"))
    out = {"result": stats.result, "nodes": stats.nodes}
    if mapping is not None:
        out["mapping"] = sorted([int(k), int(v)] for k, v in mapping.items())
    _dump(out, args.out)
    return EXIT_FOUND if mapping is not None else EXIT_NOT_FOUND


def cmd_oracle_verify(args) -> int:
    host = read_edge_list(args.host)
    obj = _parse_json(_read_text(args.cert, "certificate"), "certificate")
    cert = EmbeddingCertificate.from_json(obj)
    ok, why = oracle.verify_certificate(host, cert)
    _dump({"valid": ok, "violation": why}, args.out)
    return EXIT_FOUND if ok else EXIT_INTEGRITY


def cmd_oracle_exmax(args) -> int:
    pat = _load_pattern_arg(args.pattern)
    best, witness = oracle.max_edges_exhaustive(args.n, pat)
    _dump({"n": args.n, "max_edges": best,
           "witness": sorted([int(u), int(v)] for (u, v) in witness.edges())},
          args.out)
    return EXIT_FOUND


# -- pipeline -------------------------------------------------------------------

_EXHAUSTIVE_ESTIMATE_CAP = 250_000


def _typed(value, what: str, cls: type, name: str):
    """``value`` if it is a ``cls``; an ``InputError`` naming ``what``
    otherwise."""
    if not isinstance(value, cls):
        raise InputError(f"{what} must be {name}, not {value!r}")
    return value


def _make_host(cfg: dict) -> Graph:
    kind = cfg.get("kind")
    if kind == "gnp":
        return random_graph(_whole(cfg["n"], "host.n"),
                            _real(cfg["p"], "host.p"),
                            _whole(cfg.get("seed", 0), "host.seed", low=None),
                            bipartite=_choice(cfg.get("bipartite", False),
                                              "host.bipartite", (True, False)))
    if kind == "polarity":
        return polarity_graph(_whole(cfg["q"], "host.q"))
    if kind == "pattern":
        return pattern(PatternSpec.from_json(
            _typed(cfg["pattern"], "host.pattern", dict, "an object")))[0]
    if kind == "file":
        return read_edge_list(_typed(cfg["path"], "host.path", str,
                                     "a path string"))
    raise InputError(f"unknown host kind {kind!r}")


def _apply_transforms(g: Graph, chain: list) -> tuple[Graph, list]:
    if not isinstance(chain, list):
        raise InputError(f"transforms must be a list of steps, not {chain!r}")
    stats = []
    for i, step in enumerate(chain):
        if not isinstance(step, dict):
            raise InputError(f"transforms[{i}] must be an object with an "
                             f"\"op\", not {step!r}")
        op = _choice(step.get("op"), f"transforms[{i}].op",
                     ("peel", "half", "regularize", "clean"))
        if op == "peel":
            g, rep = transforms.peel_min_degree(g)
        elif op == "half":
            g, _side = transforms.bipartite_half(g)
            rep = None
        elif op == "regularize":
            fields = [_real(step.get(key, default), f"transforms[{i}].{key}")
                      for key, default in (("epsilon", 0.5), ("c", 1.0),
                                           ("K", 32.0))]
            try:
                g2, rep = transforms.almost_regular_subgraph(g, *fields)
            except InputError as exc:
                raise InputError(f"transforms[{i}] cannot regularize: {exc}"
                                 ) from None
            if g2 is None:
                raise InputError(f"transforms[{i}] has no feasible degree band")
            g = g2
        else:
            g, rep = transforms.clean_subgraph(
                g, mode=_choice(step.get("mode", "fixed"),
                                f"transforms[{i}].mode", ("fixed", "self")))
        stats.append({"op": op, "n": g.num_vertices, "e": g.edge_count})
    return g, stats


def _choose_strategy(g: Graph, family: str, size: int) -> str:
    """``auto``'s builder: exhaustive when the estimated number of labeled
    tuples of the family is at most ``_EXHAUSTIVE_ESTIMATE_CAP``."""
    tuple_len = {"rich_paths": size, "rich_cycles": 2 * size,
                 "good_paths": 2 * size + 1}[family]
    est = _tuple_estimate(g, tuple_len, closed=family == "rich_cycles")
    return "exhaustive" if est <= _EXHAUSTIVE_ESTIMATE_CAP else "layered"


def _tuple_estimate(g: Graph, tuple_len: int, closed: bool) -> float:
    """Estimated number of labeled tuples: homomorphic paths bound the
    labeled paths; the labeled 4-cycles are counted exactly, and closed
    walks of length ``tuple_len`` over 2 * tuple_len bound the longer
    labeled cycles."""
    if not closed:
        return float(counting.hom_path_count(g, tuple_len))
    if g.n > 1500:
        est = g.num_vertices * max(g.average_degree, 1.0) ** (tuple_len - 1)
    elif tuple_len == 4:
        return counting.count_c4(g)
    else:
        import numpy as np

        # trace(A^(2l)) = trace(C^l) for the codegree matrix C = A^2,
        # the entrywise sum of C^(l//2) * C^(l - l//2) as C is symmetric,
        # in float64 (exact below 2**53)
        ell = tuple_len // 2
        c = g.codegree_matrix().astype(np.float64)
        half = np.linalg.matrix_power(c, ell // 2)
        est = float((half * (half if ell % 2 == 0 else half @ c)).sum())
    return est / (2 * tuple_len)


def _check_sections(config) -> None:
    """``InputError`` unless the config is an object, and so is each of its
    sections but ``transforms`` (a list, checked where it is read)."""
    _typed(config, "config", dict, "an object")
    for key in ("host", "target", "builder", "embedder", "out"):
        _typed(config.get(key, {}), key, dict, "an object")


def run_pipeline(config: dict) -> tuple[int, dict]:
    """generate -> transform -> build collection -> embed -> verify.

    Returns (exit status, report).  The report carries every intermediate
    statistic plus the exact seeds and is byte-stable across reruns.  Every
    target, builder, embedder and out field is read before the host.
    """
    _check_sections(config)
    target = PatternSpec.from_json(config.get("target", {}))
    family, size, alpha = _collection_of(target)
    builder = config.get("builder", {})
    strategy = _choice(builder.get("strategy", "auto"), "builder.strategy",
                       ("auto", "exhaustive", "layered"))
    alpha = _whole(builder.get("alpha", alpha), "builder.alpha")
    cap = _whole(builder.get("cap", rich_collections.DEFAULT_CAP),
                 "builder.cap")
    c_thresh, l_factor, t_factor = (
        _real(builder.get(key, default), f"builder.{key}")
        for key, default in (("C", 32.0), ("L", 256.0), ("T", 8.0)))
    embedcfg = config.get("embedder", {})
    budget = _whole(embedcfg.get("budget", 10 ** 7), "embedder.budget")
    seed = _whole(embedcfg.get("seed", 0), "embedder.seed", low=None)
    out = {key: _typed(value, f"out.{key}", str, "a path string")
           for key, value in config.get("out", {}).items()
           if key in ("collection", "certificate", "report")
           and value is not None}

    report: dict = {"config": config}
    try:
        host = _make_host(config.get("host", {}))
    except KeyError as exc:
        raise InputError(f"host config missing {exc}") from None
    report["host"] = {"n": host.num_vertices, "e": host.edge_count,
                      "avg_degree": host.average_degree}
    g, tstats = _apply_transforms(host, config.get("transforms", []))
    report["transforms"] = tstats

    coll = None
    if family is None:
        cert, diagnostics = _find(target.kind, target.params, g, t_factor,
                                  budget, seed)
    else:
        if strategy == "auto":
            strategy = _choose_strategy(g, family, size)
        coll, _audit, case = _build(family, strategy, g, size, alpha, cap,
                                    seed, c_thresh, l_factor)
        diagnostics = {}
        if case is not None:
            diagnostics["good_case"] = case
            coll, diagnostics["suffix_vertex"] = (
                rich_collections.good_suffix_restriction(coll))
        cert = _embed(target.kind, target.params, g, coll, budget, seed)
        report["collection"] = {"members": len(coll), "alpha": coll.alpha,
                                "kind": coll.kind, "length": coll.length,
                                "good": coll.good}
    report["diagnostics"] = diagnostics
    if cert is not None:
        ok, why = oracle.verify_certificate(host, cert)
        if not ok:
            raise IntegrityError(f"pipeline certificate invalid: {why}")
        report.update(certificate=cert.to_json(), outcome="found",
                      exit_status=EXIT_FOUND)
    else:
        report.update(certificate=None, outcome="not-found",
                      exit_status=EXIT_NOT_FOUND)

    if out.get("collection") and coll is not None:
        _emit(coll.to_text(), out["collection"])
    if out.get("certificate") and cert is not None:
        _dump(cert.to_json(), out["certificate"])
    if out.get("report"):
        _dump(report, out["report"])
    return report["exit_status"], report


def cmd_pipeline(args) -> int:
    if args.config:
        config = _parse_json(_read_text(args.config, "config"), "config")
    else:
        config = {}
    _check_sections(config)
    # flag overrides for the fully-flag-driven form
    if args.host_file:
        config["host"] = {"kind": "file", "path": args.host_file}
    if args.gnp:
        n, p = args.gnp
        config["host"] = {"kind": "gnp", "n": _whole(n, "--gnp N"),
                          "p": _real(p, "--gnp P"),
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
        config.setdefault("embedder", {})["budget"] = _whole(args.budget,
                                                             "--budget")
    config.setdefault("embedder", {}).setdefault("seed", args.seed)
    if args.report:
        config.setdefault("out", {})["report"] = args.report
    if args.cert:
        config.setdefault("out", {})["certificate"] = args.cert
    code, report = run_pipeline(config)
    if args.json or not config.get("out", {}).get("report"):
        _dump(report, None)
    return code


# -- parser ----------------------------------------------------------------------

def _options(sub, *names):
    """Add the shared options ``names`` ("out", "json", "seed") that the
    subcommand reads."""
    if "out" in names:
        sub.add_argument("--out", help="output path (default: stdout)")
    if "json" in names:
        sub.add_argument("--json", action="store_true",
                         help="print the JSON report to stdout")
    if "seed" in names:
        sub.add_argument("--seed", type=int, default=0)
    return sub


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors exit with the input-error
    status (argparse's own is 2, the integrity-error status)."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="turan-forge",
        description="pattern generators, host cleanup, rich collections and "
                    "shifting embedders for dense-graph substructure search")
    subs = ap.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="generate patterns and hosts")
    gsub = gen.add_subparsers(dest="what", required=True)
    gp = _options(gsub.add_parser("pattern"), "out")
    gp.add_argument("--kind", required=True,
                    choices=["grid", "prism", "prism_path", "cylinder",
                             "torus", "honeycomb", "even_cycle"])
    gp.add_argument("--t", type=int)
    gp.add_argument("--k", type=int)
    gp.add_argument("--ell", type=int)
    gp.add_argument("--labels", help="write the label map as a JSON sidecar")
    gp.set_defaults(func=cmd_gen_pattern)
    gq = _options(gsub.add_parser("polarity"), "out")
    gq.add_argument("--q", type=int, required=True)
    gq.set_defaults(func=cmd_gen_polarity)
    gg = _options(gsub.add_parser("gnp"), "out", "seed")
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
    _options(tr, "out", "json")
    tr.set_defaults(func=cmd_transform)

    ct = subs.add_parser("count", help="homomorphism/cycle counting and "
                                       "weight reports")
    ct.add_argument("what", choices=["homp", "c4", "cycles", "weights"])
    ct.add_argument("--in", required=True)
    ct.add_argument("--k", type=int, default=5)
    ct.add_argument("--ell", type=int, default=2)
    ct.add_argument("--C0", type=float, default=8.0)
    ct.add_argument("--cap", default=rich_collections.DEFAULT_CAP,
                    help="a whole number, e.g. 1e8")
    _options(ct, "out")
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
    bd.add_argument("--cap", default=rich_collections.DEFAULT_CAP,
                    help="a whole number, e.g. 1e8")
    bd.add_argument("--strategy", choices=["exhaustive", "layered"],
                    default="exhaustive",
                    help="layered good-paths build the 2k-vertex suffix form "
                         "directly")
    bd.add_argument("--audit")
    _options(bd, "out", "seed")
    bd.set_defaults(func=cmd_build)

    em = subs.add_parser("embed", help="shifting embedders over collections")
    em.add_argument("target", choices=["grid", "cylinder", "torus",
                                       "honeycomb"])
    em.add_argument("--coll", required=True)
    em.add_argument("--host", required=True)
    em.add_argument("--t", type=int, default=2)
    em.add_argument("--k", type=int, default=2)
    em.add_argument("--ell", type=int, default=2)
    em.add_argument("--budget", default=10 ** 6)
    _options(em, "out", "seed")
    em.set_defaults(func=cmd_embed)

    fd = subs.add_parser("find", help="direct searches on the host")
    fd.add_argument("what", choices=["prism", "prismpath"])
    fd.add_argument("--in", required=True)
    fd.add_argument("--ell", type=int, default=4)
    fd.add_argument("--T", type=float, default=8.0)
    fd.add_argument("--t", type=int, default=3)
    fd.add_argument("--budget", default=10 ** 7)
    _options(fd, "out", "seed")
    fd.set_defaults(func=cmd_find)

    orc = subs.add_parser("oracle", help="brute-force ground truth")
    osub = orc.add_subparsers(dest="what", required=True)
    of = _options(osub.add_parser("find"), "out")
    of.add_argument("--host", required=True)
    of.add_argument("--pattern", required=True,
                    help="edge-list file or shorthand like c4")
    of.add_argument("--budget", default=10 ** 8)
    of.set_defaults(func=cmd_oracle_find)
    ov = _options(osub.add_parser("verify"), "out")
    ov.add_argument("--host", required=True)
    ov.add_argument("--cert", required=True)
    ov.set_defaults(func=cmd_oracle_verify)
    ox = _options(osub.add_parser("exmax"), "out")
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
    pl.add_argument("--budget")
    pl.add_argument("--report")
    pl.add_argument("--cert")
    _options(pl, "json", "seed")
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
