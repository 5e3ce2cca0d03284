"""Pipeline benchmark for turan-forge.

    python3 perfbench/run.py --workload dense-layered --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The run generates its hosts from the seed,
writes them as edge-list files, and calls ``cli.run_pipeline`` in-process
(threads=1) once per leg and host, writing each report and certificate the
way a CLI user's run does.  Passes over all of the workload's pipeline runs
repeat for about ``--seconds``; every output is checked by ``check.py``.
With ``--trace 1`` the passes run under the tracer of ``tracer.py`` and the
run reports per-layer metrics instead of the end-to-end ones.
The last line of standard output is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

STARTED = time.perf_counter()  # set-up is timed from here, before numpy loads

from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BUDGET, TARGETS, WORKLOADS, make_host  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# setup_s is the imports, timed once, plus the median of this many rounds of
# the repeatable rest of set-up
SETUP_ROUNDS = 5


@dataclass
class Host:
    path: Path
    n: int
    edges: set  # u * n + v for every edge u < v
    embed_seed: int


def set_up(workload: str, seed: int, work: Path) -> list:
    """The repeatable part of set-up: generate and write the hosts and
    check the pattern constructions."""
    import numpy as np

    import check

    wl = WORKLOADS[workload]
    for leg in wl.legs:
        problems = check.pattern_problems(leg.target)
        if problems:
            raise SystemExit(f"pattern check failed for {leg.target}: {problems}")
    work.mkdir(parents=True, exist_ok=True)
    hosts = []
    for i, (family, params) in enumerate(wl.hosts):
        rng = np.random.default_rng([seed, wl.index, i])
        n, pairs = make_host(family, params, rng)
        path = work / f"host{i}.el"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"n {n}\n")
            fh.writelines(f"{u} {v}\n" for u, v in pairs.tolist())
        codes = set((pairs[:, 0] * n + pairs[:, 1]).tolist())
        hosts.append(Host(path, n, codes, int(rng.integers(2 ** 31))))
    return hosts


def operations(workload: str, hosts: list, out: Path) -> list:
    wl = WORKLOADS[workload]
    ops = []
    for i, host in enumerate(hosts):
        for leg in wl.legs:
            files = {"report": str(out / f"h{i}-{leg.name}.report.json"),
                     "certificate": str(out / f"h{i}-{leg.name}.cert.json")}
            config = {"host": {"kind": "file", "path": str(host.path)},
                      "transforms": list(leg.transforms),
                      "target": leg.target, "builder": leg.builder,
                      "embedder": {"budget": BUDGET, "seed": host.embed_seed},
                      "out": files}
            ops.append((leg, host, config))
    return ops


def run_pass(ops: list) -> tuple[float, list]:
    """Call the pipeline once for every operation; returns the pass's wall
    time and (seconds, exit status, report, error) per operation.  Outputs
    are checked after the pass, outside its timing."""
    import turan_forge.cli as cli

    for _leg, _host, config in ops:
        for path in config["out"].values():
            if os.path.exists(path):
                os.remove(path)
    configs = [json.loads(json.dumps(config)) for _leg, _host, config in ops]
    results = []
    start = time.perf_counter()
    for config in configs:
        t0 = time.perf_counter()
        code, report, error = None, None, None
        try:
            code, report = cli.run_pipeline(config)
        except Exception as exc:  # an operation that raises has failed
            error = f"{type(exc).__name__}: {exc}"
        results.append((time.perf_counter() - t0, code, report, error))
    return time.perf_counter() - start, results


def _read_json(path: str):
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def judge(leg, host: Host, config: dict, code, report, error) -> tuple[str, str]:
    """Classify one operation: ("found" | "not-found" | "failed" | "wrong",
    reason).  "wrong" is an output the check rejects."""
    import check

    if error is not None:
        return "failed", error
    if code != 0 and code != 3:
        return "failed", f"exit status {code}"
    out = config["out"]
    if _read_json(out["report"]) != json.loads(json.dumps(report)):
        return "wrong", "report file differs from the returned report"
    cert_file = _read_json(out["certificate"])
    cert = report.get("certificate")
    if code == 3:
        if cert is not None or cert_file is not None:
            return "wrong", "not-found run left a certificate"
        return "not-found", ""
    if cert_file != cert:
        return "wrong", "certificate file differs from the report's certificate"
    problem = check.certificate_problem(cert, leg.target, host.n, host.edges)
    if problem:
        return "wrong", problem
    return "found", ""


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    src = ROOT / "src"
    if not (src / "turan_forge" / "__init__.py").is_file():
        sys.stderr.write(f"no turan_forge sources under {src}\n")
        return 2
    sys.path.insert(0, str(src))
    os.environ.pop("TURAN_FORGE_CACHE_DIR", None)  # keep all files in the checkout

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path) -> int:
    import check  # noqa: F401
    import turan_forge.cli  # noqa: F401

    loaded = time.perf_counter() - STARTED
    rounds = []
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        hosts = set_up(args.workload, args.seed, work / "hosts")
        rounds.append(time.perf_counter() - t0)
    out = work / "out"
    out.mkdir()
    ops = operations(args.workload, hosts, out)

    import turan_forge

    if not Path(turan_forge.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"turan_forge imported from {turan_forge.__file__}")

    counts = {"attempted": 0, "failed": 0, "wrong": 0}

    def checked_pass():
        wall, results = run_pass(ops)
        found = 0
        times = {t: 0.0 for t in TARGETS}
        for (leg, host, config), (dt, code, report, error) in zip(ops, results):
            verdict, why = judge(leg, host, config, code, report, error)
            counts["attempted"] += 1
            times[leg.name] += dt
            if verdict in ("failed", "wrong"):
                counts["failed"] += 1
                counts["wrong"] += verdict == "wrong"
                print(f"# {verdict}: {leg.name} on {host.path.name}: {why}")
            found += verdict == "found"
        print(f"# pass: {wall:.3f} s, {found} certificates", flush=True)
        return wall, times, found

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        passes = [checked_pass()]
        for _ in range(int(args.seconds // passes[0][0]) - 1):
            passes.append(checked_pass())
    finally:
        if tracer:
            tracer.uninstall()
    sweep = statistics.median(p[0] for p in passes)
    if tracer:
        metrics = {"trace.sweep_s": sweep}
        for t in TARGETS:
            metrics[f"{t}_s"] = statistics.median(p[1][t] for p in passes)
        for name, unit in PER_LAYER.items():
            if name not in metrics:
                value = tracer.metric(name) / len(passes)
                metrics[name] = round(value) if unit == "count" else value
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": loaded + statistics.median(rounds),
            "sweep_s": sweep,
            "certs_found": statistics.median_low(p[2] for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
    for name, value in metrics.items():
        print(f"# {name} = {value} {units[name]}")
    print(json.dumps({
        "correct": counts["wrong"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
