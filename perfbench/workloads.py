"""The workloads: seeded host generators and the pipeline legs run on each host.

Hosts come from numpy's PCG64 streams keyed by (workload seed, workload,
host), so one seed gives the same hosts on every machine.  The program only
ever sees them as edge-list files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BUDGET = 10 ** 7


@dataclass(frozen=True)
class Leg:
    target: dict
    builder: dict
    transforms: tuple = ()

    @property
    def name(self) -> str:
        return self.target["kind"]


@dataclass(frozen=True)
class Workload:
    index: int  # keys the workload's random streams
    hosts: tuple  # (family, parameters) per host
    legs: tuple


def gnp_bipartite(n: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Bipartite G(n,p) across the split {0..ceil(n/2)-1} | {rest}, the
    split turan_forge's own ``random_graph`` uses; rows are edges u < v."""
    a = (n + 1) // 2
    u, v = np.nonzero(rng.random((a, n - a)) < p)
    return np.column_stack([u, v + a])


def chung_lu_bipartite(n: int, mean: float, exponent: float,
                       rng: np.random.Generator) -> np.ndarray:
    """Bipartite Chung-Lu graph: each side has expected degrees
    w_i ~ (i + 1)^(-1/(exponent - 1)) scaled to ``mean``, and u, v are
    joined with probability min(1, w_u w_v / S)."""
    a = n // 2

    def weights(m: int) -> np.ndarray:
        w = (np.arange(m) + 1.0) ** (-1.0 / (exponent - 1.0))
        return w * (mean / w.mean())

    left, right = weights(a), weights(n - a)
    scale = (left.sum() + right.sum()) / 2.0
    prob = np.minimum(1.0, np.outer(left, right) / scale)
    u, v = np.nonzero(rng.random(prob.shape) < prob)
    return np.column_stack([u, v + a])


def make_host(family: str, params: tuple,
              rng: np.random.Generator) -> tuple[int, np.ndarray]:
    if family == "gnp":
        n, p = params
        return n, gnp_bipartite(n, p, rng)
    n, = params
    return n, chung_lu_bipartite(n, 40.0, 2.1, rng)


def dense_p(n: int) -> float:
    """Edge probability of the acceptance-6 host family."""
    return min(0.9, 18.0 / math.sqrt(n))


# the six acceptance-6 legs, with their builder settings
DENSE_LEGS = (
    Leg({"kind": "grid", "t": 3}, {"alpha": 9, "strategy": "layered"}),
    Leg({"kind": "cylinder", "k": 4, "ell": 2},
        {"alpha": 8, "strategy": "layered"}),
    Leg({"kind": "torus", "k": 4, "ell": 2}, {"alpha": 8, "strategy": "layered"}),
    Leg({"kind": "honeycomb", "k": 3, "ell": 4},
        {"alpha": 12, "strategy": "layered"}),
    Leg({"kind": "prism_path", "t": 5}, {}),
    Leg({"kind": "prism", "ell": 4}, {"T": 8.0}),
)

MEDIUM_LEGS = (
    Leg({"kind": "grid", "t": 2}, {"strategy": "auto"}),
    Leg({"kind": "cylinder", "k": 4, "ell": 2}, {"alpha": 8, "strategy": "auto"}),
    Leg({"kind": "torus", "k": 4, "ell": 2}, {"alpha": 8, "strategy": "auto"}),
)

PEEL_CLEAN = ({"op": "peel"}, {"op": "clean"})
SKEWED_LEGS = (
    Leg({"kind": "prism_path", "t": 5}, {}, PEEL_CLEAN),
    Leg({"kind": "prism", "ell": 4}, {"T": 8.0}, PEEL_CLEAN),
)

WORKLOADS = {
    # the sizes of acceptance-6 hosts i = 0, 25, 49
    "dense-layered": Workload(
        0, tuple(("gnp", (n, dense_p(n))) for n in (200, 400, 592)), DENSE_LEGS),
    "medium-exhaustive": Workload(
        1, (("gnp", (80, 0.70)), ("gnp", (90, 0.65)), ("gnp", (100, 0.60)),
            ("gnp", (110, 0.55))), MEDIUM_LEGS),
    "skewed-deletion": Workload(
        2, (("chung_lu", (1000,)), ("chung_lu", (1300,))), SKEWED_LEGS),
}

TARGETS = ("grid", "cylinder", "torus", "honeycomb", "prism_path", "prism")
