"""Walk/homomorphism counting, cycle counts and enumeration, codegree
classification and the weighted ladder census."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt
from typing import Iterator

import numpy as np

from .errors import InputError
from .graphs import Graph
from .matching import max_disjoint_edges
from .rich_collections import DEFAULT_CAP, _check_cap, _enumerate_cycles


def hom_path_count(g: Graph, k: int) -> int:
    """Exact number of walks with k vertices (homomorphisms of the k-vertex
    path), computed by dynamic programming with exact integers."""
    if k < 1:
        raise InputError("paths need at least one vertex")
    w = {v: 1 for v in g.vertices()}
    for _ in range(k - 1):
        w = {v: sum(w[u] for u in g.neighbors(v)) for v in w}
    return sum(w.values())


def check_path_inequality(g: Graph, k: int, l: int) -> tuple[bool, float, float]:
    """Test (hom(P_{k+1})/n)^(1/k) >= (hom(P_{l+1})/n)^(1/l) exactly.

    The comparison is done on integers (raised to the lcm power), so equality
    cases do not suffer float noise.  A False return signals a bug: the
    inequality is unconditional for even k > l >= 1.
    """
    if k % 2 != 0 or not (1 <= l < k):
        raise InputError("need even k and 1 <= l < k")
    n = g.num_vertices
    if n == 0:
        raise InputError("empty graph")
    hk = hom_path_count(g, k + 1)
    hl = hom_path_count(g, l + 1)
    holds = hk ** l * n ** (k - l) >= hl ** k
    lhs = (hk / n) ** (1.0 / k)
    rhs = (hl / n) ** (1.0 / l)
    return holds, lhs, rhs


def count_c4(g: Graph) -> int:
    """Number of unlabeled 4-cycle subgraphs: half the sum of C(codeg, 2)
    over the pairs u < v, read from the codegree matrix in row slabs."""
    m = g.codegree_matrix()
    d = np.diagonal(m).astype(np.int64)  # the degrees, not codegrees
    total = -int((d * (d - 1)).sum())
    for lo in range(0, g.n, 1024):
        c = m[lo:lo + 1024].astype(np.int64)
        total += int((c * (c - 1)).sum())
    # the ordered pairs u != v give 4 sum_{u<v} C(codeg, 2) = 8 * #C4
    assert total % 8 == 0
    return total // 8


def count_even_cycles(g: Graph, ell: int, cap: int = DEFAULT_CAP) -> tuple[int, bool]:
    """Exact count of unlabeled 2*ell-cycles, from the one cycle enumerator
    without keeping its rows; a host with more than ``cap`` of them gives
    ``(cap, True)``."""
    if ell < 2:
        raise InputError("need ell >= 2")
    _, count = _enumerate_cycles(g, ell, cap, take=0)
    return min(count, cap), count > cap


def enumerate_even_cycles(g: Graph, ell: int, cap: int = DEFAULT_CAP) -> tuple[list[tuple[int, ...]], bool]:
    """Canonical 2*ell-cycle tuples in lexicographic order, at most ``cap``
    of them; truncated only when the host has more."""
    if ell < 2:
        raise InputError("need ell >= 2")
    rows, count = _enumerate_cycles(g, ell, cap, take=cap)
    return [tuple(r) for r in rows.tolist()], count > cap


@dataclass
class C4Classification:
    threshold: float
    thin: list[tuple[int, int, int, int]]
    thick: list[tuple[int, int, int, int]]
    truncated: bool


def classify_c4(g: Graph, t_factor: float, cap: int = DEFAULT_CAP) -> C4Classification:
    """Split the first ``cap`` 4-cycles (a, b, c, d), in the order of
    ``enumerate_even_cycles``, into thin/thick at diagonal-codegree
    threshold ``t_factor * sqrt(average degree)``: thin when codeg(a, c)
    and codeg(b, d) are both at most it.  The codegrees are read from
    ``codegree_matrix``, so a host above ``graphs.DENSE_LIMIT`` ids is
    refused up front."""
    if t_factor <= 0:
        raise InputError("threshold factor must be positive")
    tau = t_factor * sqrt(g.average_degree)
    codeg = g.codegree_matrix()
    rows, count = _enumerate_cycles(g, 2, cap, take=cap)
    thin = ((codeg[rows[:, 0], rows[:, 2]] <= tau)
            & (codeg[rows[:, 1], rows[:, 3]] <= tau))
    return C4Classification(tau, [tuple(r) for r in rows[thin].tolist()],
                            [tuple(r) for r in rows[~thin].tolist()],
                            count > cap)


def is_rich_tuple(g: Graph, w: int, z: int, wp: int, zp: int,
                  ell: int) -> tuple[bool, list[tuple[int, int]]]:
    """Decide whether (w, z, w', z') admits >= 4*ell pairwise vertex-disjoint
    connecting edges xy with wx, xw', zy, yz' all present.

    Returns the decision and a maximum matching as witness.
    """
    if len({w, z, wp, zp}) != 4:
        raise InputError("rich tuple needs four distinct vertices")
    if not g.has_edge(w, z) or not g.has_edge(wp, zp):
        raise InputError("rich tuple needs wz and w'z' to be edges")
    xs = set(g.common_neighbors(w, wp))
    ys = set(g.common_neighbors(z, zp))
    if not xs or not ys:
        return False, []
    edges = []
    for x in xs:
        for y in g.neighbors(x):
            if y in ys and y != x:
                edges.append((x, y))
    witness = max_disjoint_edges(edges, xs, ys)
    return len(witness) >= 4 * ell, witness


def verify_rich_witness(g: Graph, w: int, z: int, wp: int, zp: int,
                        witness: list[tuple[int, int]]) -> bool:
    """Independent check of a rich-tuple witness: pairwise disjoint edges,
    each with all four required incidences."""
    seen: set[int] = set()
    for (x, y) in witness:
        if x in seen or y in seen or x == y:
            return False
        seen.update((x, y))
        if not (g.has_edge(x, y) and g.has_edge(w, x) and g.has_edge(x, wp)
                and g.has_edge(z, y) and g.has_edge(y, zp)):
            return False
    return True


@dataclass
class WeightReport:
    """Aggregate statistics of weighted ladder (path x edge) copies."""

    ell: int
    d_ref: float
    total_weight: float
    nice_weight: float
    counts: dict = field(default_factory=dict)
    copies_enumerated: int = 0
    truncated: bool = False

    def to_json(self) -> dict:
        return {
            "ell": self.ell, "d_ref": self.d_ref,
            "total_weight": self.total_weight, "nice_weight": self.nice_weight,
            "counts": dict(self.counts),
            "copies_enumerated": self.copies_enumerated,
            "truncated": self.truncated,
        }


def _ladder_copies(g: Graph, ell: int, cap: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Labeled ladder copies (x_0..x_ell, y_0..y_ell), all vertices distinct,
    enumerated in deterministic ascending order."""
    count = 0
    for x0 in g.vertices():
        for y0 in g.neighbors(x0):
            def extend(xs: list[int], ys: list[int]) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
                if len(xs) == ell + 1:
                    yield tuple(xs), tuple(ys)
                    return
                used = set(xs) | set(ys)
                for y in g.neighbors(ys[-1]):
                    if y in used:
                        continue
                    for x in g.common_neighbors(xs[-1], y):
                        if x in used or x == y:
                            continue
                        xs.append(x)
                        ys.append(y)
                        yield from extend(xs, ys)
                        xs.pop()
                        ys.pop()

            for copy in extend([x0], [y0]):
                yield copy
                count += 1
                if count >= cap:
                    return


def prism_path_weight_report(g: Graph, ell: int, c0: float,
                             cap: int = DEFAULT_CAP) -> WeightReport:
    """Weighted census of labeled ladder copies with ell+1 rungs.

    Each copy weighs 1/prod_i max(d(x_{i-1}, y_i), d^2/n); a copy is *nice*
    when every rung-diagonal codegree is at most c0*sqrt(d) and no
    alternate-rung 4-tuple is rich.  Failure classes mirror: (a) some
    d(x_{i-1},y_i) too big, (b) some d(x_i,y_{i-1}) too big, (c) a rich
    4-tuple among (x_{i-2}, y_{i-2}, x_i, y_i).
    """
    if ell < 2:
        raise InputError("need ell >= 2")
    _check_cap(cap)
    n = g.num_vertices
    if n == 0:
        raise InputError("empty graph")
    d = g.average_degree
    floor = d * d / n
    tau = c0 * sqrt(d)
    counts = {"nice": 0, "high_codegree_a": 0, "high_codegree_b": 0,
              "rich_tuple": 0}
    total = 0.0
    nice_total = 0.0
    copies = 0
    truncated = False
    rich_cache: dict[tuple[int, int, int, int], bool] = {}

    def rich(a, b, c, dd) -> bool:
        key = (a, b, c, dd)
        if key not in rich_cache:
            rich_cache[key] = is_rich_tuple(g, a, b, c, dd, ell)[0]
        return rich_cache[key]

    for xs, ys in _ladder_copies(g, ell, cap + 1):
        if copies == cap:
            truncated = True
            break
        copies += 1
        weight = 1.0
        for i in range(1, ell + 1):
            weight /= max(g.codegree(xs[i - 1], ys[i]), floor)
        total += weight
        if any(g.codegree(xs[i - 1], ys[i]) > tau for i in range(1, ell + 1)):
            counts["high_codegree_a"] += 1
        elif any(g.codegree(xs[i], ys[i - 1]) > tau for i in range(1, ell + 1)):
            counts["high_codegree_b"] += 1
        elif any(rich(xs[i - 2], ys[i - 2], xs[i], ys[i])
                 for i in range(2, ell + 1)):
            counts["rich_tuple"] += 1
        else:
            counts["nice"] += 1
            nice_total += weight
    return WeightReport(ell=ell, d_ref=d, total_weight=total,
                        nice_weight=nice_total, counts=counts,
                        copies_enumerated=copies, truncated=truncated)
