"""Host-graph preprocessing: min-degree peel, bipartite halving,
almost-regular band extraction, clean-subgraph trimming."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import InputError, IntegrityError
from .graphs import Graph, dense_blocks, two_coloring


@dataclass
class TransformReport:
    input_stats: dict
    output_stats: dict
    steps_taken: int = 0
    audit: Optional[list] = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"input": self.input_stats, "output": self.output_stats,
               "steps": self.steps_taken, **self.extras}
        if self.audit is not None:
            out["audit"] = self.audit
        return out


def _stats(g: Graph) -> dict:
    return {"n": g.num_vertices, "e": g.edge_count,
            "avg_degree": g.average_degree}


def _peel_below(g: Graph, lo: float, audit: Optional[list]) -> Graph:
    """Repeatedly delete the (degree, id)-smallest live vertex of degree < lo."""
    deg = g.degrees()
    heap = [(deg[v], v) for v in g.vertices() if deg[v] < lo]
    heapq.heapify(heap)
    dead = set()
    while heap:
        d, v = heapq.heappop(heap)
        if v in dead or deg[v] != d:
            continue
        dead.add(v)
        if audit is not None:
            audit.append(["peel", v, d])
        for u in g.neighbors(v):
            if u not in dead:
                deg[u] -= 1
                if deg[u] < lo:
                    heapq.heappush(heap, (deg[u], u))
    return g.remove(vertices=dead) if dead else g


def peel_min_degree(g: Graph, keep_audit: bool = False) -> tuple[Graph, TransformReport]:
    """Subgraph with min degree >= d/4 and at least half the edges, obtained
    by deleting vertices of degree below d/4 (d = input average degree)."""
    if g.edge_count == 0:
        raise InputError("peel needs at least one edge")
    threshold = g.average_degree / 4.0
    audit: Optional[list] = [] if keep_audit else None
    out = _peel_below(g, threshold, audit)
    if out.edge_count * 2 < g.edge_count or out.min_degree_alive() < threshold:
        raise IntegrityError("peel postcondition failed")  # cannot happen
    rep = TransformReport(_stats(g), _stats(out),
                          steps_taken=g.num_vertices - out.num_vertices,
                          audit=audit, extras={"threshold": threshold})
    return out, rep


def bipartite_half(g: Graph) -> tuple[Graph, list[int]]:
    """Spanning bipartite subgraph keeping at least half of the edges.

    Uses the exact 2-coloring when the graph is already bipartite, otherwise
    local search: move any vertex with more same-side than cross-side
    neighbors until none exists.
    """
    side = two_coloring(g)
    if side is None:
        side = [0] * g.n
        moved = True
        while moved:
            moved = False
            for v in g.vertices():
                same = sum(1 for u in g.neighbors(v) if side[u] == side[v])
                if 2 * same > g.degree(v):
                    side[v] = 1 - side[v]
                    moved = True
    sides = np.asarray(side)
    src = g._sources()
    bad = (sides[src] == sides[g.indices]) & (src < g.indices)
    out = (g.remove(edges=np.column_stack([src[bad], g.indices[bad]]))
           if bad.any() else g)
    if out.edge_count * 2 < g.edge_count:
        raise IntegrityError("bipartite half postcondition failed")
    return out, side


def almost_regular_subgraph(g: Graph, epsilon: float, c: float,
                            k_target: float) -> tuple[Optional[Graph], TransformReport]:
    """Search dyadic degree bands [2^j, k_target*2^j] for a subgraph with
    max degree <= k_target * min degree and e >= (2c/5) * m^(1+epsilon).

    Returns (None, report-with-best-band) when no band meets the edge bound;
    an honest failure beats the astronomically large constant a fully
    constructive extraction would guarantee.
    """
    if epsilon <= 0 or epsilon >= 1 or c <= 0 or k_target < 1:
        raise InputError("need 0 < epsilon < 1, c > 0, k_target >= 1")
    n = g.num_vertices
    if g.edge_count < c * n ** (1 + epsilon):
        raise InputError(
            f"input too sparse: e={g.edge_count} < c*n^(1+eps)="
            f"{c * n ** (1 + epsilon):.1f}")

    bands = []
    j = 0
    best: Optional[tuple[int, int, Graph]] = None  # (edges, j, graph)
    while 2 ** j <= max(g.max_degree(), 1):
        lo = float(2 ** j)
        hi = k_target * lo
        h = g
        while True:
            h = _peel_below(h, lo, None)
            over = [v for v in h.vertices() if h.degree(v) > hi]
            if not over or h.edge_count == 0:
                break
            worst = max(over, key=lambda v: (h.degree(v), -v))
            h = h.remove(vertices=[worst])
        m = h.num_vertices
        feasible = (m > 0 and h.edge_count >= (2 * c / 5) * m ** (1 + epsilon))
        bands.append({"j": j, "lo": lo, "hi": hi, "m": m,
                      "e": h.edge_count, "feasible": feasible})
        if feasible and (best is None or h.edge_count > best[0]):
            best = (h.edge_count, j, h)
        j += 1

    if best is None:
        richest = max(bands, key=lambda b: b["e"]) if bands else None
        rep = TransformReport(_stats(g), {"n": 0, "e": 0, "avg_degree": 0.0},
                              steps_taken=len(bands),
                              extras={"bands": bands, "best_band": richest,
                                      "k_target": k_target})
        return None, rep
    _, j, h = best
    if h.max_degree() > k_target * h.min_degree_alive():
        raise IntegrityError("almost-regular band violated its own bound")
    rep = TransformReport(_stats(g), _stats(h), steps_taken=len(bands),
                          extras={"bands": bands, "chosen_j": j,
                                  "k_achieved": h.max_degree() / max(h.min_degree_alive(), 1),
                                  "k_target": k_target})
    return h, rep


def _short_edges(b: np.ndarray, floor: int, tau: float,
                 codeg: Optional[np.ndarray] = None) -> np.ndarray:
    """Edges (x, y) of the float32 block ``b`` (rows X, columns Y) where
    fewer than tau neighbours z != x of y have codeg(x, z) >= floor.

    Codegrees are ``b b^T`` unless ``codeg``, an X-by-X matrix, is given.
    At floor <= 1 every other neighbour z of y shares y with x, so the
    count is deg(y) - 1.  Above it, a codegree is at most the smaller
    degree: a row of degree below floor marks no pair and counts 0, and
    only the other rows H are multiplied, ``(Q[H, H] b[H])[x, y]``.  The
    counts are at most |X| < 2**24, so float32 is exact.
    """
    need = math.ceil(tau)  # integer c < tau iff c < ceil(tau)
    if floor <= 1:
        return (b > 0) & (b.sum(axis=0) - 1 < need)
    hot = np.flatnonzero(b.sum(axis=1) >= floor)
    bh = b if len(hot) == len(b) else b[hot]
    q = (bh @ bh.T if codeg is None else codeg[np.ix_(hot, hot)]) >= floor
    np.fill_diagonal(q, False)
    short_hot = (bh > 0) & (q.astype(np.float32) @ bh < need)
    if bh is b:
        return short_hot
    short = (b > 0) & (0 < need)  # the other rows count 0
    short[hot] = short_hot
    return short


def _unclean_edges(b: np.ndarray, d: float, n: int, square: bool) -> np.ndarray:
    """Mask of the edges of the float32 block ``b`` (rows X, columns Y, from
    ``dense_blocks``) where an end u lacks d/16 neighbours w != v with
    codeg(v, w) >= d^2/(128 n), v the other end.

    ``_short_edges`` of ``b`` finds the edges short at u in Y, and of
    ``b^T`` those short at u in X.  A ``square`` block is the whole
    symmetric adjacency matrix, where the second mask is the transpose of
    the first.
    """
    floor = math.ceil(d * d / (128.0 * n))  # integer c >= x iff c >= ceil(x)
    short = _short_edges(b, floor, d / 16.0)
    if square:
        return short | short.T
    return short | _short_edges(b.T, floor, d / 16.0).T


def clean_subgraph(g: Graph, mode: str = "fixed") -> tuple[Graph, TransformReport]:
    """Delete edges uv where u lacks d/16 neighbors w with codeg(v, w) >=
    d^2/(128 n), in either orientation, until none remains.

    mode "fixed" pins both thresholds to the input average degree, which
    keeps the process from chasing a moving target; mode "self" recomputes
    them from the current average degree at each pass and may cascade to
    empty.  The passes run on a float32 adjacency block of the non-isolated
    vertices, |X| by |Y| on a bipartite host, and the output graph is built
    once; ``ResourceError`` above ``graphs.DENSE_LIMIT`` ids.
    """
    if mode not in ("fixed", "self"):
        raise InputError("mode must be 'fixed' or 'self'")
    if g.edge_count == 0:
        return g, TransformReport(_stats(g), _stats(g), 0,
                                  extras={"mode": mode})
    n = g.num_vertices
    d_in = g.average_degree
    h, passes = _clean_block(g, mode, n, d_in)
    rep = TransformReport(_stats(g), _stats(h), steps_taken=passes,
                          extras={"mode": mode,
                                  "edges_deleted": g.edge_count - h.edge_count,
                                  "d_reference": d_in if mode == "fixed" else None})
    return h, rep


def _clean_block(g: Graph, mode: str, n: int, d_in: float) -> tuple[Graph, int]:
    """The deletion passes on the float32 block of ``dense_blocks``; returns
    the output graph and the number of passes."""
    rows, cols = dense_blocks(g)[0]
    square = rows is cols  # each edge has two entries, uv and vu
    b = g.block(rows, cols)
    b0 = b > 0
    e = g.edge_count
    passes = 0
    while True:
        d = d_in if mode == "fixed" else 2.0 * e / n
        bad = _unclean_edges(b, d, n, square)
        passes += 1
        if not bad.any():
            break
        b[bad] = 0
        e -= int(np.count_nonzero(bad)) // (2 if square else 1)
        if e == 0:
            break
    i, j = np.nonzero(np.triu(b0 & (b == 0)) if square else b0 & (b == 0))
    if not len(i):
        return g, passes
    return g.remove(edges=np.column_stack([rows[i], cols[j]])), passes


def is_clean(g: Graph, d: Optional[float] = None) -> bool:
    """Check the clean condition for average degree d (default: own)."""
    if g.edge_count == 0:
        return True
    if d is None:
        d = g.average_degree
    rows, cols = dense_blocks(g)[0]
    return not _unclean_edges(g.block(rows, cols), d, g.num_vertices,
                              rows is cols).any()
