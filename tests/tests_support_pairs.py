"""Pair-by-pair reference implementations of the codegree deletion processes
and counts.  Every codegree is one intersection of two sorted neighbour rows,
never a read of the dense matrix, so the block kernels in the package are
checked against code that shares none of their arithmetic.  Each function
has the signature of the kernel it stands in for, so a test can patch it in.

The module also holds ``remove``, the reference for ``Graph.remove``: it
checks each edge with ``has_edge`` in input order and drops the entries of
the removed edges by a set membership test of their packed codes.

And it holds ``cycle_dfs``, the reference for the package's cycle
enumerator: a recursive depth-first search that builds each cycle vertex by
vertex from the adjacency lists and closes it with ``has_edge``, sharing no
code with the wedge pairs or the array joins.
"""

from collections import Counter

import numpy as np

from turan_forge.errors import InputError
from turan_forge.graphs import Graph


def _codeg(g, u, v):
    return len(g.common_neighbors(u, v))


def unclean_pairs(g, d, n):
    """The edges uv where u (or v) lacks d/16 neighbours w != v (or u) with
    codeg(v, w) >= d^2/(128 n)."""
    need = d / 16.0
    floor = d * d / (128.0 * n)
    bad = []
    for (u, v) in g.edges():
        for a, b in ((u, v), (v, u)):
            cnt = 0
            for w in g.neighbors(a):
                if w != b and _codeg(g, b, w) >= floor:
                    cnt += 1
                    if cnt >= need:
                        break
            if cnt < need:
                bad.append((u, v))
                break
    return bad


def clean_pairs(g, mode, n, d_in):
    """``transforms._clean_block``: the clean passes; returns the output
    graph and the number of passes."""
    h = g
    passes = 0
    while True:
        d = d_in if mode == "fixed" else h.average_degree
        bad = unclean_pairs(h, d, n)
        passes += 1
        if not bad:
            return h, passes
        h = h.remove(edges=bad)
        if h.edge_count == 0:
            return h, passes


def _short_neighbors(g, nb, t, tau2):
    """The x in nb with fewer than tau2 z in nb - x of codeg(x, z) >= 2t."""
    return [x for x in nb
            if sum(1 for z in nb if z != x and _codeg(g, x, z) >= 2 * t) < tau2]


def prism_path_residue(h, xs, ys, t):
    """``embedders._prism_path_residue``: the two-type deletion process."""
    tau1 = h.edge_count / (4 * len(ys))
    tau2 = h.edge_count / (8 * len(ys))
    cur = h
    while True:
        kill = [y for y in ys
                if cur.is_alive(y) and 1 <= cur.degree(y) <= tau1]
        if kill:
            cur = cur.remove(vertices=kill)
        bad = [(x, y) for y in ys if cur.is_alive(y)
               for x in _short_neighbors(cur, cur.neighbors(y), t, tau2)]
        if not kill and not bad:
            return cur, tau1, tau2
        if bad:
            cur = cur.remove(edges=bad)


def thick_extension_counts(h, codeg, tau, us, vs):
    """``embedders._thick_extension_counts``, ignoring ``codeg``."""
    return [sum(_codeg(h, u, w) - 1 for w in h.neighbors(v)
                if w != u and _codeg(h, u, w) > tau)
            for (u, v) in zip(us.tolist(), vs.tolist())]


def high_codegree_cherries(g, c_thresh):
    """``rich_collections._count_high_codegree_cherries``."""
    per_center = {v: c for v in g.vertices()
                  if (c := sum(_codeg(g, u, w) > c_thresh
                               for u in g.neighbors(v) for w in g.neighbors(v)
                               if u != w))}
    return sum(per_center.values()), per_center


def wedge_c4(g):
    """``counting.count_c4`` from a dictionary of wedge counts: each pair
    u < v with c common neighbours closes C(c, 2) 4-cycles through u and v,
    and each 4-cycle has two such diagonals."""
    wedges = Counter((nb[i], nb[j]) for nb in map(g.neighbors, g.vertices())
                     for i in range(len(nb)) for j in range(i + 1, len(nb)))
    return sum(c * (c - 1) // 2 for c in wedges.values()) // 2


def cycle_dfs(g, length):
    """Yield each unlabeled cycle of ``length`` vertices once, in
    lexicographic order: the minimal vertex first, then the smaller of its
    two cycle-neighbours."""
    for root in g.vertices():
        path = [root]
        used = {root}

        def extend(depth):
            # path holds depth + 1 vertices on entry
            last = path[-1]
            if depth == length - 2:
                for v in g.neighbors(last):
                    if v > path[1] and v not in used and g.has_edge(v, root):
                        yield tuple(path) + (v,)
                return
            for v in g.neighbors(last):
                if v > root and v not in used:
                    used.add(v)
                    path.append(v)
                    yield from extend(depth + 1)
                    path.pop()
                    used.remove(v)

        for first in g.neighbors(root):
            if first > root:
                used.add(first)
                path.append(first)
                yield from extend(1)
                path.pop()
                used.remove(first)


def remove(g, vertices=(), edges=()):
    """``Graph.remove``: g minus the given vertices and edges."""
    dead = np.zeros(g.n, dtype=bool)
    for v in vertices:
        g._check(v)
        dead[v] = True
    gone = []
    for (u, v) in edges:
        if not g.has_edge(u, v):
            raise InputError(f"edge ({u},{v}) not present")
        gone += (u * g.n + v, v * g.n + u)
    src = g._sources()
    keep = ~(dead[src] | dead[g.indices])
    if gone:
        keep &= ~np.isin(src * g.n + g.indices, gone)
    return Graph(g.n, src[keep], g.indices[keep], g.alive & ~dead)
