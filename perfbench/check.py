"""The benchmark's own output check, made apart from the program.

Every pattern graph is built here from its definition (networkx for the
grid, ladder and prism; direct constructions for the quadrangulations and
the honeycomb fragment) and checked against closed-form counts and defining
properties.  A certificate passes only when its labels name exactly the
pattern's vertices, its host vertices are distinct vertices of the
benchmark's own host, and every pattern edge lands on an edge of the
benchmark's own edge set.  Nothing here imports turan_forge.
"""

from __future__ import annotations

from typing import Optional

import networkx as nx


def _rows_zigzag(k: int, ell: int, torus: bool) -> nx.Graph:
    """Rows 1..k of ell vertices each, columns cyclic; rows i and i+1 are
    joined by a zigzag 2*ell-cycle whose slant alternates with the parity
    of i (rows wrap around on the torus)."""
    g = nx.Graph()
    g.add_nodes_from((i, j) for i in range(1, k + 1) for j in range(1, ell + 1))
    for i in range(1, (k if torus else k - 1) + 1):
        nxt = i % k + 1
        for j in range(1, ell + 1):
            j1 = j % ell + 1
            g.add_edge((i, j), (nxt, j))
            if i % 2 == 1:
                g.add_edge((i, j1), (nxt, j))
            else:
                g.add_edge((i, j), (nxt, j1))
    return g


def _honeycomb(k: int, ell: int) -> tuple[nx.Graph, dict]:
    """Brick-wall rows 1..k by columns 1..ell, vertical rungs alternating by
    column parity; the odd columns of row k merge into one apex u = (k, 1)
    and the even columns of row 1 into one apex v = (1, 2)."""
    def node(i, j):
        if i == k and j % 2 == 1:
            return (k, 1)
        if i == 1 and j % 2 == 0:
            return (1, 2)
        return (i, j)

    g = nx.Graph()
    alias = {}
    for i in range(1, k + 1):
        for j in range(1, ell + 1):
            alias[f"{i},{j}"] = node(i, j)
            g.add_node(node(i, j))
            if j < ell:
                g.add_edge(node(i, j), node(i, j + 1))
    for i in range(1, k // 2 + 1):
        for j in range(1, ell + 1):
            if j % 2 == 1:
                g.add_edge(node(2 * i - 1, j), node(2 * i, j))
            else:
                g.add_edge(node(2 * i, j), node(2 * i + 1, j))
    return g, alias


def pattern(target: dict) -> tuple[nx.Graph, dict[str, object]]:
    """The pattern graph of a target and the map from certificate labels
    ("i,j") to its vertices; several labels may name one vertex."""
    kind = target["kind"]
    if kind == "grid":
        t = target["t"]
        g = nx.grid_2d_graph(t, t)
        labels = [(i, j) for i in range(1, t + 1) for j in range(1, t + 1)]
        return g, {f"{i},{j}": (i - 1, j - 1) for (i, j) in labels}
    if kind == "prism_path":
        t = target["t"]
        return nx.ladder_graph(t), {f"{r},{i}": (r - 1) * t + i - 1
                                    for r in (1, 2) for i in range(1, t + 1)}
    if kind == "prism":
        m = 2 * target["ell"]
        return nx.circular_ladder_graph(m), {
            f"{r},{j}": (r - 1) * m + j - 1
            for r in (1, 2) for j in range(1, m + 1)}
    if kind in ("cylinder", "torus"):
        k, ell = target["k"], target["ell"]
        g = _rows_zigzag(k, ell, kind == "torus")
        return g, {f"{i},{j}": (i, j) for (i, j) in g.nodes}
    if kind == "honeycomb":
        return _honeycomb(target["k"], target["ell"])
    raise ValueError(f"no construction for pattern kind {kind!r}")


def pattern_problems(target: dict) -> list[str]:
    """Closed-form counts and defining properties of a target's pattern;
    an empty list means the construction is sound."""
    g, alias = pattern(target)
    kind = target["kind"]
    v, e = g.number_of_nodes(), g.number_of_edges()
    out = []
    if set(alias.values()) != set(g.nodes):
        out.append("labels do not cover the vertices")
    if not nx.is_bipartite(g) or not nx.is_connected(g):
        out.append("not a connected bipartite graph")
    degrees = sorted({d for _, d in g.degree})
    if kind == "grid":
        t = target["t"]
        want = (t * t, 2 * t * (t - 1))
    elif kind == "prism_path":
        t = target["t"]
        want = (2 * t, 3 * t - 2)
    elif kind == "prism":
        ell = target["ell"]
        want = (4 * ell, 6 * ell)
        if degrees != [3]:
            out.append(f"prism degrees {degrees}, expected 3-regular")
    elif kind in ("cylinder", "torus"):
        k, ell = target["k"], target["ell"]
        torus = kind == "torus"
        want = (k * ell, 2 * ell * (k if torus else k - 1))
        if torus and degrees != [4]:
            out.append(f"torus degrees {degrees}, expected 4-regular")
        # the quadrangulation is a chain of 2*ell-cycles, one per row pair
        for i in range(1, (k if torus else k - 1) + 1):
            rows = [(r, j) for r in (i, i % k + 1) for j in range(1, ell + 1)]
            sub = g.subgraph(rows)
            if (sub.number_of_edges() != 2 * ell or not nx.is_connected(sub)
                    or {d for _, d in sub.degree} != {2}):
                out.append(f"rows {i},{i % k + 1} do not span a "
                           f"{2 * ell}-cycle")
    elif kind == "honeycomb":
        k, ell = target["k"], target["ell"]
        want = (k * ell - ell + 2, (k - 2) * (ell - 1) + ell + (k - 1) * ell // 2)
        cells = nx.minimum_cycle_basis(g)
        if len(cells) != e - v + 1 or any(len(c) != 6 for c in cells):
            out.append("cells are not all hexagons")
    else:
        raise ValueError(f"no properties for pattern kind {kind!r}")
    if (v, e) != want:
        out.append(f"{kind} has {v} vertices and {e} edges, expected {want}")
    return out


def certificate_problem(cert: Optional[dict], target: dict, n: int,
                        edges: set[int]) -> Optional[str]:
    """Why a certificate is not an embedding of ``target`` into the host on
    vertices 0..n-1 with edge set ``edges`` (pairs u < v coded u * n + v),
    or None when it is one."""
    if not isinstance(cert, dict):
        return "no certificate"
    if cert.get("pattern") != target:
        return f"pattern {cert.get('pattern')} is not the target {target}"
    g, alias = pattern(target)
    image: dict = {}
    for item in cert.get("mapping", []):
        if not isinstance(item, list) or len(item) != 2:
            return f"malformed mapping entry {item!r}"
        label, host_v = item
        if label not in alias:
            return f"unknown label {label!r}"
        if not isinstance(host_v, int) or not 0 <= host_v < n:
            return f"label {label!r} maps outside the host: {host_v!r}"
        node = alias[label]
        if image.setdefault(node, host_v) != host_v:
            return f"label {label!r} disagrees with another label of its vertex"
    if set(image) != set(g.nodes):
        return f"mapping covers {len(image)} of {g.number_of_nodes()} vertices"
    if len(set(image.values())) != len(image):
        return "two pattern vertices share a host vertex"
    for a, b in g.edges:
        u, v = sorted((image[a], image[b]))
        if u * n + v not in edges:
            return f"pattern edge {a}-{b} maps to the non-edge {u}-{v}"
    return None
