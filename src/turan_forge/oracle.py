"""Ground truth: backtracking subgraph search, certificate verification,
and exhaustive extremal numbers for tiny n."""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Optional

from .certificates import EmbeddingCertificate
from .errors import InputError
from .generators import PatternSpec, pattern as build_pattern
from .graphs import Graph, build_graph


@dataclass
class SearchStats:
    nodes: int
    seconds: float
    result: str  # "found" | "exhausted" | "budget"


def _pattern_order(p: Graph) -> list[int]:
    """Greedy order: highest degree first, then most neighbors already placed."""
    order: list[int] = []
    placed: set[int] = set()
    verts = sorted(p.vertices(), key=lambda v: (-p.degree(v), v))
    if not verts:
        return order
    order.append(verts[0])
    placed.add(verts[0])
    while len(order) < p.num_vertices:
        best = max((v for v in verts if v not in placed),
                   key=lambda v: (sum(1 for u in p.neighbors(v) if u in placed),
                                  p.degree(v), -v))
        order.append(best)
        placed.add(best)
    return order


def find_subgraph(host: Graph, pat: Graph, budget: int = 10 ** 8,
                  ) -> tuple[Optional[dict[int, int]], SearchStats]:
    """Backtracking subgraph-isomorphism search.

    Returns (mapping pattern-id -> host-id, stats); mapping is None with
    stats.result "exhausted" (definitive absence) or "budget".
    """
    t0 = time.perf_counter()
    order = _pattern_order(pat)
    host_by_degree = sorted(host.vertices(),
                            key=lambda v: (-host.degree(v), v))
    mapping: dict[int, int] = {}
    used: set[int] = set()
    nodes = 0

    pat_deg = {v: pat.degree(v) for v in pat.vertices()}
    back_edges: list[list[int]] = []
    for i, v in enumerate(order):
        prev = set(order[:i])
        back_edges.append([u for u in pat.neighbors(v) if u in prev])
    # codegree requirements between each vertex and its placed neighbors
    pat_codeg: list[list[tuple[int, int]]] = []
    for i, v in enumerate(order):
        reqs = []
        for u in back_edges[i]:
            c = len([w for w in pat.neighbors(v) if pat.has_edge(u, w)])
            if c:
                reqs.append((u, c))
        pat_codeg.append(reqs)

    def candidates(i: int):
        v = order[i]
        if not back_edges[i]:
            return host_by_degree
        anchor = mapping[back_edges[i][0]]
        return host.neighbors(anchor)

    def place(i: int) -> Optional[bool]:
        """True found, False exhausted subtree, None budget blown."""
        nonlocal nodes
        if i == len(order):
            return True
        v = order[i]
        for h in candidates(i):
            if h in used or host.degree(h) < pat_deg[v]:
                continue
            if any(not host.has_edge(mapping[u], h) for u in back_edges[i]):
                continue
            if any(host.codegree(mapping[u], h) < c for (u, c) in pat_codeg[i]):
                continue
            nodes += 1
            if nodes > budget:
                return None
            mapping[v] = h
            used.add(h)
            sub = place(i + 1)
            if sub:
                return True
            del mapping[v]
            used.discard(h)
            if sub is None:
                return None
        return False

    if pat.num_vertices == 0:
        return {}, SearchStats(0, time.perf_counter() - t0, "found")
    res = place(0)
    dt = time.perf_counter() - t0
    if res:
        return dict(mapping), SearchStats(nodes, dt, "found")
    return None, SearchStats(nodes, dt, "exhausted" if res is False else "budget")


@lru_cache(maxsize=64)
def _pattern(kind: str, k: Optional[int], ell: Optional[int],
             t: Optional[int]) -> tuple[Graph, Mapping[str, int]]:
    """The pattern graph and a read-only label map, built once per kind and
    the parameters ``generators.pattern`` reads."""
    params = {key: val for key, val in (("k", k), ("ell", ell), ("t", t))
              if val is not None}
    pat, labels = build_pattern(PatternSpec(kind, params))
    return pat, MappingProxyType(labels)


def verify_certificate(host: Graph, cert: EmbeddingCertificate,
                       ) -> tuple[bool, Optional[str]]:
    """Check injectivity and that every pattern edge maps to a host edge."""
    try:
        # a key the kind does not read may hold any value; only ints key the cache
        ints = [v if isinstance(v, int) else None
                for v in map(cert.pattern.params.get, ("k", "ell", "t"))]
        pat, labels = _pattern(cert.pattern.kind, *ints)
    except InputError as exc:
        return False, f"bad pattern spec: {exc}"
    assigned: dict[int, int] = {}
    for (lab, h) in cert.mapping:
        if lab not in labels:
            return False, f"unknown pattern label {lab!r}"
        pid = labels[lab]
        if pid in assigned and assigned[pid] != h:
            return False, f"label {lab!r} conflicts with an earlier assignment"
        if not (0 <= h < host.n) or not host.is_alive(h):
            return False, f"host vertex {h} invalid"
        assigned[pid] = h
    if len(assigned) != pat.num_vertices:
        return False, (f"mapping covers {len(assigned)} of "
                       f"{pat.num_vertices} pattern vertices")
    if len(set(assigned.values())) != len(assigned):
        return False, "mapping is not injective on host vertices"
    for (a, b) in pat.edges():
        if not host.has_edge(assigned[a], assigned[b]):
            return False, (f"pattern edge ({a},{b}) maps to non-edge "
                           f"({assigned[a]},{assigned[b]})")
    return True, None


# --------------------------------------------------------------------------
# exhaustive extremal search (n <= 9) via canonical forms per edge level

def _canonical_form(n: int, adj_bits: list[int]) -> tuple:
    """Lexicographically minimal adjacency encoding over all relabelings,
    found by branch-and-bound on partial vertex orders."""
    best: Optional[list[int]] = None

    degs = [bin(b).count("1") for b in adj_bits]
    start_order = sorted(range(n), key=lambda v: (-degs[v], v))

    def extend(perm: list[int], rows: list[int]) -> None:
        nonlocal best
        i = len(perm)
        if best is not None and rows > best[:i]:
            return
        if i == n:
            if best is None or rows < best:
                best = list(rows)
            return
        for v in start_order:
            if v in perm:
                continue
            row = 0
            for j, u in enumerate(perm):
                if adj_bits[v] >> u & 1:
                    row |= 1 << j
            extend(perm + [v], rows + [row])

    extend([], [])
    return tuple(best if best is not None else [])


def _contains_pattern_bits(n: int, adj_bits: list[int], pat: Graph) -> bool:
    host = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                           if adj_bits[u] >> v & 1])
    mapping, _ = find_subgraph(host, pat, budget=10 ** 7)
    return mapping is not None


def max_edges_exhaustive(n: int, pat: Graph) -> tuple[int, Graph]:
    """Exact maximum edge count of an n-vertex graph avoiding ``pat``, with a
    witness, by levelwise growth of pattern-free graphs deduplicated by
    canonical form."""
    if n > 9:
        raise InputError("exhaustive extremal search is capped at n = 9")
    if n < 1:
        raise InputError("need n >= 1")
    if pat.num_vertices == 0 or pat.edge_count == 0:
        raise InputError("forbidden pattern needs at least one edge")
    empty = tuple([0] * n)
    level: dict[tuple, list[int]] = {empty: [0] * n}
    best_bits = [0] * n
    best_edges = 0
    while level:
        nxt: dict[tuple, list[int]] = {}
        for bits in level.values():
            for u in range(n):
                for v in range(u + 1, n):
                    if bits[u] >> v & 1:
                        continue
                    child = list(bits)
                    child[u] |= 1 << v
                    child[v] |= 1 << u
                    form = _canonical_form(n, child)
                    if form in nxt:
                        continue
                    if _contains_pattern_bits(n, child, pat):
                        continue
                    nxt[form] = child
        if not nxt:
            break
        best_edges += 1
        best_bits = next(iter(nxt.values()))
        level = nxt
    witness = build_graph(n, [(u, v) for u in range(n)
                              for v in range(u + 1, n)
                              if best_bits[u] >> v & 1])
    return best_edges, witness
