"""Immutable simple undirected graphs with degree/codegree primitives."""

from __future__ import annotations

import os
import tempfile
from bisect import bisect_left
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InputError, ResourceError

# Dense adjacency/codegree matrices are only materialised below this id count.
DENSE_CACHE_CAP = 5000
CACHE_DIR_ENV = "TURAN_FORGE_CACHE_DIR"


class Graph:
    """Undirected simple graph on vertex ids ``0..n-1``, immutable after build.

    Deleted vertices stay in the id space as isolated tombstones so that
    tuple collections and certificates built before a deletion remain
    interpretable.  ``num_vertices`` and ``average_degree`` count live
    vertices only.
    """

    __slots__ = ("n", "edge_count", "_adj", "_alive", "_num_alive",
                 "_adj_matrix", "_codeg_matrix")

    def __init__(self, n: int, adj: list[tuple[int, ...]], alive: list[bool],
                 edge_count: int):
        # internal constructor; use build_graph() / Graph.remove()
        self.n = n
        self._adj = adj
        self._alive = alive
        self._num_alive = sum(alive)
        self.edge_count = edge_count
        self._adj_matrix: Optional[np.ndarray] = None
        self._codeg_matrix: Optional[np.ndarray] = None

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_alive

    def is_alive(self, v: int) -> bool:
        return 0 <= v < self.n and self._alive[v]

    def vertices(self) -> Iterator[int]:
        alive = self._alive
        return (v for v in range(self.n) if alive[v])

    def degree(self, v: int) -> int:
        self._check(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(self._adj[v]) for v in range(self.n)]

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check(v)
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        row = self._adj[u]
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u in range(self.n):
            for v in self._adj[u]:
                if v > u:
                    yield (u, v)

    @property
    def average_degree(self) -> float:
        if self._num_alive == 0:
            return 0.0
        return 2.0 * self.edge_count / self._num_alive

    def max_degree(self) -> int:
        return max((len(self._adj[v]) for v in range(self.n)), default=0)

    def min_degree_alive(self) -> int:
        degs = [len(self._adj[v]) for v in range(self.n) if self._alive[v]]
        return min(degs, default=0)

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range 0..{self.n - 1}")

    # -- codegree primitives -----------------------------------------------

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Sorted common neighborhood of two distinct vertices."""
        if u == v:
            raise InputError("common_neighbors needs two distinct vertices")
        self._check(u)
        self._check(v)
        return self._merge(u, v)

    def _merge(self, u: int, v: int) -> list[int]:
        a, b = self._adj[u], self._adj[v]
        if len(a) > len(b):
            a, b = b, a
        out = []
        i = 0
        for x in a:
            i = bisect_left(b, x, i)
            if i < len(b) and b[i] == x:
                out.append(x)
        return out

    def codegree(self, u: int, v: int) -> int:
        """Number of common neighbors, deg(v) on the diagonal u == v as in
        ``codegree_matrix``; the same answer with or without the cached
        matrix."""
        self._check(u)
        self._check(v)
        if self._codeg_matrix is not None:
            return int(self._codeg_matrix[u, v])
        return len(self._merge(u, v))

    @property
    def dense_ok(self) -> bool:
        """Whether dense matrices are built for this graph (n <= DENSE_CACHE_CAP);
        above the cap every codegree comes from the per-pair merge."""
        return self.n <= DENSE_CACHE_CAP

    def adjacency_matrix(self) -> np.ndarray:
        """Boolean adjacency matrix; only available for n <= DENSE_CACHE_CAP."""
        if not self.dense_ok:
            raise ResourceError(f"adjacency matrix disabled for n={self.n}")
        if self._adj_matrix is None:
            m = np.zeros((self.n, self.n), dtype=bool)
            for u in range(self.n):
                row = self._adj[u]
                if row:
                    m[u, list(row)] = True
            self._adj_matrix = m
        return self._adj_matrix

    def codegree_matrix(self) -> Optional[np.ndarray]:
        """Dense int32 codegree matrix (diagonal holds degrees), or None above
        the cap.

        ``A @ A`` runs as a float32 BLAS product in 512-row slabs; float32 is
        exact because every entry is at most n <= DENSE_CACHE_CAP < 2**24.  If
        TURAN_FORGE_CACHE_DIR is set and n > 2000, the matrix is backed by a
        memmap of a temporary file in that directory instead of RAM; the file
        is unlinked as soon as it is mapped, so nothing is left behind.
        """
        if not self.dense_ok:
            return None
        if self._codeg_matrix is None:
            a = self.adjacency_matrix().astype(np.float32)
            shape = (self.n, self.n)
            cache_dir = os.environ.get(CACHE_DIR_ENV)
            if cache_dir and self.n > 2000:
                os.makedirs(cache_dir, exist_ok=True)
                fd, path = tempfile.mkstemp(suffix=".codeg.npy", dir=cache_dir)
                os.close(fd)
                out = np.memmap(path, dtype=np.int32, mode="w+", shape=shape)
                os.unlink(path)  # the mapping outlives the directory entry
            else:
                out = np.empty(shape, dtype=np.int32)
            step = 512
            for lo in range(0, self.n, step):
                out[lo:lo + step] = a[lo:lo + step] @ a
            self._codeg_matrix = out
        return self._codeg_matrix

    # -- deletion ------------------------------------------------------------

    def remove(self, vertices: Iterable[int] = (),
               edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Graph minus the given vertices (tombstoned) and edges."""
        dead = set()
        for v in vertices:
            self._check(v)
            dead.add(v)
        gone = set()
        for (u, v) in edges:
            self._check(u)
            self._check(v)
            if not self.has_edge(u, v):
                raise InputError(f"edge ({u},{v}) not present")
            gone.add((u, v) if u < v else (v, u))
        adj: list[tuple[int, ...]] = []
        removed_edges = 0
        for u in range(self.n):
            if u in dead:
                removed_edges += len(self._adj[u])
                adj.append(())
                continue
            row = tuple(v for v in self._adj[u]
                        if v not in dead
                        and ((u, v) if u < v else (v, u)) not in gone)
            removed_edges += len(self._adj[u]) - len(row)
            adj.append(row)
        alive = [self._alive[v] and v not in dead for v in range(self.n)]
        assert removed_edges % 2 == 0
        return Graph(self.n, adj, alive, self.edge_count - removed_edges // 2)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, alive={self._num_alive}, e={self.edge_count})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate and reversed pairs collapse to one edge."""
    if n < 0:
        raise InputError("vertex count must be non-negative")
    seen: set[tuple[int, int]] = set()
    for (u, v) in edges:
        if not (0 <= u < n) or not (0 <= v < n):
            raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise InputError(f"self-loop at {u} rejected")
        seen.add((u, v) if u < v else (v, u))
    rows: list[list[int]] = [[] for _ in range(n)]
    for (u, v) in seen:
        rows[u].append(v)
        rows[v].append(u)
    adj = [tuple(sorted(r)) for r in rows]
    return Graph(n, adj, [True] * n, len(seen))


def two_coloring(g: Graph) -> Optional[list[int]]:
    """BFS 2-coloring over live vertices, or None if an odd cycle exists."""
    side = [-1] * g.n
    for s in g.vertices():
        if side[s] != -1:
            continue
        side[s] = 0
        queue = [s]
        while queue:
            nxt = []
            for u in queue:
                for v in g.neighbors(u):
                    if side[v] == -1:
                        side[v] = 1 - side[u]
                        nxt.append(v)
                    elif side[v] == side[u]:
                        return None
            queue = nxt
    for v in range(g.n):
        if side[v] == -1:
            side[v] = 0
    return side


# -- edge-list text format --------------------------------------------------
# One edge per line ("u v", 0-based); lines starting with '#' are comments;
# an optional leading "n <count>" header pins the id space (otherwise
# n = max id + 1).  Tombstone flags do not survive a round-trip.

def read_edge_list(path_or_lines) -> Graph:
    if isinstance(path_or_lines, (str, os.PathLike)):
        try:
            with open(path_or_lines, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except OSError as exc:
            raise InputError(f"cannot read edge list: {exc}") from None
    else:
        lines = list(path_or_lines)
    n_decl: Optional[int] = None
    edges: list[tuple[int, int]] = []
    max_id = -1
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "n":
            if len(parts) != 2 or n_decl is not None:
                raise InputError(f"bad header line: {raw!r}")
            try:
                n_decl = int(parts[1])
            except ValueError:
                raise InputError(f"bad header line: {raw!r}") from None
            continue
        if len(parts) != 2:
            raise InputError(f"bad edge line: {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise InputError(f"bad edge line: {raw!r}") from None
        edges.append((u, v))
        max_id = max(max_id, u, v)
    n = n_decl if n_decl is not None else max_id + 1
    return build_graph(n, edges)


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"n {g.n}\n")
        for (u, v) in g.edges():
            fh.write(f"{u} {v}\n")
