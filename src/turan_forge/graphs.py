"""Immutable simple undirected graphs with degree/codegree primitives."""

from __future__ import annotations

import os
import re
from bisect import bisect_left
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import InputError, ResourceError

# The most ids (tombstones included) a graph may have for its dense blocks and
# codegree matrix: the int32 matrix is then at most 1 GiB, and every float32
# product entry, a count of at most n < 2**24, is exact.
DENSE_LIMIT = 16384


class Graph:
    """Undirected simple graph on vertex ids ``0..n-1``, immutable after build.

    Stored as read-only CSR arrays: v's neighbours are ``indices[indptr[v]:
    indptr[v + 1]]``, ascending, and ``alive`` masks the live vertices.
    ``neighbors(v)`` makes its tuple on first request; the 2-coloring and
    the codegree matrix are computed at most once.  Deleted vertices stay in
    the id space as isolated tombstones, so that collections and
    certificates built before a deletion remain interpretable.
    ``num_vertices`` and ``average_degree`` count live vertices only.
    """

    __slots__ = ("n", "edge_count", "indptr", "indices", "alive", "_deg",
                 "_num_alive", "_rows", "_side", "_codeg_matrix")

    def __init__(self, n: int, src: np.ndarray, indices: np.ndarray,
                 alive: np.ndarray):
        # internal constructor (rows src ascending); use build_graph() / remove()
        self._deg = np.bincount(src, minlength=n)
        self.indptr = np.concatenate([[0], np.cumsum(self._deg)])
        for a in (self.indptr, indices, alive):
            a.flags.writeable = False
        self.n, self.indices, self.alive = n, indices, alive
        self.edge_count = len(indices) // 2
        self._num_alive = int(np.count_nonzero(alive))
        self._rows: dict[int, tuple[int, ...]] = {}
        self._side = None  # two_coloring's sides, False for an odd cycle
        self._codeg_matrix = None  # dense, built on demand

    # -- basic accessors ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._num_alive

    def is_alive(self, v: int) -> bool:
        return 0 <= v < self.n and bool(self.alive[v])

    def vertices(self) -> Iterator[int]:
        return iter(np.flatnonzero(self.alive).tolist())

    def degree(self, v: int) -> int:
        self._check(v)
        return int(self._deg[v])

    def degrees(self) -> list[int]:
        return self._deg.tolist()

    def neighbors(self, v: int) -> tuple[int, ...]:
        row = self._rows.get(v)
        if row is None:
            self._check(v)
            row = self._rows[v] = tuple(self._row(v).tolist())
        return row

    def _row(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def _row_entries(self, vs: np.ndarray) -> np.ndarray:
        """The CSR rows of the vertices ``vs``, concatenated in that order."""
        cnt = self._deg[vs]
        return self.indices[np.repeat(self.indptr[vs] - np.cumsum(cnt) + cnt, cnt)
                            + np.arange(int(cnt.sum()))]

    def _sources(self) -> np.ndarray:
        """The vertex each entry of ``indices`` belongs to."""
        return np.repeat(np.arange(self.n, dtype=np.int64), self._deg)

    def has_edge(self, u: int, v: int) -> bool:
        self._check(u)
        self._check(v)
        row = self._rows.get(u) or self._row(u)  # one-off queries build no tuple
        i = bisect_left(row, v)
        return i < len(row) and bool(row[i] == v)

    def edges(self) -> Iterator[tuple[int, int]]:
        src = self._sources()
        up = self.indices > src
        return zip(src[up].tolist(), self.indices[up].tolist())

    @property
    def average_degree(self) -> float:
        return 2.0 * self.edge_count / self._num_alive if self._num_alive else 0.0

    def max_degree(self) -> int:
        return int(self._deg.max(initial=0))

    def min_degree_alive(self) -> int:
        return int(self._deg[self.alive].min()) if self._num_alive else 0

    def _check(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range 0..{self.n - 1}")

    # -- codegree primitives -----------------------------------------------

    def common_neighbors(self, u: int, v: int) -> list[int]:
        """Sorted common neighborhood of two distinct vertices, as ints, by
        intersecting their sorted CSR slices."""
        if u == v:
            raise InputError("common_neighbors needs two distinct vertices")
        self._check(u)
        self._check(v)
        return np.intersect1d(self._row(u), self._row(v),
                              assume_unique=True).tolist()

    def codegree(self, u: int, v: int) -> int:
        """Number of common neighbors, deg(v) on the diagonal u == v as in
        ``codegree_matrix``: read from that matrix once it is built, else
        from the sorted neighbour slices, with the same answer."""
        self._check(u)
        self._check(v)
        if self._codeg_matrix is not None:
            return int(self._codeg_matrix[u, v])
        return self.degree(u) if u == v else len(self.common_neighbors(u, v))

    def _dense_check(self) -> None:
        """Refuse, before allocating, a dense array of a graph above
        ``DENSE_LIMIT`` ids."""
        if self.n > DENSE_LIMIT:
            raise ResourceError(
                f"{self.n} vertex ids would need {4 * self.n * self.n} bytes "
                f"for the codegree matrix; dense codegree kernels take at most "
                f"{DENSE_LIMIT} ids")

    def codegree_matrix(self) -> np.ndarray:
        """Dense int32 codegree matrix (diagonal holds degrees), built on
        first call and cached; ``ResourceError`` above ``DENSE_LIMIT`` ids.

        Each block (R, C) of ``dense_blocks`` fills the R-by-R entries with
        ``B B^T``, B the float32 adjacency block; on a bipartite graph these
        are the two side blocks, and every other entry is 0.  The product
        runs in slabs of at most 2**22 entries, so a block of up to 2048
        rows is one ``B @ B.T``, which numpy computes as a symmetric rank-k
        update at half the flops.  Consecutive R is written as whole slabs.
        float32 is exact because every entry is at most n <= DENSE_LIMIT
        < 2**24.
        """
        if self._codeg_matrix is None:
            self._dense_check()
            out = np.zeros((self.n, self.n), dtype=np.int32)
            for rows, cols in dense_blocks(self):
                b = self.block(rows, cols)
                at = _run(rows)
                step = max(512, (1 << 22) // max(len(rows), 1))
                for lo in range(0, len(rows), step):
                    c = b[lo:lo + step] @ b.T
                    if isinstance(at, slice):
                        out[at.start + lo:at.start + lo + len(c), at] = c
                    else:
                        out[np.ix_(rows[lo:lo + step], rows)] = c
            self._codeg_matrix = out
        return self._codeg_matrix

    def block(self, rows, cols) -> np.ndarray:
        """The float32 adjacency block of ``rows`` by ``cols`` (distinct ids
        each), read from the CSR rows of ``rows``; ``ResourceError`` above
        ``DENSE_LIMIT`` ids."""
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        self._dense_check()
        at = np.full(self.n, -1, dtype=np.intp)
        at[cols] = np.arange(len(cols))
        r = np.repeat(np.arange(len(rows)), self._deg[rows])
        c = at[self._row_entries(rows)]
        keep = c >= 0
        out = np.zeros((len(rows), len(cols)), dtype=np.float32)
        out[r[keep], c[keep]] = 1
        return out

    # -- deletion ------------------------------------------------------------

    def remove(self, vertices: Iterable[int] = (),
               edges: Iterable[tuple[int, int]] = ()) -> "Graph":
        """Graph minus the given vertices (tombstoned) and edges.

        Both may be iterables or arrays; an edge may repeat or come in
        either orientation, but it must be present.  The edges are found by
        one ``searchsorted`` of both orientations' packed codes u*n + v in
        the sorted codes of the CSR entries.  ``InputError`` names the first
        out-of-range vertex, then the first edge, in input order, with an
        endpoint out of range or not present."""
        n = self.n
        dead = _ids(vertices, (-1,))
        out = (dead < 0) | (dead >= n)
        if out.any():
            self._check(dead[np.argmax(out)])
        pairs = _ids(edges, (-1, 2))
        u, v = pairs.T
        inside = (u >= 0) & (u < n) & (v >= 0) & (v < n)
        u, v = (np.where(inside, w, 0).astype(np.int64) for w in (u, v))
        src = self._sources()
        keys = src * n + self.indices
        codes = np.concatenate([u * n + v, v * n + u])
        at = np.searchsorted(keys, codes)
        hit = at < len(keys)
        hit[hit] = keys[at[hit]] == codes[hit]
        ok = inside & hit[:len(u)]
        if not ok.all():
            a, b = pairs[np.argmin(ok)].tolist()
            self._check(a)
            self._check(b)
            raise InputError(f"edge ({a},{b}) not present")
        mask = np.zeros(n, dtype=bool)
        mask[dead] = True
        keep = ~(mask[src] | mask[self.indices])
        keep[at] = False
        return Graph(n, src[keep], self.indices[keep], self.alive & ~mask)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, alive={self._num_alive}, e={self.edge_count})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a simple graph; duplicate and reversed pairs collapse to one edge."""
    return _from_ids(n, [x for (u, v) in edges for x in (u, v)])


def _ids(values, shape: tuple) -> np.ndarray:
    """Vertex ids (an array, or an iterable of ids or of pairs) as an int64
    array of ``shape``; as an object array when an id does not fit int64,
    which is then out of range and kept for the error message."""
    if not isinstance(values, (np.ndarray, list, tuple)):
        values = list(values)
    try:
        return np.asarray(values, dtype=np.int64).reshape(shape)
    except OverflowError:
        return np.asarray(values, dtype=object).reshape(shape)


def _from_ids(n: int, ids) -> Graph:
    """The graph on 0..n-1 whose edges are the consecutive pairs of ``ids``
    (a list or an array): one sort of both directions' packed codes u*n + v,
    duplicates dropped, gives the CSR rows."""
    if n < 0:
        raise InputError("vertex count must be non-negative")
    ids = _ids(ids, (-1,))
    u, v = ids.reshape(-1, 2).T
    bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
    if bad.any():
        u, v = ids.reshape(-1, 2)[int(np.argmax(bad))].tolist()
        if 0 <= u < n and 0 <= v < n:
            raise InputError(f"self-loop at {u} rejected")
        raise InputError(f"edge ({u},{v}) has an endpoint outside 0..{n - 1}")
    try:
        if n * n >= 2 ** 63:  # the packed codes would overflow int64
            raise MemoryError
        codes = np.sort(np.concatenate([u * n + v, v * n + u]))
        codes = codes[np.diff(codes, prepend=-1) != 0]
        return Graph(n, codes // n, codes % n, np.ones(n, dtype=bool))
    except MemoryError:
        raise ResourceError(f"not enough memory for a graph on {n} vertices") from None


def two_coloring(g: Graph) -> Optional[list[int]]:
    """2-coloring over live vertices, or None if an odd cycle exists; each
    component gets side 0 at its least vertex.  Computed once per graph, by
    a breadth-first search over one level of CSR rows at a time."""
    if g._side is None:
        g._side = side = np.full(g.n, -1, dtype=np.int8)
        for s in np.flatnonzero(g._deg).tolist():
            if side[s] >= 0:
                continue
            side[s], front = 0, np.array([s])
            while len(front):
                colour, nb = side[front[0]], g._row_entries(front)
                if (side[nb] == colour).any():
                    g._side = False
                    return None
                front = np.sort(nb[side[nb] < 0])
                front = front[np.diff(front, prepend=-1) != 0]
                side[front] = 1 - colour
        side[side < 0] = 0
    return None if g._side is False else g._side.tolist()


def _run(ids: np.ndarray):
    """Sorted distinct ``ids`` as a slice when they are consecutive, so that
    reads and writes stay contiguous; otherwise ``ids`` itself."""
    if len(ids) and ids[-1] - ids[0] + 1 == len(ids):
        return slice(int(ids[0]), int(ids[-1]) + 1)
    return ids


def dense_blocks(g: Graph) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (rows, columns) vertex blocks that every dense product of g runs
    on: the sides X, Y of its non-isolated vertices as ``[(X, Y), (Y, X)]``
    when g is bipartite (from ``two_coloring``), else ``[(V, V)]`` with V
    the non-isolated vertices, one array as both rows and columns (so
    ``rows is cols`` marks that square block).  Either way the first block
    holds an entry for every edge, and the codegrees of a block's rows come
    from that block alone: in a bipartite graph every common neighbour of
    two X vertices lies in Y."""
    live = np.flatnonzero(g._deg)
    if two_coloring(g) is None:
        return [(live, live)]
    x, y = live[g._side[live] == 0], live[g._side[live] == 1]
    return [(x, y), (y, x)]


# -- edge-list text format --------------------------------------------------
# One edge per line ("u v", 0-based); lines starting with '#' are comments;
# an optional "n <count>" header line, anywhere, pins the id space
# (otherwise n = max id + 1).  Tombstone flags do not survive a round-trip.

# the layout edge_list_text writes is the header, then "u v" lines of ASCII
# digits (_edge_lines)
_HEADER = re.compile(r"n ([0-9]{1,18})\n")


def _edge_lines(body: bytes) -> bool:
    """Whether ``body`` is lines of 1-18 ASCII digits, one space and 1-18
    digits, each ended by "\n" but the last, which may end the text."""
    c = np.frombuffer(body + b"\n" * (body[-1:] not in (b"", b"\n")), np.uint8)
    sep = np.flatnonzero(c < ord("0"))  # then " ", "\n", " ", "\n", ...
    run = np.diff(sep, prepend=-1) - 1  # the digits before each
    return bool((c <= ord("9")).all() and len(sep) % 2 == 0
                and (c[sep[0::2]] == ord(" ")).all()
                and (c[sep[1::2]] == ord("\n")).all()
                and ((run >= 1) & (run <= 18)).all())


def read_edge_list(path_or_lines) -> Graph:
    """Parse an edge list from a path or from lines.

    A file in the layout ``edge_list_text`` writes is converted to ids in
    one call.  Other text is read line by line, split as ``str.splitlines``
    and ``str.split`` split it, with ids as ``int`` reads them; the first
    malformed line is named in the error.
    """
    if isinstance(path_or_lines, (str, os.PathLike)):
        try:
            with open(path_or_lines, "rb") as fh:
                data = fh.read()
            text = data.decode("utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read edge list: {exc}") from None
        head = _HEADER.match(text)  # ASCII: its end is a byte offset too
        if head and _edge_lines(data[head.end():]):
            return _from_ids(int(head[1]), np.fromstring(
                text[head.end():], dtype=np.int64, sep=" "))
        lines = text.splitlines()
    else:
        lines = list(path_or_lines)
    n, ids = None, []
    for raw in lines:
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        header = parts[0] == "n"
        try:
            if len(parts) != 2 or (header and n is not None):
                raise ValueError
            if header:
                n = int(parts[1])
            else:
                ids += (int(parts[0]), int(parts[1]))
        except ValueError:
            raise InputError(f"bad {'header' if header else 'edge'} line: {raw!r}") from None
    return _from_ids(max([-1, *ids]) + 1 if n is None else n, ids)


def edge_list_text(g: Graph) -> str:
    """The edge-list text of ``g``: the header, then each edge u < v once."""
    return f"n {g.n}\n" + "".join(f"{u} {v}\n" for (u, v) in g.edges())


def write_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(edge_list_text(g))
