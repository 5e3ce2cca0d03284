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

Last, ``sort_codes``, ``Runs`` and ``Index`` are the signature index in
its plain form: full-size ``arange``, ``&`` and ``>>`` temporaries, an
int64 row order and a whole prefix array per run search.  They pin the
package's in-place index: its order, keys and runs.

And ``layer_transversals`` is the layered seed's former join: a dense bool
block of all n rows by the next layer's columns at each step, its
candidates read off that block's rows, with its cap on one step's
candidates.  It pins the rows of the package's CSR join of layers.
"""

from collections import Counter

import numpy as np

from turan_forge import rich_collections as rc
from turan_forge.errors import InputError, ResourceError
from turan_forge.graphs import Graph
from turan_forge.rich_collections import (_boundaries, _index_codes,
                                          _index_cols, _search, _sorted_keys,
                                          _spans)


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


def thick_extension_counts(h, tau, us, vs):
    """``embedders._thick_extension_counts``."""
    return [sum(_codeg(h, u, w) - 1 for w in h.neighbors(v)
                if w != u and _codeg(h, u, w) > tau)
            for (u, v) in zip(us.tolist(), vs.tolist())]


def sample_thin_fraction(h, tau, rng, samples=1500):
    """``embedders._sample_thin_fraction``, one sample at a time: the same
    two draws from the numpy generator ``rng``, then each accepted pair's
    common neighbours are listed by an intersection and the two drawn
    positions read from that list."""
    verts = [v for v in h.vertices() if h.degree(v) >= 2]
    if len(verts) < 2:
        return None
    accepted = []
    for i, j in rng.integers(0, [len(verts), len(verts) - 1],
                             size=(samples, 2)).tolist():
        u, v = verts[i], verts[j + (j >= i)]
        common = h.common_neighbors(u, v)
        if len(common) >= 2:
            accepted.append(common)
    if not accepted:
        return None
    weight_sum = 0.0
    thin_sum = 0.0
    highs = [[len(common), len(common) - 1] for common in accepted]
    for common, (a, b) in zip(accepted, rng.integers(0, highs).tolist()):
        c = len(common)
        w1, w2 = common[a], common[b + (b >= a)]
        weight = c * (c - 1) / 2.0
        weight_sum += weight
        if c <= tau and _codeg(h, w1, w2) <= tau:
            thin_sum += weight
    return thin_sum / weight_sum


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


def sort_codes(code, top):
    """``rich_collections._sort_codes``: an order that sorts codes in
    [0, top) and the codes in that order.  The row number rides along in
    the bits left over, if any, so that one sort gives both and orders
    equal codes by row."""
    bits = len(code).bit_length()
    if top << bits < rc._PACK_LIMIT:
        code <<= bits
        code |= np.arange(len(code))
        code.sort()
        return code & ((1 << bits) - 1), code >> bits
    order = np.argsort(code)
    return order, code[order]


def index_keys(members, kind, pos, tail, base):
    """``rich_collections._index_keys``, sorted by ``sort_codes``."""
    if base ** members.shape[1] >= rc._PACK_LIMIT:
        return _sorted_keys(_index_cols(members, kind, pos, tail), base)
    return sort_codes(_index_codes(members, kind, pos, tail, base),
                      base ** members.shape[1])


def drop(keys, base, tail):
    """``rich_collections._drop``: sorted keys without their last ``tail``
    digits, still sorted, in the same form."""
    return keys[:len(keys) - tail] if keys.ndim == 2 else keys // base ** tail


class Runs:
    """``rich_collections._Runs``: the runs of sorted keys that agree on all
    but their last ``tail`` digits: each run's head (that prefix, in the
    keys' form), where it starts in the keys (plus the end), and its live
    row count."""

    def __init__(self, keys, base, tail):
        self.base, self.tail = base, tail
        prefix = drop(keys, base, tail)
        at = np.flatnonzero(_boundaries(prefix))
        self.heads = np.take(prefix, at, axis=-1)
        self.start = np.append(at, keys.shape[-1])
        self.live = np.diff(self.start)

    def find(self, keys):
        """The run of each key (one of the sorted keys, or of their form)."""
        return _search(self.heads, drop(keys, self.base, self.tail))

    def leave(self, keys):
        """The rows with these keys are no longer live."""
        self.live -= np.bincount(self.find(keys), minlength=len(self.live))

    def group_starts(self):
        """The first of these runs of each run of their heads without the
        last digit (each group), for ``reduceat``."""
        return np.flatnonzero(_boundaries(drop(self.heads, self.base, 1)))


class Index:
    """``rich_collections._Index``: one position's (signature, fill) index
    over an array of member rows, sorted once, with its groups: the runs of
    signatures, with live sizes.

    The index rows are ``_index_cols``: one per member on paths (``tail``
    fill columns last), L per member on cycles, row r belonging to member
    r % m.  No two rows are equal, so the rows of dead members are found
    by a search for their own keys; they are never compacted out of the
    keys while the prune runs, only subtracted from the live counts.
    """

    def __init__(self, members, kind, pos, tail, base):
        self.members, self.kind, self.pos = members, kind, pos
        self.tail, self.base = tail, base
        self.order, self.keys = index_keys(members, kind, pos, tail, base)
        self.groups = Runs(self.keys, base, tail)

    def codes(self, rows):
        """The keys of the index rows of some members, packed straight from
        their columns."""
        some = np.take(self.members, rows, axis=0)
        if self.keys.ndim == 1:
            return _index_codes(some, self.kind, self.pos, self.tail, self.base)
        return np.stack(_index_cols(some, self.kind, self.pos, self.tail))

    def leave(self, rows):
        """These members die: their rows leave the live counts."""
        self.groups.leave(self.codes(rows))

    def rows(self, ids):
        """The index rows of groups ``ids`` (in their ``order`` ranges), dead
        ones too, and the group of each."""
        start = self.groups.start
        cnt = start[ids + 1] - start[ids]
        return self.order[_spans(start[ids], cnt)], np.repeat(ids, cnt)

    def first(self, ids):
        """An index row of each group ``ids``."""
        return self.order[self.groups.start[ids]]

    def without(self, dead):
        """The sorted keys without the rows of the ``dead`` members."""
        if not len(dead):
            return self.keys
        return np.delete(self.keys, _search(self.keys, self.codes(dead)),
                         axis=-1)


def seconds(keys, base):
    """``rich_collections._seconds``: the (signature, second fill) keys of
    (signature, first, second) keys."""
    if keys.ndim == 2:
        return np.concatenate([keys[:-2], keys[-1:]])
    return keys // (base * base) * base + keys % base


def pair_fill_runs(keys, base):
    """``rich_collections._PairIndex``'s fill runs of pair-index keys: the
    runs of (signature, first fill), and of (signature, second fill) from
    one sort of those keys."""
    second = seconds(keys, base)
    second = (np.sort(second) if second.ndim == 1
              else second[:, np.lexsort(second[::-1])])
    return Runs(keys, base, 1), Runs(second, base, 0)


def layer_transversals(g, layers, closed):
    """All transversal tuples (one vertex per layer, all distinct) whose
    consecutive pairs (and the wrap-around pair if closed) are host edges.

    Layers may overlap: a candidate whose new vertex is already in its row
    is dropped as the column joins.  For closed tuples the wrap-around edge
    is enforced during the last join so intermediates stay small.  More
    than ``_HARD_MEMBER_CAP`` candidates in one step is a resource error;
    as repeats leave at each step, it can only be raised later than a
    check of unfiltered rows would, never earlier.
    """
    cols = [layers[0]]
    for i, nxt in enumerate(layers[1:], start=1):
        # all n rows by the layer's columns, read from the layer's own CSR
        # rows (A is symmetric): a fraction of the 2e entries of all rows
        block = np.ascontiguousarray(g.block(nxt, np.arange(g.n)).T > 0)
        adj = np.take(block, cols[-1], axis=0)
        if closed and i == len(layers) - 1:
            adj &= np.take(block, cols[0], axis=0)
        src, dst = np.nonzero(adj)
        if len(src) > rc._HARD_MEMBER_CAP:
            raise ResourceError(
                f"layered enumeration step {i} of {len(layers) - 1} has "
                f"{len(src)} candidate rows, above the cap of "
                f"{rc._HARD_MEMBER_CAP}")
        v = np.take(nxt, dst)
        ok = np.ones(len(v), dtype=bool)
        for col in cols[:-1]:  # the last column is a neighbour of v
            ok &= np.take(col, src) != v
        src = np.compress(ok, src)
        cols = [np.take(col, src) for col in cols] + [np.compress(ok, v)]
        if len(src) == 0:
            return np.empty((0, len(layers)), dtype=np.uint32)
    return np.stack(cols, axis=1, dtype=np.uint32, casting="unsafe")
