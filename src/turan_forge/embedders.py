"""Shifting embedders over rich/good collections, the ladder finder for
asymmetric bipartite graphs, and the full prism search pipeline.

Every embedder verifies its certificate against the host before returning;
an invalid certificate is an integrity error, never an output.
"""

from __future__ import annotations

import hashlib
import math
import random
from typing import Callable, Optional, Sequence

import numpy as np

from .certificates import EmbeddingCertificate
from .errors import InputError, IntegrityError
from .generators import PatternSpec
from .graphs import Graph, _from_ids, _ids, dense_blocks, two_coloring
from .oracle import verify_certificate
from .rich_collections import LabeledCollection
from .transforms import bipartite_half, peel_min_degree


def _derive_rng(seed: int, tag: str, idx: int = 0) -> random.Random:
    """Process-independent sub-stream: hash-salting of str seeds would break
    byte-identical reruns, so derive an int seed explicitly."""
    digest = hashlib.sha256(f"{seed}:{tag}:{idx}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _checked(host: Graph, cert: EmbeddingCertificate) -> EmbeddingCertificate:
    ok, why = verify_certificate(host, cert)
    if not ok:
        raise IntegrityError(f"embedder produced an invalid certificate: {why}")
    return cert


def _require_alpha(coll: LabeledCollection, needed: int, what: str) -> int:
    if coll.alpha is None:
        raise InputError(f"collection carries no richness guarantee ({what})")
    if coll.alpha < needed:
        raise InputError(f"{what} needs alpha >= {needed}, collection has "
                         f"{coll.alpha}")
    return coll.alpha


def _fresh_fill(fills: Sequence[int], used: set[int]) -> Optional[int]:
    for f in fills:  # fills are sorted ascending
        if f not in used:
            return f
    return None


# ---------------------------------------------------------------------------
# grid

def embed_grid(host: Graph, coll: LabeledCollection, t: int,
               ) -> Optional[EmbeddingCertificate]:
    """Staircase shifting: walk a (2t-1)-vertex path through the collection,
    replacing one internal vertex per step with a fresh fill, until the t x t
    grid is assembled."""
    if t < 1:
        raise InputError("need t >= 1")
    spec = PatternSpec("grid", {"t": t})
    if len(coll) == 0:
        return None
    if t == 1:
        m = coll.first_member()
        cert = EmbeddingCertificate(spec, [("1,1", m[0])],
                                    {"embedder": "embed_grid", "t": 1})
        return _checked(host, cert)
    if coll.kind != "path" or coll.good or coll.length != 2 * t - 1:
        raise InputError(f"grid t={t} needs a plain path collection of "
                         f"length {2 * t - 1}")
    _require_alpha(coll, t * t, "embed_grid")

    path = list(coll.first_member())
    mapping: dict[tuple[int, int], int] = {}
    for p, v in enumerate(path):
        mapping[(1, p + 1) if p < t else (p - t + 2, t)] = v
    used = set(path)
    # stage r grows row r+1: replace positions t+r-2-s (0-indexed), s = 0..t-2
    for r in range(1, t):
        for s in range(t - 1):
            p = t + r - 2 - s
            fills = coll.fills(tuple(path), p)
            f = _fresh_fill(fills, used)
            if f is None:
                raise IntegrityError(
                    f"fill exhaustion at stage {r} step {s}: collection is "
                    f"not {t * t}-rich here")
            path[p] = f
            used.add(f)
            mapping[(r + 1, t - 1 - s)] = f
    if len(mapping) != t * t or len(set(mapping.values())) != t * t:
        raise IntegrityError("grid assembly lost coordinates")
    cert = EmbeddingCertificate(
        spec, sorted((f"{i},{j}", v) for (i, j), v in mapping.items()),
        {"embedder": "embed_grid", "t": t, "alpha": coll.alpha})
    return _checked(host, cert)


# ---------------------------------------------------------------------------
# cylinder

def embed_cylinder(host: Graph, coll: LabeledCollection, k: int, ell: int,
                   ) -> Optional[EmbeddingCertificate]:
    """Chain of cycles, each differing from the last in one position by a
    fresh vertex; their union quadrangulates the cylinder row by row."""
    spec = PatternSpec("cylinder", {"k": k, "ell": ell})
    if len(coll) == 0:
        return None
    if coll.kind != "cycle" or coll.length != 2 * ell:
        raise InputError(f"cylinder ell={ell} needs a cycle collection of "
                         f"length {2 * ell}")
    _require_alpha(coll, k * ell, "embed_cylinder")

    cycle = list(coll.first_member())
    m = 2 * ell
    # position p holds (row, col); first cycle is rows 1 and 2
    row = [1 if p % 2 == 0 else 2 for p in range(m)]
    col = [p // 2 + 1 for p in range(m)]
    mapping: dict[tuple[int, int], int] = {(row[p], col[p]): cycle[p]
                                           for p in range(m)}
    used = set(cycle)
    for r in range(3, k + 1):
        for p in [p for p in range(m) if row[p] == r - 2]:
            fills = coll.fills(tuple(cycle), p)
            f = _fresh_fill(fills, used)
            if f is None:
                raise IntegrityError(f"fill exhaustion while adding row {r}")
            c1, c2 = col[(p - 1) % m], col[(p + 1) % m]
            base = c1 if c2 == c1 % ell + 1 else c2
            connect = r - 1
            new_col = base if connect % 2 == 1 else base % ell + 1
            cycle[p] = f
            row[p], col[p] = r, new_col
            used.add(f)
            mapping[(r, new_col)] = f
    if len(mapping) != k * ell:
        raise IntegrityError("cylinder assembly lost coordinates")
    cert = EmbeddingCertificate(
        spec, sorted((f"{i},{j}", v) for (i, j), v in mapping.items()),
        {"embedder": "embed_cylinder", "k": k, "ell": ell,
         "alpha": coll.alpha})
    return _checked(host, cert)


# ---------------------------------------------------------------------------
# torus

def _portfolio(attempt: Callable[[int], Optional[tuple]],
               n_attempts: int) -> tuple[Optional[tuple], int]:
    """Run deterministic attempts in index order; the first success wins,
    and the node count covers exactly the attempts up to it."""
    nodes_total = 0
    for i in range(n_attempts):
        res = attempt(i)
        nodes_total += res[1]
        if res[0] is not None:
            return res[0], nodes_total
    return None, nodes_total


def _interleave(xs: Sequence[int], ys: Sequence[int]) -> tuple[int, ...]:
    out: list[int] = []
    for a, b in zip(xs, ys):
        out.extend((a, b))
    return tuple(out)


def embed_torus(host: Graph, coll: LabeledCollection, k: int, ell: int,
                budget: int = 10 ** 6, seed: int = 0,
                ) -> Optional[EmbeddingCertificate]:
    """Randomized DFS for a conflict-free k-cycle of ell-tuples in the
    implicit auxiliary graph over the cycle collection, expanded to a
    quadrangulated torus.

    The richness threshold sufficient in theory is reported in the method
    metadata but not enforced; budget exhaustion is an honest not-found.
    """
    spec = PatternSpec("torus", {"k": k, "ell": ell})
    if len(coll) == 0:
        return None
    if coll.kind != "cycle" or coll.length != 2 * ell:
        raise InputError(f"torus ell={ell} needs a cycle collection of "
                         f"length {2 * ell}")
    side = two_coloring(host)
    if side is None:
        raise InputError("torus embedding needs a bipartite host")
    first = coll.first_member()
    if any(side[a] == side[b] for a, b in zip(first, first[1:])):
        raise InputError("collection members must alternate the bipartition")
    n = max(host.num_vertices, 2)
    log_n = math.log2(n)
    threshold = (ell ** 2 * 2 ** 20 * (k / 2) ** 3
                 * (ell * log_n) ** 4 * n ** (2 * ell / k))
    if min(sum(1 for v in host.vertices() if side[v] == 0),
           sum(1 for v in host.vertices() if side[v] == 1)) < k * ell / 2:
        return None

    members = coll.members
    slice_budget = max(2000, budget // 32)
    n_attempts = max(1, budget // slice_budget)

    def attempt(idx: int) -> tuple[Optional[list], int]:
        rng = _derive_rng(seed, "torus", idx)
        counter = [0]
        start = tuple(int(x) for x in members[rng.randrange(len(members))])
        # random labeling beginning on side A
        offs = [p for p in range(2 * ell) if side[start[p]] == 0]
        p0 = rng.choice(offs)
        direction = rng.choice((1, -1))
        lab = tuple(start[(p0 + direction * i) % (2 * ell)]
                    for i in range(2 * ell))
        slots: list[tuple[int, ...]] = [lab[0::2], lab[1::2]]
        used = set(lab)

        def extend(depth: int) -> Optional[list]:
            if counter[0] > slice_budget:
                return None
            if depth == k:
                return list(slots)
            prev = slots[-1]
            # adding slot depth+1: previous slot is a B-tuple iff depth even
            role = "B" if depth % 2 == 0 else "A"
            for cand in _aux_neighbors(coll, host, prev, role, rng,
                                       tries=24, counter=counter):
                if counter[0] > slice_budget:
                    return None
                if any(v in used for v in cand):
                    continue
                if depth == k - 1 and not _aux_edge_ok(coll, slots[0], cand):
                    continue
                slots.append(cand)
                used.update(cand)
                res = extend(depth + 1)
                if res is not None:
                    return res
                slots.pop()
                used.difference_update(cand)
            return None

        res = extend(2)
        del extend  # a self-reference: break it so coll is freed now, not at a gc
        return res, counter[0]

    found, nodes = _portfolio(attempt, n_attempts)
    if found is None:
        return None
    # slot i is row i of the torus: its ell-tuple holds columns 1..ell
    cert = EmbeddingCertificate(
        spec,
        sorted((f"{i + 1},{j + 1}", v) for i, tup in enumerate(found)
               for j, v in enumerate(tup)),
        {"embedder": "embed_torus", "k": k, "ell": ell, "seed": seed,
         "nodes": nodes, "alpha": coll.alpha,
         "prop_threshold": threshold,
         "meets_threshold": bool(coll.alpha is not None
                                 and coll.alpha >= threshold)})
    return _checked(host, cert)


def _aux_edge_ok(coll: LabeledCollection, x: Sequence[int],
                 y: Sequence[int]) -> bool:
    return _interleave(x, y) in coll


def _aux_neighbors(coll: LabeledCollection, host: Graph, tup: Sequence[int],
                   role: str, rng: random.Random, tries: int, counter: list):
    """Opposite-side tuples adjacent to ``tup`` in the auxiliary graph.

    role "A": ``tup`` holds the x-side of the interleaving; partners come out
    of the signature index directly.  role "B": partners are x-side tuples
    and need the rotation that re-aligns the interleaving convention.
    """
    for partner in coll.tuple_neighbors(host, tup, rng, tries, counter):
        if role == "A":
            yield partner
        else:
            yield (partner[-1],) + partner[:-1]


# ---------------------------------------------------------------------------
# honeycomb

def _zigzag_labels(k: int, j: int) -> list[tuple[int, int]]:
    """Row/column labels of the interior of the v-u zigzag through columns
    (j, j+1); row 1 appears once, rows 2..k-1 twice, row k once."""
    if k == 1:
        return []
    seq = [(1, j)]
    for r in range(2, k + 1):
        enter = j if r % 2 == 0 else j + 1
        seq.append((r, enter))
        if r < k:
            seq.append((r, j + 1 if enter == j else j))
    return seq


def embed_honeycomb(host: Graph, coll: LabeledCollection, k: int, ell: int,
                    ) -> Optional[EmbeddingCertificate]:
    """Column-sweep shifting: start from one v-u zigzag, then replace
    adjacent vertex pairs with fresh disjoint fill edges, two half-columns
    per advance, until the honeycomb fragment is complete.

    A good collection of (2k+1)-paths is accepted too: restricting to a
    common last vertex and dropping it yields a good collection of
    2k-paths at the same alpha.
    """
    spec = PatternSpec("honeycomb", {"k": k, "ell": ell})
    if len(coll) == 0:
        return None
    if coll.kind == "path" and coll.good and coll.length == 2 * k + 1:
        from .rich_collections import good_suffix_restriction

        coll, _pivot = good_suffix_restriction(coll)
        if len(coll) == 0:
            return None
    if coll.kind != "path" or not coll.good or coll.length != 2 * k:
        raise InputError(f"honeycomb k={k} needs a good path collection of "
                         f"length {2 * k} (or {2 * k + 1})")
    _require_alpha(coll, k * ell, "embed_honeycomb")

    path = list(coll.first_member())
    mapping: dict[tuple[int, int], int] = {(1, 2): path[0], (k, 1): path[-1]}
    for idx, lab in enumerate(_zigzag_labels(k, 1)):
        mapping[lab] = path[idx + 1]
    used = set(path)

    half = (k - 1) // 2
    for adv in range((ell - 2) // 2):
        j = 2 * adv + 1  # leaving columns (j, j+1), entering (j+2, j+3)
        for phase, pairs in ((0, [(4 * i - 3, (2 * i - 1, j + 2), (2 * i, j + 2))
                                  for i in range(1, half + 1)]),
                             (1, [(4 * i - 1, (2 * i, j + 3), (2 * i + 1, j + 3))
                                  for i in range(1, half + 1)])):
            for (pos, lab_a, lab_b) in pairs:
                fill = None
                for (a, b) in coll.pair_fills(tuple(path), pos):
                    if a not in used and b not in used:
                        fill = (a, b)
                        break
                if fill is None:
                    raise IntegrityError(
                        f"fill-edge exhaustion at advance {adv} position {pos}")
                path[pos], path[pos + 1] = fill
                used.update(fill)
                mapping[lab_a], mapping[lab_b] = fill
    expected = k * ell - ell + 2
    if len(mapping) != expected:
        raise IntegrityError(f"honeycomb assembly has {len(mapping)} labels, "
                             f"expected {expected}")
    cert = EmbeddingCertificate(
        spec, sorted((f"{i},{j}", v) for (i, j), v in mapping.items()),
        {"embedder": "embed_honeycomb", "k": k, "ell": ell,
         "alpha": coll.alpha})
    return _checked(host, cert)


# ---------------------------------------------------------------------------
# ladder in an asymmetric bipartite graph

def _short_edges(b: np.ndarray, q: np.ndarray, tau2: float) -> np.ndarray:
    """Edges (x, y) of the float32 biadjacency block ``b`` (rows X, columns
    Y) where fewer than tau2 neighbors z != x of y have ``q[x, z]``.

    ``q`` is an X-by-X boolean matrix; its diagonal is cleared in place.
    The counts ``(q b)[x, y]`` are at most |X| < 2**24, so float32 is exact.
    """
    np.fill_diagonal(q, False)
    counts = q.astype(np.float32) @ b
    return (b > 0) & (counts < math.ceil(tau2))  # integer c < tau iff c < ceil(tau)


def _prism_path_residue(h: Graph, xs: np.ndarray, ys: np.ndarray,
                        t: int) -> tuple[Graph, float, float]:
    """Run the two-type deletion process; thresholds are fixed from the
    input graph.  Every edge of h joins the id arrays xs and ys.

    The process runs on the live |X|-by-|Y| biadjacency block: each pass
    kills the y of degree in [1, tau1], then deletes the edges xy whose y
    has fewer than tau2 neighbors z with codeg(x, z) >= 2t; the residue
    graph is built once at the fixpoint.
    """
    tau1 = h.edge_count / (4 * len(ys))
    tau2 = h.edge_count / (8 * len(ys))
    b = h.block(xs, ys)
    b0 = b > 0
    killed = np.zeros(len(ys), dtype=bool)
    while True:
        deg = b.sum(axis=0)
        kill = (deg >= 1) & (deg <= math.floor(tau1))
        b[:, kill] = 0
        killed |= kill
        # codegrees within X: every common neighbor of two x lies in Y
        bad = _short_edges(b, (b @ b.T) >= 2 * t, tau2)
        if not kill.any() and not bad.any():
            break
        b[bad] = 0
    gone = np.argwhere(b0 & (b == 0) & ~killed)
    if not killed.any() and not len(gone):
        return h, tau1, tau2
    residue = h.remove(vertices=ys[killed],
                       edges=np.column_stack([xs[gone[:, 0]], ys[gone[:, 1]]]))
    return residue, tau1, tau2


def find_prism_path(h: Graph, t: int,
                    parts: Optional[tuple[Sequence[int], Sequence[int]]] = None,
                    ) -> Optional[EmbeddingCertificate]:
    """Ladder with t rungs by the deletion process plus greedy 4-cycle
    attachment.

    The hypotheses e >= 20t|Y| and min deg(x) >= 20t*sqrt(|Y|) are evaluated
    and reported, not required; when they hold an empty residue is an
    integrity error.  ``parts`` = (X, Y) must be disjoint lists of distinct
    vertices with every edge of h joining X and Y.
    """
    if t < 1:
        raise InputError("need t >= 1")
    if parts is None:
        if two_coloring(h) is None:
            raise InputError("ladder search needs a bipartite host")
        live = np.flatnonzero(h.alive)
        a, b = live[h._side[live] == 0], live[h._side[live] == 1]
        orientations = [(a, b), (b, a)]
    else:
        xs0, ys0 = (_ids(part, (-1,)) for part in parts)
        both = np.sort(np.concatenate([xs0, ys0]))
        if (len(both) and (both[0] < 0 or both[-1] >= h.n)
                or (both[1:] == both[:-1]).any()):
            raise InputError("parts must be disjoint lists of distinct "
                             "vertex ids")
        side = np.zeros(h.n, dtype=np.int64)  # 1 in X, 2 in Y, 0 in neither
        side[xs0], side[ys0] = 1, 2
        if (side[h._sources()] * side[h.indices] != 2).any():
            raise InputError("every edge of the host must join the two parts")
        orientations = [(xs0, ys0)]

    def hyps(xs, ys):
        if not len(xs) or not len(ys) or h.edge_count == 0:
            return False, False
        e_ok = h.edge_count >= 20 * t * len(ys)
        d_ok = int(h._deg[xs].min()) >= 20 * t * math.sqrt(len(ys))
        return e_ok, d_ok

    chosen = None
    for xs, ys in orientations:
        e_ok, d_ok = hyps(xs, ys)
        if e_ok and d_ok:
            chosen = (xs, ys, e_ok, d_ok)
            break
    if chosen is None:
        xs, ys = orientations[0]
        e_ok, d_ok = hyps(xs, ys)
        chosen = (xs, ys, e_ok, d_ok)
    xs, ys, e_ok, d_ok = chosen
    if not len(xs) or not len(ys) or h.edge_count == 0:
        return None

    residue, tau1, tau2 = _prism_path_residue(h, xs, ys, t)
    hypotheses = {"edges": bool(e_ok), "min_degree": bool(d_ok)}
    if residue.edge_count == 0:
        if e_ok and d_ok:
            raise IntegrityError("hypotheses hold but the residue is empty")
        return None

    # residue property, asserted directly from the residue's own X-by-X
    # codegrees (every common neighbor of two x lies in Y): R R^T of its
    # block R.  A host handed without parts from which nothing was deleted
    # is its own residue, and the X-by-X block of its codegree matrix is
    # read instead: the matrix stays cached on the caller's graph, and the
    # tracer test of perfbench/test_check.py counts that build.
    rb = residue.block(xs, ys)
    codeg = (h.codegree_matrix()[np.ix_(xs, xs)]
             if residue is h and parts is None else rb @ rb.T)
    if _short_edges(rb, codeg >= 2 * t, tau2).any():
        raise IntegrityError("residue lost its qualifying-neighbor property")
    at = np.full(h.n, -1)  # the row of each x in codeg
    at[xs] = np.arange(len(xs))

    # every residue edge has its Y end in ys: start at the least such y
    ys = np.sort(ys)
    y = int(ys[np.argmax(residue._deg[ys] > 0)])
    start = (int(residue._row(y)[0]), y)
    rungs = [start]
    used = set(start)
    for _ in range(t - 1):
        a, b = rungs[-1]
        if at[a] < 0:  # roles alternate along the ladder
            a, b = b, a
        row = codeg[at[a]]
        z = next((z for z in residue.neighbors(b)
                  if z not in used and row[at[z]] >= 2 * t), None)
        if z is None:
            return None
        w = next((w for w in residue.common_neighbors(a, z)
                  if w not in used), None)
        if w is None:
            return None
        rungs.append((w, z))
        used.update((w, z))

    # ladder rows: row 1 collects the x-coordinates as appended
    mapping = []
    p_prev, q_prev = rungs[0]
    rows = [[p_prev], [q_prev]]
    for (w, z) in rungs[1:]:
        # w extends the row of the previous x-side vertex, z the other
        if h.has_edge(rows[0][-1], w) and h.has_edge(rows[1][-1], z):
            rows[0].append(w)
            rows[1].append(z)
        else:
            rows[0].append(z)
            rows[1].append(w)
    for i in range(t):
        mapping.append((f"1,{i + 1}", rows[0][i]))
        mapping.append((f"2,{i + 1}", rows[1][i]))
    cert = EmbeddingCertificate(
        PatternSpec("prism_path", {"t": t}), sorted(mapping),
        {"embedder": "find_prism_path", "t": t, "hypotheses": hypotheses,
         "residue": {"n": residue.num_vertices, "e": residue.edge_count}})
    return _checked(h, cert)


# ---------------------------------------------------------------------------
# full prism pipeline

def _sample_thin_fraction(h: Graph, tau: float, side: list[int],
                          rng: random.Random, samples: int = 1500,
                          ) -> Optional[float]:
    """Weighted estimate of the fraction of 4-cycles that are thin."""
    verts = np.flatnonzero(h.alive & (h._deg >= 2)).tolist()
    if len(verts) < 2:
        return None
    weight_sum = 0.0
    thin_sum = 0.0
    found_pair = False
    for _ in range(samples):
        u, v = rng.sample(verts, 2)
        if side[u] != side[v]:
            continue
        c = h.codegree(u, v)
        if c < 2:
            continue
        found_pair = True
        w1, w2 = rng.sample(h.common_neighbors(u, v), 2)
        weight = c * (c - 1) / 2.0
        weight_sum += weight
        if c <= tau and h.codegree(w1, w2) <= tau:
            thin_sum += weight
    if not found_pair or weight_sum == 0.0:
        return None
    return thin_sum / weight_sum


def _thin_branch(h: Graph, ell: int, tau: float, budget: int,
                 seed: int) -> tuple[Optional[list], int]:
    """Randomized DFS for a 2*ell-cycle of ordered edges whose consecutive
    (and closing) pairs form thin 4-cycles on pairwise disjoint vertices."""
    edges = list(h.edges())
    if not edges:
        return None, 0
    slice_budget = max(4000, budget // 32)
    n_attempts = max(1, budget // slice_budget)
    target = 2 * ell

    def thin_step(a, b, c, d) -> bool:
        return (h.codegree(a, c) <= tau and h.codegree(b, d) <= tau)

    def attempt(idx: int) -> tuple[Optional[list], int]:
        rng = _derive_rng(seed, "thin", idx)
        counter = 0
        e0 = edges[rng.randrange(len(edges))]
        chain = [e0 if rng.random() < 0.5 else (e0[1], e0[0])]
        used = {e0[0], e0[1]}

        def extend() -> Optional[list]:
            nonlocal counter
            if len(chain) == target:
                a0, b0 = chain[0]
                al, bl = chain[-1]
                if (h.has_edge(bl, a0) and h.has_edge(b0, al)
                        and thin_step(al, bl, a0, b0)):
                    return list(chain)
                return None
            a, b = chain[-1]
            cands = [c for c in h.neighbors(b) if c not in used]
            rng.shuffle(cands)
            for c in cands[:20]:
                counter += 1
                if counter > slice_budget:
                    return None
                ds = [d for d in h.common_neighbors(a, c)
                      if d not in used and d != c]
                rng.shuffle(ds)
                for d in ds[:20]:
                    counter += 1
                    if counter > slice_budget:
                        return None
                    if not thin_step(a, b, c, d):
                        continue
                    chain.append((c, d))
                    used.update((c, d))
                    res = extend()
                    if res is not None:
                        return res
                    chain.pop()
                    used.difference_update((c, d))
            return None

        return extend(), counter

    return _portfolio(attempt, n_attempts)


def _thick_extension_counts(h: Graph, codeg: np.ndarray, tau: float,
                            us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """For each oriented edge (us[i], vs[i]) = (u, v), the sum of
    codeg(u, w) - 1 over the w in N(v) - u with codeg(u, w) > tau:
    ``(W B)[u, v] - W[u, u]`` with ``W = (codeg - 1) [codeg > tau]`` on the
    rows R of the ``dense_blocks`` block (R, C) that holds u, and B its
    adjacency block.  They run in float64 because these sums can exceed
    2**24.
    """
    out = np.zeros(len(us))
    for rows, cols in dense_blocks(h):
        at_row, at_col = np.full(h.n, -1), np.full(h.n, -1)
        at_row[rows], at_col[cols] = np.arange(len(rows)), np.arange(len(cols))
        mine = at_row[us] >= 0  # then v is a column: every edge joins R and C
        pu, pv = at_row[us[mine]], at_col[vs[mine]]
        c = codeg[np.ix_(rows, rows)]
        w = np.where(c > math.floor(tau), c - 1, 0).astype(np.float64)
        wb = w @ h.block(rows, cols).astype(np.float64)
        out[mine] = wb[pu, pv] - w[pu, pu]
    return out


def _thick_branch(h: Graph, ell: int, tau: float, seed: int,
                  ) -> tuple[Optional[EmbeddingCertificate], dict]:
    """Pick the oriented edge with the most thick extensions, build the
    asymmetric bipartite graph of its high-codegree link, and look for a
    (2*ell-1)-rung ladder to close into a prism."""
    diag: dict = {}
    src = h._sources()
    up = h.indices > src
    lo, hi = src[up], h.indices[up]  # the edges u < v, in edges() order
    if not len(lo):
        return None, {"reason": "no edges"}
    rng = _derive_rng(seed, "thick")
    if len(lo) > 4000:
        pick = sorted(rng.sample(range(len(lo)), 4000))
        lo, hi = lo[pick], hi[pick]
        diag["sampled_edges"] = len(lo)
    # each edge (p, q) oriented as (p, q), then (q, p)
    us, vs = np.column_stack([lo, hi]).ravel(), np.column_stack([hi, lo]).ravel()
    codeg = h.codegree_matrix()
    counts = _thick_extension_counts(h, codeg, tau, us, vs)
    best = int(np.argmax(counts))  # the first maximum, in edge order
    cnt = int(counts[best])
    u, v = int(us[best]), int(vs[best])
    diag["pivot_edge"] = [u, v]
    diag["thick_extensions"] = cnt
    if cnt == 0:
        return None, diag
    nv, nu = h._row(v), h._row(u)
    xs = nv[(nv != u) & (codeg[u, nv] > tau)]
    ys = nu[nu != v]
    if not len(xs) or not len(ys):
        return None, diag
    # the link on local ids: xs and ys are disjoint, as h is bipartite
    verts = np.sort(np.concatenate([xs, ys]))
    lx, ly = np.searchsorted(verts, xs), np.searchsorted(verts, ys)
    bx, by = np.nonzero(h.block(xs, ys))
    sub = _from_ids(len(verts), np.column_stack([lx[bx], ly[by]]))
    t = 2 * ell - 1
    cert_sub = find_prism_path(sub, t, parts=(lx, ly))
    diag["ladder_found"] = cert_sub is not None
    if cert_sub is None:
        return None, diag
    rows = {1: [0] * t, 2: [0] * t}
    for lab, local in cert_sub.mapping:
        r, i = (int(s) for s in lab.split(","))
        rows[r][i - 1] = int(verts[local])
    # the x-row starts in X (adjacent to v); orient rows so row 1 is X-side
    if rows[1][0] not in xs:
        rows[1], rows[2] = rows[2], rows[1]
    mapping = []
    for j in range(t):
        mapping.append((f"1,{j + 1}", rows[1][j]))
        mapping.append((f"2,{j + 1}", rows[2][j]))
    mapping.append((f"1,{2 * ell}", v))
    mapping.append((f"2,{2 * ell}", u))
    cert = EmbeddingCertificate(
        PatternSpec("prism", {"ell": ell}), sorted(mapping),
        {"embedder": "find_prism", "branch": "thick", "ell": ell,
         "pivot": [u, v]})
    return cert, diag


def find_prism(g: Graph, ell: int, t_factor: float = 8.0,
               budget: int = 10 ** 7, seed: int = 0,
               ) -> tuple[Optional[EmbeddingCertificate], dict]:
    """Full prism search: bipartite half + peel, thin/thick classification by
    sampling, then the thin-majority auxiliary-graph DFS with the thick
    high-codegree branch as fallback (or vice versa).  ``ResourceError``
    above ``graphs.DENSE_LIMIT`` ids."""
    if ell < 2:
        raise InputError("need ell >= 2")
    if t_factor <= 0:
        raise InputError("threshold factor must be positive")
    diagnostics: dict = {}
    if g.edge_count == 0:
        return None, {"reason": "empty host"}
    h, side = bipartite_half(g)
    if h.edge_count == 0:
        return None, {"reason": "empty after halving"}
    h, _ = peel_min_degree(h)
    side = two_coloring(h)
    d = h.average_degree
    tau = t_factor * math.sqrt(d)
    diagnostics["prepared"] = {"n": h.num_vertices, "e": h.edge_count,
                               "avg_degree": d, "tau": tau}
    # built before the sampler, so that it reads codegrees from the matrix,
    # which the thick branch then reuses
    h.codegree_matrix()
    rng = _derive_rng(seed, "classify")
    thin_frac = _sample_thin_fraction(h, tau, side, rng)
    diagnostics["thin_fraction"] = thin_frac

    def run_thin():
        chain, nodes = _thin_branch(h, ell, tau, budget, seed)
        diagnostics["thin_nodes"] = nodes
        if chain is None:
            return None
        cyc1 = [chain[j][0] if j % 2 == 0 else chain[j][1]
                for j in range(2 * ell)]
        cyc2 = [chain[j][1] if j % 2 == 0 else chain[j][0]
                for j in range(2 * ell)]
        mapping = []
        for j in range(2 * ell):
            mapping.append((f"1,{j + 1}", cyc1[j]))
            mapping.append((f"2,{j + 1}", cyc2[j]))
        return EmbeddingCertificate(
            PatternSpec("prism", {"ell": ell}), sorted(mapping),
            {"embedder": "find_prism", "branch": "thin", "ell": ell,
             "seed": seed, "nodes": nodes})

    def run_thick():
        cert, diag = _thick_branch(h, ell, tau, seed)
        diagnostics["thick"] = diag
        return cert

    # sampling finding no 4-cycle at all is not proof of absence; both
    # branches still run (and fail fast on genuinely C4-free hosts)
    thin_first = thin_frac is None or thin_frac >= 0.5
    order = (run_thin, run_thick) if thin_first else (run_thick, run_thin)
    diagnostics["branch_order"] = "thin,thick" if thin_first else "thick,thin"
    for branch in order:
        cert = branch()
        if cert is not None:
            return _checked(g, cert), diagnostics
    return None, diagnostics
