"""Collections of labeled paths and cycles with richness/goodness machinery.

A collection is *alpha-rich* when every member still has at least alpha
fills at every replaceable position (internal positions for paths, every
position for cycles), and *alpha-good* when every adjacent internal pair
admits at least alpha pairwise disjoint fill edges.  The builders start
from exhaustive seeds and prune to the fixpoint of the corresponding
deletion process; the layered constructors build richness-by-design seeds
on dense hosts where exhaustive enumeration cannot fit any cap.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InputError, IntegrityError, ResourceError
from .graphs import Graph, two_coloring
from .matching import max_disjoint_edges

DEFAULT_CAP = 10 ** 8
_HARD_MEMBER_CAP = 5 * 10 ** 6  # layered seeds refuse to grow beyond this


# ---------------------------------------------------------------------------
# tuple helpers

def _canon_cycle(seq: Sequence[int]) -> tuple[int, ...]:
    """Canonical labeling of a cycle: minimal over rotations and reflections."""
    seq = tuple(seq)
    n = len(seq)
    best = None
    for s in (seq, tuple(reversed(seq))):
        for r in range(n):
            cand = s[r:] + s[:r]
            if best is None or cand < best:
                best = cand
    return best


def _canon_open_path(seq: Sequence[int]) -> tuple[int, ...]:
    seq = tuple(seq)
    rev = tuple(reversed(seq))
    return seq if seq <= rev else rev


def _cycle_sig(member: Sequence[int], pos: int) -> tuple[int, ...]:
    """Canonical open path left by blanking one position of a cycle."""
    m = tuple(member)
    return _canon_open_path(m[pos + 1:] + m[:pos])


def _lex_less(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise lexicographic a < b for equal-shape 2-D integer arrays."""
    out = np.zeros(len(a), dtype=bool)
    decided = np.zeros(len(a), dtype=bool)
    for c in range(a.shape[1]):
        lt = ~decided & (a[:, c] < b[:, c])
        gt = ~decided & (a[:, c] > b[:, c])
        out |= lt
        decided |= lt | gt
    return out


def _canon_cycles_np(rows: np.ndarray) -> np.ndarray:
    """Vectorised cycle canonicalisation (min over rotations/reflections)."""
    if len(rows) == 0:
        return rows
    best = rows.copy()
    n = rows.shape[1]
    for base in (rows, rows[:, ::-1]):
        for r in range(n):
            cand = np.roll(base, -r, axis=1)
            mask = _lex_less(cand, best)
            if mask.any():
                best[mask] = cand[mask]
    return best


def _sorted_unique(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order without repeats; rows that are already
    strictly ascending come back as they are."""
    if _lex_less(rows[:-1], rows[1:]).all():
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])]


# ---------------------------------------------------------------------------
# the frozen collection type

class LabeledCollection:
    """Immutable set of labeled path or cycle tuples plus a signature index.

    Paths are stored as written (a path and its reversal are distinct
    members); cycles are stored in canonical rotation/reflection but all
    labelings are answerable through the index.
    """

    def __init__(self, kind: str, length: int, members: np.ndarray,
                 good: bool = False, alpha: Optional[int] = None):
        if kind not in ("path", "cycle"):
            raise InputError(f"unknown collection kind {kind!r}")
        if good and kind != "path":
            raise InputError("only path collections can be good")
        self.kind = kind
        self.length = length
        self.good = good
        self.alpha = alpha
        if members.size == 0:
            members = members.reshape(0, length)
        if members.shape[1] != length:
            raise InputError("member width disagrees with declared length")
        members = members.astype(np.uint32, copy=False)
        if kind == "cycle" and len(members):
            members = _canon_cycles_np(members)
        members = _sorted_unique(members)
        if len(members):
            distinct = np.ones(len(members), dtype=bool)
            for i in range(length):
                for j in range(i + 1, length):
                    distinct &= members[:, i] != members[:, j]
            if not distinct.all():
                raise InputError("members must consist of distinct vertices")
        self.members = members
        self._fill_index: dict[int, dict[bytes, np.ndarray]] = {}
        self._pair_index: dict[int, dict[bytes, np.ndarray]] = {}
        self._cycle_index: Optional[dict[bytes, np.ndarray]] = None
        self._build_index()

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_members(cls, kind: str, length: int,
                     members: Iterable[Sequence[int]],
                     good: bool = False, alpha: Optional[int] = None) -> "LabeledCollection":
        rows = [tuple(m) for m in members]
        arr = (np.array(rows, dtype=np.uint32) if rows
               else np.zeros((0, length), dtype=np.uint32))
        return cls(kind, length, arr, good=good, alpha=alpha)

    def _group(self, keys: np.ndarray, values: np.ndarray) -> dict[bytes, np.ndarray]:
        """Group rows into key-bytes -> value-array views, values ascending.

        One lexsort over (key columns, value columns) orders the values
        within each group, so the per-group slices are plain views.
        """
        out: dict[bytes, np.ndarray] = {}
        if len(keys) == 0:
            return out
        if values.ndim == 1:
            vcols: tuple = (values,)
        else:
            vcols = tuple(values[:, c] for c in range(values.shape[1] - 1,
                                                      -1, -1))
        kcols = tuple(keys[:, c] for c in range(keys.shape[1] - 1, -1, -1))
        order = np.lexsort(vcols + kcols)
        keys = keys[order]
        values = values[order]
        boundary = np.nonzero(np.any(keys[1:] != keys[:-1], axis=1))[0] + 1
        starts = np.concatenate([[0], boundary, [len(keys)]])
        for i in range(len(starts) - 1):
            lo, hi = int(starts[i]), int(starts[i + 1])
            out[keys[lo].tobytes()] = values[lo:hi]
        return out

    def _build_index(self) -> None:
        m = self.members
        L = self.length
        if self.kind == "path":
            if self.good:
                for j in range(1, L - 2):
                    keys = np.delete(m, (j, j + 1), axis=1)
                    self._pair_index[j] = self._group(keys, m[:, (j, j + 1)])
            else:
                for j in range(1, L - 1):
                    keys = np.delete(m, j, axis=1)
                    self._fill_index[j] = self._group(keys, m[:, j])
        else:
            if len(m) == 0:
                self._cycle_index = {}
                return
            sig_rows = []
            fill_rows = []
            for pos in range(L):
                rolled = np.roll(m, -(pos + 1), axis=1)
                fwd = rolled[:, :L - 1]
                rev = fwd[:, ::-1]
                use_rev = _lex_less(rev, fwd)
                canon = np.where(use_rev[:, None], rev, fwd)
                sig_rows.append(canon)
                fill_rows.append(m[:, pos])
            keys = np.vstack(sig_rows)
            vals = np.concatenate(fill_rows)
            self._cycle_index = self._group(keys, vals)

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, member: Sequence[int]) -> bool:
        row = tuple(int(x) for x in member)
        if self.kind == "cycle":
            row = _canon_cycle(row)
        # members are sorted rows: one binary search over them
        m = self.members
        i = bisect_left(m, row, key=lambda r: tuple(r.tolist()))
        return i < len(m) and tuple(m[i].tolist()) == row

    def iter_members(self) -> Iterator[tuple[int, ...]]:
        for row in self.members:
            yield tuple(int(x) for x in row)

    def first_member(self) -> Optional[tuple[int, ...]]:
        if len(self.members) == 0:
            return None
        return tuple(int(x) for x in self.members[0])

    def fills(self, member: Sequence[int], pos: int) -> list[int]:
        """Vertices that can replace position ``pos`` of ``member``."""
        member = tuple(member)
        if self.kind == "path":
            if not (1 <= pos <= self.length - 2):
                raise InputError(f"position {pos} is not internal")
            if self.good:
                raise InputError("good collections are indexed by pairs")
            key = np.array(member[:pos] + member[pos + 1:],
                           dtype=np.uint32).tobytes()
            arr = self._fill_index[pos].get(key)
            return [] if arr is None else [int(x) for x in arr]
        return self.fills_for_open_path(member[pos + 1:] + member[:pos])

    def fills_for_open_path(self, seq: Sequence[int]) -> list[int]:
        """Vertices closing an open (2*ell-1)-path into a member cycle."""
        if self.kind != "cycle":
            raise InputError("open-path fills are defined for cycles")
        key = np.array(_canon_open_path(tuple(seq)),
                       dtype=np.uint32).tobytes()
        arr = self._cycle_index.get(key)
        return [] if arr is None else [int(x) for x in arr]

    def pair_fills(self, member: Sequence[int], pos: int) -> list[tuple[int, int]]:
        """Edges that can replace positions (pos, pos+1) of a good member."""
        if not self.good:
            raise InputError("pair fills only exist on good collections")
        if not (1 <= pos <= self.length - 3):
            raise InputError(f"pair position {pos} out of range")
        member = tuple(member)
        key = np.array(member[:pos] + member[pos + 2:],
                       dtype=np.uint32).tobytes()
        arr = self._pair_index[pos].get(key)
        return [] if arr is None else [(int(a), int(b)) for (a, b) in arr]

    def replace(self, member: Sequence[int], pos: int, fill) -> tuple[int, ...]:
        member = tuple(member)
        if isinstance(fill, tuple):
            return member[:pos] + fill + member[pos + 2:]
        return member[:pos] + (fill,) + member[pos + 1:]

    def index_items(self) -> Iterator[tuple[object, object]]:
        """Expose the raw index for consistency tests on small instances."""
        if self.kind == "cycle":
            for k, v in self._cycle_index.items():
                yield np.frombuffer(k, dtype=np.uint32), v
        elif self.good:
            for j, d in self._pair_index.items():
                for k, v in d.items():
                    yield (j, np.frombuffer(k, dtype=np.uint32)), v
        else:
            for j, d in self._fill_index.items():
                for k, v in d.items():
                    yield (j, np.frombuffer(k, dtype=np.uint32)), v

    # -- the implicit auxiliary tuple graph used by the torus embedder ----------

    def tuple_neighbors(self, g: Graph, half_tuple: Sequence[int],
                        rng: random.Random, tries: int,
                        counter: Optional[list] = None) -> Iterator[tuple[int, ...]]:
        """Sample opposite-side tuples adjacent to ``half_tuple`` in the
        implicit auxiliary graph (interleaving both closes a member cycle).

        Adjacency is resolved against the collection's signature index: the
        first ell-1 partner coordinates are drawn from host common
        neighborhoods, the last from the index, and every emitted partner
        interleaves with ``half_tuple`` into a member.
        """
        if self.kind != "cycle":
            raise InputError("tuple adjacency is defined for cycle collections")
        xs = tuple(half_tuple)
        half = self.length // 2
        for _ in range(tries):
            if counter is not None:
                counter[0] += 1
            partner: list[int] = []
            ok = True
            for i in range(half - 1):
                cands = g.common_neighbors(xs[i], xs[i + 1])
                cands = [c for c in cands if c not in xs and c not in partner]
                if not cands:
                    ok = False
                    break
                partner.append(rng.choice(cands))
            if not ok:
                continue
            # interleaved cycle so far: xs[0] partner[0] xs[1] ... xs[-1] (gap)
            seq: list[int] = []
            for i in range(half):
                seq.append(xs[i])
                if i < half - 1:
                    seq.append(partner[i])
            for b in self.fills_for_open_path(seq):
                if b not in seq:
                    yield tuple(partner) + (int(b),)

    # -- serialization -----------------------------------------------------------

    def to_text(self) -> str:
        kind = "good-path" if self.good else self.kind
        lines = [f"{kind} {self.length} {len(self.members)}"]
        if self.alpha is not None:
            lines.append(f"# alpha {self.alpha}")
        for row in self.members:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "LabeledCollection":
        lines = [ln for ln in text.splitlines() if ln.strip()]
        if not lines:
            raise InputError("empty collection file")
        head = lines[0].split()
        if len(head) != 3:
            raise InputError(f"bad collection header: {lines[0]!r}")
        kind = head[0]
        length, count = _parse_ints(head[1:], lines[0])
        good = kind == "good-path"
        if good:
            kind = "path"
        alpha = None
        rows = []
        for ln in lines[1:]:
            if ln.startswith("#"):
                parts = ln[1:].split()
                if len(parts) == 2 and parts[0] == "alpha":
                    alpha, = _parse_ints(parts[1:], ln)
                continue
            row = _parse_ints(ln.split(), ln)
            if len(row) != length:
                raise InputError(f"member {ln!r} does not have {length} vertices")
            rows.append(row)
        if len(rows) != count:
            raise InputError(f"header promised {count} members, found {len(rows)}")
        return cls.from_members(kind, length, rows, good=good, alpha=alpha)


def _parse_ints(fields: Sequence[str], line: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in fields)
    except ValueError:
        raise InputError(f"bad collection line: {line!r}") from None


@dataclass
class PruneAudit:
    """Replayable log of the deletion process."""

    entries: list = field(default_factory=list)  # [(tag, signature, count)]
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"entries": [[tag, [None if x is None else int(x) for x in sig],
                             int(cnt)] for (tag, sig, cnt) in self.entries],
                "diagnostics": self.diagnostics}


# ---------------------------------------------------------------------------
# exhaustive seeds, as sorted uint32 row arrays

_JOIN_ROWS = 1 << 20  # candidate rows one join step may materialise


def _csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The sorted adjacency lists as (indptr, indices) arrays."""
    indptr = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(g.degrees(), out=indptr[1:])
    indices = np.fromiter((v for u in range(g.n) for v in g.neighbors(u)),
                          dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


def _extend(rows: np.ndarray, indptr: np.ndarray,
            indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row repeated once per neighbour of its last vertex, and those
    neighbours; sorted rows stay sorted, since adjacency lists are."""
    last = rows[:, -1]
    cnt = indptr[last + 1] - indptr[last]
    before = np.cumsum(cnt) - cnt
    pos = np.arange(int(cnt.sum())) + np.repeat(indptr[last] - before, cnt)
    return np.repeat(rows, cnt, axis=0), indices[pos]


def _join(g: Graph, width: int, cap: int, what: str, indptr: np.ndarray,
          indices: np.ndarray, keep) -> np.ndarray:
    """Walks of ``width`` vertices from every live vertex, grown one column
    at a time and filtered by ``keep(rows, next vertices) -> mask``.

    Rows grow depth first, in chunks halved until one step has at most
    _JOIN_ROWS candidate rows, so memory stays bounded and the output keeps
    the sorted row order.  Finished rows are counted as they come: a
    resource error once there are more than ``cap``.
    """
    done: list[np.ndarray] = []
    total = 0

    def grow(rows: np.ndarray) -> None:
        nonlocal total
        if rows.shape[1] == width:
            total += len(rows)
            if total > cap:
                raise ResourceError(f"{what} enumeration exceeded cap {cap}")
            done.append(rows.astype(np.uint32))
            return
        last = rows[:, -1]
        if len(rows) > 1 and (indptr[last + 1] - indptr[last]).sum() > _JOIN_ROWS:
            half = len(rows) // 2
            grow(rows[:half])
            grow(rows[half:])
            return
        prev, v = _extend(rows, indptr, indices)
        ok = keep(prev, v)
        grow(np.column_stack([prev[ok], v[ok]]))

    grow(np.fromiter(g.vertices(), dtype=np.int64)[:, None])
    return np.concatenate(done)


def _enumerate_paths(g: Graph, k: int, cap: int,
                     second_codegree_max: Optional[float] = None,
                     ) -> np.ndarray:
    """All labeled k-vertex paths as lexicographically sorted rows,
    optionally filtered by d(x_i, x_{i+2}) <= bound; resource error beyond
    cap."""
    codeg = g.codegree_matrix() if second_codegree_max is not None else None

    def keep(prev: np.ndarray, v: np.ndarray) -> np.ndarray:
        ok = np.ones(len(v), dtype=bool)
        for c in range(prev.shape[1] - 1):  # v is not the last vertex already
            ok &= prev[:, c] != v
        if second_codegree_max is not None and prev.shape[1] >= 2:
            idx = np.flatnonzero(ok)
            a, b = prev[idx, -2], v[idx]
            d = codeg[a, b] if codeg is not None else np.fromiter(
                (g.codegree(x, y) for x, y in zip(a.tolist(), b.tolist())),
                dtype=np.int64, count=len(idx))
            ok[idx] = d <= second_codegree_max
        return ok

    return _join(g, k, cap, "path", *_csr(g), keep)


def _enumerate_cycles(g: Graph, ell: int, cap: int) -> np.ndarray:
    """Each unlabeled 2*ell-cycle once, in ``counting._cycle_dfs``'s canonical
    form and order: the minimum vertex first, every later vertex above it,
    and the last vertex above the second."""
    length = 2 * ell
    indptr, indices = _csr(g)
    # edge codes u * n + v, sorted because the adjacency lists are
    codes = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(indptr)) * g.n + indices

    def keep(prev: np.ndarray, v: np.ndarray) -> np.ndarray:
        ok = v > prev[:, 0]
        for c in range(1, prev.shape[1] - 1):
            ok &= prev[:, c] != v
        if prev.shape[1] == length - 1:  # v closes the cycle
            ok &= v > prev[:, 1]
            idx = np.flatnonzero(ok)
            close = v[idx] * g.n + prev[idx, 0]
            at = np.minimum(np.searchsorted(codes, close), len(codes) - 1)
            ok[idx] = codes[at] == close
        return ok

    return _join(g, length, cap, "cycle", indptr, indices, keep)


# ---------------------------------------------------------------------------
# the deletion process on signature groups

class _PathSigs:
    def __init__(self, k: int):
        self.positions = list(range(1, k - 1))

    def sigs_of(self, member):
        for j in self.positions:
            yield member[:j] + (None,) + member[j + 1:], member[j]


class _CycleSigs:
    def __init__(self, length: int):
        self.positions = list(range(length))

    def sigs_of(self, member):
        for j in self.positions:
            yield _cycle_sig(member, j), member[j]


def _sig_sort_key(sig):
    return tuple(-1 if x is None else x for x in sig)


def _signature_rows(members: np.ndarray, kind: str) -> np.ndarray:
    """One signature row per (member, replaceable position), position-major.

    A path signature is the member with the blank position written 0 and
    every vertex v written v + 1, so the rows sort as replay_audit's
    signatures do with None first.  A cycle signature is the canonical open
    path left by the blank, shared across positions.
    """
    L = members.shape[1]
    sig_rows: list[np.ndarray] = []
    if kind == "path":
        for j in range(1, L - 1):
            sig = members + np.uint32(1)
            sig[:, j] = 0
            sig_rows.append(sig)
    else:
        for pos in range(L):
            rolled = np.roll(members, -(pos + 1), axis=1)
            fwd = rolled[:, :L - 1]
            rev = fwd[:, ::-1]
            use_rev = _lex_less(rev, fwd)
            sig_rows.append(np.where(use_rev[:, None], rev, fwd))
    return np.vstack(sig_rows)


def _np_prune_rich(members: np.ndarray, kind: str, alpha: int,
                   ) -> tuple[np.ndarray, list[tuple[np.ndarray, np.ndarray]]]:
    """Fixpoint of the rich deletion process: drop the members of every
    signature group with fewer than alpha live members until none is left.

    Signature group ids are computed once; the fixpoint iterates on group
    bincounts, one round deleting every short group at once.  Returns the
    surviving rows and, per round, the signature rows of the groups it
    deleted (in sorted order) with their live sizes.
    """
    m = len(members)
    if m == 0:
        return members, []
    sig = _signature_rows(members, kind)
    order = np.lexsort(sig.T[::-1])
    s = sig[order]
    boundary = np.concatenate([[True], np.any(s[1:] != s[:-1], axis=1)])
    del s
    gid = np.empty(len(sig), dtype=np.int64)
    gid[order] = np.cumsum(boundary) - 1
    first = order[boundary]  # one signature row per group, groups in order
    del order, boundary
    positions = len(sig) // m  # signature row i belongs to member i % m
    n_groups = len(first)
    alive = np.ones(m, dtype=bool)
    rounds: list[tuple[np.ndarray, np.ndarray]] = []
    while True:
        row_alive = np.tile(alive, positions)
        sizes = np.bincount(gid[row_alive], minlength=n_groups)
        short = np.flatnonzero((sizes > 0) & (sizes < alpha))
        if len(short) == 0:
            break
        rounds.append((sig[first[short]], sizes[short]))
        doomed = np.zeros(n_groups, dtype=bool)
        doomed[short] = True
        alive &= ~(row_alive & doomed[gid]).reshape(positions, m).any(axis=0)
    return members[alive], rounds


def _rich_audit(kind: str, rounds: list, seed: int,
                final: int) -> PruneAudit:
    """The deletion rounds as replayable ("rich", signature, count) entries."""
    audit = PruneAudit(diagnostics={"seed": seed, "final": final})
    for keys, sizes in rounds:
        for key, cnt in zip(keys.tolist(), sizes.tolist()):
            if kind == "path":
                key = [None if x == 0 else x - 1 for x in key]
            audit.entries.append(("rich", tuple(key), cnt))
    return audit


def replay_audit(seed_members: Iterable[tuple], audit: PruneAudit,
                 kind: str, length: int) -> set:
    """Apply an audit's deletions to the seed; reproduces the final members."""
    strategy = _PathSigs(length) if kind == "path" else _CycleSigs(length)
    members = set(seed_members)
    for (tag, sig, _cnt) in audit.entries:
        if tag in ("rich", "type1"):
            doomed = [m for m in members
                      if any(s == sig for s, _ in strategy.sigs_of(m))]
        else:  # pair signature: (j, key-tuple-without-the-pair)
            j, key = sig[0], sig[1:]
            doomed = [m for m in members if m[:j] + m[j + 2:] == key]
        members.difference_update(doomed)
    return members


def build_rich_paths(g: Graph, k: int, alpha: int,
                     cap: int = DEFAULT_CAP) -> tuple[LabeledCollection, PruneAudit]:
    """Fixpoint of the path deletion process started from all labeled
    k-vertex paths; non-empty output is alpha-rich."""
    if k < 3:
        raise InputError("need k >= 3")
    if alpha < 1:
        raise InputError("need alpha >= 1")
    seed = _enumerate_paths(g, k, cap)
    members, rounds = _np_prune_rich(seed, "path", alpha)
    return (LabeledCollection("path", k, members, alpha=alpha),
            _rich_audit("path", rounds, len(seed), len(members)))


def build_rich_cycles(g: Graph, ell: int, alpha: int,
                      cap: int = DEFAULT_CAP) -> tuple[LabeledCollection, PruneAudit]:
    """Fixpoint of the cycle deletion process over all 2*ell positions."""
    if ell < 2:
        raise InputError("need ell >= 2")
    if alpha < 1:
        raise InputError("need alpha >= 1")
    seed = _enumerate_cycles(g, ell, cap)
    members, rounds = _np_prune_rich(seed, "cycle", alpha)
    return (LabeledCollection("cycle", 2 * ell, members, alpha=alpha),
            _rich_audit("cycle", rounds, len(seed), len(members)))


# ---------------------------------------------------------------------------
# good paths (weighted two-case builder)

def _count_high_codegree_cherries(g: Graph, c_thresh: float) -> tuple[int, dict[int, int]]:
    """Ordered paths (u, v, w), u != w, with d(u, w) > c_thresh; per-center

    tallies are returned so Case 2 can pick its pivot."""
    per_center: dict[int, int] = {}
    codeg = g.codegree_matrix()
    for v in g.vertices():
        nb = g.neighbors(v)
        cnt = 0
        for i in range(len(nb)):
            for j in range(len(nb)):
                if i == j:
                    continue
                u, w = nb[i], nb[j]
                cd = int(codeg[u, w]) if codeg is not None else g.codegree(u, w)
                if cd > c_thresh:
                    cnt += 1
        if cnt:
            per_center[v] = cnt
    return sum(per_center.values()), per_center


def _pair_positions(length: int) -> list[int]:
    return list(range(1, length - 2))


def _max_pair_matching(pairs: np.ndarray) -> list[tuple[int, int]]:
    pairs = list(map(tuple, pairs.tolist()))
    left = {a for a, _ in pairs}
    right = {b for _, b in pairs}
    return max_disjoint_edges(pairs, left, right)


def _combination_ids(gid: np.ndarray, fill: np.ndarray, n: int):
    """The distinct (group, fill vertex) combinations as packed int64 keys
    in ascending order, each row's combination id, and each combination's
    group.  Packing is exact: groups <= rows < 2^31 and n <= 2^32."""
    keys, ids = np.unique(gid * n + fill, return_inverse=True)
    return keys, ids, keys // n


class _PairGroups:
    """The rows of a path array grouped by their pair signature at pair
    position j (the row without columns j and j+1), with the goodness
    predicate over the groups.

    Group ids come from one sort of the signatures, groups numbered in
    sorted signature order.  Each (group, first fill) and (group, second
    fill) combination gets an id too, so that one round's counts over the
    live rows are bincounts.
    """

    def __init__(self, members: np.ndarray, j: int):
        sig = np.delete(members, (j, j + 1), axis=1)
        order = np.lexsort(sig.T[::-1])
        s = sig[order]
        boundary = np.concatenate([[True], np.any(s[1:] != s[:-1], axis=1)])
        del s
        self.gid = np.empty(len(members), dtype=np.int64)
        self.gid[order] = np.cumsum(boundary) - 1
        self.order = order  # the rows of group g are order[start[g]:start[g+1]]
        self.start = np.append(np.flatnonzero(boundary), len(order))
        self.groups = len(self.start) - 1
        self.pairs = members[:, (j, j + 1)]
        n = int(members.max()) + 1
        f_keys, self.fid, self.f_owner = _combination_ids(self.gid,
                                                          self.pairs[:, 0], n)
        s_keys, self.sid, self.s_owner = _combination_ids(self.gid,
                                                          self.pairs[:, 1], n)
        every = np.arange(self.groups)
        self.f_start = np.searchsorted(self.f_owner, every)
        self.s_start = np.searchsorted(self.s_owner, every)
        # a group whose first and second fills are disjoint vertex sets has
        # a bipartite fill graph (the only kind a bipartite host gives)
        self.bipartite = np.ones(self.groups, dtype=bool)
        self.bipartite[self.f_owner[np.isin(f_keys, s_keys)]] = False

    def rows(self, g: int, alive: np.ndarray) -> np.ndarray:
        grp = self.order[self.start[g]:self.start[g + 1]]
        return grp[alive[grp]]

    def failing(self, alive: np.ndarray, alpha: int) -> np.ndarray:
        """Per group: it has live rows, and their fill edges admit fewer
        than alpha pairwise disjoint edges.

        Each matched edge uses its own first and its own second fill, so a
        group with fewer than alpha distinct firsts or distinct seconds
        (and so one with fewer than alpha pairs) fails.  A bipartite fill
        graph with p edges and maximum degree D splits into D matchings
        (Koenig's edge-colouring theorem), so it passes when
        ceil(p / D) >= alpha.  Only the groups left between the two bounds
        run the exact matcher.
        """
        size = np.bincount(self.gid[alive], minlength=self.groups)
        f_mult = np.bincount(self.fid[alive], minlength=len(self.f_owner))
        s_mult = np.bincount(self.sid[alive], minlength=len(self.s_owner))
        firsts = np.bincount(self.f_owner[f_mult > 0], minlength=self.groups)
        seconds = np.bincount(self.s_owner[s_mult > 0], minlength=self.groups)
        fail = np.minimum(firsts, seconds) < alpha
        degree = np.maximum(np.maximum.reduceat(f_mult, self.f_start),
                            np.maximum.reduceat(s_mult, self.s_start))
        good = self.bipartite & (size > (alpha - 1) * degree)
        live = size > 0
        for g in np.flatnonzero(live & ~fail & ~good):
            matched = len(_max_pair_matching(self.pairs[self.rows(g, alive)]))
            fail[g] = matched < alpha
        return live & fail


def _first_bad_pair(members: np.ndarray, alpha: int):
    """None if every pair signature of the sorted rows supports an
    alpha-matching, else the first counterexample in row, then position,
    order: (member, pair position, matching size)."""
    alive = np.ones(len(members), dtype=bool)
    first = None
    for j in _pair_positions(members.shape[1]):
        grp = _PairGroups(members, j)
        bad = np.flatnonzero(grp.failing(alive, alpha)[grp.gid])
        if len(bad) and (first is None or bad[0] < first[0]):
            first = (bad[0], j, grp)
    if first is None:
        return None
    i, j, grp = first
    size = len(_max_pair_matching(grp.pairs[grp.rows(grp.gid[i], alive)]))
    return tuple(members[i].tolist()), j, size


def build_good_paths(g: Graph, k: int, alpha: int, c_thresh: float,
                     l_factor: float, cap: int = DEFAULT_CAP,
                     ) -> tuple[LabeledCollection, PruneAudit, int]:
    """Two-case builder for alpha-good collections of paths with 2k+1 vertices.

    Case 1 (few cherries with codegree above c_thresh): seed with all paths
    whose second-neighbor codegrees are at most c_thresh, then prune adjacent
    pairs with at most c_thresh^2 fill edges.  Case 2: fix the pivot vertex
    with the most high-codegree cherries and run the three typed deletions at
    threshold 2*alpha on the alternating collection through its neighborhood.
    Non-empty output is verified alpha-good; verification failure is an
    integrity error.
    """
    if k < 1:
        raise InputError("need k >= 1")
    if alpha < 1 or c_thresh < 0 or l_factor <= 0:
        raise InputError("need alpha >= 1, c_thresh >= 0, l_factor > 0")
    length = 2 * k + 1
    n = g.num_vertices
    d = g.average_degree
    cherries, per_center = _count_high_codegree_cherries(g, c_thresh)
    audit = PruneAudit(diagnostics={"cherries": cherries,
                                    "case_threshold": n * d * d / l_factor})

    if cherries <= n * d * d / l_factor:
        members = set(map(tuple, _enumerate_paths(
            g, length, cap, second_codegree_max=c_thresh).tolist()))
        audit.diagnostics["seed"] = len(members)
        _prune_pairs_by_count(members, length, c_thresh ** 2, audit)
        case = 1
    else:
        pivot = min(per_center, key=lambda v: (-per_center[v], v))
        audit.diagnostics["pivot"] = pivot
        members = _enumerate_pivot_paths(g, pivot, k, c_thresh, cap)
        audit.diagnostics["seed"] = len(members)
        weight = 0.0
        for m in members:
            w = 1.0
            for i in range(1, k + 1):
                w /= g.codegree(m[2 * i - 2], m[2 * i])
            weight += w
        audit.diagnostics["seed_weight"] = weight
        _typed_deletions(g, members, k, 2 * alpha, audit)
        final_weight = 0.0
        for m in members:
            w = 1.0
            for i in range(1, k + 1):
                w /= g.codegree(m[2 * i - 2], m[2 * i])
            final_weight += w
        audit.diagnostics["final_weight"] = final_weight
        case = 2

    audit.diagnostics["final"] = len(members)
    rows = np.array(sorted(members), dtype=np.uint32).reshape(-1, length)
    bad = _first_bad_pair(rows, alpha) if len(rows) else None
    if bad is not None:
        raise IntegrityError(
            f"good-path fixpoint is not {alpha}-good: member {bad[0]} "
            f"pair position {bad[1]} only supports {bad[2]} disjoint fills")
    coll = LabeledCollection("path", length, rows, good=True, alpha=alpha)
    return coll, audit, case


def _prune_pairs_by_count(members: set, length: int, min_fills: float,
                          audit: PruneAudit) -> None:
    """Case 1 deletion: drop pair-signature classes with <= min_fills fill
    edges until none remains."""
    index: dict = {}
    for m in sorted(members):
        for j in _pair_positions(length):
            index.setdefault((j, m[:j] + m[j + 2:]), set()).add((m[j], m[j + 1]))
    queue = deque(sorted(k for k, fills in index.items()
                         if len(fills) <= min_fills))
    queued = set(queue)
    while queue:
        j, key = queue.popleft()
        queued.discard((j, key))
        fills = index.get((j, key))
        if not fills:
            index.pop((j, key), None)
            continue
        audit.entries.append(("pair", (j,) + key, len(fills)))
        for (a, b) in sorted(fills):
            m = key[:j] + (a, b) + key[j:]
            members.discard(m)
            for j2 in _pair_positions(length):
                if j2 == j:
                    continue
                k2 = (j2, m[:j2] + m[j2 + 2:])
                fs = index.get(k2)
                if fs is None:
                    continue
                fs.discard((m[j2], m[j2 + 1]))
                if fs and len(fs) <= min_fills and k2 not in queued:
                    queue.append(k2)
                    queued.add(k2)
                elif not fs:
                    index.pop(k2, None)
        index.pop((j, key), None)


def _enumerate_pivot_paths(g: Graph, pivot: int, k: int, c_thresh: float,
                           cap: int) -> set:
    """Case 2 seed: paths x_0..x_2k in G - pivot with every even position in
    N(pivot) and d(x_{2i-2}, x_{2i}) > c_thresh."""
    nb = [v for v in g.neighbors(pivot)]
    out: set = set()
    path: list[int] = []
    used: set[int] = set()

    def extend() -> None:
        if len(path) == 2 * k + 1:
            out.add(tuple(path))
            if len(out) > cap:
                raise ResourceError(f"pivot path enumeration exceeded cap {cap}")
            return
        even = len(path) % 2 == 0
        for v in g.neighbors(path[-1]):
            if v == pivot or v in used:
                continue
            if even:
                if not g.has_edge(pivot, v):
                    continue
                if g.codegree(path[-2], v) <= c_thresh:
                    continue
            used.add(v)
            path.append(v)
            extend()
            path.pop()
            used.remove(v)

    for s in nb:
        used.add(s)
        path.append(s)
        extend()
        path.pop()
        used.remove(s)
    return out


def _typed_deletions(g: Graph, members: set, k: int, threshold: int,
                     audit: PruneAudit) -> None:
    """Case 2 deletions, priority type 1, then 2, then 3, rechecked from the
    top after every class removal.

    type 1: odd position 2i-1 with at most ``threshold`` distinct fills;
    type 2: pair (2i+1, 2i+2) with at most ``threshold`` distinct second fills;
    type 3: pair (2i, 2i+1) with at most ``threshold`` distinct first fills.
    """
    length = 2 * k + 1

    def remove_class(doomed: list) -> None:
        members.difference_update(doomed)

    while members:
        # type 1
        idx1: dict = {}
        for m in members:
            for i in range(1, k + 1):
                j = 2 * i - 1
                idx1.setdefault(m[:j] + (None,) + m[j + 1:], set()).add(m[j])
        victim = None
        for sig in sorted(idx1, key=_sig_sort_key):
            if len(idx1[sig]) <= threshold:
                victim = sig
                break
        if victim is not None:
            j = victim.index(None)
            audit.entries.append(("type1", victim, len(idx1[victim])))
            remove_class([victim[:j] + (f,) + victim[j + 1:]
                          for f in idx1[victim]])
            continue
        # type 2: distinct x'_{2i+2} over pair (2i+1, 2i+2)
        victim2 = None
        idx2: dict = {}
        for m in members:
            for i in range(0, k - 1):
                j = 2 * i + 1
                idx2.setdefault((j, m[:j] + m[j + 2:]), set()).add((m[j], m[j + 1]))
        for (j, key) in sorted(idx2):
            seconds = {b for (_, b) in idx2[(j, key)]}
            if len(seconds) <= threshold:
                victim2 = (j, key)
                break
        if victim2 is not None:
            j, key = victim2
            audit.entries.append(("type2", (j,) + key, len(idx2[victim2])))
            remove_class([key[:j] + (a, b) + key[j:]
                          for (a, b) in idx2[victim2]])
            continue
        # type 3: distinct x'_{2i} over pair (2i, 2i+1)
        victim3 = None
        idx3: dict = {}
        for m in members:
            for i in range(1, k):
                j = 2 * i
                idx3.setdefault((j, m[:j] + m[j + 2:]), set()).add((m[j], m[j + 1]))
        for (j, key) in sorted(idx3):
            firsts = {a for (a, _) in idx3[(j, key)]}
            if len(firsts) <= threshold:
                victim3 = (j, key)
                break
        if victim3 is not None:
            j, key = victim3
            audit.entries.append(("type3", (j,) + key, len(idx3[victim3])))
            remove_class([key[:j] + (a, b) + key[j:]
                          for (a, b) in idx3[victim3]])
            continue
        break


# ---------------------------------------------------------------------------
# verification

def verify_collection(coll: LabeledCollection, g: Graph, alpha: int,
                      ) -> tuple[bool, Optional[dict]]:
    """Exhaustively check membership validity plus the defining richness or
    goodness condition; returns the first counterexample found."""
    L = coll.length
    for m in coll.iter_members():
        if len(set(m)) != L:
            return False, {"member": m, "reason": "repeated vertex"}
        seq = m + (m[0],) if coll.kind == "cycle" else m
        for a, b in zip(seq, seq[1:]):
            if not g.has_edge(a, b):
                return False, {"member": m, "reason": f"missing edge ({a},{b})"}
    if coll.kind == "cycle":
        positions = range(L)
        for m in coll.iter_members():
            for j in positions:
                got = len(coll.fills(m, j))
                if got < alpha:
                    return False, {"member": m, "position": j, "fills": got}
    elif coll.good:
        bad = _first_bad_pair(coll.members, alpha) if len(coll) else None
        if bad is not None:
            return False, {"member": bad[0], "pair_position": bad[1],
                           "matching": bad[2]}
    else:
        for m in coll.iter_members():
            for j in range(1, L - 1):
                got = len(coll.fills(m, j))
                if got < alpha:
                    return False, {"member": m, "position": j, "fills": got}
    return True, None


def good_suffix_restriction(coll: LabeledCollection) -> tuple[LabeledCollection, Optional[int]]:
    """Restrict a good collection to the members ending at the most common
    last vertex and drop that vertex; the result is good at the same alpha."""
    if not coll.good:
        raise InputError("suffix restriction applies to good collections")
    counts: dict[int, int] = {}
    for m in coll.iter_members():
        counts[m[-1]] = counts.get(m[-1], 0) + 1
    if not counts:
        return (LabeledCollection.from_members("path", coll.length - 1, [],
                                               good=True, alpha=coll.alpha),
                None)
    v = min(counts, key=lambda x: (-counts[x], x))
    members = [m[:-1] for m in coll.iter_members() if m[-1] == v]
    return (LabeledCollection.from_members("path", coll.length - 1, members,
                                           good=True, alpha=coll.alpha), v)


# ---------------------------------------------------------------------------
# layered constructors (richness by design, for hosts where the exhaustive
# seeds cannot fit any cap)

def _layer_transversals(g: Graph, layers: list[np.ndarray], closed: bool,
                        cap: int = _HARD_MEMBER_CAP) -> np.ndarray:
    """All transversal tuples (one vertex per layer, all distinct) whose
    consecutive pairs (and the wrap-around pair if closed) are host edges.

    Layers may overlap; repeated vertices are filtered at the end.  For
    closed tuples the wrap-around edge is enforced during the last join so
    intermediates stay small.
    """
    a = g.adjacency_matrix()
    rows = layers[0].reshape(-1, 1)
    for i, nxt in enumerate(layers[1:], start=1):
        adj = a[rows[:, -1]][:, nxt]
        if closed and i == len(layers) - 1:
            adj &= a[rows[:, 0]][:, nxt]
        src, dst = np.nonzero(adj)
        if len(src) > cap:
            raise ResourceError("layered enumeration exceeded hard cap")
        rows = np.hstack([rows[src], nxt[dst].reshape(-1, 1)])
        if len(rows) == 0:
            break
    if len(rows):
        distinct = np.ones(len(rows), dtype=bool)
        for i in range(rows.shape[1]):
            for j in range(i + 1, rows.shape[1]):
                distinct &= rows[:, i] != rows[:, j]
        rows = rows[distinct]
    return rows.astype(np.uint32)


def _np_prune_good(members: np.ndarray, alpha: int) -> np.ndarray:
    """Fixpoint of the good deletion process: drop the members of every
    pair-signature group whose live fill edges admit no alpha pairwise
    disjoint edges, until none is left.

    Group ids are computed once per pair position; one round decides every
    group of every position at once (``_PairGroups.failing``).
    """
    if len(members) == 0:
        return members
    groups = [_PairGroups(members, j) for j in _pair_positions(members.shape[1])]
    alive = np.ones(len(members), dtype=bool)
    while True:
        doomed = np.zeros(len(members), dtype=bool)
        for grp in groups:
            doomed |= grp.failing(alive, alpha)[grp.gid]
        if not doomed.any():
            return members[alive]
        alive &= ~doomed


def _sample_layers(g: Graph, count: int, size: int, rng: random.Random,
                   endpoints: bool) -> list[np.ndarray]:
    """Vertex pools for the layers: alternating sides on bipartite hosts,
    singleton high-degree endpoints when requested.  Pools may overlap
    (transversal distinctness is filtered later)."""
    side = two_coloring(g)
    bipartite = side is not None and 0 < sum(side) < g.num_vertices
    by_degree = sorted(g.vertices(), key=lambda v: (-g.degree(v), v))
    sides = [(i % 2) if bipartite else None for i in range(count)]
    singles: set[int] = set()
    layers: list[np.ndarray] = []
    for i in range(count):
        if endpoints and i in (0, count - 1):
            pick = next((v for v in by_degree if v not in singles
                         and (sides[i] is None or side[v] == sides[i])), None)
            if pick is None:  # no endpoint left: the layer, and so the seed, is empty
                layers.append(np.zeros(0, dtype=np.int64))
                continue
            singles.add(pick)
            layers.append(np.array([pick], dtype=np.int64))
        else:
            pool = sorted(v for v in g.vertices()
                          if sides[i] is None or side[v] == sides[i])
            m = min(size, len(pool))
            layers.append(np.array(sorted(rng.sample(pool, m)),
                                   dtype=np.int64))
    return layers


def _estimate_pair_density(g: Graph, rng: random.Random) -> float:
    """Empirical edge probability, sampled; floor keeps later divisions sane."""
    n = g.num_vertices
    if n < 2:
        return 1e-3  # the floor below: no pair to sample
    side = two_coloring(g)
    verts = list(g.vertices())
    hits = 0
    trials = 400
    done = 0
    for _ in range(trials * 4):
        if done >= trials:
            break
        u, v = rng.sample(verts, 2)
        if side is not None and side[u] == side[v]:
            continue
        done += 1
        if g.has_edge(u, v):
            hits += 1
    return max(hits / max(done, 1), 1e-3)


def layered_rich_paths(g: Graph, k: int, alpha: int, seed: int,
                       part_size: Optional[int] = None) -> LabeledCollection:
    """Alpha-rich path collection from a layered seed: fixed high-degree
    endpoints, sampled internal layers, exhaustive transversals, then the
    usual fixpoint prune (vectorised)."""
    if k < 3:
        raise InputError("need k >= 3")
    rng = random.Random(seed)
    q = _estimate_pair_density(g, rng)
    if part_size is None:
        target = alpha + 3 + int(1.5 * alpha ** 0.5)
        part_size = max(int(np.ceil(target / (q * q))), alpha + 2)
    layers = _sample_layers(g, k, part_size, rng, endpoints=True)
    rows = _layer_transversals(g, layers, closed=False)
    rows, _ = _np_prune_rich(rows, "path", alpha)
    return LabeledCollection("path", k, rows, alpha=alpha)


def layered_rich_cycles(g: Graph, ell: int, alpha: int, seed: int,
                        part_size: Optional[int] = None) -> LabeledCollection:
    """Alpha-rich cycle collection from 2*ell sampled layers."""
    if ell < 2:
        raise InputError("need ell >= 2")
    rng = random.Random(seed)
    q = _estimate_pair_density(g, rng)
    if part_size is None:
        target = alpha + 3 + int(1.5 * alpha ** 0.5)
        part_size = max(int(np.ceil(target / (q * q))), alpha + 2)
    layers = _sample_layers(g, 2 * ell, part_size, rng, endpoints=False)
    rows = _layer_transversals(g, layers, closed=True)
    if len(rows):
        rows = _sorted_unique(_canon_cycles_np(rows))
    rows, _ = _np_prune_rich(rows, "cycle", alpha)
    return LabeledCollection("cycle", 2 * ell, rows, alpha=alpha)


def layered_good_paths(g: Graph, k: int, alpha: int, seed: int,
                       part_size: Optional[int] = None) -> LabeledCollection:
    """Alpha-good collection of paths with 2k vertices (ready for the
    honeycomb embedder) from a layered seed pruned by pair matchings."""
    if k < 1:
        raise InputError("need k >= 1")
    length = 2 * k
    rng = random.Random(seed)
    q = _estimate_pair_density(g, rng)
    if part_size is None:
        target = alpha + 3 + int(1.5 * alpha ** 0.5)
        part_size = max(int(np.ceil(target / q)), alpha + 2)
    if length == 2:
        e = next(iter(g.edges()), None)
        members = [e] if e else []
        return LabeledCollection.from_members("path", 2, members, good=True,
                                              alpha=alpha)
    layers = _sample_layers(g, length, part_size, rng, endpoints=True)
    rows = _layer_transversals(g, layers, closed=False)
    rows = _np_prune_good(rows, alpha)
    return LabeledCollection("path", length, rows, good=True, alpha=alpha)
