"""Collections of labeled paths and cycles with richness/goodness machinery.

A collection is *alpha-rich* when every member still has at least alpha
fills at every replaceable position (internal positions for paths, every
position for cycles), and *alpha-good* when every adjacent internal pair
admits at least alpha pairwise disjoint fill edges.  The builders start
from exhaustive seeds and prune to the fixpoint of the corresponding
deletion process; the layered constructors build richness-by-design seeds
on dense hosts where exhaustive enumeration cannot fit any cap.

One deletion engine (``_fixpoint``) runs every prune: the rich count rule,
the good pair predicate and the good-path case rules.  Each rule reads
one position's (signature, fill) index, sorted once (``_Index``), whose
signature groups are runs of the sorted keys (``_Runs``), with a live row
count per run and no per-row group ids.  The builders hand the sorted
keys, less the dead members' rows, to the collection as its index.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import InputError, IntegrityError, ResourceError
from .graphs import Graph, _spans, dense_blocks, two_coloring
from .matching import max_disjoint_edges

DEFAULT_CAP = 10 ** 8
_HARD_MEMBER_CAP = 5 * 10 ** 6  # finished rows a layered seed may have


# ---------------------------------------------------------------------------
# tuple helpers

def _cycle_sig(member: Sequence[int], pos: int) -> tuple[int, ...]:
    """Canonical open path left by blanking one position of a cycle: read
    from its smaller end, as ``_blanks`` reads it."""
    m = tuple(member)
    path = m[pos + 1:] + m[:pos]
    return path[::-1] if path[-1] < path[0] else path


def _canon_cycles_np(rows: np.ndarray) -> np.ndarray:
    """Vectorised cycle canonicalisation (min over rotations/reflections) of
    rows of distinct vertices: the least vertex first, then the smaller of
    its two neighbours.  Rows already so come back as they are."""
    if (rows[:, :1] < rows[:, 1:]).all() and (rows[:, 1] < rows[:, -1]).all():
        return rows
    width = rows.shape[1]
    cols = [rows[:, j] for j in range(width)]
    # a running minimum over the columns, with its column and its neighbours
    low, at = cols[0].copy(), np.zeros(len(rows), dtype=np.int8)
    before, after = cols[-1].copy(), cols[1].copy()
    for r in range(1, width):
        less = cols[r] < low
        np.copyto(low, cols[r], where=less)
        np.copyto(at, r, where=less)
        np.copyto(before, cols[r - 1], where=less)
        np.copyto(after, cols[(r + 1) % width], where=less)
    # output column j is input column at + j * step (mod width)
    step = np.where(before < after, width - 1, 1).astype(np.int8)
    out = np.empty_like(rows)
    out[:, 0] = low
    for j in range(1, width):
        at += step
        at %= width
        for c in range(width):
            np.copyto(out[:, j], cols[c], where=at == c)
    return out


_PACK_LIMIT = 2 ** 63  # packed row codes are int64


_BLOCK = 1 << 16  # entries a pass over sorted keys holds in temporaries


def _order_dtype(rows: int) -> type:
    """The dtype of an order of ``rows`` rows: int32, or int64 from 2**31
    rows.  Rank arithmetic on an order casts it to int64 first."""
    return np.int32 if rows < 2 ** 31 else np.int64


def _codes(cols: Sequence[np.ndarray], base: int) -> np.ndarray:
    """Rows given column by column, each packed into one int64 code, its
    columns the digits in base ``base`` (exact while base**width <
    _PACK_LIMIT)."""
    code = np.zeros(len(cols[0]), dtype=np.int64)
    for col in cols:
        code *= base
        code += col
    return code


def _sorted_keys(cols: Sequence[np.ndarray],
                 base: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows given column by column, entries in [0, base), sorted
    lexicographically, as search keys: an order that sorts them and the keys
    in that order.

    While base**width < _PACK_LIMIT a key is the row packed into one int64
    code (``_codes``, sorted by ``_sort_codes``).  Above the limit the keys
    are the lexsorted rows column by column (a width x rows array).
    """
    if base ** len(cols) >= _PACK_LIMIT:
        order = np.lexsort(cols[::-1])
        return (order.astype(_order_dtype(len(order))),
                np.stack([np.take(col, order) for col in cols]))
    return _sort_codes(_codes(cols, base), base ** len(cols))


def _sort_codes(code: np.ndarray, top: int) -> tuple[np.ndarray, np.ndarray]:
    """An order that sorts codes in [0, top) and the codes in that order,
    sorted in place in ``code``'s own buffer.  The row number rides along
    in the bits left over, if any, so that one sort gives both and orders
    equal codes by row; the row numbers go in and come out a block at a
    time, so no temporary is as long as ``code``."""
    bits = len(code).bit_length()
    order = np.empty(len(code), dtype=_order_dtype(len(code)))
    if top << bits < _PACK_LIMIT:
        code <<= bits
        for lo in range(0, len(code), _BLOCK):
            code[lo:lo + _BLOCK] |= np.arange(lo, min(lo + _BLOCK, len(code)))
        code.sort()
        for lo in range(0, len(code), _BLOCK):
            order[lo:lo + _BLOCK] = code[lo:lo + _BLOCK] & ((1 << bits) - 1)
        code >>= bits
    else:
        order[:] = np.argsort(code)
        code.sort()
    return order, code


def _boundaries(keys: np.ndarray) -> np.ndarray:
    """Where each sorted key differs from the one before; the first does."""
    new = np.ones(keys.shape[-1], dtype=bool)
    diff = keys[..., 1:] != keys[..., :-1]
    new[1:] = diff if diff.ndim == 1 else diff.any(axis=0)
    return new


def _span(keys: np.ndarray, prefix: Sequence[int], base: int,
          tail: int) -> np.ndarray:
    """The last ``tail`` digits, packed (a fill, or a * base + b for a fill
    pair), of the sorted keys (from ``_sorted_keys``) whose leading digits
    are ``prefix``: two searchsorted on packed codes, two per prefix column
    on rows."""
    step = base ** tail
    if keys.ndim == 2:
        lo, hi = 0, keys.shape[1]
        for col, v in zip(keys, prefix):
            part, v = col[lo:hi], col.dtype.type(v)
            lo, hi = (lo + part.searchsorted(v),
                      lo + part.searchsorted(v, side="right"))
        return keys[-tail:, lo:hi].T.astype(np.int64) @ base ** np.arange(tail)[::-1]
    code = 0
    for v in prefix:
        code = code * base + v
    hits = keys[keys.searchsorted(code * step):keys.searchsorted((code + 1) * step)]
    return hits % step


def _sorted_unique(rows: np.ndarray) -> np.ndarray:
    """Rows in lexicographic order without repeats (as they are, when their
    packed codes already increase)."""
    base = int(rows.max(initial=0)) + 1
    if base ** rows.shape[1] < _PACK_LIMIT and (
            np.diff(_codes(rows.T, base)) > 0).all():
        return rows
    order, keys = _sorted_keys(rows.T, base)
    return np.take(rows, np.compress(_boundaries(keys), order), axis=0)


def _distinct(rows: np.ndarray) -> np.ndarray:
    """Whether the entries of each row are distinct."""
    ok = np.ones(len(rows), dtype=bool)
    for i, j in itertools.combinations(range(rows.shape[1]), 2):
        ok &= rows[:, i] != rows[:, j]
    return ok


def _blanks(cols: np.ndarray) -> Iterator[tuple]:
    """For each position p of cycle columns: p, the column numbers of the
    open path its blank leaves, and where that path is canonical read
    backwards (distinct vertices: its ends decide)."""
    L = len(cols)
    for p in range(L):
        ring = [(p + 1 + i) % L for i in range(L - 1)]
        yield p, ring, cols[ring[-1]] < cols[ring[0]]


def _index_cols(members: np.ndarray, kind: str, pos: int,
                tail: int) -> list[np.ndarray]:
    """The columns of the (signature, fill) index at position ``pos``: on
    paths each member without columns pos .. pos + tail - 1, then those
    columns; on cycles (one index, at 0), position-major, the canonical
    open path left by each blank, then the blanked vertex."""
    L = members.shape[1]
    cols = np.ascontiguousarray(members.T)
    if kind == "path":
        blank = list(range(pos, pos + tail))
        return [cols[c] for c in range(L) if c not in blank] + [cols[c] for c in blank]
    out: list[list[np.ndarray]] = [[] for _ in range(L)]
    for p, ring, flip in _blanks(cols):
        for i in range(L - 1):
            out[i].append(np.where(flip, cols[ring[-1 - i]], cols[ring[i]]))
        out[-1].append(cols[p])
    return [np.concatenate(parts) for parts in out]


def _index_codes(members: np.ndarray, kind: str, pos: int, tail: int,
                 base: int) -> np.ndarray:
    """The rows of ``_index_cols`` packed as ``_codes`` does, straight from
    the member columns: on cycles each blank's open path is packed both
    ways and the canonical way kept (3x faster than packing the columns)."""
    if kind == "path":
        return _codes(_index_cols(members, kind, pos, tail), base)
    m, L = members.shape
    cols = np.ascontiguousarray(members.T)
    out = np.empty(L * m, dtype=np.int64)
    back = np.empty(m, dtype=np.int64)
    for p, ring, flip in _blanks(cols):
        code = out[p * m:(p + 1) * m]
        code[:], back[:] = cols[ring[0]], cols[ring[-1]]
        for i in range(1, L - 1):
            code *= base
            code += cols[ring[i]]
            back *= base
            back += cols[ring[-1 - i]]
        np.copyto(code, back, where=flip)
        code *= base
        code += cols[p]
    return out


def _index_keys(members: np.ndarray, kind: str, pos: int, tail: int,
                base: int) -> tuple[np.ndarray, np.ndarray]:
    """The (signature, fill) index at ``pos`` sorted, as ``_sorted_keys``
    gives it, its codes packed by ``_index_codes``."""
    if base ** members.shape[1] >= _PACK_LIMIT:
        return _sorted_keys(_index_cols(members, kind, pos, tail), base)
    return _sort_codes(_index_codes(members, kind, pos, tail, base),
                       base ** members.shape[1])


# ---------------------------------------------------------------------------
# the frozen collection type

class LabeledCollection:
    """Immutable set of labeled path or cycle tuples plus a signature index.

    Paths are stored as written (a path and its reversal are distinct
    members); cycles are stored in canonical rotation/reflection but all
    labelings are answerable through the index.

    The index is one sorted int64 array of (signature, fill) codes per
    replaceable position (per pair position on good collections), or a
    single array for cycles, whose signature is the canonical open path
    left by the blank.  A code packs the signature's vertices and then the
    fill (or fill pair) as digits in base n, any n above every member
    vertex, so a signature's codes are one run of the array.  A builder
    hands over the array its prune sorted, less the dead members' rows;
    any other collection sorts each array on its first query.  A lookup is
    two ``searchsorted`` calls, and the fills of a signature are its codes
    mod n (n**2 for pairs), ascending.  Packing needs n**length < 2**63;
    above that the index keeps the sorted rows column by column, searched
    with two ``searchsorted`` calls per column.
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
        if not _distinct(members).all():
            raise InputError("members must consist of distinct vertices")
        self.members = members
        self._base = int(members.max(initial=0)) + 1
        self._keys: dict[int, np.ndarray] = {}  # position -> sorted keys

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_members(cls, kind: str, length: int,
                     members: Iterable[Sequence[int]],
                     good: bool = False, alpha: Optional[int] = None) -> "LabeledCollection":
        rows = [tuple(m) for m in members]
        arr = (np.array(rows, dtype=np.uint32) if rows
               else np.zeros((0, length), dtype=np.uint32))
        return cls(kind, length, arr, good=good, alpha=alpha)

    @classmethod
    def _indexed(cls, kind: str, length: int, members: np.ndarray, keys: dict,
                 base: int, good: bool = False,
                 alpha: Optional[int] = None) -> "LabeledCollection":
        """A builder's collection with the index its prune sorted.  The
        builder guarantees what the public constructor checks: uint32 rows
        of ``length`` distinct vertices, canonical cycles, sorted and
        without repeats; so none of it runs again."""
        coll = cls.__new__(cls)
        coll.kind, coll.length, coll.good, coll.alpha = kind, length, good, alpha
        coll.members, coll._keys, coll._base = members, keys, base
        return coll

    def _lookup(self, pos: int, sig: Sequence[int], tail: int) -> list[int]:
        """The fills of ``tail`` vertices, packed as in ``_span``, completing
        ``sig`` at position ``pos`` (cycles have one index, at 0)."""
        sig = [int(v) for v in sig]
        if len(sig) + tail != self.length or not len(self) or not all(
                0 <= v < self._base for v in sig):
            return []
        keys = self._keys.get(pos)
        if keys is None:
            _, keys = _index_keys(self.members, self.kind, pos, tail,
                                  self._base)
            self._keys[pos] = keys
        return _span(keys, sig, self._base, tail).tolist()

    # -- queries ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, member: Sequence[int]) -> bool:
        row = tuple(int(x) for x in member)
        if (len(row) != self.length or len(set(row)) != len(row)
                or not all(0 <= v < self._base for v in row)):
            return False
        if self.kind == "cycle":
            canon = _canon_cycles_np(np.array([row], dtype=np.uint32))
            row = tuple(canon[0].tolist())
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
            return self._lookup(pos, member[:pos] + member[pos + 1:], 1)
        return self.fills_for_open_path(member[pos + 1:] + member[:pos])

    def fills_for_open_path(self, seq: Sequence[int]) -> list[int]:
        """Vertices closing an open (2*ell-1)-path into a member cycle."""
        if self.kind != "cycle":
            raise InputError("open-path fills are defined for cycles")
        seq = tuple(seq)
        if seq and seq[-1] < seq[0]:  # read from its smaller end, as _blanks does
            seq = seq[::-1]
        return self._lookup(0, seq, 1)

    def pair_fills(self, member: Sequence[int], pos: int) -> list[tuple[int, int]]:
        """Edges that can replace positions (pos, pos+1) of a good member."""
        if not self.good:
            raise InputError("pair fills only exist on good collections")
        if not (1 <= pos <= self.length - 3):
            raise InputError(f"pair position {pos} out of range")
        member = tuple(member)
        return [divmod(f, self._base)
                for f in self._lookup(pos, member[:pos] + member[pos + 2:], 2)]

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
# seeds, as sorted uint32 row arrays from one join of CSR steps

_JOIN_ROWS = 1 << 20  # candidate rows one join step may materialise


def _extend(last: np.ndarray, indptr: np.ndarray,
            indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each CSR neighbour v of each row's last vertex ``last``, the row's
    index and v: sorted rows give sorted candidates, as CSR rows ascend.
    No cap counts candidates; ``_join``'s counts the rows they finish."""
    cnt = indptr[last + 1] - indptr[last]
    return (np.repeat(np.arange(len(last)), cnt),
            indices[_spans(indptr[last], cnt)])


def _check_cap(cap: int) -> None:
    if cap < 0:
        raise InputError(f"cap must be at least 0, not {cap}")


def _join(start: np.ndarray, steps: Sequence[tuple], cap: int, what: str,
          keep=None, take: Optional[int] = None) -> tuple[np.ndarray, int]:
    """Rows of distinct vertices, one per walk from a ``start`` vertex along
    one CSR (indptr, indices) per step in ``steps``, grown one column at a
    time and filtered by ``keep(rows, src, v) -> mask``, where ``rows`` are
    the rows so far, column-major, and candidate i extends row ``src[i]``
    by vertex ``v[i]``.  A candidate that ``keep`` passes and whose vertex
    is not already in its row is gathered into a new row, once.

    Rows grow depth first, in chunks halved until one step has at most
    _JOIN_ROWS candidates, so memory stays bounded and the output keeps the
    sorted row order.  The cap counts finished rows as they come: once
    there are more than ``cap``, a resource error, or with ``take`` the
    search stops.  Returns the rows as uint32 (with ``take``, only the
    first ``take``) and their count, which with ``take`` stops at the first
    chunk past cap.
    """
    _check_cap(cap)
    limit = cap if take is None else take
    width = len(steps) + 1
    done: list[np.ndarray] = []
    total = 0
    todo = [start.astype(np.uint32)[None]]  # a stack: last item grows next
    while todo:
        rows = todo.pop()
        if len(rows) == width:
            done.append(rows[:, :max(limit - total, 0)])
            total += rows.shape[1]
            if total > cap:
                if take is None:
                    raise ResourceError(
                        f"{what} enumeration exceeded cap {cap}")
                break
            continue
        indptr, indices = steps[len(rows) - 1]
        last = rows[-1]
        if len(last) > 1 and (indptr[last + 1] - indptr[last]).sum() > _JOIN_ROWS:
            half = len(last) // 2
            todo += [rows[:, half:], rows[:, :half]]
            continue
        src, v = _extend(last, indptr, indices)
        ok = np.ones(len(v), dtype=bool) if keep is None else keep(rows, src, v)
        for col in rows[:-1]:  # v is a neighbour of the last vertex
            ok &= np.take(col, src) != v
        src = np.compress(ok, src)
        new = np.empty((len(rows) + 1, len(src)), dtype=np.uint32)
        np.take(rows, src, axis=1, out=new[:-1])
        new[-1] = np.compress(ok, v)
        todo.append(new)
    out = np.empty((sum(rows.shape[1] for rows in done), width), np.uint32)
    return np.concatenate([rows.T for rows in done], out=out), total


def _enumerate_paths(g: Graph, k: int, cap: int,
                     second_codegree_max: Optional[float] = None,
                     ) -> np.ndarray:
    """All labeled k-vertex paths as lexicographically sorted rows,
    optionally filtered by d(x_i, x_{i+2}) <= bound; resource error beyond
    cap."""
    keep = None
    if second_codegree_max is not None:
        codeg = g.codegree_matrix()

        def keep(rows: np.ndarray, src: np.ndarray, v: np.ndarray) -> np.ndarray:
            if len(rows) < 2:
                return np.ones(len(v), dtype=bool)
            return codeg[np.take(rows[-2], src), v] <= second_codegree_max

    steps = [(g.indptr, g.indices)] * (k - 1)
    return _join(np.flatnonzero(g.alive), steps, cap, "path", keep)[0]


def _four_cycles(g: Graph, cap: int,
                 take: Optional[int]) -> tuple[np.ndarray, int]:
    """``_enumerate_cycles`` for ell = 2, from pairs of wedges.

    A pair of centres a < c of the wedges b-a-d and b-c-d, b < d, is the
    cycle (a, b, c, d), canonical when a < b.  The exact count comes from
    the (b, d) groups before any row exists.  Edges at a vertex of degree
    1 are left out first, so a star has no wedge.  Wedges are taken in
    chunks of consecutive b with at most _JOIN_ROWS of them (or the wedges
    of one b, at most 2e); a single chunk is grouped once, more are grouped
    again to make their rows.  With ``take`` below the count, only the
    cycles whose minimum is at most the one that completes the first
    ``take`` are made.
    """
    n, deg = g.n, np.diff(g.indptr)
    # an edge with an end of degree 1 is on no cycle: its wedges start none
    on = np.repeat(deg > 1, deg) & (deg[g.indices] > 1)
    indptr, indices = np.append(0, np.cumsum(on))[g.indptr], g.indices[on]
    rev = np.argsort(indices, kind="stable")  # entry q's reverse is rev[q]
    ups = indptr[indices + 1] - rev - 1  # the wedges entry (b, x) starts

    def wedges(lo: int, hi: int) -> tuple[np.ndarray, ...]:
        """The wedges b-x-d with lo <= b < hi as columns x, b, d sorted by
        (b, d, x), so that each (b, d) group lists its centres ascending,
        and the cycles each starts: when x < b, the cycle (x, b, c, d) for
        each later centre c of its group."""
        at = slice(indptr[lo], indptr[hi])  # the entries (b, x) of rows b
        cnt = ups[at]
        # an entry's d run over x's row after b, which sits at rev[entry]
        run = _spans(rev[at] + 1, cnt)
        rows = np.empty((len(run), 3), dtype=np.uint32)
        rows[:, 1] = indices[run]
        del run
        rows[:, 0] = np.repeat(np.repeat(np.arange(lo, hi),
                                         np.diff(indptr[lo:hi + 1])), cnt)
        rows[:, 2] = np.repeat(indices[at], cnt)
        rows = np.take(rows, _sorted_keys(rows.T, n)[0], axis=0)
        b, d, x = rows.T
        new = np.ones(len(b) + 1, dtype=bool)  # group starts, and the end
        new[1:-1] = (b[1:] != b[:-1]) | (d[1:] != d[:-1])
        start = np.flatnonzero(new)
        cnt = np.repeat(start[1:], np.diff(start))  # the end of its group
        cnt -= np.arange(1, len(b) + 1)
        cnt[x > b] = 0
        return x, b, d, cnt

    cum = np.append(0, np.cumsum(ups))[indptr]  # the wedges before each b
    spans, lo = [], 0
    while lo < n:
        hi = int(np.searchsorted(cum, cum[lo] + _JOIN_ROWS, side="right")) - 1
        spans.append((lo, max(hi, lo + 1)))
        lo = spans[-1][1]
    kept = [wedges(*spans[0])] if len(spans) == 1 else None

    def chunks():
        return kept or (wedges(*span) for span in spans)

    per_min = np.zeros(n, dtype=np.int64)
    for x, _, _, cnt in chunks():
        per_min += np.bincount(x, weights=cnt, minlength=n).astype(np.int64)
        del x, cnt  # before the next chunk is grouped
    total = int(per_min.sum())
    if take is None and total > cap:
        raise ResourceError(f"cycle enumeration exceeded cap {cap}")
    need = total if take is None else min(take, total)
    if need == 0:
        return np.empty((0, 4), dtype=np.uint32), total
    top = np.searchsorted(np.cumsum(per_min), need)  # the minima kept
    out = []
    for x, b, d, cnt in chunks():
        cnt = np.where(x <= top, cnt, 0)
        wedge = np.arange(len(x))
        rows = np.column_stack([x, b, x, d])
        rows = np.take(rows, np.repeat(wedge, cnt), axis=0)  # (a, b, -, d)
        # the centres c after a in its group, at positions a + 1, a + 2, ..
        rows[:, 2] = x[_spans(wedge + 1, cnt)]
        out.append(rows)
    rows = np.concatenate(out)
    del out  # before the sort: the rows are not held twice
    return np.take(rows, _sorted_keys(rows.T, n)[0][:need], axis=0), total


def _enumerate_cycles(g: Graph, ell: int, cap: int,
                      take: Optional[int] = None):
    """Each unlabeled 2*ell-cycle once, as lexicographically sorted rows in
    canonical form: the minimum vertex first, every later vertex above it,
    and the last vertex above the second.

    More than ``cap`` cycles is a resource error.  With ``take`` (at most
    cap) nothing is raised: the result is the first ``take`` rows and the
    number of cycles, which is exact for ell = 2 and otherwise stops at the
    first chunk past cap.  4-cycles come from ``_four_cycles``; longer ones
    from ``_join``, which finds each closing edge with
    ``Graph._find_entries``.
    """
    _check_cap(cap)
    if ell == 2:
        rows, total = _four_cycles(g, cap, take)
        return rows if take is None else (rows, total)
    length = 2 * ell

    def keep(rows: np.ndarray, src: np.ndarray, v: np.ndarray) -> np.ndarray:
        first = np.take(rows[0], src)
        ok = v > first
        if len(rows) == length - 1:  # v closes the cycle
            ok &= v > np.take(rows[1], src)
            idx = np.flatnonzero(ok)
            ok[idx] = g._find_entries(v[idx], first[idx])[1]
        return ok

    steps = [(g.indptr, g.indices)] * (length - 1)
    rows, total = _join(np.flatnonzero(g.alive), steps, cap, "cycle", keep, take)
    return rows if take is None else (rows, total)


# ---------------------------------------------------------------------------
# the deletion process on signature groups

def _drop(keys: np.ndarray, base: int, tail: int) -> np.ndarray:
    """Sorted keys (from ``_sorted_keys``) without their last ``tail``
    digits, still sorted, in the same form (the keys themselves for no
    digit)."""
    if not tail:
        return keys
    return keys[:len(keys) - tail] if keys.ndim == 2 else keys // base ** tail


def _search(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Where each query key would go first in the sorted keys: searchsorted
    on packed codes; on rows column by column (the queries too), one
    vectorised binary search that compares whole rows."""
    if keys.ndim == 1:
        return keys.searchsorted(query)
    lo = np.zeros(query.shape[1], dtype=np.intp)
    hi = np.full(query.shape[1], keys.shape[1], dtype=np.intp)
    act = np.flatnonzero(lo < hi)
    while len(act):
        mid = (lo[act] + hi[act]) // 2
        below, tie = np.zeros(len(act), dtype=bool), np.ones(len(act), dtype=bool)
        for col, q in zip(keys, query):
            a, b = col[mid], q[act]
            below |= tie & (a < b)
            tie &= a == b
        lo[act[below]] = mid[below] + 1
        hi[act[~below]] = mid[~below]
        act = act[lo[act] < hi[act]]
    return lo


class _Runs:
    """The runs of sorted keys that agree on all but their last ``tail``
    digits: each run's head (that prefix, in the keys' form), where it
    starts in the keys (plus the end), and its live row count."""

    def __init__(self, keys: np.ndarray, base: int, tail: int):
        self.base, self.tail = base, tail
        size = keys.shape[-1]
        # the first key starts a run; the prefixes are compared a block at
        # a time, each block with the key before it, so no temporary is as
        # long as the keys
        at = [np.zeros(min(size, 1), dtype=np.intp)]
        for lo in range(1, size, _BLOCK):
            part = _drop(keys[..., lo - 1:lo + _BLOCK], base, tail)
            at.append(np.flatnonzero(_boundaries(part)[1:]) + lo)
        at = np.concatenate(at)
        self.heads = _drop(np.take(keys, at, axis=-1), base, tail)
        self.start = np.append(at, size)
        self.live = np.diff(self.start)

    def find(self, keys: np.ndarray) -> np.ndarray:
        """The run of each key (one of the sorted keys, or of their form)."""
        return _search(self.heads, _drop(keys, self.base, self.tail))

    def leave(self, keys: np.ndarray) -> None:
        """The rows with these keys are no longer live."""
        self.live -= np.bincount(self.find(keys), minlength=len(self.live))

    def group_starts(self) -> np.ndarray:
        """The first of these runs of each run of their heads without the
        last digit (each group), for ``reduceat``."""
        return np.flatnonzero(_boundaries(_drop(self.heads, self.base, 1)))


class _Index:
    """One position's (signature, fill) index over an array of member rows,
    sorted once, with its groups: the runs of signatures, with live sizes.

    The index rows are ``_index_cols``: one per member on paths (``tail``
    fill columns last), L per member on cycles, row r belonging to member
    r % m.  No two rows are equal, so the rows of dead members are found
    by a search for their own keys; they are never compacted out of the
    keys while the prune runs, only subtracted from the live counts.  The
    row order is int32 below 2**31 rows (``_order_dtype``).
    """

    def __init__(self, members: np.ndarray, kind: str, pos: int, tail: int,
                 base: int):
        self.members, self.kind, self.pos = members, kind, pos
        self.tail, self.base = tail, base
        self.order, self.keys = _index_keys(members, kind, pos, tail, base)
        self.groups = _Runs(self.keys, base, tail)

    def codes(self, rows: np.ndarray) -> np.ndarray:
        """The keys of the index rows of some members, packed straight from
        their columns."""
        some = np.take(self.members, rows, axis=0)
        if self.keys.ndim == 1:
            return _index_codes(some, self.kind, self.pos, self.tail, self.base)
        return np.stack(_index_cols(some, self.kind, self.pos, self.tail))

    def leave(self, rows: np.ndarray) -> None:
        """These members die: their rows leave the live counts."""
        self.groups.leave(self.codes(rows))

    def rows(self, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The index rows of groups ``ids`` (in their ``order`` ranges), dead
        ones too, and the group of each."""
        start = self.groups.start
        cnt = start[ids + 1] - start[ids]
        return self.order[_spans(start[ids], cnt)], np.repeat(ids, cnt)

    def first(self, ids: np.ndarray) -> np.ndarray:
        """An index row of each group ``ids``."""
        return self.order[self.groups.start[ids]]

    def without(self, alive: np.ndarray) -> np.ndarray:
        """The sorted keys of the ``alive`` members' rows.  This spends the
        index: it lets go of its order, runs and keys before the new keys
        exist, so the three are never alive at once."""
        keep, m = None, len(alive)
        if not alive.all():  # key i is index row order[i], of its member
            keep = np.empty(len(self.order), dtype=bool)
            for lo in range(0, len(keep), _BLOCK):
                keep[lo:lo + _BLOCK] = alive[self.order[lo:lo + _BLOCK] % m]
        keys = self.keys
        vars(self).clear()
        if keep is None:
            return keys
        # a 1-d mask read makes no index array, as [..., keep] does
        return keys[keep] if keys.ndim == 1 else keys[:, keep]


def _count_rule(ix: _Index, threshold: float) -> tuple:
    """The rule that a group of ``ix`` fails with at most ``threshold``
    live rows (on a single-fill index, its live fills)."""
    return ix, lambda alive: ix.groups.live <= threshold


def _fixpoint(m: int, rules: list[tuple]) -> tuple[np.ndarray, list]:
    """Greatest fixpoint of deletion rules over m members.

    A rule is (index, fails): ``fails(alive)`` gives, for each group of the
    ``_Index``, whether its live rows fail it, ``alive`` being the live
    members.  Every rule is monotone: a group fails once some count over
    its live rows falls to a threshold, and the counts only fall as members
    go.  So the survivors are the same whatever order the deletions run
    in, and one round deletes the live members of every failing group of
    every rule at once, read from the group's ``order`` range.  Then every
    index that a rule reads drops the doomed members' rows from its live
    counts, which it finds by their keys.  A failing group with live rows
    always holds a live member; a round that dooms none would repeat for
    ever, so it raises ``IntegrityError`` (the counts disagree with
    ``alive``).  Returns the alive mask and, per round, per rule, the ids
    (ascending) and live sizes of the groups that failed.
    """
    alive = np.ones(m, dtype=bool)
    indexes = list({id(ix): ix for ix, _ in rules}.values())
    rounds: list[list[tuple[np.ndarray, np.ndarray]]] = []
    while True:
        failed = [np.flatnonzero((ix.groups.live > 0) & fails(alive))
                  for ix, fails in rules]
        if not any(len(ids) for ids in failed):
            return alive, rounds
        rounds.append([(ids, ix.groups.live[ids])
                       for (ix, _), ids in zip(rules, failed)])
        doomed = np.zeros(m, dtype=bool)
        for (ix, _), ids in zip(rules, failed):
            doomed[ix.rows(ids)[0] % m] = True
        gone = np.flatnonzero(doomed & alive)
        if not len(gone):
            raise IntegrityError("a failing group has live rows but no live member")
        alive[gone] = False
        for ix in indexes:
            ix.leave(gone)


def _first_failure(width: int, rules: list[tuple],
                   alive: np.ndarray) -> Optional[tuple]:
    """The first failing (member, position), in member then position order,
    of (position, index, fails) rules over the members of row width
    ``width``: the least live row of a failing group, ranked by its member
    and its position (an index row r of a cycle index is at r // m).
    Returns (member, position, index, group), or None."""
    m, best = len(alive), None
    for pos, ix, fails in rules:
        rows, grp = ix.rows(np.flatnonzero((ix.groups.live > 0) & fails(alive)))
        live = alive[rows % m]
        rows = rows[live].astype(np.int64)  # ranks pass 2**31 before rows do
        rank = rows % m * width + pos + rows // m
        if len(rank) and (best is None or rank.min() < best[0]):
            best = (int(rank.min()), ix, int(grp[live][rank.argmin()]))
    if best is None:
        return None
    return (*divmod(best[0], width), *best[1:])


def _np_prune_rich(members: np.ndarray, kind: str, length: int,
                   alpha: int) -> tuple[LabeledCollection, list]:
    """Fixpoint of the rich deletion process: drop the members of every
    signature group with fewer than alpha live members until none is left.

    A position's groups are the signatures of its sorted index, and each
    position is a rule.  Returns the collection of the survivors and, per
    round, per position, a row of each group it deleted and their live
    sizes.  The collection keeps each sorted key array, in base n, the
    seed's largest vertex plus one, less the dead members' rows.
    """
    base = int(members.max(initial=0)) + 1
    positions = [0] if kind == "cycle" else range(1, members.shape[1] - 1)
    indexes = [_Index(members, kind, pos, 1, base) for pos in positions]
    alive, rounds = _fixpoint(len(members), [_count_rule(ix, alpha - 1)
                                             for ix in indexes])
    failed = [[(pos, ix.first(ids), sizes) for pos, ix, (ids, sizes)
               in zip(positions, indexes, r)] for r in rounds]
    keys = {pos: ix.without(alive) for pos, ix in zip(positions, indexes)}
    return LabeledCollection._indexed(
        kind, length, np.compress(alive, members, axis=0), keys, base,
        alpha=alpha), failed


def _rich_audit(seed: np.ndarray, kind: str, rounds: list,
                final: int) -> PruneAudit:
    """The deletion rounds as replayable ("rich", signature, count) entries,
    each round's in sorted signature order (a path's blank first)."""
    audit = PruneAudit(diagnostics={"seed": len(seed), "final": final})
    m = len(seed)
    for failed in rounds:
        entries = [("rich", _cycle_sig(mem, r // m) if kind == "cycle" else
                    tuple(mem[:pos]) + (None,) + tuple(mem[pos + 1:]), cnt)
                   for pos, rows, sizes in failed for r, mem, cnt in zip(
                       rows.tolist(), seed[rows % m].tolist(), sizes.tolist())]
        audit.entries += sorted(entries, key=lambda e: [
            -1 if v is None else v for v in e[1]])
    return audit


def replay_audit(seed_members: Iterable[tuple], audit: PruneAudit,
                 kind: str, length: int) -> set:
    """Apply an audit's deletions to the seed; reproduces the final members.

    Each seed member is filed once under every signature it has: its rich
    (or type-1) signatures, which blank one position, and on paths its pair
    signatures (j, the member without positions j, j+1).  An entry then
    deletes the members filed under its signature."""
    members = set(seed_members)
    filed: dict[tuple, list] = {}
    for m in members:
        if kind == "path":
            sigs = ([m[:j] + (None,) + m[j + 1:] for j in range(1, length - 1)]
                    + [(j,) + m[:j] + m[j + 2:] for j in range(1, length - 2)])
        else:
            sigs = [_cycle_sig(m, j) for j in range(length)]
        for sig in sigs:
            filed.setdefault(sig, []).append(m)
    for (_tag, sig, _cnt) in audit.entries:
        members.difference_update(filed.pop(tuple(sig), ()))
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
    coll, rounds = _np_prune_rich(seed, "path", k, alpha)
    return coll, _rich_audit(seed, "path", rounds, len(coll))


def build_rich_cycles(g: Graph, ell: int, alpha: int,
                      cap: int = DEFAULT_CAP) -> tuple[LabeledCollection, PruneAudit]:
    """Fixpoint of the cycle deletion process over all 2*ell positions."""
    if ell < 2:
        raise InputError("need ell >= 2")
    if alpha < 1:
        raise InputError("need alpha >= 1")
    seed = _enumerate_cycles(g, ell, cap)
    coll, rounds = _np_prune_rich(seed, "cycle", 2 * ell, alpha)
    return coll, _rich_audit(seed, "cycle", rounds, len(coll))


# ---------------------------------------------------------------------------
# good paths (weighted two-case builder)

def _count_high_codegree_cherries(g: Graph, c_thresh: float) -> tuple[int, dict[int, int]]:
    """Ordered paths (u, v, w), u != w, with d(u, w) > c_thresh; per-center
    tallies are returned so Case 2 can pick its pivot.

    The tally of v is (B M B^T)[v, v] on the ``dense_blocks`` block (R, C)
    with v in R: B its adjacency block and M = [codegree > c_thresh] on C
    (zero diagonal).  M is zero off the columns H of degree > c_thresh, as
    codeg(a, b) <= min(deg a, deg b), so only B[:, H] and M[H, H] (the one
    float32 array of that size allocated) are multiplied, at |R| |H|^2
    multiply-adds.  512-row slabs of B times M run in float32, exact as
    entries of B M are at most n < 2**24, row sums in float64, exact past
    deg**2 >= 2**24."""
    codeg = g.codegree_matrix()
    counts = np.zeros(g.n)
    for rows, cols in dense_blocks(g):
        hot = cols[g._deg[cols] > c_thresh]
        high = (codeg[np.ix_(hot, hot)] > c_thresh).astype(np.float32)
        np.fill_diagonal(high, 0)
        for lo in range(0, len(rows), 512):
            slab = g.block(rows[lo:lo + 512], hot)
            counts[rows[lo:lo + 512]] = ((slab @ high) * slab).sum(
                axis=1, dtype=np.float64)
    per_center = {v: int(c) for v, c in enumerate(counts) if c}
    return sum(per_center.values()), per_center


def _seconds(keys: np.ndarray, base: int) -> np.ndarray:
    """The (signature, second fill) keys of (signature, first, second) keys."""
    if keys.ndim == 2:
        return np.concatenate([keys[:-2], keys[-1:]])
    out = keys // (base * base)
    out *= base
    out += keys % base
    return out


def _isin(keys: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Whether each query key is one of the sorted keys (some, unless
    there is no query)."""
    hit = keys[..., np.minimum(_search(keys, query), keys.shape[-1] - 1)] == query
    return hit if hit.ndim == 1 else hit.all(axis=0)


class _PairIndex(_Index):
    """The pair index at pair position j, (signature, first, second) with
    the row without columns j and j+1 as signature, and the goodness
    predicate over its groups.

    Besides the groups, it keeps the runs of (signature, first fill), which
    are runs of its keys too, and of (signature, second fill), from one
    sort of those keys: a run's live count is that fill's live multiplicity
    in its group.  A group whose first and second fills are disjoint vertex
    sets has a bipartite fill graph (the only kind a bipartite host gives).
    """

    def __init__(self, members: np.ndarray, j: int, base: int):
        super().__init__(members, "path", j, 2, base)
        seconds = _seconds(self.keys, base)
        if seconds.ndim == 1:
            seconds.sort()
        else:
            seconds = seconds[:, np.lexsort(seconds[::-1])]
        self.fills = (_Runs(self.keys, base, 1), _Runs(seconds, base, 0))
        self.fill_groups = [runs.group_starts() for runs in self.fills]
        first, second = self.fills
        self.bipartite = ~np.logical_or.reduceat(
            _isin(second.heads, first.heads), self.fill_groups[0])

    def leave(self, rows: np.ndarray) -> None:
        keys = self.codes(rows)
        self.groups.leave(keys)
        self.fills[0].leave(keys)
        self.fills[1].leave(_seconds(keys, self.base))

    def distinct(self, second: bool) -> np.ndarray:
        """Each group's number of distinct live second (or first) fills."""
        return np.add.reduceat(self.fills[second].live > 0,
                               self.fill_groups[second], dtype=np.int64)

    def matching(self, g: int, alive: np.ndarray) -> int:
        """The size of a largest matching of group g's live fill edges."""
        rows = self.rows(np.array([g]))[0]
        rows = np.compress(alive[rows], rows)
        pairs = list(map(tuple, np.take(self.members, rows, axis=0)[
            :, self.pos:self.pos + 2].tolist()))
        return len(max_disjoint_edges(pairs, {a for a, _ in pairs},
                                      {b for _, b in pairs}))

    def unmatched(self, alive: np.ndarray, alpha: int) -> np.ndarray:
        """Per group: its live fill edges admit fewer than alpha pairwise
        disjoint edges (true of a group with no live rows, which the
        engine does not read).

        Each matched edge uses its own first and its own second fill, so a
        group with fewer than alpha distinct firsts or distinct seconds
        (and so one with fewer than alpha pairs) fails.  A bipartite fill
        graph with p edges and maximum degree D splits into D matchings
        (Koenig's edge-colouring theorem), so it passes when
        ceil(p / D) >= alpha.  Only the groups left between the two bounds
        run the exact matcher.
        """
        size = self.groups.live
        fail = np.minimum(self.distinct(False), self.distinct(True)) < alpha
        degree = np.maximum(*(np.maximum.reduceat(runs.live, at) for runs, at
                              in zip(self.fills, self.fill_groups)))
        good = self.bipartite & (size > (alpha - 1) * degree)
        for g in np.flatnonzero((size > 0) & ~fail & ~good):
            fail[g] = self.matching(g, alive) < alpha
        return fail


def _pair_indexes(members: np.ndarray, base: Optional[int] = None) -> dict:
    """Pair position -> the rows' ``_PairIndex`` there, in base ``base`` (by
    default the largest vertex plus one)."""
    base = base or int(members.max(initial=0)) + 1
    return {j: _PairIndex(members, j, base)
            for j in range(1, members.shape[1] - 2)}


def _pair_rule(ix: _PairIndex, alpha: int) -> tuple:
    """The rule that a pair group fails without an alpha-matching."""
    return ix, lambda alive: ix.unmatched(alive, alpha)


def _first_bad_pair(members: np.ndarray, alpha: int, indexes: dict,
                    alive: np.ndarray):
    """None if every pair signature of the live sorted rows (``indexes``:
    their ``_pair_indexes``, with the live counts) supports an
    alpha-matching, else the first counterexample in row, then position,
    order: (member, pair position, matching size)."""
    bad = _first_failure(members.shape[1], [
        (j, *_pair_rule(ix, alpha)) for j, ix in indexes.items()], alive)
    if bad is None:
        return None
    i, j, ix, g = bad
    return tuple(members[i].tolist()), j, ix.matching(g, alive)


def _distinct_rule(ix: _PairIndex, second: bool, threshold: float) -> tuple:
    """A pair class fails with at most ``threshold`` distinct live second
    (or first) fills."""
    return ix, lambda alive: ix.distinct(second) <= threshold


def _case1_rules(members: np.ndarray, threshold: float,
                 indexes: Optional[dict] = None) -> list[tuple]:
    """Case 1 as (tag, position, rule): a pair class with at most
    ``threshold`` fill edges.  ``indexes``: the ``_pair_indexes`` of the
    rows."""
    indexes = indexes or _pair_indexes(members)
    return [("pair", j, _count_rule(ix, threshold)) for j, ix in indexes.items()]


def _case2_rules(members: np.ndarray, threshold: float,
                 indexes: Optional[dict] = None) -> list[tuple]:
    """Case 2 as (tag, position, rule).  type 1: odd position 2i-1 with at
    most ``threshold`` fills; type 2: pair (2i+1, 2i+2) with at most
    ``threshold`` distinct second fills; type 3: pair (2i, 2i+1) with at most
    ``threshold`` distinct first fills.  Types 2 and 3 read every pair
    position between them."""
    L, base = members.shape[1], int(members.max(initial=0)) + 1
    indexes = indexes or _pair_indexes(members, base)
    return ([("type1", j, _count_rule(_Index(members, "path", j, 1, base),
                                      threshold))
             for j in range(1, L - 1, 2)]
            + [("type2", j, _distinct_rule(indexes[j], True, threshold))
               for j in range(1, L - 2, 2)]
            + [("type3", j, _distinct_rule(indexes[j], False, threshold))
               for j in range(2, L - 2, 2)])


def _prune_case(seed: np.ndarray, rules: list[tuple]) -> tuple[np.ndarray, list]:
    """Fixpoint of one case's (tag, position, rule) list over the seed rows:
    the alive mask, and the audit entries one round at a time, each rule's
    failing classes in sorted signature order with their live sizes."""
    alive, rounds = _fixpoint(len(seed), [rule for _, _, rule in rules])
    entries = []
    for failed in rounds:
        for (tag, j, (ix, _)), (ids, sizes) in zip(rules, failed):
            for r, cnt in zip(ix.first(ids).tolist(), sizes.tolist()):
                m = tuple(seed[r].tolist())
                key = (m[:j] + (None,) + m[j + 1:] if tag == "type1"
                       else (j,) + m[:j] + m[j + 2:])
                entries.append((tag, key, cnt))
    return alive, entries


def _enumerate_pivot_paths(g: Graph, pivot: int, k: int, c_thresh: float,
                           cap: int) -> np.ndarray:
    """Case 2 seed as sorted rows: paths x_0..x_2k in G - pivot with every
    even position in N(pivot) and d(x_{2i-2}, x_{2i}) > c_thresh (codegrees
    in G, pivot included)."""
    codeg = g.codegree_matrix()
    near = np.zeros(g.n, dtype=bool)
    near[list(g.neighbors(pivot))] = True

    def keep(rows: np.ndarray, src: np.ndarray, v: np.ndarray) -> np.ndarray:
        if len(rows) % 2:  # v is at an odd position
            return v != pivot
        ok = near[v]  # not the pivot either
        idx = np.flatnonzero(ok)
        ok[idx] = codeg[np.take(rows[-2], src[idx]), v[idx]] > c_thresh
        return ok

    steps = [(g.indptr, g.indices)] * (2 * k)
    return _join(np.flatnonzero(near), steps, cap, "pivot path", keep)[0]


def build_good_paths(g: Graph, k: int, alpha: int, c_thresh: float,
                     l_factor: float, cap: int = DEFAULT_CAP,
                     ) -> tuple[LabeledCollection, PruneAudit, int]:
    """Two-case builder for alpha-good collections of paths with 2k+1 vertices.

    Case 1 (few cherries with codegree above c_thresh): seed with all paths
    whose second-neighbor codegrees are at most c_thresh, then prune adjacent
    pairs with at most c_thresh^2 fill edges.  Case 2: fix the pivot vertex
    with the most high-codegree cherries and run the three typed deletions at
    threshold 2*alpha on the alternating collection through its neighborhood.
    Both prune to the fixpoint of their rules, one round at a time, and the
    audit lists each round's failing classes rule by rule, in sorted
    (position, signature) order.  Non-empty output is verified alpha-good;
    verification failure is an integrity error.
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
        case = 1
        seed = _enumerate_paths(g, length, cap, second_codegree_max=c_thresh)
    else:
        case = 2
        pivot = min(per_center, key=lambda v: (-per_center[v], v))
        audit.diagnostics["pivot"] = pivot
        seed = _enumerate_pivot_paths(g, pivot, k, c_thresh, cap)
    audit.diagnostics["seed"] = len(seed)
    base = int(seed.max(initial=0)) + 1
    indexes = _pair_indexes(seed, base)
    alive, audit.entries = _prune_case(seed, _case1_rules(
        seed, c_thresh ** 2, indexes) if case == 1 else _case2_rules(
        seed, 2 * alpha, indexes))
    if case == 2:
        # each member weighs prod_i 1 / d(x_{2i-2}, x_{2i}); fsum rounds the
        # exact sum, so it does not depend on the member order
        codeg = g.codegree_matrix()
        weight = np.ones(len(seed))
        for i in range(1, k + 1):
            weight /= codeg[seed[:, 2 * i - 2], seed[:, 2 * i]]
        audit.diagnostics["seed_weight"] = math.fsum(weight.tolist())
        audit.diagnostics["final_weight"] = math.fsum(weight[alive].tolist())
    audit.diagnostics["final"] = int(alive.sum())
    # a rule of either case reads every pair index, so its live counts are
    # the survivors'
    bad = _first_bad_pair(seed, alpha, indexes, alive)
    if bad is not None:
        raise IntegrityError(
            f"good-path fixpoint is not {alpha}-good: member {bad[0]} "
            f"pair position {bad[1]} only supports {bad[2]} disjoint fills")
    keys = {j: ix.without(alive) for j, ix in indexes.items()}
    rows = np.compress(alive, seed, axis=0)
    return (LabeledCollection._indexed("path", length, rows, keys, base,
                                       good=True, alpha=alpha), audit, case)


# ---------------------------------------------------------------------------
# verification

def verify_collection(coll: LabeledCollection, g: Graph, alpha: int,
                      ) -> tuple[bool, Optional[dict]]:
    """Exhaustively check membership validity plus the defining richness or
    goodness condition; returns the first counterexample found, in member,
    then position order.  The condition is the prune's own rule, read
    off a fresh index of the members: a group of at most alpha - 1 rows
    (a signature with fewer than alpha fills), or a pair group without an
    alpha-matching."""
    L = coll.length
    for m in coll.iter_members():
        if len(set(m)) != L:
            return False, {"member": m, "reason": "repeated vertex"}
        seq = m + (m[0],) if coll.kind == "cycle" else m
        for a, b in zip(seq, seq[1:]):
            if not g.has_edge(a, b):
                return False, {"member": m, "reason": f"missing edge ({a},{b})"}
    members, alive = coll.members, np.ones(len(coll), dtype=bool)
    if not len(coll):
        return True, None
    if coll.good:
        bad = _first_bad_pair(members, alpha, _pair_indexes(members), alive)
        if bad is not None:
            return False, {"member": bad[0], "pair_position": bad[1],
                           "matching": bad[2]}
        return True, None
    base = int(members.max()) + 1
    bad = _first_failure(L, [
        (pos, *_count_rule(_Index(members, coll.kind, pos, 1, base), alpha - 1))
        for pos in ([0] if coll.kind == "cycle" else range(1, L - 1))], alive)
    if bad is not None:
        i, j, ix, grp = bad
        return False, {"member": tuple(members[i].tolist()), "position": j,
                       "fills": int(ix.groups.live[grp])}
    return True, None


def good_suffix_restriction(coll: LabeledCollection) -> tuple[LabeledCollection, Optional[int]]:
    """Restrict a good collection to the members ending at the most common
    last vertex and drop that vertex; the result is good at the same alpha."""
    if not coll.good:
        raise InputError("suffix restriction applies to good collections")
    if not len(coll):
        return (LabeledCollection("path", coll.length - 1, coll.members[:, :-1],
                                  good=True, alpha=coll.alpha), None)
    last = coll.members[:, -1]
    v = int(np.argmax(np.bincount(last)))  # the least of the most common
    return (LabeledCollection("path", coll.length - 1,
                              coll.members[last == v, :-1],
                              good=True, alpha=coll.alpha), v)


# ---------------------------------------------------------------------------
# layered constructors (richness by design, for hosts where the exhaustive
# seeds cannot fit any cap)

def _layer_transversals(g: Graph, layers: list[np.ndarray],
                        closed: bool) -> np.ndarray:
    """All transversal tuples (one vertex per layer, all distinct) whose
    consecutive pairs (and the wrap-around pair if closed) are host edges,
    from ``_join`` with step i the CSR of the nonzeros of the block from
    layer i - 1 to layer i; a closed tuple's last vertex needs an edge in
    the block of the end layers, read at the two ends' ranks.  Layers may
    overlap: ``_join`` drops repeated vertices.  More than
    ``_HARD_MEMBER_CAP`` finished rows is a resource error: as no step has
    fewer candidates than the rows it finishes, it refuses no earlier than
    a cap on one step's candidates would.
    """
    steps = []
    for prev, nxt in zip(layers, layers[1:]):
        src, dst = np.nonzero(g.block(prev, nxt))
        cnt = np.bincount(np.take(prev, src), minlength=g.n)
        steps.append((np.append(0, np.cumsum(cnt)), np.take(nxt, dst)))
    keep = None
    if closed:
        first, last = layers[0], layers[-1]
        wrap = (g.block(first, last) > 0).ravel()
        at = np.zeros((2, g.n), dtype=np.intp)  # flat offsets of the ranks
        at[0, first], at[1, last] = np.arange(len(first)) * len(last), np.arange(len(last))

        def keep(rows: np.ndarray, src: np.ndarray, v: np.ndarray) -> np.ndarray:
            if len(rows) < len(layers) - 1:
                return np.ones(len(v), dtype=bool)
            cell = np.take(at[0, rows[0]], src)
            cell += np.take(at[1], v)
            return np.take(wrap, cell)

    return _join(layers[0], steps, _HARD_MEMBER_CAP, "layered", keep)[0]


def _np_prune_good(members: np.ndarray, alpha: int) -> tuple:
    """Fixpoint of the good deletion process: drop the members of every
    pair-signature group whose live fill edges admit no alpha pairwise
    disjoint edges (``_PairIndex.unmatched``), until none is left.  Returns
    the survivors and their pair index, as ``_np_prune_rich`` keeps it."""
    base = int(members.max(initial=0)) + 1
    indexes = _pair_indexes(members, base)
    alive, _ = _fixpoint(len(members), [_pair_rule(ix, alpha)
                                        for ix in indexes.values()])
    keys = {j: ix.without(alive) for j, ix in indexes.items()}
    return np.compress(alive, members, axis=0), keys, base


def _sample_layers(g: Graph, count: int, size: int, rng: random.Random,
                   endpoints: bool) -> list[np.ndarray]:
    """Vertex pools for the layers: alternating sides on bipartite hosts,
    singleton high-degree endpoints when requested.  Pools may overlap
    (transversal distinctness is filtered later)."""
    side = two_coloring(g)
    live = list(g.vertices())
    if side is not None and any(side):  # some edge, so both sides are live
        pools = [[v for v in live if side[v] == s] for s in (0, 1)]
    else:
        pools = [live, live]
    deg = g.degrees()
    by_degree = [sorted(pool, key=lambda v: (-deg[v], v)) for pool in pools]
    singles: set = set()
    layers: list[np.ndarray] = []
    for i in range(count):
        if endpoints and i in (0, count - 1):
            pick = next((v for v in by_degree[i % 2] if v not in singles), None)
            singles.add(pick)
            # no endpoint left: the layer, and so the seed, is empty
            layer = [] if pick is None else [pick]
        else:
            pool = pools[i % 2]
            layer = sorted(rng.sample(pool, min(size, len(pool))))
        layers.append(np.array(layer, dtype=np.int64))
    return layers


def _estimate_pair_density(g: Graph) -> float:
    """The exact edge density q: e / (|A| |B|) across the two-coloring's
    live sides A and B (isolated vertices on side 0) if there is one, else
    e / C(n, 2) over the n live vertices.  A floor of 1e-3 keeps later
    divisions sane, also on hosts with no cross pair."""
    side = two_coloring(g)
    n = g.num_vertices
    if side is None:
        pairs = n * (n - 1) // 2
    else:
        b = int(np.count_nonzero(np.asarray(side, dtype=bool) & g.alive))
        pairs = (n - b) * b
    return max(g.edge_count / pairs, 1e-3) if pairs else 1e-3


def _layered_seed(g: Graph, count: int, alpha: int, seed: int, squared: bool,
                  endpoints: bool, closed: bool) -> np.ndarray:
    """The transversals of ``count`` sampled layers, each of
    max(ceil((alpha + 3 + floor(1.5 sqrt(alpha))) / q**s), alpha + 2)
    vertices of its pool (all of it if smaller), where q is the exact edge
    density and s is 2 if ``squared``, else 1."""
    q = _estimate_pair_density(g)
    target = alpha + 3 + int(1.5 * alpha ** 0.5)
    size = max(int(np.ceil(target / (q * q if squared else q))), alpha + 2)
    layers = _sample_layers(g, count, size, random.Random(seed), endpoints)
    return _layer_transversals(g, layers, closed)


def layered_rich_paths(g: Graph, k: int, alpha: int,
                       seed: int) -> LabeledCollection:
    """Alpha-rich path collection from a layered seed: fixed high-degree
    endpoints, sampled internal layers, exhaustive transversals, then the
    usual fixpoint prune (vectorised)."""
    if k < 3:
        raise InputError("need k >= 3")
    rows = _layered_seed(g, k, alpha, seed, True, True, False)
    return _np_prune_rich(rows, "path", k, alpha)[0]


def layered_rich_cycles(g: Graph, ell: int, alpha: int,
                        seed: int) -> LabeledCollection:
    """Alpha-rich cycle collection from 2*ell sampled layers."""
    if ell < 2:
        raise InputError("need ell >= 2")
    rows = _sorted_unique(_canon_cycles_np(
        _layered_seed(g, 2 * ell, alpha, seed, True, False, True)))
    return _np_prune_rich(rows, "cycle", 2 * ell, alpha)[0]


def layered_good_paths(g: Graph, k: int, alpha: int,
                       seed: int) -> LabeledCollection:
    """Alpha-good collection of paths with 2k vertices (ready for the
    honeycomb embedder) from a layered seed pruned by pair matchings."""
    if k < 1:
        raise InputError("need k >= 1")
    length = 2 * k
    if length == 2:
        e = next(iter(g.edges()), None)
        members = [e] if e else []
        return LabeledCollection.from_members("path", 2, members, good=True,
                                              alpha=alpha)
    rows = _layered_seed(g, length, alpha, seed, False, True, False)
    rows, keys, base = _np_prune_good(rows, alpha)
    return LabeledCollection._indexed("path", length, rows, keys, base,
                                      good=True, alpha=alpha)
