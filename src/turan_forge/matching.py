"""Maximum-matching helper behind two exact checks: the good-path pair
groups that ``rich_collections._PairIndex.unmatched`` cannot decide from its
counting bounds, and ``counting.is_rich_tuple``'s witness matching.

The link graphs we match over are bipartite whenever the two candidate
sides are disjoint; that case is handled by a plain augmenting-path
matcher.  When the sides overlap (possible in non-bipartite hosts) the
graph is general and we delegate to networkx's blossom implementation.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Sequence


def max_matching_bipartite(left: Sequence[Hashable],
                           adj: dict) -> list[tuple[Hashable, Hashable]]:
    """Maximum matching via augmenting paths; ``adj[l]`` lists right vertices.

    Each augmenting search is a depth-first search on an explicit stack of
    (left vertex, its neighbour iterator, the right vertex it tries), so a
    path of any length needs no recursion."""
    match_l: dict = {}
    match_r: dict = {}
    for root in left:
        if root in match_l:
            continue
        visited: set = set()
        stack = [[root, iter(adj.get(root, ())), None]]
        while stack:
            frame = stack[-1]
            for v in frame[1]:
                if v not in visited:
                    break
            else:
                stack.pop()
                continue
            visited.add(v)
            frame[2] = v
            if v in match_r:
                u = match_r[v]
                stack.append([u, iter(adj.get(u, ())), None])
                continue
            for u, _, w in stack:  # v is free: flip the path
                match_l[u] = w
                match_r[w] = u
            break
    return sorted(match_l.items())


def max_disjoint_edges(edges: Iterable[tuple[int, int]],
                       left: set[int], right: set[int]) -> list[tuple[int, int]]:
    """Largest set of pairwise vertex-disjoint edges among ``edges``.

    ``edges`` connect ``left`` to ``right``; if the two sets overlap the
    problem is general-graph matching and networkx is used.
    """
    edges = sorted(set(edges))
    if not edges:
        return []
    if left.isdisjoint(right):
        adj: dict[int, list[int]] = {}
        for (a, b) in edges:
            adj.setdefault(a, []).append(b)
        return max_matching_bipartite(sorted(adj), adj)
    import networkx as nx

    g = nx.Graph()
    g.add_edges_from(edges)
    m = nx.max_weight_matching(g, maxcardinality=True)
    return sorted(tuple(sorted(e)) for e in m)
