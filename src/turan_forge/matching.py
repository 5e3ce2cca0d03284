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
    """Maximum matching via augmenting paths; ``adj[l]`` lists right vertices."""
    match_l: dict = {}
    match_r: dict = {}

    def augment(u, visited) -> bool:
        for v in adj.get(u, ()):
            if v in visited:
                continue
            visited.add(v)
            if v not in match_r or augment(match_r[v], visited):
                match_l[u] = v
                match_r[v] = u
                return True
        return False

    for u in left:
        if u not in match_l:
            augment(u, set())
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
