"""Brute-force oracles that only the tests need.

Nothing in this module imports the package under test, and nothing reuses its
closed-form formulas: normal ordering is done by exhaustive string rewriting,
matchings by direct recursive enumeration, counts by recurrences, acyclicity
by Kahn's algorithm.  Slow and obviously correct beats fast and shared.  The
oracles the benchmark shares with the tests (``stirling2``, the GRAMMAR.md
renderers, Gaussian-pair arithmetic) live in ``perfbench/reference.py``.
"""

from collections import deque
from functools import lru_cache
from math import comb, perm

# Strings over 'a' (lowering) and 'A' (raising); normal form has all 'A' left.


@lru_cache(maxsize=None)
def _rewrite(word: str) -> tuple[tuple[tuple[int, int], int], ...]:
    i = word.find("aA")
    if i < 0:
        return (((word.count("A"), word.count("a")), 1),)
    acc: dict[tuple[int, int], int] = {}
    for successor in (word[:i] + "Aa" + word[i + 2:], word[:i] + word[i + 2:]):
        for mono, c in _rewrite(successor):
            acc[mono] = acc.get(mono, 0) + c
    return tuple(sorted(acc.items()))


def normal_order_string(word: str) -> dict[tuple[int, int], int]:
    """Normal order a word by exhaustive rewriting: aA -> Aa plus deletion.

    Returns {(raising count, lowering count): integer coefficient}.
    """
    if set(word) - {"a", "A"}:
        raise ValueError(f"word must use only 'a' and 'A': {word!r}")
    return dict(_rewrite(word))


def commutator_string(s: int, k: int) -> dict[tuple[int, int], int]:
    """[a^s, A^k] by rewriting a^s A^k and subtracting the ordered monomial."""
    acc = normal_order_string("a" * s + "A" * k)
    acc[(k, s)] = acc.get((k, s), 0) - 1
    return {mono: c for mono, c in acc.items() if c}


def all_partial_matchings(grays: tuple, whites: tuple) -> set:
    """Every partial matching as a frozenset of (gray, white) pairs."""
    if not grays:
        return {frozenset()}
    first, rest = grays[0], grays[1:]
    result = set(all_partial_matchings(rest, whites))
    for w in whites:
        remaining = tuple(x for x in whites if x != w)
        for m in all_partial_matchings(rest, remaining):
            result.add(m | {(first, w)})
    return result


def compose_fields(g1: tuple, g2: tuple, matching) -> tuple:
    """One composition on plain graph fields, straight from the definition.

    A graph is ``(vertices, edges, dangling_in, dangling_out)`` with each
    vertex an ``(in_ports, out_ports)`` pair.  ``g2``'s labels move up by
    ``g1``'s port count, each matched (gray of ``g1``, white of ``g2``) pair
    becomes an edge, edges are sorted, and the unmatched spots keep their
    order, ``g1``'s first.
    """
    vertices1, edges1, grays1, whites1 = g1
    vertices2, edges2, grays2, whites2 = g2
    shift = sum(len(ins) + len(outs) for ins, outs in vertices1)
    matched_grays = {gray for gray, _ in matching}
    matched_whites = {white for _, white in matching}
    vertices = tuple(vertices1) + tuple(
        (tuple(p + shift for p in ins), tuple(p + shift for p in outs)) for ins, outs in vertices2)
    edges = sorted(list(edges1) + [(o + shift, i + shift) for o, i in edges2]
                   + [(white + shift, gray) for gray, white in matching])
    grays = [p for p in grays1 if p not in matched_grays] + [p + shift for p in grays2]
    whites = list(whites1) + [p + shift for p in whites2 if p not in matched_whites]
    return vertices, tuple(edges), tuple(grays), tuple(whites)


@lru_cache(maxsize=None)
def count_partial_matchings(n: int, m: int) -> int:
    # L(n, m) = L(n-1, m) + m * L(n-1, m-1): first element unmatched or matched.
    if n == 0 or m == 0:
        return 1
    return count_partial_matchings(n - 1, m) + m * count_partial_matchings(n - 1, m - 1)


def count_leaf_graphs(steps) -> int:
    """How many graphs a chain of one-vertex compositions makes, by a DP over gray counts.

    ``steps`` are the vertices' ``(whites, grays)`` in word order, each
    composed onto the graph built so far.  From a graph with ``g`` grays, a
    vertex ``(r, s)`` joined along ``i`` edges -- ``i`` of the ``g`` grays,
    each to its own one of the ``r`` whites -- makes ``C(g, i) * r!/(r-i)!``
    graphs with ``g - i + s`` grays.
    """
    graphs_by_grays = {0: 1}
    for r, s in steps:
        after: dict[int, int] = {}
        for g, n in graphs_by_grays.items():
            for i in range(min(g, r) + 1):
                after[g - i + s] = after.get(g - i + s, 0) + n * comb(g, i) * perm(r, i)
        graphs_by_grays = after
    return sum(graphs_by_grays.values())


def is_acyclic(num_vertices: int, edges) -> bool:
    """Kahn's algorithm on a vertex-level directed graph."""
    indegree = [0] * num_vertices
    adjacency = [[] for _ in range(num_vertices)]
    for u, v in edges:
        adjacency[u].append(v)
        indegree[v] += 1
    queue = deque(v for v in range(num_vertices) if indegree[v] == 0)
    seen = 0
    while queue:
        u = queue.popleft()
        seen += 1
        for v in adjacency[u]:
            indegree[v] -= 1
            if indegree[v] == 0:
                queue.append(v)
    return seen == num_vertices


def vertex_level_edges(graph) -> tuple[int, list]:
    """Reduce a port-labeled graph to (vertex count, vertex-index edge list)."""
    in_owner: dict[int, int] = {}
    out_owner: dict[int, int] = {}
    for index, vertex in enumerate(graph.vertices):
        for p in vertex.in_ports:
            in_owner[p] = index
        for p in vertex.out_ports:
            out_owner[p] = index
    return len(graph.vertices), [(out_owner[o], in_owner[i]) for o, i in graph.edges]
