"""networkx as an independent oracle on the graph side.

Optional: the module is skipped when networkx is not installed.  networkx is
never a dependency of the package, and nothing here is shared with the
package or with the other oracles, ``brute_force.py`` and
``perfbench/reference.py``: each graph is read from its raw fields into a
``MultiDiGraph`` on vertex indices, with one arc per edge from the vertex
owning its out-port to the vertex owning its in-port, and with each vertex's
gray (dangling in) and white (dangling out) spot counts as node attributes.
"""

import random
from itertools import product
from math import comb, factorial
from operator import eq

import pytest

nx = pytest.importorskip("networkx")

from laddergraphs.graphs import DiagGraph, enumerate_compositions, make_vertex  # noqa: E402

BOUND = 3


def to_networkx(g: DiagGraph):
    owner = {port: index for index, vertex in enumerate(g.vertices)
             for port in vertex.in_ports + vertex.out_ports}
    grays, whites = set(g.dangling_in), set(g.dangling_out)
    graph = nx.MultiDiGraph()
    for index, vertex in enumerate(g.vertices):
        graph.add_node(index, gray=len(grays.intersection(vertex.in_ports)),
                       white=len(whites.intersection(vertex.out_ports)))
    graph.add_edges_from((owner[out_p], owner[in_p]) for out_p, in_p in g.edges)
    return graph


def check_structure(g: DiagGraph) -> bool:
    """Acyclicity and degrees against networkx; returns whether ``g`` is acyclic."""
    graph = to_networkx(g)
    acyclic = nx.is_directed_acyclic_graph(graph)
    assert g.has_cycle() is not acyclic
    for index, vertex in enumerate(g.vertices):
        attributes = graph.nodes[index]
        assert graph.in_degree(index) == len(vertex.in_ports) - attributes["gray"]
        assert graph.out_degree(index) == len(vertex.out_ports) - attributes["white"]
    return acyclic


def closed(g: DiagGraph) -> tuple | None:
    """The fields of ``g`` with its first white spot joined to its last gray spot.

    The new line may close a path, so these fields are built unchecked and
    the validating constructor must refuse them exactly when networkx finds
    a cycle.
    """
    if not (g.dangling_in and g.dangling_out):
        return None
    white, gray = g.dangling_out[0], g.dangling_in[-1]
    return (g.vertices, tuple(sorted(g.edges + ((white, gray),))),
            tuple(p for p in g.dangling_in if p != gray),
            tuple(p for p in g.dangling_out if p != white))


def check_composition(g: DiagGraph, outcomes: set) -> None:
    assert check_structure(g)
    fields = closed(g)
    if fields is None:
        return
    unchecked = DiagGraph._trusted(*fields)
    acyclic = check_structure(unchecked)
    outcomes.add(acyclic)
    if acyclic:
        assert DiagGraph(*fields) == unchecked
    else:
        with pytest.raises(ValueError, match="closed path"):
            DiagGraph(*fields)


def test_one_vertex_compositions_against_networkx():
    outcomes: set = set()
    for r, s, k, l in product(range(BOUND + 1), repeat=4):
        rows: dict[int, list] = {}
        for g in enumerate_compositions(make_vertex(r, s), make_vertex(k, l)):
            check_composition(g, outcomes)
            rows.setdefault(len(g.edges), []).append(to_networkx(g))
        # Each row of the class table is one isomorphism class of the
        # expected size i! C(s, i) C(k, i).
        assert sorted(rows) == list(range(min(s, k) + 1))
        for i, graphs in rows.items():
            assert len(graphs) == factorial(i) * comb(s, i) * comb(k, i)
            first = graphs[0]
            assert all(nx.is_isomorphic(first, other, node_match=eq)
                       for other in graphs[1:])
    # Closing a line both kept some graphs acyclic and made some cyclic.
    assert outcomes == {True, False}


def random_multi_vertex(rng: random.Random) -> DiagGraph:
    """A graph of two or three vertices, each composed onto the last at random."""
    g = make_vertex(rng.randint(1, 3), rng.randint(1, 3))
    for _ in range(rng.randint(1, 2)):
        g = rng.choice(enumerate_compositions(g, make_vertex(rng.randint(1, 3),
                                                             rng.randint(1, 3))))
    return g


def test_multi_vertex_compositions_against_networkx():
    outcomes: set = set()
    for seed in range(8):
        rng = random.Random(seed)
        g1, g2 = random_multi_vertex(rng), random_multi_vertex(rng)
        for g in enumerate_compositions(g1, g2):
            assert len(g.vertices) == len(g1.vertices) + len(g2.vertices)
            check_composition(g, outcomes)
    assert outcomes == {True, False}
