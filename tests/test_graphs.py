import copy
import pickle
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import reduce
from itertools import product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute_force
from laddergraphs import graphs as graphs_module
from laddergraphs.graphs import (
    DiagGraph,
    GraphSum,
    Vertex,
    _bucket_order,
    _nth_matching,
    build_iteratively,
    canonical_decode,
    canonical_encode,
    compose,
    count_matchings,
    enumerate_compositions,
    enumerate_matchings,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    make_vertex,
    normal_order_via_graphs,
    project,
    project_sum,
    void_graph,
)
from laddergraphs.ladder import (
    Letter,
    NormalMonomial,
    NormalPolynomial,
    multiply_monomials,
    word_from_str,
)
from laddergraphs.oracles import random_graph
from laddergraphs.scalars import GaussianRational
from test_scalars import json_values


def projection_table(graphs) -> NormalPolynomial:
    return NormalPolynomial((project(g), 1) for g in graphs)


# -- construction and validation ----------------------------------------------

def test_make_vertex_layout():
    g = make_vertex(2, 1)
    assert g.vertices == (Vertex(in_ports=(2,), out_ports=(0, 1)),)
    assert g.edges == ()
    assert g.dangling_out == (0, 1) and g.dangling_in == (2,)
    assert project(g) == NormalMonomial(2, 1)


def test_isolated_vertex_is_not_the_void_graph():
    isolated = make_vertex(0, 0)
    assert isolated != void_graph()
    assert len(isolated.vertices) == 1 and len(void_graph().vertices) == 0
    assert project(isolated) == project(void_graph()) == NormalMonomial(0, 0)


def test_validation_rejects_bad_structures():
    with pytest.raises(ValueError):
        make_vertex(-1, 0)
    for r, s in ((10**20, 1), (0, 2**62)):  # no tuple holds them; nothing is allocated
        with pytest.raises(ValueError, match="too large to build"):
            make_vertex(r, s)
    with pytest.raises(ValueError):  # labels not contiguous
        DiagGraph(vertices=(Vertex(in_ports=(5,), out_ports=()),), dangling_in=(5,))
    with pytest.raises(ValueError):  # duplicate label inside one vertex
        DiagGraph(vertices=(Vertex(in_ports=(0, 0), out_ports=()),), dangling_in=(0, 0))
    with pytest.raises(ValueError):  # a label used twice in a vertex, once in dangling_in
        DiagGraph(vertices=(Vertex(in_ports=(0, 0), out_ports=()),), dangling_in=(0,))
    with pytest.raises(ValueError):  # dangling list out of sync with edges
        DiagGraph(
            vertices=(Vertex(in_ports=(1,), out_ports=(0,)),),
            edges=(),
            dangling_in=(),
            dangling_out=(0,),
        )
    with pytest.raises(ValueError, match="at most one edge"):  # one out-port feeding two in-ports
        DiagGraph((Vertex((), (0,)), Vertex((1, 2), ())), ((0, 1), (0, 2)), (), ())
    with pytest.raises(ValueError):  # edges must be sorted
        DiagGraph(
            vertices=(
                Vertex(in_ports=(0,), out_ports=(1, 2)),
                Vertex(in_ports=(3, 4), out_ports=()),
            ),
            edges=((2, 3), (1, 4)),
            dangling_in=(0,),
            dangling_out=(),
        )


def test_validation_rejects_cycles():
    # two vertices feeding each other
    with pytest.raises(ValueError):
        DiagGraph(
            vertices=(
                Vertex(in_ports=(1,), out_ports=(0,)),
                Vertex(in_ports=(3,), out_ports=(2,)),
            ),
            edges=((0, 3), (2, 1)),
            dangling_in=(),
            dangling_out=(),
        )


def test_has_cycle_accepts_chains():
    g = build_iteratively([(1, 1, 0), (1, 1, 1), (1, 1, 1)])
    assert not g.has_cycle()


@pytest.mark.parametrize("label", [1.0, True])
def test_validation_rejects_non_integer_labels(label):
    with pytest.raises(ValueError, match="port label must be an integer"):
        DiagGraph(vertices=(Vertex((label,), (0,)),), dangling_in=(label,), dangling_out=(0,))
    two = (Vertex((1,), (0,)), Vertex((3,), (2,)))
    with pytest.raises(ValueError, match="port label must be an integer"):  # only in an edge
        DiagGraph(vertices=two, edges=((2, label),), dangling_in=(3,), dangling_out=(0,))
    with pytest.raises(ValueError, match="port label must be an integer"):  # only dangling
        DiagGraph(vertices=(Vertex((1,), (0,)),), dangling_in=(label,), dangling_out=(0,))
    ok = DiagGraph(vertices=two, edges=((2, 1),), dangling_in=(3,), dangling_out=(0,))
    assert canonical_encode(ok) == b"V:0/1;2/3|E:2>1|I:3|O:0"


WRONGLY_TYPED_FIELDS = [
    {"edges": (5,)},
    {"dangling_in": None},
    {"vertices": (5,)},
    {"vertices": [Vertex((), (0,))], "dangling_out": (0,)},
    {"vertices": (Vertex(5, ()),)},
    {"vertices": (Vertex([0], ()),), "dangling_in": (0,)},
    {"vertices": (Vertex((1,), (0,)),), "edges": ((0, 1, 2),)},
    {"vertices": (Vertex((1,), (0,)),), "edges": ([0, 1],)},
    {"vertices": (Vertex((1,), (0,)),), "dangling_in": [1], "dangling_out": (0,)},
]


@pytest.mark.parametrize("fields", WRONGLY_TYPED_FIELDS)
def test_constructor_refuses_wrongly_typed_fields(fields):
    with pytest.raises(ValueError):
        DiagGraph(**fields)


def test_constructor_refuses_wrongly_typed_fields_in_optimized_mode():
    code = (
        "from laddergraphs.graphs import DiagGraph\n"
        "for fields in ({'edges': (5,)}, {'dangling_in': None}, {'vertices': (5,)}):\n"
        "    try:\n"
        "        DiagGraph(**fields)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "refused\n" * 3


def test_constructor_refuses_non_integer_labels_in_optimized_mode():
    code = (
        "from laddergraphs.graphs import DiagGraph, Vertex\n"
        "for label in (1.0, True):\n"
        "    try:\n"
        "        DiagGraph(vertices=(Vertex((label,), (0,)),), dangling_in=(label,),\n"
        "                  dangling_out=(0,))\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "refused\n" * 2


# -- trusted construction ---------------------------------------------------------

@pytest.fixture
def validations(monkeypatch):
    """Counts calls of ``DiagGraph._validate``; the checks still run."""
    calls = []
    original = DiagGraph._validate

    def counting(self):
        calls.append(self)
        original(self)

    monkeypatch.setattr(DiagGraph, "_validate", counting)
    return calls


def test_package_constructions_are_not_validated(validations):
    comps = enumerate_compositions(make_vertex(3, 3), make_vertex(3, 3))
    assert len(comps) == count_matchings(3, 3)
    left = GraphSum.basis(build_iteratively([(2, 1, 0), (2, 2, 2)]))
    right = GraphSum.basis(build_iteratively([(1, 2, 0), (2, 1, 1)]))
    assert len(left * right) > 0
    assert normal_order_via_graphs(word_from_str("a ad a ad")) == NormalPolynomial(
        brute_force.normal_order_string("aAaA"))
    assert compose(make_vertex(1, 1), make_vertex(1, 1), ((1, 0),))
    assert validations == []


def test_external_input_is_validated(validations):
    g = build_iteratively([(2, 1, 0), (2, 2, 2)])
    assert validations == []
    assert DiagGraph(g.vertices, g.edges, g.dangling_in, g.dangling_out) == g
    assert canonical_decode(canonical_encode(g)) == g
    assert graph_from_json(graph_to_json(g)) == g
    assert len(validations) == 3


@st.composite
def chains(draw, max_vertices=3, max_lines=2):
    """Steps for ``build_iteratively``: every matching index is in range."""
    steps, gray = [], 0
    for _ in range(draw(st.integers(0, max_vertices))):
        r, s = draw(st.integers(0, max_lines)), draw(st.integers(0, max_lines))
        steps.append((r, s, draw(st.integers(0, count_matchings(gray, r) - 1))))
        gray = len(build_iteratively(steps).dangling_in)
    return steps


@given(chains(), chains())
@settings(deadline=None, max_examples=60)
def test_compositions_equal_their_validated_rebuild(steps1, steps2):
    g1, g2 = build_iteratively(steps1), build_iteratively(steps2)
    comps = enumerate_compositions(g1, g2)
    assert len(comps) == count_matchings(len(g1.dangling_in), len(g2.dangling_out))
    for g in comps:
        rebuilt = DiagGraph(vertices=g.vertices, edges=g.edges,
                            dangling_in=g.dangling_in, dangling_out=g.dangling_out)
        assert rebuilt == g and hash(rebuilt) == hash(g)
        blob = canonical_encode(g)
        decoded = canonical_decode(blob)
        assert decoded == g and hash(decoded) == hash(g)
        assert canonical_encode(decoded) == blob


def composition_shift(g: DiagGraph) -> int:
    """The label that composition gives the first port of its second operand."""
    (composed,) = enumerate_compositions(g, make_vertex(0, 1))
    return composed.vertices[-1].in_ports[0]


def assert_shift_is_the_port_count(g: DiagGraph) -> None:
    # Every port of a valid graph dangles or ends exactly one edge.
    formula = len(g.dangling_in) + len(g.dangling_out) + 2 * len(g.edges)
    assert formula == g.port_count == composition_shift(g), str(g)


def test_shift_is_the_port_count_of_random_graphs():
    rng = random.Random(29)
    assert_shift_is_the_port_count(void_graph())
    for _ in range(200):
        g = random_graph(rng, max_vertices=5)
        assert_shift_is_the_port_count(g)
        assert_shift_is_the_port_count(canonical_decode(canonical_encode(g)))


@given(chains(max_vertices=5, max_lines=3))
@settings(deadline=None, max_examples=60)
def test_shift_is_the_port_count_of_chains(steps):
    g = build_iteratively(steps)
    assert_shift_is_the_port_count(g)
    assert_shift_is_the_port_count(canonical_decode(canonical_encode(g)))


# -- matchings ------------------------------------------------------------------

def test_matchings_against_recursive_reference():
    grays, whites = (5, 7, 9), (0, 1)
    ours = list(enumerate_matchings(grays, whites))
    assert len(ours) == len(set(ours)) == count_matchings(3, 2)
    assert {frozenset(m) for m in ours} == brute_force.all_partial_matchings(grays, whites)


def test_matching_counts_against_recurrence():
    for n in range(6):
        for m in range(6):
            assert count_matchings(n, m) == brute_force.count_partial_matchings(n, m)
    assert count_matchings(2, 2) == 7
    assert count_matchings(3, 3) == 34
    assert count_matchings(4, 4) == 209


def test_a_negative_count_is_refused():
    # Every pair of spot sets has at least the empty matching, so no count is 0.
    for n_gray, n_white in ((-1, 2), (3, -2), (-1, 2.0)):
        with pytest.raises(ValueError, match="nonnegative"):
            count_matchings(n_gray, n_white)


def test_matching_order_is_canonical():
    ms = list(enumerate_matchings((0, 1), (2, 3)))
    assert ms[0] == ()
    sizes = [len(m) for m in ms]
    assert sizes == sorted(sizes)
    # within one size, lexicographic on the pair tuples
    one = [m for m in ms if len(m) == 1]
    assert one == sorted(one)


# -- composition ------------------------------------------------------------------

def test_seven_compositions_example():
    comps = enumerate_compositions(make_vertex(2, 2), make_vertex(2, 1))
    assert len(comps) == 7
    by_size = {}
    for g in comps:
        by_size[len(g.edges)] = by_size.get(len(g.edges), 0) + 1
    assert by_size == {0: 1, 1: 4, 2: 2}
    assert projection_table(comps) == multiply_monomials((2, 2), (2, 1))


def test_compositions_are_distinct_and_project_correctly():
    for r in range(4):
        for s in range(4):
            left = make_vertex(r, s)
            for k in range(4):
                for l in range(4):
                    comps = enumerate_compositions(left, make_vertex(k, l))
                    assert len(comps) == count_matchings(s, k)
                    assert len(set(comps)) == len(comps)
                    assert projection_table(comps) == multiply_monomials((r, s), (k, l))


def test_compose_rejects_invalid_matchings():
    g1, g2 = make_vertex(1, 1), make_vertex(1, 1)
    with pytest.raises(ValueError):
        compose(g1, g2, ((0, 0),))  # 0 is an out-port of g1, not a gray spot
    with pytest.raises(ValueError):
        compose(g1, g2, ((1, 1),))  # 1 is an in-port of g2, not a white spot
    with pytest.raises(ValueError, match="1 is not an unmatched gray spot"):
        compose(g1, make_vertex(2, 1), ((1, 0), (1, 1)))  # gray 1 twice
    with pytest.raises(ValueError, match="0 is not an unmatched white spot"):
        compose(make_vertex(1, 2), g2, ((1, 0), (2, 0)))  # white 0 twice
    ok = compose(g1, g2, ((1, 0),))
    assert ok.edges == ((2, 1),)
    assert compose(g1, g2, iter([(1, 0)])) == ok  # read once, as checked


# ``True == 1`` and ``1.0 == 1``, so these labels pass the spot checks and
# would end up in an edge no decoder accepts.
NON_INTEGER_MATCHINGS = [((True, 0),), ((1.0, 0),), ((1, False),), ((1, 0.0),)]


@pytest.mark.parametrize("matching", NON_INTEGER_MATCHINGS)
def test_compose_refuses_non_integer_labels(matching):
    with pytest.raises(ValueError, match="port label must be an integer"):
        compose(make_vertex(0, 2), make_vertex(1, 0), matching)


def test_compose_refuses_non_integer_labels_in_optimized_mode():
    code = (
        "from laddergraphs.graphs import compose, make_vertex\n"
        f"for matching in {NON_INTEGER_MATCHINGS!r}:\n"
        "    try:\n"
        "        compose(make_vertex(0, 2), make_vertex(1, 0), matching)\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "refused\n" * len(NON_INTEGER_MATCHINGS)


def fields(g: DiagGraph) -> tuple:
    vertices = tuple((v.in_ports, v.out_ports) for v in g.vertices)
    return vertices, g.edges, g.dangling_in, g.dangling_out


# Three in-ports listed out of label order, which composition must keep.
UNSORTED_GRAYS = DiagGraph(vertices=(Vertex((0, 1, 2), ()),), dangling_in=(2, 0, 1))
# An internal edge 2>1 whose out-port lies between the white spots 0 and 3.
INNER_EDGE = build_iteratively([(1, 1, 0), (2, 1, 1)])


@given(chains().map(build_iteratively), chains().map(build_iteratively))
@example(make_vertex(2, 2), INNER_EDGE)
@example(UNSORTED_GRAYS, make_vertex(2, 0))
@example(void_graph(), void_graph())
@example(void_graph(), make_vertex(1, 1))
@example(make_vertex(1, 1), void_graph())
@settings(deadline=None, max_examples=60)
def test_enumeration_is_compose_over_every_matching(g1, g2):
    matchings = list(enumerate_matchings(g1.dangling_in, g2.dangling_out))
    comps = enumerate_compositions(g1, g2)
    assert len(comps) == len(matchings)
    for ours, matching in zip(comps, matchings):
        theirs = compose(g1, g2, matching)
        assert ours == theirs
        assert canonical_encode(ours) == canonical_encode(theirs)
        # compose and enumeration share their assembly; check it from the definition
        assert fields(ours) == brute_force.compose_fields(fields(g1), fields(g2), matching)


def order_operands(n_gray: int, n_white: int) -> tuple[DiagGraph, DiagGraph]:
    """``g1`` with ``n_gray`` odd-labelled grays listed in reverse, and ``g2`` with
    ``n_white`` whites, also in reverse, around an inner edge from its middle out-port."""
    odd, even = tuple(range(1, 2 * n_gray, 2)), tuple(range(0, 2 * n_gray, 2))
    g1 = DiagGraph((Vertex(odd, even),), (), odd[::-1], even)
    inner = n_white // 2
    g2 = DiagGraph((Vertex((), tuple(range(n_white + 1))), Vertex((n_white + 1,), ())),
                   ((inner, n_white + 1),), (),
                   tuple(p for p in reversed(range(n_white + 1)) if p != inner))
    return g1, g2


SHAPES_UP_TO_FIVE = [(n_gray, n_white) for n_gray in range(6) for n_white in range(6)]


@pytest.mark.parametrize("transposed_first", [False, True])
def test_enumeration_order_on_every_shape_up_to_five(transposed_first):
    for n_gray, n_white in SHAPES_UP_TO_FIVE:
        if transposed_first:
            _bucket_order.cache_clear()
            enumerate_compositions(*order_operands(n_white, n_gray))
        g1, g2 = order_operands(n_gray, n_white)
        matchings = enumerate_matchings(g1.dangling_in, g2.dangling_out)
        assert enumerate_compositions(g1, g2) == [compose(g1, g2, m) for m in matchings]


def test_buckets_of_at_most_one_edge_need_no_reorder():
    # What lets _composition_buckets skip the reorder for them.
    for n_gray, n_white in SHAPES_UP_TO_FIVE:
        for size in range(min(n_gray, n_white, 1) + 1):
            order = list(_bucket_order(n_gray, n_white, size))
            assert order == list(range(n_gray * n_white if size else 1))


def test_nth_matching_unranks_every_index():
    for n_gray, n_white in SHAPES_UP_TO_FIVE:
        grays, whites = range(2 * n_gray, 0, -2), range(1, 3 * n_white, 3)
        matchings = list(enumerate_matchings(grays, whites))
        assert [_nth_matching(grays, whites, i) for i in range(len(matchings))] == matchings
        for index in (-1, len(matchings)):
            with pytest.raises(ValueError):
                _nth_matching(grays, whites, index)
    # the last of 53 334 454 417, which no enumeration reaches
    last = _nth_matching(range(12), range(12), count_matchings(12, 12) - 1)
    assert last == tuple(zip(range(12), reversed(range(12))))


def test_composition_edges_point_from_second_into_first():
    comps = enumerate_compositions(make_vertex(0, 2), make_vertex(2, 0))
    for g in comps:
        for out_port, in_port in g.edges:
            assert out_port >= 2 and in_port < 2  # shifted second graph feeds the first


def test_void_graph_is_the_unit():
    g = build_iteratively([(2, 1, 0), (1, 2, 1)])
    assert enumerate_compositions(void_graph(), g) == [g]
    assert enumerate_compositions(g, void_graph()) == [g]
    s = GraphSum.basis(g)
    assert GraphSum.one() * s == s
    assert s * GraphSum.one() == s


def test_graph_products_are_associative():
    triples = [
        ((1, 1), (1, 1), (1, 1)),
        ((2, 1), (1, 2), (1, 1)),
        ((0, 2), (2, 2), (2, 0)),
        ((2, 0), (1, 1), (0, 2)),
    ]
    for spec1, spec2, spec3 in triples:
        s1 = GraphSum.basis(make_vertex(*spec1))
        s2 = GraphSum.basis(make_vertex(*spec2))
        s3 = GraphSum.basis(make_vertex(*spec3))
        assert (s1 * s2) * s3 == s1 * (s2 * s3), (spec1, spec2, spec3)


def test_projection_is_a_homomorphism_on_random_graphs():
    rng = random.Random(7)
    for _ in range(60):
        g1 = random_graph(rng)
        g2 = random_graph(rng)
        lhs = project_sum(GraphSum.basis(g1) * GraphSum.basis(g2))
        rhs = multiply_monomials(project(g1), project(g2))
        assert lhs == rhs, (str(g1), str(g2))


def test_normal_order_via_graphs_matches_known_value():
    p = normal_order_via_graphs(word_from_str("a ad"))
    assert p == NormalPolynomial({(1, 1): 1, (0, 0): 1})


WORDS_UP_TO_8 = [word for n in range(9) for word in product(Letter, repeat=n)]


def graph_sum_route(word) -> NormalPolynomial:
    """The graph route as a product of graph sums, every prefix kept whole."""
    vertices = (make_vertex(x.monomial.r, x.monomial.s) for x in word)
    return project_sum(reduce(mul, map(GraphSum.basis, vertices), GraphSum.one()))


def test_walk_equals_the_product_of_graph_sums():
    assert len(WORDS_UP_TO_8) == 511
    for word in WORDS_UP_TO_8:
        assert normal_order_via_graphs(word) == graph_sum_route(word), word
    assert normal_order_via_graphs(()) == NormalPolynomial.one() == graph_sum_route(())


def test_walk_counts_a_last_letter_that_meets_many_grays():
    # a^k ad: the last letter joins any one of k grays, the one step the walk
    # counts without building; the product of graph sums builds each leaf.
    for k in range(13):
        word = word_from_str("a " * k + "ad")
        assert normal_order_via_graphs(word) == graph_sum_route(word), k


def test_walk_goes_deeper_than_the_recursion_limit():
    word = word_from_str("ad " * 599 + "a ad " + "a " * 599)
    assert len(word) > sys.getrecursionlimit()
    assert normal_order_via_graphs(word) == NormalPolynomial({(600, 600): 1, (599, 599): 1})


def opcodes(function, *args) -> tuple[int, Counter]:
    """The Python opcodes that ``function(*args)`` runs, and its calls by function name.

    Both are counted by a trace function.  A method's name is prefixed with
    the class of its ``self``, whether it defines the method or inherits it.
    """
    count = 0
    calls = Counter()

    def trace(frame, event, arg):
        nonlocal count
        if event == "call":
            code = frame.f_code
            name = code.co_name
            if code.co_argcount and code.co_varnames[0] == "self":
                name = f"{type(frame.f_locals['self']).__name__}.{name}"
            calls[name] += 1
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        function(*args)
    finally:
        sys.settrace(previous)
    return count, calls


def test_walk_is_linear_in_the_word_length():
    # ad^k a ad a^k.  No step may do interpreter work that grows with the
    # prefix, such as a port count summed over its vertices or a scan of its
    # grays for the empty matching.
    def word(k):
        return word_from_str("ad " * k + "a ad " + "a " * k)

    normal_order_via_graphs(word(2))  # fills the per-shape caches
    work = [opcodes(normal_order_via_graphs, word(k))[0] for k in (200, 400)]
    assert work[1] <= 2.1 * work[0]


def test_walk_is_linear_in_a_run_of_grays():
    # a^k ad.  The walk counts the last ad instead of building it, so this
    # gates the prefix walk of a^k, one composition per letter; the test below
    # gates the k gray combinations of a built ad.
    def word(k):
        return word_from_str("a " * k + "ad")

    normal_order_via_graphs(word(2))  # fills the per-shape caches
    work = [opcodes(normal_order_via_graphs, word(k))[0] for k in (200, 400)]
    assert work[1] <= 2.1 * work[0]


def test_walk_is_linear_in_a_run_of_grays_it_builds():
    # a^k ad a.  The walk counts its last letter without building it, so here
    # the k gray combinations of ad are built, and must stay linear as above.
    def word(k):
        return word_from_str("a " * k + "ad a")

    normal_order_via_graphs(word(2))  # fills the per-shape caches
    work = [opcodes(normal_order_via_graphs, word(k))[0] for k in (200, 400)]
    assert work[1] <= 2.1 * work[0]


def test_graph_sum_product_work_does_not_grow_with_the_vertex_count():
    # 34 compositions for every k, of k + 2 vertices each.  Hashing one must
    # not hash its vertices again: the vertex tuple of a pair hashes them once.
    def work(k):
        left = GraphSum.basis(build_iteratively([(3, 3, 0)] + [(1, 1, 1)] * k))
        right = GraphSum.basis(make_vertex(3, 3))
        assert len(left * right) == 34
        return opcodes(mul, left, right)[0]

    work(1)  # fills the per-shape caches
    assert work(100) <= 1.25 * work(50)


def test_a_pair_product_hashes_each_composition_once():
    # A term pair's 34 compositions are distinct, so they fill the product
    # directly; the two other hashes are the operands' as basis sums.
    g1, g2 = build_iteratively([(3, 3, 0), (1, 1, 1), (1, 1, 1)]), make_vertex(3, 3)

    def pair_product():
        return GraphSum.basis(g1) * GraphSum.basis(g2)

    assert len(pair_product()) == 34
    calls = opcodes(pair_product)[1]
    assert calls["DiagGraph.__hash__"] == 36
    assert calls["accumulate"] == 0


def test_walk_builds_no_letter_vertex():
    calls = opcodes(normal_order_via_graphs, word_from_str("ad a a ad a ad ad a ad ad"))[1]
    assert calls["make_vertex"] == 0


def test_walk_keeps_no_prefix_sum():
    # The product of graph sums peaks at about 2 MB here: it holds all 877
    # graphs of (a ad)^6 while it builds the 4140 of (a ad)^7.
    word = word_from_str("a ad " * 7)
    normal_order_via_graphs(word)  # fills the per-shape caches
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        normal_order_via_graphs(word)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2**20


def test_walk_builds_every_prefix_and_counts_the_last_letter(monkeypatch):
    # Exact work, not wall clock: the compositions the walk builds, summed
    # over the buckets it asks for.  (a ad)^7 has 6 449 compositions in all;
    # the 4 140 with its last letter are counted, not built.
    built = 0
    true_buckets = graphs_module._composition_buckets

    def counting(g1, g2):
        nonlocal built
        for bucket in true_buckets(g1, g2):
            built += len(bucket)
            yield bucket

    monkeypatch.setattr(graphs_module, "_composition_buckets", counting)

    def compositions_built(spelled: str) -> int:
        nonlocal built
        built = 0
        normal_order_via_graphs(word_from_str(spelled))
        return built

    assert compositions_built("a ad " * 7) == 6449 - 4140 == 2309
    assert compositions_built("a " * 200 + "ad") == 200
    assert compositions_built("ad") == 1  # a one-letter word builds its graph


def test_leaf_counts_of_a_ad_powers():
    # The Bell numbers B(n + 1).
    assert [brute_force.count_leaf_graphs([(0, 1), (1, 0)] * n) for n in range(5, 9)] == [
        203, 877, 4140, 21147]


def test_leaf_count_is_the_coefficient_sum_of_the_walk():
    for word in WORDS_UP_TO_8:
        total = sum(c for _, c in normal_order_via_graphs(word).terms())
        assert total == brute_force.count_leaf_graphs([(x.monomial.r, x.monomial.s) for x in word])


def project_per_term(x: GraphSum) -> NormalPolynomial:
    return NormalPolynomial((project(g), c) for g, c in x.terms())


# Two graphs of each projection, (1, 2) and (2, 1).
PROJECTED_PAIRS = [make_vertex(1, 2), build_iteratively([(1, 1, 0), (0, 1, 0)]),
                   make_vertex(2, 1), build_iteratively([(1, 0, 0), (1, 1, 0)])]


@pytest.mark.parametrize("coeffs", [
    [GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(Fraction(-2, 3), 5),
     GaussianRational(Fraction(3, 4)), GaussianRational(Fraction(1, 5), Fraction(-1, 7))],
    [GaussianRational(Fraction(1, 2), 1), GaussianRational(Fraction(-1, 2), -1), 2, -2],
    [GaussianRational(Fraction(1, 2), 1), Fraction(-1, 2), GaussianRational(0, 3), 7],
    [Fraction(2, 3), Fraction(1, 3), GaussianRational(0, Fraction(1, 6)), GaussianRational(0, Fraction(5, 6))],
], ids=["gaussian", "all cancel", "real parts cancel", "sums are integers"])
def test_project_sum_is_the_per_term_projection(coeffs):
    x = GraphSum(zip(PROJECTED_PAIRS, coeffs))
    assert project(PROJECTED_PAIRS[0]) == project(PROJECTED_PAIRS[1])
    assert project(PROJECTED_PAIRS[2]) == project(PROJECTED_PAIRS[3])
    assert project_sum(x) == project_per_term(x)


def test_project_sum_of_random_sums():
    rng = random.Random(25)
    for _ in range(40):
        x = GraphSum((random_graph(rng), GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                                         Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
                     for _ in range(rng.randint(0, 6)))
        assert project_sum(x) == project_per_term(x)
    assert project_sum(GraphSum.zero()) == NormalPolynomial.zero()


def test_graph_sum_linearity():
    a = GraphSum.basis(make_vertex(1, 0))
    b = GraphSum.basis(make_vertex(0, 1))
    assert a + b == b + a
    assert (a + b) - b == a
    assert a.scale(3).coefficient(make_vertex(1, 0)) == 3
    assert a.scale(0).is_zero()
    combined = (a + b) * (a + b)
    assert combined == a * a + a * b + b * a + b * b


def test_graph_sum_product_with_exact_complex_coefficients():
    specs = [(1, 2), (2, 1), (0, 1), (2, 2)]
    # The second set's denominators 5, 7, 97, 11 and 13 are pairwise coprime.
    for c in ([GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(Fraction(-2, 3), 5),
               GaussianRational(0, Fraction(-2, 5)), GaussianRational(Fraction(3, 4))],
              [GaussianRational(Fraction(1, 5), Fraction(-1, 7)), GaussianRational(Fraction(1, 97)),
               GaussianRational(0, Fraction(3, 11)), GaussianRational(Fraction(-4, 13), 2)]):
        left = GraphSum([(make_vertex(*specs[0]), c[0]), (make_vertex(*specs[1]), c[1])])
        right = GraphSum([(make_vertex(*specs[2]), c[2]), (make_vertex(*specs[3]), c[3])])
        expected = NormalPolynomial.zero()
        for i in (0, 1):
            for j in (2, 3):
                expected += multiply_monomials(specs[i], specs[j]).scale(c[i] * c[j])
        product = left * right
        assert project_sum(product) == expected
        assert len(product) == sum(count_matchings(s1, r2) for _, s1 in specs[:2] for r2, _ in specs[2:])
        for coeff in product._terms.values():
            for part in (coeff._re, coeff._im):
                assert type(part) is int or part.denominator != 1


# -- the product of graph sums --------------------------------------------------------

X = make_vertex(1, 1)


def pairwise_product(x: GraphSum, y: GraphSum) -> dict:
    """The product's terms as a sum over pairs of terms, each composition at ``c1 * c2``."""
    terms: dict = {}
    for g1, c1 in x.terms():
        for g2, c2 in y.terms():
            for g in enumerate_compositions(g1, g2):
                terms[g] = terms.get(g, 0) + c1 * c2
    return {g: c for g, c in terms.items() if c}


def test_compositions_of_different_pairs_add_up():
    # The void graph composed with X gives X either way round.
    one, x = GraphSum.one(), GraphSum.basis(X)
    product = (one + x) * (x + one)
    assert product.coefficient(X) == 2 and product.coefficient(void_graph()) == 1
    assert len(product) == 2 + count_matchings(1, 1)
    product = (one + x) * (x - one)
    assert X not in product._terms and product.coefficient(X) == 0
    assert product.coefficient(void_graph()) == -1 and len(product) == 1 + count_matchings(1, 1)
    assert product == x * x - one


def test_graph_sum_product_is_the_sum_over_pairs():
    rng = random.Random(28)
    pool = [void_graph(), X, make_vertex(0, 1), make_vertex(1, 0), make_vertex(2, 1)]

    def random_sum():
        graphs = rng.sample(pool, rng.randint(1, 3)) + [random_graph(rng, max_vertices=2)]
        return GraphSum((g, GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
                                             Fraction(rng.randint(-3, 3), rng.randint(1, 4))))
                        for g in graphs)

    for _ in range(40):
        x, y = random_sum(), random_sum()
        product = x * y
        assert product._terms == pairwise_product(x, y)
        for coeff in product._terms.values():
            assert coeff and all(type(part) is int or part.denominator != 1
                                 for part in (coeff._re, coeff._im))


def built_graphs() -> list[DiagGraph]:
    """Graphs from each way the package composes: ``compose``, enumeration, a fold, a product."""
    g1, g2 = build_iteratively([(1, 2, 0), (2, 1, 1)]), make_vertex(2, 2)
    product = GraphSum([(g1, 2), (X, 1)]) * GraphSum([(g2, 3), (void_graph(), 1)])
    return [compose(g1, g2, ((g1.dangling_in[-1], g2.dangling_out[0]),)),
            build_iteratively([(2, 1, 0), (1, 2, 1), (1, 1, 2)]),
            *enumerate_compositions(g2, g1), *product._terms]


def fields_of(g: DiagGraph) -> tuple:
    return tuple(g.vertices), g.edges, g.dangling_in, g.dangling_out


def test_compositions_hash_like_their_field_tuple():
    graphs = built_graphs()
    for g in reversed(graphs):  # the last composition of a pair hashed first
        assert hash(g) == hash(fields_of(g)) == hash(g)
        assert hash(g) == hash(DiagGraph(*fields_of(g)))


def test_compositions_serialize_like_graphs_built_from_their_fields():
    for g in built_graphs():
        fresh = DiagGraph(*fields_of(g))
        hash(g)
        assert repr(g) == repr(fresh)
        assert graph_to_json(g) == graph_to_json(fresh)
        assert canonical_encode(g) == canonical_encode(fresh)
        assert pickle.dumps(g) == pickle.dumps(fresh)
        assert pickle.loads(pickle.dumps(g)) == g
        clone = copy.deepcopy(g)
        assert clone == g and hash(clone) == hash(g)


def test_graph_sum_cancellation_prunes():
    a = GraphSum.basis(make_vertex(1, 0), 3)
    assert len(a + (-a)) == 0 and len(a - a) == 0 and len(a.scale(0)) == 0
    assert len(GraphSum.basis(make_vertex(1, 0), Fraction(0))) == 0
    assert type(a._terms[make_vertex(1, 0)]) is GaussianRational
    assert repr(a - a) == "GraphSum(0)"
    assert a.coefficient(make_vertex(0, 1)) == 0
    assert NormalPolynomial.one().coefficient((2, 3)) == 0
    with pytest.raises(TypeError):
        hash(a)


def test_sums_over_different_bases_do_not_mix():
    poly, graphs = NormalPolynomial.one(), GraphSum.one()
    for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
        with pytest.raises(TypeError):
            combine(poly, graphs)
        with pytest.raises(TypeError):
            combine(graphs, poly)
    assert poly != graphs and not (poly == graphs)
    assert NormalPolynomial.zero() != GraphSum.zero()


# -- iterative construction -------------------------------------------------------

def test_build_iteratively_golden():
    g = build_iteratively([(2, 1, 0), (2, 2, 2)])
    assert canonical_encode(g) == b"V:0,1/2;3,4/5,6|E:4>2|I:5,6|O:0,1,3"
    assert project(g) == NormalMonomial(3, 2)


def test_build_iteratively_empty_is_void():
    assert build_iteratively([]) == void_graph()


def test_build_iteratively_rejects_bad_index():
    with pytest.raises(ValueError, match=r"step 1: matching index 3 out of range 0\.\.2"):
        build_iteratively([(2, 1, 0), (2, 2, 3)])


def test_acyclic_under_random_chains():
    rng = random.Random(11)
    for _ in range(200):
        g = random_graph(rng, max_vertices=5)
        assert not g.has_cycle()
        assert brute_force.is_acyclic(*brute_force.vertex_level_edges(g))


# -- serialization -----------------------------------------------------------------

def test_canonical_encoding_round_trip():
    rng = random.Random(3)
    seen = set()
    for _ in range(50):
        g = random_graph(rng)
        blob = canonical_encode(g)
        assert canonical_decode(blob) == g
        seen.add(blob)
    assert canonical_encode(void_graph()) == b"V:|E:|I:|O:"
    assert canonical_decode(b"V:|E:|I:|O:") == void_graph()


def test_canonical_encoding_is_injective_on_compositions():
    comps = enumerate_compositions(make_vertex(2, 2), make_vertex(2, 2))
    blobs = {canonical_encode(g) for g in comps}
    assert len(blobs) == len(comps)


def test_decode_rejects_malformed_input():
    with pytest.raises(ValueError):
        canonical_decode(b"not a graph")
    with pytest.raises(ValueError):
        canonical_decode(b"V:0,0/|E:|I:|O:0,0")  # duplicate labels


@given(st.binary(max_size=40) | st.text("VEIO:|/;,>0123- ", max_size=30).map(str.encode))
@example(b"V:0/1|E:0>1|I:|O:")
def test_decode_raises_only_value_error(data):
    try:
        assert isinstance(canonical_decode(data), DiagGraph)
    except ValueError:
        pass


@pytest.mark.parametrize("data", [
    b"V:+0/ 1|E:|I:1|O:0",  # sign and space
    b"V:00/1|E:|I:1|O:00",  # leading zeros
    b"V:0/1|E:|I:01|O:0",
    b"V:0|E:|I:|O:0",  # vertex without '/'
    b"V:0/1;1/0|E:0,1|I:|O:",  # edge without '>'
    b"V|E|I|O",  # fields without ':'
    b"V:0/1|E:|I:1|O:\xd9\xa0",  # non-ASCII
    "V:0/1|E:|I:1|O:\u0660".encode(),  # Arabic-Indic zero
])
def test_decode_refuses_non_canonical_encodings(data):
    with pytest.raises(ValueError):
        canonical_decode(data)


labels_text = st.sampled_from(["0", "1", "2", "3", "00", "01", "+1", " 2", "-0", "1_0", ""])
label_lists = st.lists(labels_text, max_size=3).map(",".join)
vertex_text = st.tuples(label_lists, st.sampled_from(["/", "/", "", "//"]), label_lists).map("".join)
edge_text = st.tuples(labels_text, st.sampled_from([">", ">", ""]), labels_text).map("".join)
encodings = st.tuples(
    st.lists(vertex_text, max_size=3).map(";".join),
    st.lists(edge_text, max_size=2).map(",".join),
    label_lists,
    label_lists,
).map(lambda parts: "V:{}|E:{}|I:{}|O:{}".format(*parts).encode("ascii"))


@given(encodings | st.text("VEIO:|/;,>0123+- ", max_size=30).map(str.encode))
@settings(max_examples=400)
@example(b"V:+0/ 1|E:|I:1|O:0")
@example(b"V:0/1|E:|I:1|O:0")
@example(b"V:/;0,1/2|E:1>2|I:|O:0")
def test_decode_accepts_only_the_canonical_encoding(data):
    try:
        g = canonical_decode(data)
    except ValueError:
        return
    assert canonical_encode(g) == data


def test_decode_rejects_cycles_in_optimized_mode():
    code = (
        "from laddergraphs.graphs import canonical_decode\n"
        "try:\n"
        "    canonical_decode(b'V:0/1|E:0>1|I:|O:')\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "graph contains a closed path\n"


labels = st.lists(st.integers(-1, 3), max_size=3) | json_values
vertex_records = st.fixed_dictionaries({}, optional={"in": labels, "out": labels}) | json_values
graph_records = st.fixed_dictionaries({}, optional={
    "vertices": st.lists(vertex_records, max_size=3) | json_values,
    "edges": st.lists(labels, max_size=3) | json_values,
    "dangling_in": labels,
    "dangling_out": labels,
}) | json_values


FLOAT_LABEL_RECORD = {"vertices": [{"in": [1.0], "out": [0]}], "edges": [],
                      "dangling_in": [1.0], "dangling_out": [0]}


@given(graph_records)
@example({})
@example({"vertices": 5, "edges": [], "dangling_in": [], "dangling_out": []})
@example(FLOAT_LABEL_RECORD)
def test_graph_from_json_raises_only_value_error(obj):
    try:
        assert isinstance(graph_from_json(obj), DiagGraph)
    except ValueError:
        pass


mixed_labels = st.lists(st.sampled_from([0, 1, 2, 3, 0.0, 1.0, 2.0, True, False]), max_size=3)
mixed_graph_records = st.fixed_dictionaries({
    "vertices": st.lists(st.fixed_dictionaries({"in": mixed_labels, "out": mixed_labels}), max_size=2),
    "edges": st.lists(mixed_labels, max_size=2),
    "dangling_in": mixed_labels,
    "dangling_out": mixed_labels,
})


@given(mixed_graph_records)
@settings(max_examples=400)
@example(FLOAT_LABEL_RECORD)
@example({"vertices": [{"in": [True], "out": [0]}], "edges": [],
          "dangling_in": [True], "dangling_out": [0]})
@example({"vertices": [{"in": [1], "out": [0]}], "edges": [], "dangling_in": [1], "dangling_out": [0]})
def test_accepted_json_graphs_round_trip_through_canonical_encoding(obj):
    try:
        g = graph_from_json(obj)
    except ValueError:
        return
    assert canonical_decode(canonical_encode(g)) == g
    assert graph_to_json(g) == obj


@pytest.mark.parametrize("label", [1.0, True, "1", None])
def test_graph_from_json_refuses_non_integer_labels(label):
    record = {"vertices": [{"in": [label], "out": [0]}], "edges": [],
              "dangling_in": [label], "dangling_out": [0]}
    with pytest.raises(ValueError):
        graph_from_json(record)
    edge_record = {"vertices": [{"in": [1], "out": [0]}, {"in": [3], "out": [2]}],
                   "edges": [[2, label]], "dangling_in": [3], "dangling_out": [0]}
    with pytest.raises(ValueError):
        graph_from_json(edge_record)
    assert isinstance(graph_from_json({**edge_record, "edges": [[2, 1]]}), DiagGraph)


def test_graph_from_json_refuses_labels_that_are_not_a_list():
    record = {"vertices": [{"in": [1], "out": [0]}], "edges": [], "dangling_in": 1, "dangling_out": [0]}
    with pytest.raises(ValueError, match=r"^expected a list of port labels, got 1$"):
        graph_from_json(record)


def test_decoders_refuse_found_inputs_in_optimized_mode():
    code = (
        "from laddergraphs.graphs import canonical_decode, graph_from_json\n"
        "from laddergraphs.ladder import NormalPolynomial\n"
        "calls = [\n"
        "    lambda: canonical_decode(b'V:+0/ 1|E:|I:1|O:0'),\n"
        "    lambda: graph_from_json({'vertices': [{'in': [1.0], 'out': [0]}], 'edges': [],\n"
        "                             'dangling_in': [1.0], 'dangling_out': [0]}),\n"
        "    lambda: NormalPolynomial.from_json([{'r': 1.9, 's': True, 'coeff': {\n"
        "        're': {'num': 2.7, 'den': 1}, 'im': {'num': '0', 'den': '1'}}}]),\n"
        "]\n"
        "for call in calls:\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    result = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "refused\n" * 3


def test_json_round_trip():
    rng = random.Random(5)
    for _ in range(30):
        g = random_graph(rng)
        assert graph_from_json(graph_to_json(g)) == g


def test_json_golden():
    assert graph_to_json(make_vertex(1, 1)) == {
        "vertices": [{"out": [0], "in": [1]}],
        "edges": [],
        "dangling_in": [1],
        "dangling_out": [0],
    }


def test_dot_output_shape():
    g = build_iteratively([(2, 1, 0), (2, 2, 2)])
    dot = graph_to_dot(g, name="demo")
    assert dot.startswith("digraph demo {")
    assert dot.rstrip().endswith("}")
    assert "fillcolor=black" in dot
    assert 'gray5 [label="5", style=filled, fillcolor=gray' in dot
    assert 'white0 [label="0", style=filled, fillcolor=white' in dot
    assert 'v1 -> v0 [label="4>2"];' in dot


@given(st.integers(0, 3), st.integers(0, 3))
@settings(deadline=None, max_examples=16)
def test_str_is_decodable(r, s):
    g = make_vertex(r, s)
    assert canonical_decode(str(g).encode("ascii")) == g
