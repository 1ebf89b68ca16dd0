import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from laddergraphs.graphs import (
    DiagGraph,
    GraphSum,
    Vertex,
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
from laddergraphs.ladder import NormalMonomial, NormalPolynomial, multiply_monomials, word_from_str
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
    with pytest.raises(ValueError):  # labels not contiguous
        DiagGraph(vertices=(Vertex(in_ports=(5,), out_ports=()),), dangling_in=(5,))
    with pytest.raises(ValueError):  # duplicate label inside one vertex
        DiagGraph(vertices=(Vertex(in_ports=(0, 0), out_ports=()),), dangling_in=(0, 0))
    with pytest.raises(ValueError):  # dangling list out of sync with edges
        DiagGraph(
            vertices=(Vertex(in_ports=(1,), out_ports=(0,)),),
            edges=(),
            dangling_in=(),
            dangling_out=(0,),
        )
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
        reference.normal_order_string("aAaA"))
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


# -- matchings ------------------------------------------------------------------

def test_matchings_against_recursive_reference():
    grays, whites = (5, 7, 9), (0, 1)
    ours = list(enumerate_matchings(grays, whites))
    assert len(ours) == len(set(ours)) == count_matchings(3, 2)
    assert {frozenset(m) for m in ours} == reference.all_partial_matchings(grays, whites)


def test_matching_counts_against_recurrence():
    for n in range(6):
        for m in range(6):
            assert count_matchings(n, m) == reference.count_partial_matchings(n, m)
    assert count_matchings(2, 2) == 7
    assert count_matchings(3, 3) == 34
    assert count_matchings(4, 4) == 209


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
    c = [GaussianRational(Fraction(1, 2), Fraction(1, 3)), GaussianRational(Fraction(-2, 3), 5),
         GaussianRational(0, Fraction(-2, 5)), GaussianRational(Fraction(3, 4))]
    specs = [(1, 2), (2, 1), (0, 1), (2, 2)]
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


def test_graph_sum_cancellation_prunes():
    a = GraphSum.basis(make_vertex(1, 0), 3)
    assert len(a + (-a)) == 0 and len(a - a) == 0 and len(a.scale(0)) == 0
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
        assert reference.is_acyclic(*reference.vertex_level_edges(g))


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
