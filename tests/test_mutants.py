"""A mutation table: each named fault, patched into the package, must fail its check.

Every row pairs a fault, applied with ``monkeypatch``, with a fast check
that passes on the package as it is.  Checks signal failure only with
``assert``, which pytest rewrites in test modules, so each fault is caught
the same way under ``python -O``.
"""

import inspect
import re
import textwrap
from fractions import Fraction
from functools import cache
from math import comb, factorial

import pytest

import brute_force
import reference
import test_graphs
import test_routes
from laddergraphs import exprs, graphs, ladder, scalars
from laddergraphs.graphs import (
    DiagGraph,
    Vertex,
    build_iteratively,
    canonical_decode,
    compose,
    enumerate_compositions,
    enumerate_matchings,
    make_vertex,
)
from laddergraphs.ladder import Letter, NormalPolynomial
from laddergraphs.oracles import run_oracle_checks
from test_oracles import corrupt_product

A = NormalPolynomial.monomial((0, 1))
AD = NormalPolynomial.monomial((1, 0))


# -- checks --------------------------------------------------------------------------

def check_cyclic_graphs_are_refused():
    two_cycle = ((Vertex((0,), (1,)), Vertex((2,), (3,))), ((1, 2), (3, 0)))
    self_loop = ((Vertex((0,), (1,)),), ((1, 0),))
    for vertices, edges in (two_cycle, self_loop):
        try:
            DiagGraph(vertices, edges)
        except ValueError as exc:
            assert "closed path" in str(exc)
        else:
            assert False, f"accepted a cyclic graph with edges {edges}"


def check_closed_form_sweep():
    report = run_oracle_checks(2, 2, 2, 2, words=0, graph_pairs=0)
    assert report.passed, report.lines()


def check_expressions_against_reference():
    # Letter-by-letter folds never reach the i >= 2 summands; powers of letters do.
    for text, spelled in (("a^2 ad^2", "aaAA"), ("a^3 ad^3", "aaaAAA"),
                          ("ad a^2 ad^2 a", "AaaAAa")):
        expected = NormalPolynomial(brute_force.normal_order_string(spelled))
        assert exprs.evaluate(exprs.parse(text)) == expected


def check_word_family():
    # A one-product sweep: only the word family can see a fault in the closed form.
    report = run_oracle_checks(0, 0, 0, 0, words=200, graph_pairs=0, seed=17)
    assert report.passed, report.lines()


def check_rewrite_against_reference():
    for spelled in ("aA", "aaAA", "AaaA", "aAaAa"):
        word = tuple(Letter.ANNIHILATOR if x == "a" else Letter.CREATOR for x in spelled)
        expected = NormalPolynomial(brute_force.normal_order_string(spelled))
        assert ladder.normal_order_rewrite(word) == expected


def check_gaussian_products():
    gr = scalars.GaussianRational
    assert gr(1, 2) * gr(3, 4) == gr(-5, 10)
    assert gr(Fraction(1, 2), -1) * gr(3, 2) == gr(Fraction(7, 2), -2)
    assert gr(1, 2) * 3 == gr(3, 6)


def check_products_are_keyed_like_constructed_sums():
    assert A * AD == NormalPolynomial({(1, 1): 1, (0, 0): 1})


def check_rational_products():
    half_a = NormalPolynomial({(0, 1): Fraction(1, 2)})
    assert half_a * half_a == NormalPolynomial({(0, 2): Fraction(1, 4)})


def check_powers_are_repeated_products():
    p = A + AD
    assert p ** 3 == p * p * p
    assert p ** 1 == p


def check_real_times_gaussian_products():
    # (2 a - ad)(3i ad + 1) = 6i ad a + 6i + 2 a - 3i ad^2 - ad, either loop order.
    gr = scalars.GaussianRational
    x = NormalPolynomial({(0, 1): 2, (1, 0): -1})
    y = NormalPolynomial({(1, 0): gr(0, 3), (0, 0): 1})
    assert x * y == NormalPolynomial({(1, 1): gr(0, 6), (0, 0): gr(0, 6), (0, 1): 2,
                                      (2, 0): gr(0, -3), (1, 0): -1})
    assert y * x == NormalPolynomial({(1, 1): gr(0, 6), (0, 1): 2, (2, 0): gr(0, -3),
                                      (1, 0): -1})


def check_real_products_carry_the_weights():
    # a^2 ad^2 = ad^2 a^2 + 4 ad a + 2, and (a + ad)^2 = a^2 + 2 ad a + ad^2 + 1.
    assert NormalPolynomial({(0, 2): 1}) * NormalPolynomial({(2, 0): 1}) == NormalPolynomial(
        {(2, 2): 1, (1, 1): 4, (0, 0): 2})
    assert (A + AD) ** 2 == NormalPolynomial({(0, 2): 1, (1, 1): 2, (2, 0): 1, (0, 0): 1})


def check_rendering_against_reference():
    gr = scalars.GaussianRational
    for table in ({(1, 0): (1, 0), (0, 1): (0, -2), (0, 0): (0, 3)},
                  {(1, 1): (-1, 0), (0, 1): (Fraction(-1, 2), 1), (0, 0): (0, Fraction(-2, 3))}):
        p = NormalPolynomial({key: gr(re, im) for key, (re, im) in table.items()})
        assert exprs.format_polynomial(p) == reference.polynomial_text(
            {key: reference.g(*c) for key, c in table.items()})


def check_cancellation_leaves_no_terms():
    x = NormalPolynomial({(0, 1): 1, (1, 0): 2})
    assert len(x - x) == 0
    assert x - x == NormalPolynomial.zero()


def check_a_port_on_two_edges_is_refused():
    try:
        DiagGraph((Vertex((), (0,)), Vertex((1, 2), ())), ((0, 1), (0, 2)), (), ())
    except ValueError as exc:
        assert "at most one edge" in str(exc)
    else:
        assert False, "accepted an out-port feeding two in-ports"


def check_port_labels_counted_per_vertex():
    # A label used twice in one vertex and listed once: only the per-vertex count sees it.
    try:
        DiagGraph((Vertex((0, 0), ()),), dangling_in=(0,))
    except ValueError as exc:
        assert "distinct" in str(exc)
    else:
        assert False, "accepted an in-port label used twice"


def check_decoder_refuses_leading_zeros():
    assert canonical_decode(b"V:0/1|E:|I:1|O:0") == make_vertex(1, 1)
    for data in (b"V:00/1|E:|I:1|O:00", b"V:0/01|E:|I:01|O:0"):
        try:
            canonical_decode(data)
        except ValueError as exc:
            assert "malformed port label" in str(exc)
        else:
            assert False, f"decoded the non-canonical {data!r}"


def check_format_round_trips():
    for p in (AD.scale(-1) + A, A.scale(Fraction(-1, 2)), (A - AD) ** 2):
        assert exprs.evaluate(exprs.parse(exprs.format_polynomial(p))) == p


def check_graph_route_against_reference():
    for spelled in ("aA", "aAa", "aaAA", "AaaAa", "aAaAaA"):
        word = tuple(Letter.ANNIHILATOR if x == "a" else Letter.CREATOR for x in spelled)
        expected = NormalPolynomial(brute_force.normal_order_string(spelled))
        assert graphs.normal_order_via_graphs(word) == expected


def check_project_sum_per_term():
    g1, g2 = make_vertex(1, 2), build_iteratively([(1, 1, 0), (0, 1, 0)])
    x = graphs.GraphSum([(g1, scalars.GaussianRational(Fraction(1, 2), 1)), (g2, Fraction(1, 3)),
                         (make_vertex(2, 0), scalars.GaussianRational(0, -2))])
    assert graphs.project_sum(x) == NormalPolynomial((graphs.project(g), c) for g, c in x.terms())


def check_compositions_hash_like_their_fields():
    g1, g2 = build_iteratively([(1, 2, 0), (1, 1, 1)]), make_vertex(2, 1)
    for g in enumerate_compositions(g1, g2):
        assert hash(g) == hash((tuple(g.vertices), g.edges, g.dangling_in, g.dangling_out))


def check_graph_sum_products_over_pairs():
    gr = scalars.GaussianRational
    x = graphs.GraphSum([(make_vertex(1, 1), gr(Fraction(1, 2), 1)), (make_vertex(0, 1), gr(2, -1))])
    y = graphs.GraphSum([(make_vertex(1, 0), gr(0, Fraction(1, 3))), (make_vertex(1, 2), gr(3, 2))])
    expected: dict = {}
    for g1, c1 in x.terms():
        for g2, c2 in y.terms():
            for g in enumerate_compositions(g1, g2):
                expected[g] = c1 * c2
    assert (x * y)._terms == expected


def check_graph_sum_collisions_add_up():
    # The void graph composed with X gives X either way round.
    one, x = graphs.GraphSum.one(), graphs.GraphSum.basis(make_vertex(1, 1))
    assert ((one + x) * (x + one)).coefficient(make_vertex(1, 1)) == 2


def _fields(g: DiagGraph) -> tuple:
    return (tuple((v.in_ports, v.out_ports) for v in g.vertices),
            g.edges, g.dangling_in, g.dangling_out)


COMPOSITION_PAIRS = [
    (make_vertex(0, 3), make_vertex(3, 0)),
    # three grays listed out of label order, which composition must keep
    (DiagGraph((Vertex((0, 1, 2), ()),), dangling_in=(2, 0, 1)), make_vertex(2, 0)),
    # an edge inside the second graph, whose out-port lies between its whites
    (make_vertex(2, 2), build_iteratively([(1, 1, 0), (2, 1, 1)])),
]


def check_compositions_against_reference():
    for g1, g2 in COMPOSITION_PAIRS:
        matchings = list(enumerate_matchings(g1.dangling_in, g2.dangling_out))
        composed = enumerate_compositions(g1, g2)
        assert composed == [compose(g1, g2, m) for m in matchings]
        assert [_fields(g) for g in composed] == [
            brute_force.compose_fields(_fields(g1), _fields(g2), m) for m in matchings]


# -- faults --------------------------------------------------------------------------

def _basis_product_range_off_by_one(m1, m2):
    (r, s), (k, l) = m1, m2
    return tuple(((r + k - i, s + l - i), factorial(i) * comb(s, i) * comb(k, i))
                 for i in range(min(k, s)))


def _basis_product_without_factorial(m1, m2):
    (r, s), (k, l) = m1, m2
    return tuple(((r + k - i, s + l - i), comb(s, i) * comb(k, i))
                 for i in range(min(k, s) + 1))


def _basis_product_is(fault):
    """A fault: ``_basis_product`` replaced by ``fault``, read by the product
    loops through fresh tables, since tables filled before keep the true form."""
    def apply(monkeypatch):
        monkeypatch.setattr(ladder, "_basis_product", fault)
        monkeypatch.setattr(ladder, "_products", cache(ladder._products.__wrapped__))
    return apply


def _one_product_table(monkeypatch):
    """Every right factor reads the table of the first right factor asked for."""
    tables = {}
    monkeypatch.setattr(ladder, "_products",
                        lambda right: tables.setdefault("shared", ladder._ProductTable(right)))


def _accumulate_keeping_zeros(acc, key, coeff):
    total = acc.get(key)
    acc[key] = coeff if total is None else total + coeff


def _wrap(monkeypatch, owner, name, make):
    """Replace ``owner.name`` by ``make(original)``."""
    monkeypatch.setattr(owner, name, make(getattr(owner, name)))


def _recompiled(owner, name, pattern, replacement, **names):
    """A fault: ``owner.name``, a module's function or a class's method, recompiled
    in its module, with ``names`` added, and the one match of ``pattern`` replaced."""
    def fault(monkeypatch):
        source = textwrap.dedent(inspect.getsource(getattr(owner, name)))
        source, found = re.subn(pattern, replacement, source, flags=re.M)
        assert found == 1, f"no single match of {pattern!r} in {name}"
        namespace = {**vars(inspect.getmodule(owner)), **names}
        exec(source, namespace)
        monkeypatch.setattr(owner, name, namespace[name])
    return fault


def _rewrite_without(successor):
    """A fault: ``normal_order_rewrite`` with the line adding ``successor`` as ``pass``."""
    return _recompiled(ladder, "normal_order_rewrite",
                       rf"^( +)accumulate\(.*, {re.escape(successor)}, c\)$", r"\1pass")


# Each composition of a later term pair replaces the product's term instead of adding to it.
_later_pairs_overwrite = _recompiled(
    graphs.GraphSum, "__mul__", r"for g in (enumerate_compositions\(g1, g2\)):\n\s+accumulate\(acc, g, c\)",
    r"acc.update(dict.fromkeys(\1, c))")


def _uninterleaved_pairings(monkeypatch):
    # Sort key (gray 0, gray 1, ..., white of gray 0, ...) instead of interleaved;
    # fresh caches, so the key reaches the order of every bucket.
    def pairing(perm):
        n = len(perm)
        return graphs._picker(list(range(n)) + [n + w for w in perm]), true_pairing(perm)[1]

    true_pairing = graphs._pairing
    monkeypatch.setattr(graphs, "_pairing", pairing)
    monkeypatch.setattr(graphs, "_pairings", cache(graphs._pairings.__wrapped__))
    monkeypatch.setattr(graphs, "_bucket_order", cache(graphs._bucket_order.__wrapped__))


def _assembler_on(monkeypatch, first, second):
    """Assemble compositions from ``first(g1)`` and ``second(g2)`` instead of the operands."""
    true_assembler = graphs._assembler
    monkeypatch.setattr(graphs, "_assembler", lambda g1, g2: true_assembler(first(g1), second(g2)))


def _same(g: DiagGraph) -> DiagGraph:
    return g


def _without_edges(g: DiagGraph) -> DiagGraph:
    return DiagGraph._trusted(g.vertices, (), g.dangling_in, g.dangling_out)


def _grays_sorted(g: DiagGraph) -> DiagGraph:
    return DiagGraph._trusted(g.vertices, g.edges, tuple(sorted(g.dangling_in)), g.dangling_out)


FAULTS = {
    "has_cycle always False": (
        lambda mp: mp.setattr(DiagGraph, "has_cycle", lambda self: False),
        check_cyclic_graphs_are_refused),
    "_basis_product range off by one": (
        _basis_product_is(_basis_product_range_off_by_one),
        check_closed_form_sweep),
    "_basis_product without factorial(i)": (
        _basis_product_is(_basis_product_without_factorial),
        check_expressions_against_reference),
    "_basis_product without factorial(i), seen by the oracle's words": (
        _basis_product_is(_basis_product_without_factorial),
        check_word_family),
    "a product table ignores its right factor": (
        _one_product_table,
        check_expressions_against_reference),
    "rewrite drops the deletion successor, the + 1 of a ad = ad a + 1": (
        _rewrite_without("w[:i] + w[i + 2:]"),
        check_rewrite_against_reference),
    "rewrite drops the swap successor": (
        _rewrite_without('w[:i] + "da" + w[i + 2:]'),
        check_rewrite_against_reference),
    "_from_numerators stores NormalMonomial keys": (
        lambda mp: _wrap(mp, NormalPolynomial, "_from_numerators", lambda true: classmethod(
            lambda cls, den, terms: true(den, [(ladder.NormalMonomial(*key), re, im)
                                               for key, re, im in terms]))),
        check_products_are_keyed_like_constructed_sums),
    "_from_numerators ignores den": (
        lambda mp: _wrap(mp, NormalPolynomial, "_from_numerators",
                         lambda true: classmethod(lambda cls, den, terms: true(1, terms))),
        check_rational_products),
    "_power one step short": (
        _recompiled(NormalPolynomial, "__pow__", r"range\(n\)", "range(n - 1)"),
        check_powers_are_repeated_products),
    "the loop choice reads only the left operand's imaginary parts": (
        _recompiled(NormalPolynomial, "__mul__", r" and _real\(other\._terms\)", ""),
        check_real_times_gaussian_products),
    "the real loop drops the basis-product weight": (
        _recompiled(ladder, "_real_numerators", r"ac \* weight", "ac"),
        check_real_products_carry_the_weights),
    "the renderer takes a term's sign from its real part alone": (
        _recompiled(exprs, "format_polynomial", r"re\.numerator or im\.numerator", "re.numerator"),
        check_rendering_against_reference),
    "LinearCombination keeps zero terms": (
        lambda mp: mp.setattr(scalars, "accumulate", _accumulate_keeping_zeros),
        check_cancellation_leaves_no_terms),
    "canonical_decode accepts a leading zero": (
        lambda mp: mp.setattr(graphs, "_canonical_label", re.compile(r"[0-9]+").fullmatch),
        check_decoder_refuses_leading_zeros),
    "corrupted closed form in the oracle sweep": (
        lambda mp: corrupt_product(mp, 2, 1, 2, 2, 1),
        check_closed_form_sweep),
    "format_polynomial drops a leading minus": (
        lambda mp: _wrap(mp, exprs, "format_polynomial",
                         lambda true: lambda p: true(p).removeprefix("-")),
        check_format_round_trips),
    "_pairing sort key not interleaved": (
        _uninterleaved_pairings,
        check_compositions_against_reference),
    "second operand's edges dropped": (
        lambda mp: _assembler_on(mp, _same, _without_edges),
        check_compositions_against_reference),
    "_validate lets a port belong to two edges": (
        _recompiled(DiagGraph, "_validate", r"if out_p in used_out or in_p in used_in:", "if False:"),
        check_a_port_on_two_edges_is_refused),
    "port_count from the dangling and edge counts, not the vertices": (
        lambda mp: mp.setattr(DiagGraph, "port_count", property(
            lambda g: len(g.dangling_in) + len(g.dangling_out) + 2 * len(g.edges))),
        check_port_labels_counted_per_vertex),
    "imaginary cross term of GaussianRational.__mul__ with its sign flipped": (
        _recompiled(scalars.GaussianRational, "__mul__", r"a \* d \+ b \* c", "a * d - b * c"),
        check_gaussian_products),
    "shift by port_count - 1": (
        _recompiled(graphs, "_assembler", r"(shift = len\(g1\.dangling_in\) .*)$", r"\1 - 1"),
        check_compositions_against_reference),
    "the empty-matching shortcut drops a gray": (
        _recompiled(graphs, "_assembler", r"if grays else g1_grays$", "if grays else g1_grays[1:]"),
        check_compositions_against_reference),
    "the reorder skip widened to size-2 buckets": (
        _recompiled(graphs, "_composition_buckets", r"if size > 1 else None", "if size > 2 else None"),
        check_compositions_against_reference),
    "remaining grays sorted, not in dangling_in order": (
        lambda mp: _assembler_on(mp, _grays_sorted, _same),
        check_compositions_against_reference),
    "g2's edges appended unsorted": (
        _recompiled(graphs, "_assembler", r"tuple\(sorted\(joined \+ g2_edges\)\)",
                    "joined + g2_edges"),
        check_compositions_against_reference),
    "the walk composes with the previous letter's vertex": (
        _recompiled(graphs, "normal_order_via_graphs", r"vertices\[depth\]", "vertices[depth - 1]"),
        check_graph_route_against_reference),
    "_shape, the walk's leaf key, transposed to (grays, whites)": (
        _recompiled(graphs, "_shape", r"len\(g\.dangling_out\), len\(g\.dangling_in\)",
                    "len(g.dangling_in), len(g.dangling_out)"),
        check_graph_route_against_reference),
    "the walk keeps only the first bucket of a step": (
        _recompiled(graphs, "normal_order_via_graphs", r"= (_composition_buckets\(.*\))$", r"= [next(\1)]"),
        check_graph_route_against_reference),
    "the counted last letter keeps the grays its edges join": (
        _recompiled(graphs, "normal_order_via_graphs", r"\[w \+ r - i, g - i \+ s\]",
                    "[w + r - i, g + s]"),
        check_graph_route_against_reference),
    "the counted last letter's weight drops C(g, i)": (
        _recompiled(graphs, "_matchings_of_size", r"comb\(n_gray, size\) \* ", ""),
        check_graph_route_against_reference),
    "project_sum drops the imaginary numerators": (
        _recompiled(graphs, "project_sum", r"\(key, re, im\) for key", "(key, re, 0) for key"),
        check_project_sum_per_term),
    "the shared vertex hash computed from g1's vertices alone": (
        _recompiled(graphs, "_assembler", r"^( +)(vertices = _Vertices\(.*\))$",
                    r"\1\2\n\1vertices._hash = hash(g1.vertices)"),
        check_compositions_hash_like_their_fields),
    "the pair coefficient is c1": (
        _recompiled(graphs.GraphSum, "__mul__", r"c1 \* c2", "c1"),
        check_graph_sum_products_over_pairs),
    "the pair coefficient is c1 * c2.conjugate()": (
        _recompiled(graphs.GraphSum, "__mul__", r"c1 \* c2", "c1 * c2.conjugate()"),
        check_graph_sum_products_over_pairs),
    "a collision overwrites the coefficient instead of adding to it": (
        _recompiled(graphs.GraphSum, "__mul__", r"accumulate\(acc, g, c\)", "acc[g] = c"),
        check_graph_sum_collisions_add_up),
    "later term pairs overwrite the product's terms instead of adding to them": (
        _later_pairs_overwrite,
        test_graphs.test_compositions_of_different_pairs_add_up),
    "later term pairs overwrite the product's terms, seen by the sum over pairs": (
        _later_pairs_overwrite,
        test_graphs.test_graph_sum_product_is_the_sum_over_pairs),
    # Equal results by construction: only the route-independence test sees it.
    "the walk counts its last letter through ladder's product tables": (
        _recompiled(graphs, "normal_order_via_graphs", r"_matchings_of_size\(g, r, i\)",
                    "dict(ladder._products((r, s))[w, g])[w + r - i, g - i + s]", ladder=ladder),
        test_routes.test_no_route_computes_through_another),
    "order of the transposed shape": (
        lambda mp: _wrap(mp, graphs, "_bucket_order",
                         lambda true: lambda n_gray, n_white, size: true(n_white, n_gray, size)),
        check_compositions_against_reference),
}


@pytest.mark.parametrize("name", FAULTS)
def test_check_passes_without_the_fault(name):
    FAULTS[name][1]()


@pytest.mark.parametrize("name", FAULTS)
def test_fault_fails_its_check(name, monkeypatch):
    fault, check = FAULTS[name]
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        check()
