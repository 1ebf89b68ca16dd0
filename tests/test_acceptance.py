"""End-to-end acceptance checks, one test per criterion.

Each test prints a single ``criterion N ...: PASS`` line (visible with -s, or
in the failure report otherwise); ``pytest -v`` gives the same one-line-per-
criterion view through the test names.  Checks are exact; the only tolerances
anywhere are wall-clock budgets.
"""

import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

import brute_force
import reference
from laddergraphs.exprs import ParseError, evaluate, format_polynomial, parse
from laddergraphs.graphs import (
    GraphSum,
    enumerate_compositions,
    make_vertex,
    normal_order_via_graphs,
    project,
    project_sum,
    void_graph,
)
from laddergraphs.ladder import (
    Letter,
    NormalPolynomial,
    commutator_powers,
    multiply_monomials,
    normal_order_fold,
    normal_order_rewrite,
    word_from_str,
)
from laddergraphs.oracles import random_graph
from laddergraphs.scalars import GaussianRational

BOUND = 4  # exhaustive sweep bound for criteria 2 and 3


def report(number: int, description: str, ok: bool, extra: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" [{extra}]" if extra else ""
    print(f"criterion {number} ({description}): {status}{suffix}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module", autouse=True)
def module_clock():
    return time.perf_counter()


@pytest.fixture(scope="module")
def product_sweep():
    """All one-vertex products for r,s,k,l <= BOUND, computed once.

    Returns ({(r,s,k,l): (compositions, graph-route polynomial, closed form)},
    elapsed seconds).
    """
    start = time.perf_counter()
    rows = {}
    for r in range(BOUND + 1):
        for s in range(BOUND + 1):
            left = make_vertex(r, s)
            for k in range(BOUND + 1):
                for l in range(BOUND + 1):
                    right = make_vertex(k, l)
                    comps = enumerate_compositions(left, right)
                    via_graphs = project_sum(GraphSum.basis(left) * GraphSum.basis(right))
                    closed = multiply_monomials((r, s), (k, l))
                    rows[(r, s, k, l)] = (comps, via_graphs, closed)
    return rows, time.perf_counter() - start


def random_polynomial(rng: random.Random, max_exp: int = 4, max_terms: int = 4) -> NormalPolynomial:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        mono = (rng.randint(0, max_exp), rng.randint(0, max_exp))
        coeff = GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 6)),
        )
        terms.append((mono, coeff))
    return NormalPolynomial(terms)


def test_criterion_1_worked_product_examples():
    start = time.perf_counter()
    first = multiply_monomials((2, 1), (2, 2))
    second = multiply_monomials((2, 2), (2, 1))
    elapsed = time.perf_counter() - start
    ok = (
        first == NormalPolynomial({(4, 3): 1, (3, 2): 2})
        and second == NormalPolynomial({(4, 3): 1, (3, 2): 4, (2, 1): 2})
        and elapsed < 0.1
    )
    report(1, "worked product examples", ok, f"{elapsed * 1000:.2f} ms")


def test_criterion_2_closed_form_vs_graph_oracle(product_sweep):
    rows, build_time = product_sweep
    start = time.perf_counter()
    mismatches = [key for key, (_, via_graphs, closed) in rows.items() if via_graphs != closed]
    elapsed = build_time + time.perf_counter() - start
    ok = len(rows) == (BOUND + 1) ** 4 and not mismatches and elapsed < 10.0
    report(2, f"{len(rows)} products, graph route vs closed form", ok, f"{elapsed:.2f} s")


def test_criterion_3_composition_counting(product_sweep):
    rows, _ = product_sweep
    ok = True
    for (r, s, k, l), (comps, _, _) in rows.items():
        expected = sum(
            factorial(i) * comb(s, i) * comb(k, i) for i in range(min(s, k) + 1)
        )
        if len(comps) != expected or len(set(comps)) != len(comps):
            ok = False
            break
        if expected != brute_force.count_partial_matchings(s, k):
            ok = False
            break
    report(3, "composition counts match the matching formula", ok)


def test_criterion_4_three_way_normal_ordering():
    rng = random.Random(42)
    letters = (Letter.ANNIHILATOR, Letter.CREATOR)
    ok = True
    for _ in range(200):
        word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
        a = normal_order_rewrite(word)
        b = normal_order_fold(word)
        c = normal_order_via_graphs(word)
        if not (a == b == c):
            ok = False
            break
    report(4, "rewrite / fold / graph ordering agree on 200 words", ok)


def test_criterion_5_commutator_vs_brute_force():
    ok = True
    for s in range(6):
        for k in range(6):
            direct = brute_force.normal_order_string("a" * s + "A" * k)
            reverse = brute_force.normal_order_string("A" * k + "a" * s)
            table = dict(direct)
            for mono, c in reverse.items():
                table[mono] = table.get(mono, 0) - c
            if commutator_powers(s, k) != NormalPolynomial(table):
                ok = False
                break
    report(5, "commutator closed form vs brute-force rewriting, s,k <= 5", ok)


def test_criterion_6_canonical_commutation():
    a = NormalPolynomial.monomial((0, 1))
    ad = NormalPolynomial.monomial((1, 0))
    by_algebra = a * ad - ad * a
    by_words = normal_order_rewrite(word_from_str("a ad")) - normal_order_rewrite(
        word_from_str("ad a")
    )
    by_graphs = normal_order_via_graphs(word_from_str("a ad")) - normal_order_via_graphs(
        word_from_str("ad a")
    )
    one = NormalPolynomial.one()
    report(6, "a ad minus ad a equals the identity", by_algebra == by_words == by_graphs == one)


def test_criterion_7_stirling_cross_check():
    base = word_from_str("ad a")
    ok = True
    for n in range(1, 9):
        word = base * n
        expected = NormalPolynomial(
            {(k, k): reference.stirling2(n, k) for k in range(1, n + 1)}
        )
        if normal_order_fold(word) != expected or normal_order_rewrite(word) != expected:
            ok = False
            break
    report(7, "Stirling coefficients for (ad a)^n, n <= 8", ok)


def test_criterion_8_structural_properties(module_clock):
    rng = random.Random(20260814)
    ok = True

    # associativity, both algebras
    for _ in range(30):
        p, q, r = (random_polynomial(rng, max_exp=3, max_terms=3) for _ in range(3))
        if (p * q) * r != p * (q * r):
            ok = False
    for _ in range(20):
        s1, s2, s3 = (
            GraphSum.basis(make_vertex(rng.randint(0, 2), rng.randint(0, 2)))
            for _ in range(3)
        )
        if (s1 * s2) * s3 != s1 * (s2 * s3):
            ok = False
    for _ in range(5):
        s1, s2, s3 = (
            GraphSum.basis(random_graph(rng, max_vertices=2, max_lines=1, dangling_cap=2))
            for _ in range(3)
        )
        if (s1 * s2) * s3 != s1 * (s2 * s3):
            ok = False

    # unit laws
    for _ in range(20):
        p = random_polynomial(rng)
        if p * NormalPolynomial.one() != p or NormalPolynomial.one() * p != p:
            ok = False
    g = GraphSum.basis(random_graph(rng))
    if GraphSum.one() * g != g or g * GraphSum.one() != g:
        ok = False
    if enumerate_compositions(void_graph(), void_graph()) != [void_graph()]:
        ok = False

    # acyclicity under 1000 random composition chains
    for _ in range(1000):
        chain = random_graph(rng, max_vertices=5, max_lines=2, dangling_cap=5)
        if chain.has_cycle() or not brute_force.is_acyclic(*brute_force.vertex_level_edges(chain)):
            ok = False

    # homomorphism on 200 random multi-vertex pairs (up to 6 vertices)
    for _ in range(200):
        g1 = random_graph(rng, max_vertices=6, max_lines=2, dangling_cap=4)
        g2 = random_graph(rng, max_vertices=6, max_lines=2, dangling_cap=4)
        lhs = project_sum(GraphSum.basis(g1) * GraphSum.basis(g2))
        rhs = multiply_monomials(project(g1), project(g2))
        if lhs != rhs:
            ok = False

    # parser round-trip on 200 random polynomials
    for _ in range(200):
        p = random_polynomial(rng, max_exp=6, max_terms=6)
        if evaluate(parse(format_polynomial(p))) != p:
            ok = False

    # parser fuzz-safety on 10^4 random strings
    alphabet = "aad† 0123456789/^+-()i$b,."
    for _ in range(10_000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 16)))
        try:
            evaluate(parse(text))
        except ParseError:
            pass

    report(8, "structural bundle (associativity, units, acyclicity, "
               "homomorphism, round-trip, fuzz)", ok)


def test_acceptance_suite_wall_clock(module_clock):
    # the timing clause of criterion 8: the whole acceptance module in budget
    elapsed = time.perf_counter() - module_clock
    report(8, "acceptance suite wall clock under 60 s", elapsed < 60.0, f"{elapsed:.2f} s")
