from fractions import Fraction
from functools import cache, reduce
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import brute_force
import reference
from laddergraphs import exprs, ladder
from laddergraphs.graphs import (
    GraphSum,
    build_iteratively,
    count_matchings,
    make_vertex,
    normal_order_via_graphs,
    project_sum,
)
from laddergraphs.ladder import (
    IDENTITY,
    LOWER,
    RAISE,
    Letter,
    NormalMonomial,
    NormalPolynomial,
    commutator_powers,
    multiply_monomials,
    normal_order_fold,
    normal_order_rewrite,
    normal_order_word,
    power_word,
    word_from_str,
)
from laddergraphs.scalars import GaussianRational
from test_scalars import json_values, model_pairs, scalar_records

monomials = st.builds(NormalMonomial, st.integers(0, 4), st.integers(0, 4))
coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
    st.fractions(min_value=-9, max_value=9, max_denominator=8),
)
polys = st.builds(NormalPolynomial, st.lists(st.tuples(monomials, coeffs), max_size=4))
words = st.lists(st.sampled_from(list(Letter)), max_size=10).map(tuple)
# Up to 144 inversions: out of reach for a rewrite route that revisits words.
long_words = st.lists(st.sampled_from(list(Letter)), max_size=24).map(tuple)


def as_poly(table: dict) -> NormalPolynomial:
    return NormalPolynomial(table)


# -- basis monomials ---------------------------------------------------------

def test_monomial_validation():
    with pytest.raises(ValueError):
        NormalMonomial(-1, 0)
    with pytest.raises(TypeError):
        NormalMonomial(1.0, 0)
    assert NormalMonomial(2, 3).degree == 5
    assert IDENTITY.is_identity() and not LOWER.is_identity()


def test_monomial_refuses_bool_exponents():
    # bool is an int subclass, but not an exponent.
    for r, s in ((True, 2), (1, False), (False, True)):
        with pytest.raises(TypeError, match="monomial exponents must be integers"):
            NormalMonomial(r, s)
    with pytest.raises(TypeError):
        multiply_monomials((True, 1), (1, False))
    with pytest.raises(TypeError):
        NormalPolynomial({(1, True): 1})


def test_worked_product_examples():
    # (2,1)(2,2) and the reversed order, with their known expansions
    assert multiply_monomials((2, 1), (2, 2)) == as_poly({(4, 3): 1, (3, 2): 2})
    assert multiply_monomials((2, 2), (2, 1)) == as_poly({(4, 3): 1, (3, 2): 4, (2, 1): 2})


def test_product_against_string_rewriter_exhaustively():
    # (r,s)(k,l) must match brute-force rewriting of A^r a^s A^k a^l
    for r in range(4):
        for s in range(4):
            for k in range(4):
                for l in range(4):
                    expected = brute_force.normal_order_string("A" * r + "a" * s + "A" * k + "a" * l)
                    assert multiply_monomials((r, s), (k, l)) == as_poly(expected), (r, s, k, l)


def test_product_term_structure():
    # min(k,s)+1 terms, all integer coefficients positive, i=0 coefficient 1
    for r in range(4):
        for s in range(4):
            for k in range(4):
                for l in range(4):
                    p = multiply_monomials((r, s), (k, l))
                    assert len(p) == min(k, s) + 1
                    assert p.coefficient((r + k, s + l)) == 1
                    for _, c in p.terms():
                        assert c.im == 0 and c.re.denominator == 1 and c.re > 0


def test_identity_monomial_is_neutral():
    for r in range(4):
        for s in range(4):
            m = NormalMonomial(r, s)
            assert multiply_monomials(IDENTITY, m) == NormalPolynomial.monomial(m)
            assert multiply_monomials(m, IDENTITY) == NormalPolynomial.monomial(m)


# -- polynomial arithmetic ----------------------------------------------------

def test_zero_pruning_and_equality():
    p = NormalPolynomial({(1, 1): 1}) + NormalPolynomial({(1, 1): -1})
    assert p.is_zero() and p == NormalPolynomial.zero()
    assert len(p) == 0 and not p
    assert repr(p) == "NormalPolynomial(0)"


@given(polys, polys, polys)
def test_vector_space_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p + q == q + p
    assert p - p == NormalPolynomial.zero()
    assert p.scale(2) == p + p


@given(polys, polys, polys)
@settings(deadline=None)
def test_multiplication_is_associative_and_distributive(p, q, r):
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert (p + q) * r == p * r + q * r


# -- the product against a model ---------------------------------------------------
# The model multiplies dicts of (re, im) Fraction pairs term by term and takes
# each basis product from the exhaustive string rewriter of brute_force.py.

model_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)), model_pairs, max_size=4
)


def model_product(p: dict, q: dict) -> dict:
    acc: dict = {}
    for (r, s), x in p.items():
        for (k, l), y in q.items():
            z = reference.gmul(x, y)
            word = "A" * r + "a" * s + "A" * k + "a" * l
            for mono, weight in brute_force.normal_order_string(word).items():
                acc[mono] = reference.gadd(acc.get(mono, reference.ZERO), reference.gscale(z, weight))
    return {mono: c for mono, c in acc.items() if any(c)}


def assert_stored_form(p: NormalPolynomial) -> None:
    """Every part of every coefficient is an ``int`` exactly when it is integral."""
    for c in p._terms.values():
        assert c
        for part in (c._re, c._im):
            assert type(part) is int or part.denominator != 1


F = Fraction


@given(model_polys, model_polys)
@settings(deadline=None)
# Coprime denominators within one operand: its common denominator is 5*7*97.
@example({(1, 0): (F(1, 5), 0), (0, 1): (0, F(1, 7)), (0, 0): (F(1, 97), 0)},
         {(1, 0): (F(1, 2), F(1, 3)), (0, 1): (1, 0), (1, 1): (0, F(-1, 11))})
# An all-int operand (common denominator 1) times a fractional one, both ways.
@example({(1, 0): (2, -3), (0, 1): (1, 0), (1, 1): (0, 4)},
         {(0, 1): (F(1, 2), 0), (1, 0): (0, F(-2, 3)), (0, 0): (F(3, 4), F(1, 7))})
@example({(0, 1): (F(1, 2), 0), (1, 0): (0, F(-2, 3))}, {(1, 0): (2, -3), (0, 0): (5, 0)})
# Fractional terms that cancel: the ad a key of (a + ad)(ad - a)/9, and the
# imaginary part of (1/2 + 1/3i)(1/2 - 1/3i).
@example({(0, 1): (F(1, 3), 0), (1, 0): (F(1, 3), 0)}, {(0, 1): (F(1, 3), 0), (1, 0): (F(-1, 3), 0)})
@example({(0, 0): (F(1, 2), F(1, 3))}, {(0, 0): (F(1, 2), F(-1, 3))})
# The ad a key sums to 1+1i, integral only after the division by 15 * 2.
@example({(1, 0): (F(1, 3), F(1, 5)), (0, 1): (F(5, 3), F(9, 5))},
         {(1, 0): (F(1, 2), 0), (0, 1): (F(1, 2), 0)})
def test_product_matches_two_fraction_model(p, q):
    product = (NormalPolynomial({m: GaussianRational(*c) for m, c in p.items()})
               * NormalPolynomial({m: GaussianRational(*c) for m, c in q.items()}))
    expected = model_product(
        {m: (Fraction(x), Fraction(y)) for m, (x, y) in p.items()},
        {m: (Fraction(x), Fraction(y)) for m, (x, y) in q.items()},
    )
    assert {(m.r, m.s): (c.re, c.im) for m, c in product.terms()} == expected
    assert_stored_form(product)


def test_product_stores_integral_parts_as_int():
    half_a = NormalPolynomial.monomial(LOWER, Fraction(1, 2))
    two_ad = NormalPolynomial.monomial(RAISE, 2)
    product = half_a * two_ad
    assert product == as_poly({(1, 1): 1, (0, 0): 1})
    assert_stored_form(product)
    # 1/3 and 2/3 meet only in the sum for ad a.
    p = NormalPolynomial({(1, 0): Fraction(1, 3), (0, 1): Fraction(2, 3)})
    q = NormalPolynomial({(1, 0): 1, (0, 1): 1})
    product = p * q
    assert type(product.coefficient((1, 1))._re) is int
    assert product == NormalPolynomial(
        {(2, 0): Fraction(1, 3), (1, 1): 1, (0, 2): Fraction(2, 3), (0, 0): Fraction(2, 3)}
    )
    assert_stored_form(product)


def test_product_prunes_cancelled_terms(monkeypatch):
    # (a + ad)(a - ad) = a^2 - ad^2 - 1: the two ad a terms cancel.
    product = NormalPolynomial({(0, 1): 1, (1, 0): 1}) * NormalPolynomial({(0, 1): 1, (1, 0): -1})
    assert product == NormalPolynomial({(0, 2): 1, (2, 0): -1, (0, 0): -1})
    assert len(product) == 3 and (1, 1) not in product._terms
    c = GaussianRational(Fraction(1, 2), 3)
    p = NormalPolynomial({(0, 1): c, (1, 0): -c})
    assert len(p * NormalPolynomial.zero()) == 0
    assert len(NormalPolynomial.zero() * p) == 0
    # A basis product that sends every pair to one key, the (r, s) pair
    # (0, 0): the sum cancels to 0.
    monkeypatch.setattr(ladder, "_basis_product", lambda k1, k2: [((0, 0), 1)])
    # Fresh product tables, so the patched form reaches the product loops.
    monkeypatch.setattr(ladder, "_products", cache(ladder._products.__wrapped__))
    collapsed = p * NormalPolynomial.one()
    assert len(collapsed) == 0 and not collapsed
    # Without the cancellation the one key is shown as IDENTITY.
    doubled = NormalPolynomial({(0, 1): c, (1, 0): c}) * NormalPolynomial.one()
    assert doubled == NormalPolynomial({IDENTITY: c * 2})
    assert list(doubled._terms) == [(0, 0)] and doubled.monomials()[0] is IDENTITY


def test_product_tables_hold_the_closed_form_cold_and_warm(monkeypatch):
    # Both caches start empty; every table the products fill is recorded.
    tables = []

    def products(right):
        tables.append(ladder._ProductTable(right))
        return tables[-1]

    monkeypatch.setattr(ladder, "_basis_product", cache(ladder._basis_product.__wrapped__))
    monkeypatch.setattr(ladder, "_products", cache(products))
    texts = ["(a+ad)^30", "(2 a - 3 ad)^40", "(1/2 a + 3i ad)^32", "(3 ad a)^64"]
    runs = []
    for _ in ("cold", "warm"):
        values = [exprs.evaluate(exprs.parse(text)) for text in texts]
        runs.append([(v.to_json(), exprs.format_polynomial(v)) for v in values])
    assert runs[0] == runs[1]
    assert sorted(table.right for table in tables) == [(0, 1), (1, 0), (1, 1)]
    for table in tables:
        assert table
        for m1, terms in table.items():
            assert terms == ladder._basis_product.__wrapped__(m1, table.right)


def assert_pair_keys(p: NormalPolynomial) -> None:
    """Every stored key is a ``tuple`` of two ``int``s, no ``bool``; ``p`` equals
    its rebuild from fresh monomials, with an equal hash."""
    for key in p._terms:
        assert type(key) is tuple and len(key) == 2 and all(type(x) is int for x in key), key
    rebuilt = NormalPolynomial({NormalMonomial(*key): c for key, c in p._terms.items()})
    assert p == rebuilt and hash(p) == hash(rebuilt)


pairs = st.tuples(st.integers(0, 4), st.integers(0, 4))


@given(polys, polys, st.integers(0, 5), words, st.one_of(monomials, pairs), monomials,
       st.lists(st.tuples(st.one_of(monomials, pairs), coeffs), max_size=4), pairs)
@settings(deadline=None)
def test_results_are_keyed_by_int_pairs(p, q, n, word, m1, m2, items, sizes):
    # Terms are stored under plain (r, s) pairs on every construction path.
    vertices = GraphSum([(make_vertex(m.r, m.s), c) for m, c in p.terms()])
    for result in (p * q, p ** n, normal_order_fold(word), multiply_monomials(m1, m2),
                   project_sum(vertices), normal_order_via_graphs(word), NormalPolynomial(items),
                   NormalPolynomial.from_json(p.to_json()), commutator_powers(*sizes),
                   normal_order_rewrite(word)):
        assert_pair_keys(result)


@given(polys)
def test_unit_polynomial(p):
    assert p * NormalPolynomial.one() == p
    assert NormalPolynomial.one() * p == p
    assert p * NormalPolynomial.zero() == NormalPolynomial.zero()


@given(polys, coeffs, coeffs)
def test_scaling(p, a, b):
    assert p.scale(a).scale(b) == p.scale(a * b)
    assert p.scale(a) + p.scale(b) == p.scale(a + b)


def test_noncommutativity_is_visible():
    a = NormalPolynomial.monomial(LOWER)
    ad = NormalPolynomial.monomial(RAISE)
    assert a * ad != ad * a
    assert a * ad - ad * a == NormalPolynomial.one()


def test_power_operator():
    n = NormalPolynomial.monomial((1, 1))
    assert n ** 0 == NormalPolynomial.one()
    assert n ** 3 == n * n * n
    with pytest.raises(ValueError):
        n ** -1
    # bool is an int subclass, but not an exponent.
    for exponent in (True, False, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="exponent must be a nonnegative integer"):
            as_poly({(0, 1): 1, (1, 0): 1}) ** exponent


@given(model_polys, st.integers(0, 6))
@settings(deadline=None)
# Coprime denominators within one base: its common denominator is 5*7*97.
@example({(1, 0): (F(1, 5), 0), (0, 1): (0, F(1, 7)), (0, 0): (F(1, 97), 0)}, 4)
# (a + ad + ad a - 1/2)^2 has no a and no ad term; the cube is formed from it.
@example({(0, 1): (1, 0), (1, 0): (1, 0), (1, 1): (1, 0), (0, 0): (F(-1, 2), 0)}, 3)
# The identity term of (a + ad + ad a + 1i)^2 cancels: 1 from a ad, -1 from i^2.
@example({(0, 1): (1, 0), (1, 0): (1, 0), (1, 1): (1, 0), (0, 0): (0, 1)}, 2)
# An all-int base has common denominator 1.
@example({(1, 0): (2, -3), (0, 1): (1, 0), (1, 1): (0, 4)}, 6)
@example({}, 0)
@example({}, 3)
def test_power_matches_left_fold(p, n):
    base = NormalPolynomial({m: GaussianRational(*c) for m, c in p.items()})
    power = base ** n
    fold = reduce(mul, [base] * n, NormalPolynomial.one())
    assert power._terms == fold._terms
    assert_stored_form(power)


# -- the real loop against the Gaussian loop -----------------------------------------
# A product whose operands have only real coefficients takes the real loop; it
# must store exactly what the Gaussian loop, called directly, stores.

def coefficient_polys(coefficients) -> st.SearchStrategy:
    return st.builds(NormalPolynomial, st.lists(st.tuples(pairs, coefficients), max_size=4))


real_or_gaussian_polys = st.one_of(
    coefficient_polys(st.integers(-9, 9)),
    coefficient_polys(st.fractions(min_value=-9, max_value=9, max_denominator=6)),
    polys,
)


def pair_loop_product(factors: list[NormalPolynomial]) -> NormalPolynomial:
    """The product of ``factors``, left to right, by ``_pair_numerators`` over one denominator."""
    den, product = 1, [((0, 0), 1, 0)]
    for factor in factors:
        d, numerators = ladder._integer_numerators(factor._terms)
        den, product = den * d, ladder._pair_numerators(product, numerators)
    return NormalPolynomial._from_numerators(den, product)


def stored(p: NormalPolynomial) -> dict:
    """The term map with the type of every key and part, so ``==`` compares stored forms."""
    return {(type(key), key): (type(c._re), c._re, type(c._im), c._im) for key, c in p._terms.items()}


@given(real_or_gaussian_polys, real_or_gaussian_polys, st.integers(0, 5))
@settings(deadline=None)
# Real operands whose product cancels, and real times Gaussian operands both ways.
@example(NormalPolynomial({(0, 1): 1, (1, 0): 1}), NormalPolynomial({(0, 1): 1, (1, 0): -1}), 3)
@example(NormalPolynomial({(0, 1): 2, (1, 0): -1}), NormalPolynomial({(1, 0): GaussianRational(0, 3)}), 2)
@example(NormalPolynomial({(1, 0): GaussianRational(0, 3)}), NormalPolynomial({(0, 1): F(1, 2)}), 2)
def test_products_and_powers_store_what_the_gaussian_loop_stores(p, q, n):
    assert stored(p * q) == stored(pair_loop_product([p, q]))
    assert stored(p ** n) == stored(pair_loop_product([p] * n))


def test_terms_are_in_canonical_order():
    p = as_poly({(0, 0): 1, (2, 1): 1, (1, 2): 1, (3, 0): 1, (1, 1): 1})
    order = [(m.r, m.s) for m, _ in p.terms()]
    assert order == [(3, 0), (2, 1), (1, 2), (1, 1), (0, 0)]
    degrees = [m.degree for m, _ in p.terms()]
    assert degrees == sorted(degrees, reverse=True)


@given(polys)
def test_json_round_trip(p):
    assert NormalPolynomial.from_json(p.to_json()) == p


exponents = st.integers(-1, 3) | st.integers(-1, 3).map(str) | json_values
term_records = st.fixed_dictionaries(
    {}, optional={"r": exponents, "s": exponents, "coeff": scalar_records}
) | json_values
ONE_JSON = GaussianRational(1).to_json()
FLOAT_RECORD = [{"r": 1.9, "s": True,
                 "coeff": {"re": {"num": 2.7, "den": 1}, "im": {"num": "0", "den": "1"}}}]


@given(st.lists(term_records, max_size=3) | json_values)
@example([{"r": 1, "s": 0, "coeff": {"re": {"num": "1", "den": "0"}, "im": ONE_JSON["im"]}}])
@example([{"r": 1, "coeff": ONE_JSON}])
@example(FLOAT_RECORD)
def test_from_json_raises_only_value_error(obj):
    try:
        assert isinstance(NormalPolynomial.from_json(obj), NormalPolynomial)
    except ValueError:
        pass


@pytest.mark.parametrize("r, s, coeff", [
    (1.9, True, {"re": {"num": 2.7, "den": 1}, "im": {"num": "0", "den": "1"}}),
    (1.0, 1, ONE_JSON),
    (1, False, ONE_JSON),
    ("1", 1, ONE_JSON),
    (1, 1, {"re": {"num": "2", "den": True}, "im": {"num": "0", "den": "1"}}),
])
def test_from_json_refuses_non_integer_fields(r, s, coeff):
    with pytest.raises(ValueError):
        NormalPolynomial.from_json([{"r": r, "s": s, "coeff": coeff}])


def test_json_is_canonically_ordered():
    p = as_poly({(0, 0): 1, (1, 1): Fraction(1, 2)})
    blob = p.to_json()
    assert [(t["r"], t["s"]) for t in blob] == [(1, 1), (0, 0)]
    assert blob[0]["coeff"]["re"] == {"num": "1", "den": "2"}


# -- commutators --------------------------------------------------------------

def test_commutator_against_string_rewriter():
    for s in range(6):
        for k in range(6):
            expected = as_poly(brute_force.commutator_string(s, k))
            assert commutator_powers(s, k) == expected, (s, k)


def test_commutator_equals_product_difference():
    for s in range(6):
        for k in range(6):
            lhs = multiply_monomials((0, s), (k, 0)) - NormalPolynomial.monomial((k, s))
            assert commutator_powers(s, k) == lhs


def test_commutator_frozen_example():
    assert commutator_powers(2, 2) == as_poly({(1, 1): 4, (0, 0): 2})
    assert commutator_powers(0, 3).is_zero()
    assert commutator_powers(3, 0).is_zero()


def test_commutator_checks_sizes_before_the_cache():
    # A float key equals its int key in the basis-product cache, so a float
    # size must be refused before the cache is asked, warm or not.
    assert commutator_powers(2, 1) == as_poly({(0, 1): 2})
    for s, k in ((2.0, 1), (2, 1.0), (True, 1), (2, False)):
        with pytest.raises(TypeError):
            commutator_powers(s, k)
    for s, k in ((-1, 2), (2, -1)):
        with pytest.raises(ValueError, match="exponents must be nonnegative"):
            commutator_powers(s, k)


@pytest.mark.parametrize("call", [
    lambda: make_vertex(2.0, 1),
    lambda: make_vertex(1, 2.0),
    lambda: build_iteratively([(1, 1, 0), (2.0, 1, 0)]),
    lambda: count_matchings(2.0, 1),
    lambda: count_matchings(1, 2.0),
    lambda: commutator_powers(2.0, 1),
    lambda: commutator_powers(1, 2.0),
], ids=["make_vertex-r", "make_vertex-s", "build_iteratively", "count_matchings-gray",
        "count_matchings-white", "commutator_powers-s", "commutator_powers-k"])
def test_a_float_size_raises_type_error(call):
    with pytest.raises(TypeError):
        call()


# -- words and normal ordering --------------------------------------------------

def test_word_from_str():
    assert word_from_str("a ad a") == (Letter.ANNIHILATOR, Letter.CREATOR, Letter.ANNIHILATOR)
    assert word_from_str("a† a") == (Letter.CREATOR, Letter.ANNIHILATOR)
    assert word_from_str("") == ()
    with pytest.raises(ValueError):
        word_from_str("b")


def test_power_word():
    assert power_word(word_from_str("ad a"), 2) == word_from_str("ad a ad a")
    assert power_word(word_from_str("a"), 0) == ()


def test_normal_order_frozen_values():
    assert normal_order_word(word_from_str("a ad")) == as_poly({(1, 1): 1, (0, 0): 1})
    assert normal_order_word(word_from_str("ad a ad a")) == as_poly({(2, 2): 1, (1, 1): 1})
    assert normal_order_word(power_word(word_from_str("ad a"), 3)) == as_poly(
        {(3, 3): 1, (2, 2): 3, (1, 1): 1}
    )
    assert normal_order_word(word_from_str("a a ad ad")) == as_poly(
        {(2, 2): 1, (1, 1): 4, (0, 0): 2}
    )
    assert normal_order_word(()) == NormalPolynomial.one()


def test_normal_order_word_refuses_when_the_strategies_disagree(monkeypatch):
    # An explicit raise, not an assert statement: it holds under python -O too.
    monkeypatch.setattr(ladder, "normal_order_fold", lambda word: NormalPolynomial.zero())
    with pytest.raises(AssertionError, match="^normal-ordering strategies disagree on "):
        normal_order_word(word_from_str("a ad"))


@given(long_words)
@settings(deadline=None)
def test_rewrite_and_fold_strategies_agree(word):
    assert normal_order_rewrite(word) == normal_order_fold(word)


@given(long_words)
@settings(deadline=None)
def test_normal_order_against_string_rewriter(word):
    text = "".join("a" if x is Letter.ANNIHILATOR else "A" for x in word)
    assert normal_order_word(word) == as_poly(brute_force.normal_order_string(text))


def test_rewrite_of_lowering_then_raising_powers_is_the_closed_form():
    # a^12 ad^12 has 144 inversions; each distinct word is rewritten once.
    for s in range(13):
        for k in range(13):
            word = (Letter.ANNIHILATOR,) * s + (Letter.CREATOR,) * k
            assert normal_order_rewrite(word) == multiply_monomials((0, s), (k, 0)), (s, k)


def test_rewrite_of_alternating_powers_is_the_fold():
    for base in (word_from_str("a ad"), word_from_str("ad a")):
        for n in range(13):
            word = power_word(base, n)
            assert normal_order_rewrite(word) == normal_order_fold(word), (base, n)


@pytest.mark.parametrize(
    "word", [(Letter.ANNIHILATOR, "x", Letter.CREATOR), ("a",), "aad", (None,), ([],)]
)
def test_rewrite_refuses_non_letters(word):
    with pytest.raises(TypeError):
        normal_order_rewrite(word)


def test_stirling_diagonal():
    # normal ordering of (raise lower)^n has Stirling set-partition coefficients
    base = word_from_str("ad a")
    for n in range(0, 9):
        expected = as_poly({(k, k): reference.stirling2(n, k) for k in range(1, n + 1)})
        if n == 0:
            expected = NormalPolynomial.one()
        assert normal_order_word(power_word(base, n)) == expected, n


@given(words, words)
@settings(deadline=None, max_examples=50)
def test_normal_ordering_is_multiplicative(u, v):
    # ordering a concatenation equals multiplying the ordered halves
    assert normal_order_fold(u + v) == normal_order_fold(u) * normal_order_fold(v)
