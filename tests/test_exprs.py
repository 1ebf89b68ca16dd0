import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from laddergraphs.exprs import (
    MAX_NESTING,
    IdentityExpr,
    LetterExpr,
    ParseError,
    PowerExpr,
    ProductExpr,
    ScaledExpr,
    SumExpr,
    evaluate,
    format_polynomial,
    parse,
    power,
    product,
    scaled,
    sum_of,
)
from laddergraphs.ladder import Letter, NormalMonomial, NormalPolynomial
from laddergraphs.scalars import GaussianRational
from test_graphs import opcodes

A = LetterExpr(Letter.ANNIHILATOR)
AD = LetterExpr(Letter.CREATOR)


def gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


# -- golden parse trees ---------------------------------------------------------

def test_juxtaposition_is_product():
    assert parse("a ad") == ProductExpr((A, AD))
    assert parse("ada") == ProductExpr((AD, A))  # greedy lexing: 'ad' then 'a'


def test_power_binds_tighter_than_product():
    assert parse("ad a^2") == ProductExpr((AD, PowerExpr(A, 2)))
    assert parse("(ad a)^2") == PowerExpr(ProductExpr((AD, A)), 2)


def test_sum_of_scaled_products():
    assert parse("ad^2 a^2 + 3 ad a") == SumExpr((
        ProductExpr((PowerExpr(AD, 2), PowerExpr(A, 2))),
        ScaledExpr(gr(3), ProductExpr((AD, A))),
    ))


def test_minus_folds_into_scaling():
    assert parse("a - ad") == SumExpr((A, ScaledExpr(gr(-1), AD)))
    assert parse("a - 2 ad") == SumExpr((A, ScaledExpr(gr(-2), AD)))
    assert parse("a - -2 ad") == SumExpr((A, ScaledExpr(gr(2), AD)))


def test_bare_coefficients_scale_the_identity():
    assert parse("2") == ScaledExpr(gr(2), IdentityExpr())
    assert parse("-1/2") == ScaledExpr(gr(Fraction(-1, 2)), IdentityExpr())
    assert parse("0") == ScaledExpr(gr(0), IdentityExpr())
    assert parse("1") == IdentityExpr()  # unit scaling normalizes away


def test_one_before_caret_is_the_identity_atom():
    assert parse("1^2") == PowerExpr(IdentityExpr(), 2)
    assert parse("1^0") == IdentityExpr()
    assert parse("ad 1 a") == ProductExpr((AD, IdentityExpr(), A))


def test_complex_coefficients_parse_greedily():
    assert parse("3 - 2i") == ScaledExpr(gr(3, -2), IdentityExpr())
    assert parse("3 - 2i a") == ScaledExpr(gr(3, -2), A)
    assert parse("3 - 2 a") == SumExpr((
        ScaledExpr(gr(3), IdentityExpr()),
        ScaledExpr(gr(-2), A),
    ))
    assert parse("2i ad") == ScaledExpr(gr(0, 2), AD)
    assert parse("-1/3i") == ScaledExpr(gr(0, Fraction(-1, 3)), IdentityExpr())


def test_unicode_dagger_alias():
    assert parse("a† a") == parse("ad a")
    assert parse("a†^2") == parse("ad^2")


def test_whitespace_is_insignificant():
    assert parse(" ad   a\t+\n1 ") == parse("ad a + 1")
    assert parse("1/2a") == parse("1/2 a")


# -- parse errors ------------------------------------------------------------------

@pytest.mark.parametrize("text, position, fragment", [
    ("a ^", 3, "natural number"),
    ("b", 0, "unknown token"),
    ("a $ a", 2, "unknown token"),
    ("1/0", 2, "zero denominator"),
    ("a +", 3, "expected"),
    ("(a", 2, "')'"),
    ("", 0, "expected"),
    ("a^-2", 2, "natural number"),
    ("a a) ", 3, "end of input"),
    ("i", 0, "expected"),
    ("2 3", 2, "end of input"),
])
def test_error_positions(text, position, fragment):
    with pytest.raises(ParseError) as excinfo:
        parse(text)
    assert excinfo.value.position == position
    assert fragment in str(excinfo.value)


def test_nesting_limit():
    at_limit = "(" * MAX_NESTING + "a" + ")" * MAX_NESTING
    assert parse(at_limit) == A
    assert parse(at_limit + " " + at_limit) == ProductExpr((A, A))  # depth, not count
    for depth in (MAX_NESTING + 1, 400, 5000):
        with pytest.raises(ParseError, match="nesting too deep") as excinfo:
            parse("(" * depth + "a" + ")" * depth)
        assert excinfo.value.position == MAX_NESTING  # the first '(' past the limit
    with pytest.raises(ParseError) as excinfo:
        parse("( " * 400)
    assert excinfo.value.position == 2 * MAX_NESTING


MAX_DIGITS = sys.get_int_max_str_digits()


@pytest.mark.skipif(not MAX_DIGITS, reason="the interpreter converts integers of any length")
@pytest.mark.parametrize("prefix, suffix", [("a^", ""), ("", " a"), ("ad + 1/", ""),
                                            ("2 + -", "i a")])
def test_over_long_literals_are_lexical_errors(prefix, suffix):
    assert parse(prefix + "7" * MAX_DIGITS + suffix) is not None
    over = prefix + "7" * (MAX_DIGITS + 1) + suffix
    with pytest.raises(ParseError, match="lexical error") as excinfo:
        parse(over)
    assert excinfo.value.position == len(prefix)
    assert f"longer than {MAX_DIGITS} digits" in str(excinfo.value)


def test_literals_of_any_length_parse_when_the_limit_is_off():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # 0: no limit
    try:
        digits = "7" * 5000
        assert parse(digits + " a") == ScaledExpr(gr(int(digits)), A)
    finally:
        sys.set_int_max_str_digits(limit)


def test_unary_minus_on_letters_is_not_in_the_grammar():
    with pytest.raises(ParseError):
        parse("-a")


# -- smart constructors --------------------------------------------------------------

def test_smart_constructors_normalize():
    assert power(A, 0) == IdentityExpr()
    assert power(A, 2) == PowerExpr(A, 2)
    assert product([A]) == A
    assert scaled(gr(1), A) == A
    assert scaled(gr(2), A) == ScaledExpr(gr(2), A)
    assert sum_of([A]) == A
    with pytest.raises(ValueError):
        PowerExpr(A, -1)
    with pytest.raises(ValueError):
        ProductExpr(())


# -- evaluation -----------------------------------------------------------------------

def test_evaluate_known_expressions():
    assert evaluate(parse("a ad")) == NormalPolynomial({(1, 1): 1, (0, 0): 1})
    assert evaluate(parse("(ad a)^2")) == NormalPolynomial({(2, 2): 1, (1, 1): 1})
    assert evaluate(parse("1")) == NormalPolynomial.one()
    assert evaluate(parse("0")) == NormalPolynomial.zero()
    p = evaluate(parse("1/2 a^2 + 3i ad"))
    assert p.coefficient((0, 2)) == GaussianRational(Fraction(1, 2))
    assert p.coefficient((1, 0)) == GaussianRational(0, 3)


def test_evaluate_respects_products_and_sums():
    for left, right in [("a ad", "ad a"), ("(a + ad)^2", "1"), ("2 a", "3 ad a")]:
        combined = evaluate(parse(f"({left}) ({right})"))
        assert combined == evaluate(parse(left)) * evaluate(parse(right))
        summed = evaluate(parse(f"({left}) + ({right})"))
        assert summed == evaluate(parse(left)) + evaluate(parse(right))


def test_evaluate_rejects_foreign_objects():
    with pytest.raises(TypeError):
        evaluate("a ad")  # type: ignore[arg-type]
    with pytest.raises(TypeError):
        evaluate(ProductExpr((A, None)))  # type: ignore[arg-type]


def test_evaluate_hand_built_deep_tree():
    # Deeper than Python's recursion limit; parse never builds this.
    n = LetterExpr(Letter.ANNIHILATOR)
    for _ in range(2000):
        n = ProductExpr((n, LetterExpr(Letter.ANNIHILATOR)))
    assert evaluate(n) == NormalPolynomial.monomial((0, 2001))
    # Every node kind, nested 2000 levels: each level maps p to 2 (p 1)^1 - a,
    # which keeps p = a.
    two, minus_one = GaussianRational(2), GaussianRational(-1)
    m = A
    for _ in range(2000):
        m = SumExpr((ScaledExpr(two, PowerExpr(ProductExpr((m, IdentityExpr())), 1)),
                     ScaledExpr(minus_one, A)))
    assert evaluate(m) == NormalPolynomial.monomial((0, 1))


def test_warm_evaluate_calls_no_monomial_method_and_no_lambda():
    # Polynomials store (r, s) pairs, so no term of the power is hashed, built
    # or read as a NormalMonomial, and no key goes through a lambda.  The one
    # lambda called is the power node's own fold in exprs.
    node = parse("(a+ad)^30")
    evaluate(node)  # fills the basis-product cache
    _, calls = opcodes(evaluate, node)
    assert calls["NormalPolynomial.__pow__"] == 1 and calls["<lambda>"] == 1
    assert [name for name in calls if name.startswith("NormalMonomial.")] == []


def test_warm_evaluate_takes_the_real_loop_exactly_for_real_coefficients():
    # Every coefficient of (2 a - 3 ad)^40 is real, so no product step runs
    # the Gaussian loop; (1/2 a + 3i ad)^32 has an imaginary one, so none
    # runs the real loop.
    real, gaussian = parse("(2 a - 3 ad)^40"), parse("(1/2 a + 3i ad)^32")
    evaluate(real), evaluate(gaussian)  # fill the basis-product cache
    _, calls = opcodes(evaluate, real)
    assert calls["_pair_numerators"] == 0 and calls["_real_numerators"] == 40
    _, calls = opcodes(evaluate, gaussian)
    assert calls["_real_numerators"] == 0 and calls["_pair_numerators"] == 32


# -- canonical formatting ----------------------------------------------------------------

def test_format_golden():
    assert format_polynomial(NormalPolynomial.zero()) == "0"
    assert format_polynomial(NormalPolynomial.one()) == "1"
    assert format_polynomial(evaluate(parse("a ad"))) == "ad a + 1"
    assert format_polynomial(evaluate(parse("0 - ad a"))) == "-1 ad a"
    assert format_polynomial(evaluate(parse("a^2 - 1/2"))) == "a^2 - 1/2"
    assert format_polynomial(evaluate(parse("2i ad^3 - a"))) == "2i ad^3 - a"
    assert format_polynomial(NormalPolynomial({(1, 1): GaussianRational(2, -3)})) == "2-3i ad a"
    assert format_polynomial(NormalPolynomial({(0, 0): GaussianRational(-1, 2)})) == "-1+2i"


def test_format_orders_terms_canonically():
    p = NormalPolynomial({(0, 0): 1, (2, 1): 1, (1, 2): 2, (1, 1): 1})
    assert format_polynomial(p) == "ad^2 a + 2 ad a^2 + ad a + 1"


coeffs = st.builds(
    GaussianRational,
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
polys = st.builds(
    NormalPolynomial,
    st.lists(
        st.tuples(st.builds(NormalMonomial, st.integers(0, 6), st.integers(0, 6)), coeffs),
        max_size=6,
    ),
)


@given(polys)
@settings(deadline=None)
def test_format_parse_round_trip(p):
    assert evaluate(parse(format_polynomial(p))) == p


# Polynomials as {(r, s): (re, im)} for the reference renderer, drawn with int,
# Fraction and Gaussian coefficients; small parts make signs, units, zero real
# parts and the identity term frequent.
small_parts = st.sampled_from([0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
parts = st.one_of(small_parts, st.integers(-30, 30),
                  st.fractions(min_value=-30, max_value=30, max_denominator=9))
term_tables = st.one_of(
    st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)), family, max_size=6)
    for family in (st.integers(-4, 4).map(lambda n: (n, 0)),
                   parts.map(lambda q: (Fraction(q), 0)),
                   st.tuples(parts, parts))
)


def from_table(table: dict) -> NormalPolynomial:
    """The polynomial of ``table``: an ``int``, ``Fraction`` or ``GaussianRational`` per term."""
    return NormalPolynomial({key: GaussianRational(re, im) if im else re
                             for key, (re, im) in table.items()})


@given(term_tables)
@settings(deadline=None)
@example({})
@example({(1, 1): (-1, 0), (0, 0): (1, 0)})  # negative unit leading term, identity 1
@example({(1, 0): (1, 0), (0, 1): (-1, 0), (0, 0): (-1, 0)})  # ad - a - 1
@example({(0, 0): (0, -1)})  # an imaginary-only negative identity term
@example({(2, 0): (0, -2), (1, 0): (0, 3), (0, 1): (0, Fraction(-1, 2)), (0, 0): (-1, 1)})
@example({(3, 0): (Fraction(-1, 2), Fraction(1, 3)), (0, 2): (Fraction(-2, 3), -1),
          (1, 1): (2, -3)})
def test_rendering_matches_the_reference_renderer(table):
    p = from_table(table)
    # The reference renderers take Fraction pairs and no zero terms.
    terms = {key: reference.g(*c) for key, c in table.items() if any(c)}
    assert format_polynomial(p) == reference.polynomial_text(terms)
    assert p.to_json() == reference.polynomial_json(terms)


def test_fuzz_parser_never_crashes():
    rng = random.Random(1234)
    alphabet = "aad† 1230/^+-()i$b."
    for _ in range(1000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 14)))
        try:
            node = parse(text)
        except ParseError:
            continue
        evaluate(node)  # whatever parses must also evaluate


def nested(rng: random.Random, depth: int) -> str:
    """A well-formed expression with ``depth`` nested parentheses.

    The wrappers use ``a`` and scalars only, so the normally ordered result
    stays small at any depth.
    """
    text = rng.choice(["a", "ad", "1", "2 ad", "ad^2", "1/2 ad a"])
    for _ in range(depth):
        left = rng.choice(["", "a ", "2 ", "1/3-2i ", "a^2 "])
        right = rng.choice(["", " a", " + 1", " - 2i", "^1"])
        text = f"{left}({text}){right}"
    return text


def test_fuzz_parser_deep_and_wide_inputs():
    rng = random.Random(4321)
    for _ in range(60):
        depth = rng.randint(0, 3 * MAX_NESTING)
        text = nested(rng, depth)
        if depth <= MAX_NESTING:
            evaluate(parse(text))
        else:
            with pytest.raises(ParseError, match="nesting too deep") as excinfo:
                parse(text)
            opening = [i for i, ch in enumerate(text) if ch == "("]
            assert excinfo.value.position == opening[MAX_NESTING]
    wide = [
        " + ".join(rng.choice(["a", "2 ad", "ad a", "-1/2", "3i a"]) for _ in range(3000)),
        "a " * 3000,
        "(a)" * 3000,
        " - ".join(nested(rng, MAX_NESTING) for _ in range(20)),
    ]
    for text in wide:
        evaluate(parse(text))
    alphabet = "((()) aad^2+-1"
    for _ in range(200):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(100, 1500)))
        try:
            node = parse(text)
        except ParseError:
            continue
        evaluate(node)
