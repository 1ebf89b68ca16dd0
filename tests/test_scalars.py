import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from laddergraphs.scalars import ONE, ZERO, GaussianRational
from reference import g, gadd, gdiv, gmul, scalar_text

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=60)
scalars = st.builds(GaussianRational, fractions, fractions)
nonzero_scalars = scalars.filter(lambda x: not x.is_zero())

# Arbitrary JSON documents, and scalar records built partly from them: decoder
# fuzz tests in this and the other test modules draw on these.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=10,
)
numerals = st.integers(-3, 3).map(str) | json_values
scalar_parts = st.fixed_dictionaries({}, optional={"num": numerals, "den": numerals}) | json_values
scalar_records = (
    st.fixed_dictionaries({}, optional={"re": scalar_parts, "im": scalar_parts}) | json_values
)


def test_construction_coerces_ints():
    x = GaussianRational(2, 1)
    assert x.re == Fraction(2) and x.im == Fraction(1)
    assert isinstance(x.re, Fraction) and isinstance(x.im, Fraction)


def test_floats_are_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational.coerce(1.25)


def test_predicates():
    assert ZERO.is_zero() and not ZERO
    assert ONE.is_one() and ONE
    assert not GaussianRational(0, 1).is_zero()
    assert not GaussianRational(1, 1).is_one()


def test_equality_with_plain_rationals():
    assert GaussianRational.coerce(2) == 2
    assert GaussianRational(Fraction(1, 2)) == Fraction(1, 2)
    assert GaussianRational(2, 1) != 2
    # cross-type equality must come with cross-type hash agreement
    assert hash(GaussianRational.coerce(2)) == hash(2)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    # any other type is left to decide
    assert GaussianRational(1).__eq__("1") is NotImplemented and GaussianRational(1) != "1"


@given(scalars, scalars, scalars)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z


@given(scalars)
def test_additive_and_multiplicative_units(x):
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO
    assert x * ZERO == ZERO


@given(scalars, nonzero_scalars)
def test_division_inverts_multiplication(x, y):
    assert (x / y) * y == x
    assert y / y == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


@given(scalars, scalars)
def test_conjugation(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert x.conjugate().conjugate() == x
    norm = x * x.conjugate()
    assert norm.im == 0 and norm.re >= 0


@given(scalars)
def test_int_operand_coercion(x):
    assert x + 1 == 1 + x == x + ONE
    assert x * 2 == 2 * x
    assert x - 1 == -(1 - x)


@pytest.mark.parametrize("value, text", [
    (GaussianRational(0, 0), "0"),
    (GaussianRational(3, 0), "3"),
    (GaussianRational(Fraction(-1, 2), 0), "-1/2"),
    (GaussianRational(0, 2), "2i"),
    (GaussianRational(0, 1), "1i"),
    (GaussianRational(0, Fraction(-1, 3)), "-1/3i"),
    (GaussianRational(3, Fraction(1, 2)), "3+1/2i"),
    (GaussianRational(-2, -3), "-2-3i"),
    (GaussianRational(2, -3), "2-3i"),
])
def test_str_forms(value, text):
    assert str(value) == text


@given(scalars)
def test_json_round_trip(x):
    assert GaussianRational.from_json(x.to_json()) == x


@given(scalar_records)
@example({"re": {"num": "1", "den": "0"}, "im": {"num": "0", "den": "1"}})
@example({"re": {"num": 2.7, "den": 1}, "im": {"num": "0", "den": "1"}})
@example({"re": {"num": "1", "den": float("inf")}, "im": {"num": "0", "den": "1"}})
def test_from_json_raises_only_value_error(obj):
    try:
        assert isinstance(GaussianRational.from_json(obj), GaussianRational)
    except ValueError:
        pass


def test_json_uses_decimal_strings():
    blob = GaussianRational(Fraction(-7, 3), Fraction(1, 2)).to_json()
    assert blob == {
        "re": {"num": "-7", "den": "3"},
        "im": {"num": "1", "den": "2"},
    }


@pytest.mark.parametrize("num, den", [
    (2.7, 1), ("2", 1.0), (True, 1), ("1", False), ("2.7", "1"), ("+1", "1"), (" 1", "1"),
    ("1_0", "1"), ("\u0661", "1"), ("", "1"), (None, "1"), ([1], "1"),
])
def test_from_json_refuses_non_integer_numerals(num, den):
    record = {"re": {"num": num, "den": den}, "im": {"num": "0", "den": "1"}}
    with pytest.raises(ValueError):
        GaussianRational.from_json(record)


def test_from_json_accepts_ints_and_decimal_strings():
    record = {"re": {"num": -6, "den": "4"}, "im": {"num": "7", "den": 1}}
    assert GaussianRational.from_json(record) == GaussianRational(Fraction(-3, 2), 7)


# -- differential test against a two-Fraction model -----------------------------
# The model is the plain (re, im) pair of Fractions the stored form must agree
# with, whichever of int and Fraction each part is stored as; its arithmetic
# and text are perfbench/reference.py's.

model_parts = (
    st.sampled_from([Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(4, 2)])
    | st.fractions(min_value=-6, max_value=6, max_denominator=4)
    | st.integers(-6, 6)
)
model_pairs = st.tuples(model_parts, model_parts)


def assert_matches_model(z, model):
    re, im = Fraction(model[0]), Fraction(model[1])
    assert type(z.re) is Fraction and type(z.im) is Fraction
    assert (z.re, z.im) == (re, im)
    assert z == GaussianRational(re, im)
    assert (z == re) == (im == 0)
    assert hash(z) == (hash(re) if not im else hash((re, im)))
    assert str(z) == scalar_text((re, im))
    assert z.to_json() == {
        "re": {"num": str(re.numerator), "den": str(re.denominator)},
        "im": {"num": str(im.numerator), "den": str(im.denominator)},
    }
    assert z.is_zero() == (not re and not im) == (not z)
    assert z.is_one() == (re == 1 and not im)
    # Stored form: a part is an int exactly when it is integral.
    for part in (z._re, z._im):
        assert type(part) is int or part.denominator != 1


@given(model_pairs, model_pairs, st.integers(-4, 4))
@example((Fraction(1, 2), 0), (2, 0), 2)
@example((Fraction(1, 3), 0), (Fraction(2, 3), 0), 3)
@example((Fraction(1, 2), Fraction(1, 2)), (1, -1), 0)
def test_matches_two_fraction_model(p, q, n):
    x, y = GaussianRational(*p), GaussianRational(*q)
    # g(n), not (n, 0): gdiv on int pairs divides to floats.
    mx, my, mn = g(*p), g(*q), g(n)
    neg_y, neg_n = (-my[0], -my[1]), g(-n)
    cases = [
        (x, mx),
        (x + y, gadd(mx, my)),
        (x - y, gadd(mx, neg_y)),
        (x * y, gmul(mx, my)),
        (-x, (-mx[0], -mx[1])),
        (x.conjugate(), (mx[0], -mx[1])),
        (x + n, gadd(mx, mn)),
        (n + x, gadd(mx, mn)),
        (x - n, gadd(mx, neg_n)),
        (n - x, gadd(mn, (-mx[0], -mx[1]))),
        (x * n, gmul(mx, mn)),
        (n * x, gmul(mx, mn)),
        (x * Fraction(n, 2), gmul(mx, g(Fraction(n, 2)))),
    ]
    if any(my):
        cases.append((x / y, gdiv(mx, my)))
    if n:
        cases.append((x / n, gdiv(mx, mn)))
    if any(mx):
        cases.append((n / x, gdiv(mn, mx)))
    for value, model in cases:
        assert_matches_model(value, model)
    assert (x == y) == (mx == my)
    assert (hash(x) == hash(y)) or mx != my


def test_integral_fraction_equals_int():
    values = [GaussianRational(Fraction(4, 2)), GaussianRational(2), 2, Fraction(2)]
    for a in values:
        for b in values:
            assert a == b and hash(a) == hash(b)
    assert repr(values[0]) == repr(values[1]) == "GaussianRational(Fraction(2, 1), Fraction(0, 1))"


def test_scalars_are_immutable_and_picklable():
    x = GaussianRational(Fraction(1, 2), 3)
    with pytest.raises(AttributeError):
        x.re = Fraction(5)
    with pytest.raises(AttributeError):
        x._im = 5
    assert pickle.loads(pickle.dumps(x)) == x
    assert copy.deepcopy(x) == x and str(copy.copy(x)) == "1/2+3i"
