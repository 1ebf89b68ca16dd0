from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from laddergraphs.scalars import ONE, ZERO, GaussianRational

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
