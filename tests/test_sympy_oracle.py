"""sympy's boson normal ordering as an independent oracle.

Optional: the module is skipped when sympy is not installed.  sympy is never
a dependency of the package, and nothing here is shared with the package or
with the other oracles, ``brute_force.py`` and ``perfbench/reference.py``:
each expression is built as a sympy product of ``BosonOp("a")`` and
``Dagger`` factors, normally ordered by ``normal_ordered_form`` and read back
as a ``{(r, s): (re, im)}`` table of ``ad^r a^s`` coefficients.  sympy is
given a product of factors, never a ``Pow``, with ``recursive_limit`` raised
for the longer words.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")
from sympy.physics.quantum import Dagger  # noqa: E402
from sympy.physics.quantum.boson import BosonOp  # noqa: E402
from sympy.physics.quantum.operatorordering import normal_ordered_form  # noqa: E402

from laddergraphs.exprs import evaluate, parse  # noqa: E402
from laddergraphs.ladder import normal_order_rewrite, word_from_str  # noqa: E402

A = BosonOp("a")
AD = Dagger(A)

# Coefficient text in the expression language, and its (re, im) value.
COEFFS = {
    "1/2": (Fraction(1, 2), Fraction(0)),
    "3i": (Fraction(0), Fraction(3)),
    "2/3-1/7i": (Fraction(2, 3), Fraction(-1, 7)),
    "-1/3-2/5i": (Fraction(-1, 3), Fraction(-2, 5)),
}


def sympy_scalar(value: tuple[Fraction, Fraction]):
    re, im = value
    return (sympy.Rational(re.numerator, re.denominator)
            + sympy.I * sympy.Rational(im.numerator, im.denominator))


def sympy_normal_form(factors: list) -> dict:
    """Normal order the product of ``factors`` and tabulate its terms."""
    expr = sympy.expand(sympy.Mul(*factors, evaluate=False))
    ordered = sympy.expand(normal_ordered_form(expr, recursive_limit=100, independent=True))
    table: dict = {}
    for term in sympy.Add.make_args(ordered):
        scalars, operators = term.args_cnc()
        r = s = 0
        for factor in operators:
            base, exponent = factor.as_base_exp()
            if base == AD:
                assert not s, f"{term} is not normally ordered"
                r += int(exponent)
            else:
                assert base == A, f"unexpected factor {factor}"
                s += int(exponent)
        c = sympy.Mul(*scalars)
        re, im = sympy.re(c), sympy.im(c)
        old = table.get((r, s), (Fraction(0), Fraction(0)))
        table[(r, s)] = (old[0] + Fraction(int(re.p), int(re.q)),
                         old[1] + Fraction(int(im.p), int(im.q)))
    return {key: value for key, value in table.items() if any(value)}


def our_table(p) -> dict:
    return {(m.r, m.s): (c.re, c.im) for m, c in p.terms()}


@given(st.lists(st.sampled_from(["a", "ad"]), max_size=8))
@settings(max_examples=30, deadline=None)
@example(["a"] * 4 + ["ad"] * 4)
@example(["a", "ad"] * 4)
def test_words_agree_with_sympy(letters):
    expected = sympy_normal_form([A if x == "a" else AD for x in letters])
    assert our_table(normal_order_rewrite(word_from_str(" ".join(letters)))) == expected


@given(st.sampled_from(sorted(COEFFS)), st.sampled_from(sorted(COEFFS)),
       st.sampled_from(sorted(COEFFS)), st.integers(0, 5))
@settings(max_examples=12, deadline=None)
@example("2/3-1/7i", "1/2", "-1/3-2/5i", 5)
@example("3i", "-1/3-2/5i", "1/2", 0)
def test_shifted_powers_agree_with_sympy(c1, c2, c0, n):
    base = sympy_scalar(COEFFS[c1]) * A + sympy_scalar(COEFFS[c2]) * AD + sympy_scalar(COEFFS[c0])
    expected = sympy_normal_form([base] * n)
    assert our_table(evaluate(parse(f"({c1} a + {c2} ad + {c0})^{n}"))) == expected
