"""The normally ordered monomial algebra of a single raise/lower operator pair.

Basis elements are pairs ``(r, s)`` standing for the operator that applies
``s`` lowering steps followed by ``r`` raising steps (all raising factors
written to the left of all lowering factors).  The product of two basis
elements expands as a finite sum with positive integer coefficients:

    (r, s) * (k, l)  =  sum over i in 0..min(k, s) of
                        i! * C(s, i) * C(k, i) * (r + k - i, s + l - i)

which is the closed form of repeatedly commuting a lowering operator past a
raising one with commutator equal to the identity.  Polynomials are finitely
supported sums of basis elements with :class:`GaussianRational` coefficients,
built on the sparse linear-combination core of :mod:`laddergraphs.scalars`
(:class:`LinearCombination` and :func:`accumulate`); their product is the
core's bilinear product with the cached closed form above as its basis
product.  All arithmetic is exact.

Free (unordered) words in the two generators are normalized by two
independent strategies, a rewrite engine and a fold over basis products,
which are cross-checked against each other in :func:`normal_order_word`.
"""

from __future__ import annotations

from enum import Enum
from functools import cache, reduce
from math import comb, factorial
from operator import mul

from .scalars import ONE, GaussianRational, LinearCombination, Record, ScalarLike, accumulate

MonomialLike = "NormalMonomial | tuple[int, int]"


class NormalMonomial(Record):
    """Basis element with ``r`` raising and ``s`` lowering factors."""

    __slots__ = __match_args__ = ("r", "s")

    def __init__(self, r: int, s: int):
        if not (isinstance(r, int) and isinstance(s, int)):
            raise TypeError("monomial exponents must be integers")
        if r < 0 or s < 0:
            raise ValueError(f"monomial exponents must be nonnegative, got {(r, s)}")
        _set_r(self, r)
        _set_s(self, s)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.r == other.r and self.s == other.s

    def __hash__(self) -> int:
        return hash((self.r, self.s))

    @property
    def degree(self) -> int:
        return self.r + self.s

    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0


_set_r, _set_s = NormalMonomial.r.__set__, NormalMonomial.s.__set__

IDENTITY = NormalMonomial(0, 0)
LOWER = NormalMonomial(0, 1)
RAISE = NormalMonomial(1, 0)


def _as_monomial(m: "MonomialLike") -> NormalMonomial:
    if isinstance(m, NormalMonomial):
        return m
    return NormalMonomial(*m)


def _term_sort_key(m: NormalMonomial) -> tuple[int, int]:
    # Graded order: descending total degree, then descending r.
    return (-m.degree, -m.r)


class NormalPolynomial(LinearCombination):
    """Finitely supported sum of :class:`NormalMonomial` with exact coefficients.

    Immutable and hashable.  Pruning, ``+``, ``-``, :meth:`scale` and ``==``
    come from the shared :class:`~laddergraphs.scalars.LinearCombination`
    core; this class adds the monomial basis, its graded order and the
    closed-form product.
    """

    __slots__ = ()

    _key = staticmethod(_as_monomial)
    _sort_key = staticmethod(_term_sort_key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "NormalPolynomial":
        return cls.monomial(IDENTITY)

    @classmethod
    def monomial(cls, m: MonomialLike, coeff: ScalarLike = ONE) -> "NormalPolynomial":
        return cls([(m, coeff)])

    # -- inspection ---------------------------------------------------------

    def monomials(self) -> list[NormalMonomial]:
        return [m for m, _ in self.terms()]

    # -- algebra operations ---------------------------------------------------

    def __mul__(self, other: "NormalPolynomial") -> "NormalPolynomial":
        """Bilinear extension of the basis product; noncommutative."""
        if not isinstance(other, NormalPolynomial):
            return NotImplemented
        return self._product(other, _monomial_product)

    def __pow__(self, n: int) -> "NormalPolynomial":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = NormalPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    # -- hashing and display ---------------------------------------------------

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if not self._terms:
            return "NormalPolynomial(0)"
        parts = ", ".join(f"({m.r},{m.s}): {c}" for m, c in self.terms())
        return f"NormalPolynomial({parts})"

    # -- serialization --------------------------------------------------------

    def to_json(self) -> list[dict]:
        """Canonically ordered list of term records with string-valued fractions."""
        return [
            {"r": m.r, "s": m.s, "coeff": c.to_json()}
            for m, c in self.terms()
        ]

    @classmethod
    def from_json(cls, obj: list[dict]) -> "NormalPolynomial":
        """Inverse of :meth:`to_json`; raises only ``ValueError`` on bad input.

        Exponents must be JSON integers; floats, booleans and strings are
        refused rather than converted.
        """
        def exponent(value) -> int:
            if isinstance(value, int) and not isinstance(value, bool):
                return value
            raise ValueError(f"monomial exponent must be an integer, got {value!r}")

        try:
            return cls(
                [(NormalMonomial(exponent(t["r"]), exponent(t["s"])),
                  GaussianRational.from_json(t["coeff"]))
                 for t in obj]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial record: {exc}") from exc


@cache
def _basis_product(r: int, s: int, k: int, l: int) -> tuple[tuple[NormalMonomial, int], ...]:
    return tuple(
        (NormalMonomial(r + k - i, s + l - i), factorial(i) * comb(s, i) * comb(k, i))
        for i in range(min(k, s) + 1)
    )


def _monomial_product(m1: NormalMonomial, m2: NormalMonomial):
    return _basis_product(m1.r, m1.s, m2.r, m2.s)


def multiply_monomials(m1: MonomialLike, m2: MonomialLike) -> NormalPolynomial:
    """Closed-form product of two basis elements.

    For ``m1 = (r, s)`` and ``m2 = (k, l)`` the result has exactly
    ``min(k, s) + 1`` terms with positive integer coefficients
    ``i! * C(s, i) * C(k, i)``; the ``i = 0`` term always has coefficient 1.
    """
    m1, m2 = _as_monomial(m1), _as_monomial(m2)
    return NormalPolynomial(_basis_product(m1.r, m1.s, m2.r, m2.s))


def commutator_powers(s: int, k: int) -> NormalPolynomial:
    """Normal form of (lowering^s)(raising^k) - (raising^k)(lowering^s).

    Closed form: sum over i in 1..min(k, s) of i!*C(s,i)*C(k,i) * (k-i, s-i).
    Empty when either exponent is zero.
    """
    if s < 0 or k < 0:
        raise ValueError("exponents must be nonnegative")
    return NormalPolynomial(
        [(NormalMonomial(k - i, s - i), factorial(i) * comb(s, i) * comb(k, i))
         for i in range(1, min(k, s) + 1)]
    )


# ---------------------------------------------------------------------------
# Free words and normal ordering
# ---------------------------------------------------------------------------

class Letter(Enum):
    """Generators of the free word algebra."""

    ANNIHILATOR = "a"
    CREATOR = "ad"

    @classmethod
    def from_token(cls, token: str) -> "Letter":
        if token == "a":
            return cls.ANNIHILATOR
        if token in ("ad", "a†"):
            return cls.CREATOR
        raise ValueError(f"unknown letter token {token!r}")

    @property
    def monomial(self) -> NormalMonomial:
        """The basis element this letter stands for: ``(0, 1)`` or ``(1, 0)``."""
        return RAISE if self is Letter.CREATOR else LOWER


Word = tuple[Letter, ...]


def word_from_str(text: str) -> Word:
    """Build a word from whitespace-separated letter tokens, e.g. ``"a ad a"``."""
    return tuple(Letter.from_token(t) for t in text.split())


_SPELLING = {Letter.ANNIHILATOR: "a", Letter.CREATOR: "d"}


def normal_order_rewrite(word: Word) -> NormalPolynomial:
    """Normal ordering by term rewriting on formal sums of words.

    One rewrite replaces the leftmost (lowering, raising) pair of a word by
    the swapped pair plus the word with the pair deleted.  Each step strictly
    reduces (inversions, length) lexicographically, so the loop terminates;
    uniqueness of the normal form makes the rewrite order irrelevant.  Words
    are spelled as strings, ``"a"`` for lowering and ``"d"`` for raising, so
    the leftmost inversion is the leftmost ``"ad"``.  An element that is not
    a :class:`Letter` raises ``TypeError``.
    """
    try:
        spelled = "".join([_SPELLING[letter] for letter in word])
    except (KeyError, TypeError):
        raise TypeError(f"a word is a sequence of Letter members, got {word!r}") from None
    pending: dict[str, int] = {spelled: 1}
    normal: dict[str, int] = {}
    while pending:
        w, c = pending.popitem()
        i = w.find("ad")
        if i < 0:
            accumulate(normal, w, c)
            continue
        accumulate(pending, w[:i] + "da" + w[i + 2:], c)
        accumulate(pending, w[:i] + w[i + 2:], c)
    return NormalPolynomial(
        (NormalMonomial(w.count("d"), w.count("a")), c) for w, c in normal.items()
    )


def normal_order_fold(word: Word) -> NormalPolynomial:
    """Normal ordering by mapping letters to basis elements and multiplying."""
    monomials = (letter.monomial for letter in word)
    return reduce(mul, map(NormalPolynomial.monomial, monomials), NormalPolynomial.one())


def normal_order_word(word: Word) -> NormalPolynomial:
    """Normal ordering with a built-in cross-check of both strategies.

    Raises AssertionError if the rewrite engine and the fold disagree, which
    would mean an internal arithmetic bug; the raise is explicit so the check
    survives optimized mode.
    """
    rewritten = normal_order_rewrite(word)
    folded = normal_order_fold(word)
    if rewritten != folded:
        raise AssertionError(
            f"normal-ordering strategies disagree on {word!r}: "
            f"rewrite={rewritten!r} fold={folded!r}"
        )
    return rewritten


def power_word(base: Word, n: int) -> Word:
    """The word ``base`` repeated ``n`` times."""
    return tuple(base) * n
