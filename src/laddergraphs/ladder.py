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
(:class:`LinearCombination` and :func:`accumulate`).  They store each term
under its plain ``(r, s)`` pair; :class:`NormalMonomial` is the public view
of a key.  Their product, defined here, runs on those pairs with the closed
form above as its basis product, cached once per pair and read from one table
per right factor, on ``int`` numerators over a common
denominator divided out once per result term.  Each product or power picks
its loop once, from its operands' stored parts: when every coefficient of
every operand has imaginary part 0, a real loop sums one ``int`` per result
pair; otherwise the Gaussian loop sums an ``[re, im]`` pair.  All arithmetic
is exact.

Free (unordered) words in the two generators are normalized by two
independent strategies, a rewrite engine and a fold over basis products,
which are cross-checked against each other in :func:`normal_order_word`.
The rewrite engine takes words by descending inversion count, each once.
"""

from __future__ import annotations

from collections.abc import Iterator
from enum import Enum
from fractions import Fraction
from functools import cache, reduce
from math import comb, factorial, lcm
from operator import attrgetter, mul

from .scalars import ONE, GaussianRational, LinearCombination, Record, ScalarLike, _integral, accumulate

MonomialLike = "NormalMonomial | tuple[int, int]"


class NormalMonomial(Record):
    """Basis element with ``r`` raising and ``s`` lowering factors."""

    __slots__ = __match_args__ = ("r", "s")

    def __init__(self, r: int, s: int):
        if not (isinstance(r, int) and isinstance(s, int)) or bool in (type(r), type(s)):
            raise TypeError(f"monomial exponents must be integers, got {(r, s)!r}")
        if r < 0 or s < 0:
            raise ValueError(f"monomial exponents must be nonnegative, got {(r, s)}")
        self._fill(r, s)

    def __hash__(self) -> int:
        return hash((self.r, self.s))

    @property
    def degree(self) -> int:
        return self.r + self.s

    def is_identity(self) -> bool:
        return self.r == 0 and self.s == 0


_monomial = cache(NormalMonomial)  # interned: one shared monomial per (r, s)

IDENTITY = _monomial(0, 0)
LOWER = _monomial(0, 1)
RAISE = _monomial(1, 0)


def _as_pair(m: "MonomialLike") -> tuple[int, int]:
    """The stored ``(r, s)`` key of a monomial or a pair, checked like a :class:`NormalMonomial`."""
    if not isinstance(m, NormalMonomial):
        m = NormalMonomial(*m)
    return m.r, m.s


def _term_sort_key(key: tuple[int, int]) -> tuple[int, int]:
    # Graded order: descending total degree, then descending r.
    return (-key[0] - key[1], -key[0])


class NormalPolynomial(LinearCombination):
    """Finitely supported sum of :class:`NormalMonomial` with exact coefficients.

    Immutable and hashable.  Terms are stored under plain ``(r, s)`` pairs;
    :meth:`terms` and :meth:`monomials` show them as interned monomials, and
    the constructor, :meth:`coefficient` and :meth:`from_json` take monomials
    or pairs.  Pruning, ``+``, ``-``, :meth:`scale` and ``==`` come from the
    shared :class:`~laddergraphs.scalars.LinearCombination` core; this class
    adds the monomial basis, its graded order and the closed-form product.
    """

    __slots__ = ()

    _key = staticmethod(_as_pair)
    _sort_key = staticmethod(_term_sort_key)

    # -- constructors ------------------------------------------------------

    @classmethod
    def one(cls) -> "NormalPolynomial":
        return cls.monomial(IDENTITY)

    @classmethod
    def monomial(cls, m: MonomialLike, coeff: ScalarLike = ONE) -> "NormalPolynomial":
        return cls([(m, coeff)])

    @classmethod
    def _from_numerators(cls, den: int, numerators: list[tuple]) -> "NormalPolynomial":
        """Wrap nonzero ``((r, s), re, im)`` numerators over ``den``, storing each pair as given."""
        raw = GaussianRational._raw
        if den == 1:
            return cls._raw({key: raw(re, im) for key, re, im in numerators})
        return cls._raw({key: raw(_integral(Fraction(re, den)), _integral(Fraction(im, den)))
                         for key, re, im in numerators})

    # -- inspection ---------------------------------------------------------

    def terms(self) -> Iterator[tuple[NormalMonomial, GaussianRational]]:
        """Iterate ``(monomial, coefficient)`` in graded order."""
        return ((_monomial(*key), c) for key, c in super().terms())

    def monomials(self) -> list[NormalMonomial]:
        return [m for m, _ in self.terms()]

    # -- algebra operations ---------------------------------------------------

    def __mul__(self, other: "NormalPolynomial") -> "NormalPolynomial":
        """Bilinear extension of the basis product; noncommutative.

        The real loop runs when both operands' coefficients are all real.
        """
        if not isinstance(other, NormalPolynomial):
            return NotImplemented
        den1, left = _integer_numerators(self._terms)
        den2, right = _integer_numerators(other._terms)
        loop = _real_numerators if _real(self._terms) and _real(other._terms) else _pair_numerators
        return self._from_numerators(den1 * den2, loop(left, right))

    def __pow__(self, n: int) -> "NormalPolynomial":
        """``n`` factors ``self``, multiplied left to right, over one denominator.

        After ``k`` steps the running power is ``int`` numerators over ``D**k``,
        ``D`` the base's common denominator; each result term is divided once.
        Every step runs the real loop when the base's coefficients are all real.
        """
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        den, base = _integer_numerators(self._terms)
        loop = _real_numerators if _real(self._terms) else _pair_numerators
        power = [((0, 0), 1, 0)]
        for _ in range(n):
            power = loop(power, base)
        return self._from_numerators(den ** n, power)

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
        terms = self._terms
        return [{"r": r, "s": s, "coeff": terms[r, s].to_json()}
                for r, s in sorted(terms, key=_term_sort_key)]

    @classmethod
    def from_json(cls, obj: list[dict]) -> "NormalPolynomial":
        """Inverse of :meth:`to_json`; raises only ``ValueError`` on bad input.

        Exponents must be JSON integers; floats, booleans and strings are
        refused rather than converted.
        """
        try:
            return cls(
                [((t["r"], t["s"]), GaussianRational.from_json(t["coeff"])) for t in obj]
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed polynomial record: {exc}") from exc


@cache
def _basis_product(m1: tuple[int, int], m2: tuple[int, int]) -> tuple[tuple[tuple, int], ...]:
    """The closed form of ``m1 * m2`` on ``(r, s)`` pairs, as ``((r', s'), weight)`` terms.

    The only home of the formula, cached per pair of arguments.  The product
    loops read it through the per-right-factor tables of :func:`_products`,
    which call this once per pair they have not seen.
    """
    (r, s), (k, l) = m1, m2
    return tuple(
        ((r + k - i, s + l - i), factorial(i) * comb(s, i) * comb(k, i))
        for i in range(min(k, s) + 1)
    )


class _ProductTable(dict):
    """``table[m1]`` is ``_basis_product(m1, table.right)``, filled on first read.

    A hit is a plain dict lookup, with no Python-level call per term pair.
    """

    __slots__ = ("right",)

    def __init__(self, right: tuple[int, int]):
        self.right = right

    def __missing__(self, m1: tuple[int, int]) -> tuple[tuple[tuple, int], ...]:
        self[m1] = terms = _basis_product(m1, self.right)
        return terms


_products = cache(_ProductTable)  # the one product table of each right factor


def _integer_numerators(terms: dict) -> tuple[int, list[tuple]]:
    """``(D, [((r, s), D*re, D*im), ...])``: the terms over their least common denominator."""
    coeffs = terms.values()
    den = lcm(*{c._re.denominator for c in coeffs}, *{c._im.denominator for c in coeffs})
    return den, [(key, c._re.numerator * (den // c._re.denominator),
                  c._im.numerator * (den // c._im.denominator)) for key, c in terms.items()]


_imaginary_part = attrgetter("_im")


def _real(terms: dict) -> bool:
    """Whether every coefficient of ``terms`` has imaginary part 0."""
    return not any(map(_imaginary_part, terms.values()))


def _pair_numerators(left: list[tuple], right: list[tuple]) -> list[tuple]:
    """Product of ``((r, s), re, im)`` numerator lists, over their denominators' product.

    Each pair of terms multiplies its coefficients once and adds them, times
    the weights of the closed form, to one ``[re, im]`` sum per result pair;
    pairs whose sum is zero are dropped.  The closed form is read from the
    table of each right term (:func:`_products`), fetched once per right term.
    The product loop of polynomials with a coefficient that is not real.
    """
    sums: dict = {}
    for k2, c, d in right:
        table = _products(k2)
        for k1, a, b in left:
            re, im = a * c - b * d, a * d + b * c
            for key, weight in table[k1]:
                total = sums.get(key)
                if total is None:
                    sums[key] = [re * weight, im * weight]
                else:
                    total[0] += re * weight
                    total[1] += im * weight
    return [(key, re, im) for key, (re, im) in sums.items() if re or im]


def _real_numerators(left: list[tuple], right: list[tuple]) -> list[tuple]:
    """:func:`_pair_numerators` for operands whose imaginary numerators are all 0.

    It reads only each term's key and real numerator and sums one ``int`` per
    result pair; the result's imaginary numerators are 0.  Like that loop, it
    reads the closed form from one table per right term.
    """
    sums: dict = {}
    for k2, c, _ in right:
        table = _products(k2)
        for k1, a, _ in left:
            ac = a * c
            for key, weight in table[k1]:
                sums[key] = sums.get(key, 0) + ac * weight
    return [(key, re, 0) for key, re in sums.items() if re]


def multiply_monomials(m1: MonomialLike, m2: MonomialLike) -> NormalPolynomial:
    """Closed-form product of two basis elements.

    For ``m1 = (r, s)`` and ``m2 = (k, l)`` the result has exactly
    ``min(k, s) + 1`` terms with positive integer coefficients
    ``i! * C(s, i) * C(k, i)``; the ``i = 0`` term always has coefficient 1.
    """
    terms = _basis_product(_as_pair(m1), _as_pair(m2))  # valid by construction: stored as given
    return NormalPolynomial._from_numerators(1, [(key, weight, 0) for key, weight in terms])


def commutator_powers(s: int, k: int) -> NormalPolynomial:
    """Normal form of (lowering^s)(raising^k) - (raising^k)(lowering^s).

    Closed form: sum over i in 1..min(k, s) of i!*C(s,i)*C(k,i) * (k-i, s-i).
    Empty when either exponent is zero.  Exponents are checked like a monomial's,
    before the cache: a float or ``bool`` raises ``TypeError``, a negative ``ValueError``.
    """
    terms = _basis_product(_as_pair((0, s)), _as_pair((k, 0)))[1:]
    return NormalPolynomial._from_numerators(1, [(key, weight, 0) for key, weight in terms])


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

    One rewrite replaces the leftmost (lowering, raising) pair, spelled
    ``"ad"``, by the swapped pair plus the word with the pair deleted.  Both
    lower the inversion count (an ``"a"`` left of a ``"d"``): the swap by 1,
    the deletion by 1 plus the ``"a"``s before and ``"d"``s after the pair.
    So the loop terminates, and words taken by descending count are each
    rewritten once, after every word that rewrites into them, with their
    total coefficient.  A non-:class:`Letter` element raises ``TypeError``.
    """
    try:
        spelled = "".join([_SPELLING[letter] for letter in word])
    except (KeyError, TypeError):
        raise TypeError(f"a word is a sequence of Letter members, got {word!r}") from None
    top = sum(spelled.count("a", 0, j) for j, x in enumerate(spelled) if x == "d")
    levels: dict[int, dict[str, int]] = {top: {spelled: 1}}  # sparse: few levels are reached
    for level in range(top, 0, -1):
        for w, c in levels.pop(level, {}).items():
            i = w.find("ad")
            accumulate(levels.setdefault(level - 1, {}), w[:i] + "da" + w[i + 2:], c)
            drop = 1 + w.count("a", 0, i) + w.count("d", i + 2)
            accumulate(levels.setdefault(level - drop, {}), w[:i] + w[i + 2:], c)
    # Each word left has no inversion, so it is d^r a^s, one word per (r, s).
    return NormalPolynomial._from_numerators(
        1, [((w.count("d"), w.count("a")), c, 0) for w, c in levels[0].items()])


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
