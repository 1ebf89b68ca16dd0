"""Exact complex scalars, and sparse linear combinations over them.

Every coefficient in this package is a :class:`GaussianRational`: a pair of
``fractions.Fraction`` values.  No floating point enters any computation, so
equality of polynomials and graph sums is always exact.

:class:`LinearCombination` is the one sparse core both algebras share: a
finitely supported map from basis keys to nonzero coefficients, kept pruned
by :func:`accumulate`.  Normally ordered polynomials and formal sums of
graphs differ only in their basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping

RationalLike = int | Fraction
ScalarLike = "int | Fraction | GaussianRational"


def _as_fraction(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True, slots=True)
class GaussianRational:
    """A complex number a + b*i with exact rational a and b.

    Fraction keeps numerator/denominator in lowest terms with positive
    denominator, so structural equality is semantic equality.
    """

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _as_fraction(self.re))
        object.__setattr__(self, "im", _as_fraction(self.im))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "GaussianRational":
        return cls()

    @classmethod
    def one(cls) -> "GaussianRational":
        return cls(Fraction(1))

    @classmethod
    def coerce(cls, value: "ScalarLike") -> "GaussianRational":
        """Accept int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return cls(_as_fraction(value))

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_one(self) -> bool:
        return self.re == 1 and not self.im

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations --------------------------------------------------

    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        return self * GaussianRational(o.re / norm, -o.im / norm)

    def __rtruediv__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(_as_fraction(other))
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        # Real values must hash like the equal Fraction/int (cross-type equality).
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- display and serialization ------------------------------------------

    def __str__(self) -> str:
        """Render in the expression-language coefficient syntax.

        Examples: ``0``, ``3``, ``-1/2``, ``2i``, ``3+1/2i``, ``-2-3i``.
        """
        if self.is_zero():
            return "0"
        if not self.im:
            return str(self.re)
        im_mag = abs(self.im)
        if not self.re:
            sign = "-" if self.im < 0 else ""
            return f"{sign}{im_mag}i"
        sign = "-" if self.im < 0 else "+"
        return f"{self.re}{sign}{im_mag}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_json(self) -> dict:
        """Decimal-string numerators/denominators, arbitrary precision."""
        return {
            "re": {"num": str(self.re.numerator), "den": str(self.re.denominator)},
            "im": {"num": str(self.im.numerator), "den": str(self.im.denominator)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianRational":
        """Inverse of :meth:`to_json`; raises only ``ValueError`` on bad input."""
        def part(p: dict) -> Fraction:
            return Fraction(int(p["num"]), int(p["den"]))

        try:
            return cls(part(obj["re"]), part(obj["im"]))
        except (KeyError, TypeError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"malformed scalar record: {exc}") from exc


ZERO = GaussianRational.zero()
ONE = GaussianRational.one()


def accumulate(acc: dict, key: Hashable, coeff) -> None:
    """Add ``coeff`` to ``acc[key]``, dropping the key when the sum is zero.

    The only accumulate-and-prune step in the package; it works for any
    coefficient type whose truth value is "nonzero" (ints included).
    """
    total = acc.get(key)
    total = coeff if total is None else total + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


class LinearCombination:
    """Immutable finitely supported sum of basis keys with exact coefficients.

    Zero coefficients are pruned on construction and by every operation, so
    two equal sums always have identical term maps.  A subclass fixes its
    basis: ``_key`` normalizes a key on the way in, ``_sort_key`` orders
    :meth:`terms`, and the subclass supplies its own product.  Sums over
    different bases never combine or compare equal.
    """

    __slots__ = ("_terms",)

    _key = staticmethod(lambda key: key)

    def __init__(self, terms: Mapping | Iterable[tuple] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for key, coeff in items:
            accumulate(acc, self._key(key), GaussianRational.coerce(coeff))
        self._terms = acc

    @classmethod
    def _raw(cls, terms: dict):
        """Wrap an already-pruned term dict without re-normalizing."""
        obj = cls.__new__(cls)
        obj._terms = terms
        return obj

    @classmethod
    def zero(cls):
        return cls._raw({})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def coefficient(self, key) -> GaussianRational:
        return self._terms.get(self._key(key), ZERO)

    def terms(self) -> Iterator[tuple]:
        """Iterate terms in the subclass's canonical order."""
        for key in sorted(self._terms, key=self._sort_key):
            yield key, self._terms[key]

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        acc = dict(self._terms)
        for key, coeff in other._terms.items():
            accumulate(acc, key, coeff)
        return self._raw(acc)

    def __neg__(self):
        return self._raw({key: -c for key, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, c: "ScalarLike"):
        c = GaussianRational.coerce(c)
        if c.is_zero():
            return self.zero()
        return self._raw({key: coeff * c for key, coeff in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms
