"""Exact complex scalars, and sparse linear combinations over them.

Every coefficient in this package is a :class:`GaussianRational`, a complex
number whose real and imaginary parts are exact rationals.  Each part is
stored as a plain ``int`` while it is integral and as a
``fractions.Fraction`` only when it is not; every operation turns an integral
``Fraction`` result back into an ``int``.  Products of the ladder algebra
have positive integer weights, so Gaussian-integer inputs never build a
``Fraction``.  The public parts :attr:`GaussianRational.re` and
:attr:`GaussianRational.im` are always ``Fraction``, and equality, hashing,
``str``, ``repr`` and JSON do not depend on the stored type.  No floating
point enters any computation, so equality of polynomials and graph sums is
always exact.

:class:`LinearCombination` is the one sparse core both algebras share: a
finitely supported map from basis keys to nonzero coefficients, kept pruned
by :func:`accumulate`.  Normally ordered polynomials and formal sums of
graphs differ only in their basis, and both multiply through the core's one
bilinear product, ``LinearCombination._product``.  It works on the stored
parts of the coefficients, so a product builds one :class:`GaussianRational`
per result term rather than several per basis term it forms.

:class:`Record` is the base of the package's small immutable values:
scalars, monomials, vertices, graphs, expression nodes and oracle reports.
"""

from __future__ import annotations

import re as _regex
from fractions import Fraction
from typing import Callable, Hashable, Iterable, Iterator, Mapping

RationalLike = int | Fraction
ScalarLike = "int | Fraction | GaussianRational"

_decimal_int = _regex.compile(r"-?[0-9]+").fullmatch


def _as_part(value: RationalLike) -> int | Fraction:
    """Check one part of a scalar and give it its stored form."""
    if isinstance(value, int):
        return int(value)
    if isinstance(value, Fraction):
        return _integral(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def _integral(value: int | Fraction) -> int | Fraction:
    """``value`` as an ``int`` when its denominator is 1, else unchanged."""
    return value.numerator if value.denominator == 1 else value


def _json_int(value) -> int:
    """An ``int`` (not ``bool``) or a decimal-integer string, as an ``int``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _decimal_int(value):
        return int(value)
    raise ValueError(f"expected an integer or a decimal-integer string, got {value!r}")


class Record:
    """Immutable value with fields ``__match_args__``, stored in ``__slots__``.

    Equal only to records of its own class with equal fields; hashed,
    pickled and copied as its field tuple; printed as ``Name(field=value)``.
    Hot classes override ``__eq__`` and ``__hash__`` with ones that name
    their fields; :class:`GaussianRational` overrides them to equal numbers.
    """

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__match_args__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"{self.__class__.__name__} is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._values()


class GaussianRational(Record):
    """A complex number a + b*i with exact rational a and b.

    Immutable.  A part is stored as an ``int`` when integral and otherwise as
    a ``Fraction`` (lowest terms, positive denominator), so structural
    equality is semantic equality.
    """

    __slots__ = __match_args__ = ("_re", "_im")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        _set_re(self, _as_part(re))
        _set_im(self, _as_part(im))

    @classmethod
    def _raw(cls, re: int | Fraction, im: int | Fraction) -> "GaussianRational":
        """Wrap parts already in stored form (no check, no normalization)."""
        obj = _new(cls)
        _set_re(obj, re)
        _set_im(obj, im)
        return obj

    @property
    def re(self) -> Fraction:
        re = self._re
        return Fraction(re) if type(re) is int else re

    @property
    def im(self) -> Fraction:
        im = self._im
        return Fraction(im) if type(im) is int else im

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "GaussianRational":
        return cls()

    @classmethod
    def one(cls) -> "GaussianRational":
        return cls(1)

    @classmethod
    def coerce(cls, value: "ScalarLike") -> "GaussianRational":
        """Accept int, Fraction or GaussianRational."""
        if isinstance(value, GaussianRational):
            return value
        return cls._raw(_as_part(value), 0)

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._re and not self._im

    def is_one(self) -> bool:
        return self._re == 1 and not self._im

    def __bool__(self) -> bool:
        return bool(self._re or self._im)

    # -- field operations --------------------------------------------------
    # ``int`` op ``int`` stays ``int``; a result that may be a ``Fraction``
    # goes through ``_integral`` so integral values are stored as ``int``.

    def __add__(self, other: "ScalarLike") -> "GaussianRational":
        if type(other) is int:
            # Adding an integer never makes a non-integral part integral.
            return self._raw(self._re + other, self._im)
        o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
        re = self._re + o._re
        im = self._im + o._im
        return self._raw(re if type(re) is int else _integral(re),
                         im if type(im) is int else _integral(im))

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return self._raw(-self._re, -self._im)

    def __sub__(self, other: "ScalarLike") -> "GaussianRational":
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other: "ScalarLike") -> "GaussianRational":
        a, b = self._re, self._im
        if type(other) is int:
            re, im = a * other, b * other
        else:
            o = other if type(other) is GaussianRational else GaussianRational.coerce(other)
            c, d = o._re, o._im
            re, im = a * c - b * d, a * d + b * c
        return self._raw(re if type(re) is int else _integral(re),
                         im if type(im) is int else _integral(im))

    __rmul__ = __mul__

    def __truediv__(self, other: "ScalarLike") -> "GaussianRational":
        o = GaussianRational.coerce(other)
        c, d = o._re, o._im
        norm = c * c + d * d
        if not norm:
            raise ZeroDivisionError("division by zero scalar")
        inverse = self._raw(_integral(Fraction(c, norm)), _integral(Fraction(-d, norm)))
        return self * inverse

    def __rtruediv__(self, other: "ScalarLike") -> "GaussianRational":
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return self._raw(self._re, -self._im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self._re == other._re and self._im == other._im
        if isinstance(other, (int, Fraction)):
            return not self._im and self._re == other
        return NotImplemented

    def __hash__(self) -> int:
        # Real values must hash like the equal Fraction/int (cross-type
        # equality); an int hashes like the equal Fraction.
        if not self._im:
            return hash(self._re)
        return hash((self._re, self._im))

    # -- display and serialization ------------------------------------------

    def __str__(self) -> str:
        """Render in the expression-language coefficient syntax.

        Examples: ``0``, ``3``, ``-1/2``, ``2i``, ``3+1/2i``, ``-2-3i``.
        """
        re, im = self._re, self._im
        if not re and not im:
            return "0"
        if not im:
            return str(re)
        im_mag = abs(im)
        if not re:
            sign = "-" if im < 0 else ""
            return f"{sign}{im_mag}i"
        sign = "-" if im < 0 else "+"
        return f"{re}{sign}{im_mag}i"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def to_json(self) -> dict:
        """Decimal-string numerators/denominators, arbitrary precision."""
        re, im = self._re, self._im
        return {
            "re": {"num": str(re.numerator), "den": str(re.denominator)},
            "im": {"num": str(im.numerator), "den": str(im.denominator)},
        }

    @classmethod
    def from_json(cls, obj: dict) -> "GaussianRational":
        """Inverse of :meth:`to_json`; raises only ``ValueError`` on bad input.

        ``num`` and ``den`` must each be an ``int`` or a decimal-integer
        string; floats, booleans and other numerals are refused.
        """
        def part(p: dict) -> int | Fraction:
            return _integral(Fraction(_json_int(p["num"]), _json_int(p["den"])))

        try:
            return cls._raw(part(obj["re"]), part(obj["im"]))
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed scalar record: {exc}") from exc


_new = object.__new__
_set_re = GaussianRational._re.__set__
_set_im = GaussianRational._im.__set__

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
    :meth:`terms`, and the subclass's ``__mul__`` passes its basis product
    to :meth:`_product`.  Sums over different bases never combine or compare
    equal.
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

    def _product(self, other, expand: Callable[[Hashable, Hashable], Iterable[tuple]]):
        """The bilinear product whose basis product is ``expand``.

        ``expand(k1, k2)`` yields ``(key, weight)`` pairs with ``int``
        weights.  Each coefficient pair is multiplied once, on the stored
        parts, and each key's real and imaginary sums are kept as raw parts;
        a key whose sum is nonzero is wrapped once, at the end.  The only
        product loop in the package.
        """
        sums: dict = {}
        for k1, c1 in self._terms.items():
            a, b = c1._re, c1._im
            for k2, c2 in other._terms.items():
                c, d = c2._re, c2._im
                re, im = a * c - b * d, a * d + b * c
                # An integral pair product goes on as an int, so its weighted
                # terms and their sums stay off Fraction.
                if type(re) is not int:
                    re = _integral(re)
                if type(im) is not int:
                    im = _integral(im)
                for key, weight in expand(k1, k2):
                    total = sums.get(key)
                    if total is None:
                        sums[key] = [re * weight, im * weight]
                    else:
                        total[0] += re * weight
                        total[1] += im * weight
        raw = GaussianRational._raw
        return self._raw({key: raw(_integral(re), _integral(im))
                          for key, (re, im) in sums.items() if re or im})

    def scale(self, c: "ScalarLike"):
        c = GaussianRational.coerce(c)
        if c.is_zero():
            return self.zero()
        return self._raw({key: coeff * c for key, coeff in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._terms == other._terms
