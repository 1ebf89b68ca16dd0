"""Expected outputs computed without the package under test.

Nothing here imports ``laddergraphs``.  Polynomials are plain dicts mapping
``(r, s)`` (the monomial ``ad^r a^s``) to exact Gaussian rationals, written as
``(re, im)`` pairs of ``Fraction``.  The closed forms are:

* ``(c ad a + d a)^n = c^n sum_k S(n,k) sum_j C(k,j) (d/c)^(k-j) ad^j a^k``,
  because ``b = ad + d/c`` also satisfies ``[a, b] = 1``; with ``d = 0`` this
  is the Stirling expansion ``(ad a)^n = sum_k S(n,k) ad^k a^k``;
* ``(c1 a + c2 ad)^n = sum_k n!/(2^k k! (n-2k)!) (c1 c2)^k
  sum_j C(m,j) c2^j c1^(m-j) ad^j a^(m-j)`` with ``m = n - 2k``;
* ``(c1 a + c2 ad + c0)^n = sum_j C(n,j) c0^(n-j) (c1 a + c2 ad)^j``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial

ZERO = (Fraction(0), Fraction(0))
ONE = (Fraction(1), Fraction(0))


def g(re, im=0) -> tuple[Fraction, Fraction]:
    return (Fraction(re), Fraction(im))


def gadd(x, y):
    return (x[0] + y[0], x[1] + y[1])


def gmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def gdiv(x, y):
    norm = y[0] * y[0] + y[1] * y[1]
    return gmul(x, (y[0] / norm, -y[1] / norm))


def gpowers(x, n: int) -> list:
    """``[x^0, x^1, ..., x^n]``."""
    powers = [ONE]
    for _ in range(n):
        powers.append(gmul(powers[-1], x))
    return powers


def gscale(x, k: int):
    return (x[0] * k, x[1] * k)


def _accumulate(acc: dict, mono: tuple[int, int], c) -> None:
    total = gadd(acc.get(mono, ZERO), c)
    if total == ZERO:
        acc.pop(mono, None)
    else:
        acc[mono] = total


@cache
def stirling2(n: int, k: int) -> int:
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def stirling_power(c, d, n: int) -> dict:
    """Expansion of ``(c ad a + d a)^n``; ``c`` must be nonzero."""
    cn = gpowers(c, n)[n]
    lam = gpowers(gdiv(d, c), n)
    acc: dict = {}
    for k in range(n + 1):
        s = stirling2(n, k)
        if not s:
            continue
        for j in range(k + 1):
            _accumulate(acc, (j, k), gscale(gmul(cn, lam[k - j]), s * comb(k, j)))
    return acc


def binomial_power(c1, c2, n: int) -> dict:
    """Expansion of ``(c1 a + c2 ad)^n``."""
    acc: dict = {}
    p1, p2, p12 = gpowers(c1, n), gpowers(c2, n), gpowers(gmul(c1, c2), n // 2)
    for k in range(n // 2 + 1):
        m = n - 2 * k
        pairing = factorial(n) // (2 ** k * factorial(k) * factorial(m))
        weight = gscale(p12[k], pairing)
        for j in range(m + 1):
            term = gscale(gmul(weight, gmul(p2[j], p1[m - j])), comb(m, j))
            _accumulate(acc, (j, m - j), term)
    return acc


def shifted_power(c1, c2, c0, n: int) -> dict:
    """Expansion of ``(c1 a + c2 ad + c0)^n``; ``c0`` commutes with everything."""
    acc: dict = {}
    p0 = gpowers(c0, n)
    for j in range(n + 1):
        weight = gscale(p0[n - j], comb(n, j))
        for mono, c in binomial_power(c1, c2, j).items():
            _accumulate(acc, mono, gmul(weight, c))
    return acc


def product_count_exact(s: int, k: int, i: int) -> int:
    """Number of matchings of exactly ``i`` pairs between ``s`` gray and ``k`` white spots."""
    return factorial(i) * comb(s, i) * comb(k, i)


def product_count(s: int, k: int) -> int:
    """Number of partial matchings between ``s`` gray and ``k`` white spots."""
    return sum(product_count_exact(s, k, i) for i in range(min(s, k) + 1))


def monomial_product(r: int, s: int, k: int, l: int) -> dict:
    """``ad^r a^s ad^k a^l`` in normal order, integer coefficients."""
    return {(r + k - i, s + l - i): g(product_count_exact(s, k, i)) for i in range(min(s, k) + 1)}


def normal_order(word: str) -> dict:
    """Normal order of a word over 'a' and 'd' (for ``ad``), left to right.

    Multiplying ``ad^r a^s`` on the right by ``ad`` uses only
    ``a^s ad = ad a^s + s a^(s-1)``.
    """
    acc = {(0, 0): 1}
    for letter in word:
        nxt: dict = {}
        for (r, s), c in acc.items():
            if letter == "a":
                nxt[(r, s + 1)] = nxt.get((r, s + 1), 0) + c
            else:
                nxt[(r + 1, s)] = nxt.get((r + 1, s), 0) + c
                if s:
                    nxt[(r, s - 1)] = nxt.get((r, s - 1), 0) + s * c
        acc = nxt
    return {mono: g(c) for mono, c in acc.items() if c}


# -- rendering, following GRAMMAR.md ------------------------------------------

def _term_order(mono: tuple[int, int]) -> tuple[int, int]:
    return (-(mono[0] + mono[1]), -mono[0])


def ordered(poly: dict) -> list:
    return sorted(poly.items(), key=lambda item: _term_order(item[0]))


def scalar_text(c) -> str:
    re, im = c
    if not re and not im:
        return "0"
    if not im:
        return str(re)
    mag = str(abs(im))
    if not re:
        return f"{'-' if im < 0 else ''}{mag}i"
    return f"{re}{'-' if im < 0 else '+'}{mag}i"


def _monomial_text(r: int, s: int) -> str:
    parts = []
    if r:
        parts.append("ad" if r == 1 else f"ad^{r}")
    if s:
        parts.append("a" if s == 1 else f"a^{s}")
    return " ".join(parts)


def polynomial_text(poly: dict) -> str:
    """Canonical text rendering of a polynomial."""
    if not poly:
        return "0"
    pieces = []
    for index, ((r, s), c) in enumerate(ordered(poly)):
        sep = ""
        if index:
            positive = c[0] > 0 or (c[0] == 0 and c[1] > 0)
            sep = " + " if positive else " - "
            if not positive:
                c = (-c[0], -c[1])
        mono = _monomial_text(r, s)
        if not mono:
            piece = scalar_text(c)
        elif c == ONE:
            piece = mono
        else:
            piece = f"{scalar_text(c)} {mono}"
        pieces.append(sep + piece)
    return "".join(pieces)


def polynomial_json(poly: dict) -> list:
    """Canonical JSON term list of a polynomial."""

    def part(q: Fraction) -> dict:
        return {"num": str(q.numerator), "den": str(q.denominator)}

    return [
        {"r": r, "s": s, "coeff": {"re": part(c[0]), "im": part(c[1])}}
        for (r, s), c in ordered(poly)
    ]
