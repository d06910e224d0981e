"""Exact rational arithmetic: Bernoulli numbers and polynomials.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator,
zero stored as 0/1).  A polynomial is a :class:`RatPoly`: integer numerators
in ascending degree order over one positive denominator, in lowest terms.
Every operation runs on that stored form: products by integer convolution,
both [0, 1] integration routes (the term-wise sum over lcm(1..n+1), and the
Bernoulli-basis sum of the endpoint jumps p^(k-1)(1) - p^(k-1)(0) against
one table of B_n/n! over a common denominator), the text form, and the IBP
reduction in ``zetalab.reduction``.  Only the final values become Fractions.

Convention: B1 = -1/2 (the "first" Bernoulli numbers).  This is forced by
zeta(0, a) = 1/2 - a together with zeta(-n, a) = -B_{n+1}(a)/(n+1); the
B1 = +1/2 convention seen elsewhere is NOT used anywhere in this package.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd, lcm
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "RatPoly",
    "bernoulli_number",
    "bernoulli_polynomial",
    "poly_integral_01",
    "bernoulli_product_integral",
    "zeta_neg_int_poly",
    "rational_str",
]


def rational_str(q: Fraction) -> str:
    """Serialize a rational as decimal digits, "num/den" (den omitted when 1)."""
    return str(q)


# ---------------------------------------------------------------------------
# Bernoulli numbers
# ---------------------------------------------------------------------------

# Cache grows monotonically under the lock; readers only ever see a fully
# initialised prefix, so lock-free reads of already-computed entries are safe.
_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli_number(n: int) -> Fraction:
    """Bernoulli number B_n (B1 = -1/2), by the defining recurrence.

    sum_{k=0}^{m} C(m+1, k) B_k = 0 for m >= 1, solved for B_m with
    memoization up to the largest n requested.
    """
    if n < 0:
        raise ValueError("Bernoulli index must be non-negative")
    if n < len(_bernoulli_cache):
        return _bernoulli_cache[n]
    with _bernoulli_lock:
        for m in range(len(_bernoulli_cache), n + 1):
            if m > 2 and m % 2 == 1:
                _bernoulli_cache.append(Fraction(0))
                continue
            acc = Fraction(0)
            for k in range(m):
                acc += comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


# ---------------------------------------------------------------------------
# Dense rational polynomials
# ---------------------------------------------------------------------------


class RatPoly:
    """Polynomial with rational coefficients, ascending degree order.

    Immutable.  Stored as integer numerators over one positive denominator,
    in lowest terms: the gcd of the denominator and every numerator is 1 and
    the highest-degree numerator is nonzero, so equal values share one stored
    form.  The zero polynomial has no numerators and denominator 1.
    ``coeffs`` builds the Fractions when read.
    """

    # _ints, _den: the numerators (ascending) and the denominator
    __slots__ = ("_ints", "_den")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) in (int, Fraction) else Fraction(c) for c in coeffs]
        d = lcm(*(c.denominator for c in cs))
        self._store([c.numerator * (d // c.denominator) for c in cs], d)

    @classmethod
    def _from_ints(cls, ints: list[int], den: int) -> "RatPoly":
        """sum_i (ints_i / den) x^i for den > 0."""
        p = cls.__new__(cls)
        p._store(ints, den)
        return p

    def _store(self, ints: list[int], den: int) -> None:
        """Store sum_i (ints_i / den) x^i, den > 0, in lowest terms."""
        while ints and not ints[-1]:
            ints.pop()
        g = gcd(den, *ints)
        if g != 1:
            ints = [x // g for x in ints]
        object.__setattr__(self, "_ints", tuple(ints))
        object.__setattr__(self, "_den", den // g)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def one() -> "RatPoly":
        return RatPoly((1,))

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, ascending degree order."""
        return tuple(Fraction(x, self._den) for x in self._ints)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self._ints) - 1

    def is_zero(self) -> bool:
        return not self._ints

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        d = lcm(self._den, other._den)
        a = [x * (d // self._den) for x in self._ints]
        b = [x * (d // other._den) for x in other._ints]
        if len(a) < len(b):
            a, b = b, a
        for i, x in enumerate(b):
            a[i] += x
        return RatPoly._from_ints(a, d)

    def __mul__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        return RatPoly._from_ints(_int_poly_mul(self._ints, other._ints),
                                  self._den * other._den)

    def scale(self, c: Fraction | int) -> "RatPoly":
        c = Fraction(c)
        return RatPoly._from_ints([c.numerator * x for x in self._ints],
                                  c.denominator * self._den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RatPoly) and self._den == other._den
                and self._ints == other._ints)

    def __hash__(self) -> int:
        return hash((self._ints, self._den))

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    # -- evaluation and transforms ----------------------------------------

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact evaluation at a rational point x = p/q, by Horner in
        integers: with c_i / d the coefficients, d q^n P(p/q) =
        sum_i c_i p^i q^(n-i) is an integer."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        acc, q_pow = 0, 1
        for c in reversed(self._ints):
            acc = acc * p + c * q_pow
            q_pow *= q
        return Fraction(acc, self._den * q ** max(self.degree, 0))

    def evaluate_complex(self, z: complex) -> complex:
        """Horner evaluation at a complex point, or elementwise over a numpy
        array of points (each coefficient c / d rounds as float(Fraction(c, d))
        does)."""
        acc = 0j
        for c in reversed(self._ints):
            acc = acc * z + c / self._den
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly._from_ints([k * c for k, c in enumerate(self._ints)][1:],
                                  self._den)

    def ascending_str(self, var: str = "s") -> str:
        """Canonical ascending-degree text form, e.g. "-1 + 1*s + 2*s^2",
        each coefficient written as str(Fraction) writes it."""
        if self.is_zero():
            return "0"
        parts = []
        d = self._den
        for k, x in enumerate(self._ints):
            if not x:
                continue
            g = gcd(x, d)
            c = f"{x // g}" if g == d else f"{x // g}/{d // g}"
            if k == 0:
                parts.append(c)
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts)

    def pretty_str(self, var: str = "alpha") -> str:
        """Human-facing descending form, e.g. "alpha^2 - alpha + 1/6"."""
        if self.is_zero():
            return "0"
        parts: list[str] = []
        cs = self.coeffs
        for k in range(self.degree, -1, -1):
            c = cs[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                head = var if k == 1 else f"{var}^{k}"
                body = head if mag == 1 else f"{mag}*{head}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)


# ---------------------------------------------------------------------------
# Integer helpers on the stored numerators
# ---------------------------------------------------------------------------


def _int_poly_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Ascending coefficients of the product of two integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _endpoint_jumps(p: RatPoly) -> list[int]:
    """[p^(k-1)(1) - p^(k-1)(0) for k = 1..deg p], as numerators over p's
    denominator, by the integer derivative chain."""
    jumps = []
    deriv = list(p._ints)
    while len(deriv) > 1:
        jumps.append(sum(deriv[1:]))
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
    return jumps


# B_n/n! as integer numerators t_n over one denominator D, for n = 0..len-1:
# built on first use to degree 64 (the reduction's MAX_DEGREE) and rebuilt
# only for a higher degree, so every Bernoulli-basis integral shares one table.
_BERNOULLI_TABLE_DEGREE = 64
_bernoulli_table: tuple[tuple[int, ...], int] = ((), 1)


def _bernoulli_over_factorial(n: int) -> tuple[tuple[int, ...], int]:
    """(t, D) with B_k / k! = t_k / D for every k <= n."""
    global _bernoulli_table
    table = _bernoulli_table
    if len(table[0]) <= n:
        top = max(n, _BERNOULLI_TABLE_DEGREE)
        ratios = [bernoulli_number(k) / factorial(k) for k in range(top + 1)]
        D = lcm(*(q.denominator for q in ratios))
        table = _bernoulli_table = (
            tuple(q.numerator * (D // q.denominator) for q in ratios), D)
    return table


def _bernoulli_product(indices: Sequence[int]) -> RatPoly:
    """The product of B_{m_i}(x): the numerators multiplied raw, reduced once."""
    c, d = [1], 1
    for m in indices:
        b = bernoulli_polynomial(m)
        c, d = _int_poly_mul(c, b._ints), d * b._den
    return RatPoly._from_ints(c, d)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> RatPoly:
    """Bernoulli polynomial B_n(x) = sum_i C(n,i) B_{n-i} x^i."""
    if n < 0:
        raise ValueError("Bernoulli polynomial index must be non-negative")
    return RatPoly(comb(n, i) * bernoulli_number(n - i) for i in range(n + 1))


def poly_integral_01(p: RatPoly) -> Fraction:
    """Exact integral of p over [0, 1], term-wise antiderivative: with
    L = lcm(1..n+1), sum_i c_i (L / (i+1)) over d L."""
    L = lcm(*range(1, len(p._ints) + 1))
    return Fraction(sum(x * (L // (i + 1)) for i, x in enumerate(p._ints)), p._den * L)


def bernoulli_product_integral(indices: Sequence[int]) -> Fraction:
    """Exact integral over [0, 1] of the product of B_{m_i}(x).

    The empty product integrates to 1.  The result vanishes whenever the
    index sum is odd (reflection parity of Bernoulli polynomials).

    Deliberately avoids the term-wise antiderivative: the product p is
    expanded in the Bernoulli basis, whose only member with nonzero mean is
    B_0.  The basis coefficients need only endpoint differences of the
    derivatives of p, so

        int_0^1 p = p(0) - sum_{n>=1} B_n * (p^{(n-1)}(1) - p^{(n-1)}(0)) / n!

    which gives an integration path independent of ``poly_integral_01``.
    With B_n / n! = t_n / D over one table, that is the integer
    D c_0 - sum_n t_n jump_n over D d.
    """
    if any(m < 1 for m in indices):
        raise ValueError("Bernoulli product indices must be >= 1")
    p = _bernoulli_product(indices)
    jumps = _endpoint_jumps(p)
    t, D = _bernoulli_over_factorial(len(jumps))
    return Fraction(D * p._ints[0] - sum(map(mul, t[1:], jumps)), D * p._den)


def zeta_neg_int_poly(m: int) -> RatPoly:
    """The polynomial -B_{m+1}(x)/(m+1): the exact value of zeta(-m, x)."""
    if m < 0:
        raise ValueError("index must be non-negative")
    return bernoulli_polynomial(m + 1).scale(Fraction(-1, m + 1))
