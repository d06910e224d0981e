"""Exact rational arithmetic: Bernoulli numbers and polynomials.

Rationals are ``fractions.Fraction`` (always reduced, positive denominator,
zero stored as 0/1).  Polynomials are dense sequences of rational
coefficients in ascending degree order, wrapped in :class:`RatPoly`.

The hot paths run on a private integer core: a polynomial as integer
numerators over one common denominator, multiplied by integer convolution,
with the endpoint jumps p^(k-1)(1) - p^(k-1)(0) taken along the integer
derivative chain.  They are ``RatPoly`` products, both [0, 1] integration
routes here (the term-wise sum over lcm(1..n+1), and the Bernoulli-basis sum
against one table of B_n/n! over a common denominator), and the IBP
reduction in ``zetalab.reduction``.  Only the final values become Fractions.

Convention: B1 = -1/2 (the "first" Bernoulli numbers).  This is forced by
zeta(0, a) = 1/2 - a together with zeta(-n, a) = -B_{n+1}(a)/(n+1); the
B1 = +1/2 convention seen elsewhere is NOT used anywhere in this package.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Iterable, Sequence

__all__ = [
    "RatPoly",
    "bernoulli_number",
    "bernoulli_polynomial",
    "poly_reflect",
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

    Immutable; the zero polynomial has an empty coefficient tuple.  The
    highest-degree stored coefficient is always nonzero.
    """

    # _floats: the coefficients rounded to floats, highest degree first, set
    # by the first evaluate_complex
    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs: Iterable[Fraction | int] = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RatPoly is immutable")

    @staticmethod
    def one() -> "RatPoly":
        return RatPoly((1,))

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "RatPoly") -> "RatPoly":
        if not isinstance(other, RatPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RatPoly(out)

    def __neg__(self) -> "RatPoly":
        return RatPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "RatPoly") -> "RatPoly":
        return self + (-other)

    def __mul__(self, other) -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(Fraction(other))
        if not isinstance(other, RatPoly):
            return NotImplemented
        # integer numerators over one denominator, as in the integer core below
        a, da = _integer_form(self)
        b, db = _integer_form(other)
        d = da * db
        return RatPoly(Fraction(c, d) for c in _int_poly_mul(a, b))

    __rmul__ = __mul__

    def scale(self, c: Fraction | int) -> "RatPoly":
        c = Fraction(c)
        return RatPoly(tuple(c * a for a in self.coeffs))

    def __eq__(self, other) -> bool:
        return isinstance(other, RatPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"RatPoly({list(self.coeffs)!r})"

    # -- evaluation and transforms ----------------------------------------

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact evaluation at a rational point x = p/q, by Horner in
        integers: with d the common denominator of the coefficients,
        d q^n P(p/q) = sum_i (d c_i) p^i q^(n-i) is an integer."""
        x = Fraction(x)
        p, q = x.numerator, x.denominator
        cs, d = _integer_form(self)
        acc, q_pow = 0, 1
        for c in reversed(cs):
            acc = acc * p + c * q_pow
            q_pow *= q
        return Fraction(acc, d * q ** max(self.degree, 0))

    def evaluate_complex(self, z: complex) -> complex:
        """Horner evaluation at a complex point, or elementwise over a numpy
        array of points (coefficients rounded once per polynomial, on the
        first call)."""
        try:
            floats = self._floats
        except AttributeError:
            floats = tuple(float(c) for c in reversed(self.coeffs))
            object.__setattr__(self, "_floats", floats)
        acc = 0j
        for c in floats:
            acc = acc * z + c
        return acc

    def derivative(self) -> "RatPoly":
        return RatPoly(tuple(k * c for k, c in enumerate(self.coeffs) if k >= 1))

    def shift_argument(self, delta: Fraction | int) -> "RatPoly":
        """Return q with q(x) = p(x + delta), by exact binomial expansion."""
        delta = Fraction(delta)
        if delta == 0 or self.is_zero():
            return self
        n = self.degree
        out = [Fraction(0)] * (n + 1)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            # c * (x + delta)^k
            pw = Fraction(1)
            for j in range(k, -1, -1):
                out[j] += c * comb(k, j) * pw
                pw *= delta
        return RatPoly(out)

    def ascending_str(self, var: str = "s") -> str:
        """Canonical ascending-degree text form, e.g. "-1 + 1*s + 2*s^2"."""
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*{var}")
            else:
                parts.append(f"{c}*{var}^{k}")
        return " + ".join(parts)

    def pretty_str(self, var: str = "alpha") -> str:
        """Human-facing descending form, e.g. "alpha^2 - alpha + 1/6"."""
        if not self.coeffs:
            return "0"
        parts: list[str] = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
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
# Integer core: integer numerators over one common denominator
# ---------------------------------------------------------------------------


def _integer_form(p: RatPoly) -> tuple[list[int], int]:
    """(c, d) with p = sum_i (c_i / d) x^i, d the least common denominator."""
    d = lcm(*(c.denominator for c in p.coeffs))
    return [c.numerator * (d // c.denominator) for c in p.coeffs], d


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


def _endpoint_jumps(c: Sequence[int]) -> list[int]:
    """[p^(k-1)(1) - p^(k-1)(0) for k = 1..deg p] for p = sum_i c_i x^i,
    with c free of trailing zeros, by the integer derivative chain."""
    jumps = []
    deriv = list(c)
    while len(deriv) > 1:
        jumps.append(sum(deriv[1:]))
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
    return jumps


def _termwise_integral(c: Sequence[int], d: int) -> Fraction:
    """int_0^1 of sum_i (c_i / d) x^i as sum_i c_i (L / (i+1)) / (d L), with
    L = lcm(1..n+1): one integer sum and one Fraction."""
    L = lcm(*range(1, len(c) + 1))
    return Fraction(sum(x * (L // (i + 1)) for i, x in enumerate(c)), d * L)


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


@lru_cache(maxsize=None)
def _bernoulli_integer_form(m: int) -> tuple[tuple[int, ...], int]:
    """The integer form of B_m(x), as a tuple."""
    c, d = _integer_form(bernoulli_polynomial(m))
    return tuple(c), d


def _bernoulli_product_form(indices: Sequence[int]) -> tuple[list[int], int]:
    """(c, d): the product of B_{m_i}(x) as integer numerators over d."""
    c, d = [1], 1
    for m in indices:
        cm, dm = _bernoulli_integer_form(m)
        c, d = _int_poly_mul(c, cm), d * dm
    return c, d


def _bernoulli_basis_integral(c: Sequence[int], d: int) -> Fraction:
    """int_0^1 of sum_i (c_i / d) x^i as p(0) - sum_n (B_n / n!) jump_n, with
    B_n / n! = t_n / D: the integer (D c_0 - sum_n t_n jump_n) over D d."""
    jumps = _endpoint_jumps(c)
    t, D = _bernoulli_over_factorial(len(jumps))
    return Fraction(D * c[0] - sum(map(mul, t[1:], jumps)), D * d)


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def bernoulli_polynomial(n: int) -> RatPoly:
    """Bernoulli polynomial B_n(x) = sum_i C(n,i) B_{n-i} x^i."""
    if n < 0:
        raise ValueError("Bernoulli polynomial index must be non-negative")
    return RatPoly(comb(n, i) * bernoulli_number(n - i) for i in range(n + 1))


def poly_reflect(p: RatPoly) -> RatPoly:
    """Return q with q(x) = p(1 - x): that is r(-x) for r(y) = p(y + 1)."""
    r = p.shift_argument(1)
    return RatPoly(-c if k % 2 else c for k, c in enumerate(r.coeffs))


def poly_integral_01(p: RatPoly) -> Fraction:
    """Exact integral of p over [0, 1], term-wise antiderivative."""
    return _termwise_integral(*_integer_form(p))


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
    The product, its jumps and the sum are taken in the integer core.
    """
    if any(m < 1 for m in indices):
        raise ValueError("Bernoulli product indices must be >= 1")
    return _bernoulli_basis_integral(*_bernoulli_product_form(indices))


def zeta_neg_int_poly(m: int) -> RatPoly:
    """The polynomial -B_{m+1}(x)/(m+1): the exact value of zeta(-m, x)."""
    if m < 0:
        raise ValueError("index must be non-negative")
    return bernoulli_polynomial(m + 1).scale(Fraction(-1, m + 1))
