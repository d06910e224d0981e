"""Exact integration-by-parts reduction of moment integrals of Hurwitz zeta.

For Re s < 1 and integers i >= 0, integration by parts against the
antiderivative zeta(s-1, a)/(1-s), repeated until int_0^1 zeta(s - i, a) da
= 0 ends it, turns

    int_0^1 a^i zeta(s, a) da          (and the zeta'(s, a) variant)

into finite linear combinations of shifted Riemann zeta values
zeta^(j)(s - k) whose coefficients are rational functions of s.  The
repetition has an explicit solution: the coefficient of zeta(s - k) is

    (-1)^(k-1) i!/(i-k+1)! / prod_{j=1..k} (j - s),      k = 1..i,

and differentiating in s gives the zeta' variant, so :func:`reduce_poly`
writes every coefficient down directly.  All coefficient arithmetic is
exact: the polynomial (for :func:`integral_poly_zeta`, the product of
Bernoulli polynomials) is a ``RatPoly``, integer numerators over one
denominator, whose endpoint jumps give the numerators of the rational
constants, and the denominators Q_k(s), Q_k'(s) and Q_k(s)^2 come from one
table cached for k <= MAX_DEGREE.  Poles of the coefficients land only at
integer shifts s = 1..N by construction.  Q_k has simple roots, so every
coefficient is built reduced over a monic denominator, and
:class:`RationalFunctionOfS` stores it as built: no polynomial gcd runs.
A reduction also keeps its order and those constants A_k, from which alone
:func:`eval_combination` evaluates it: never from the expanded Q_k.

The closed-form product integrals (the two-factor integral over (0,1), its
s -> 1 limit combination, and the specific triple-product evaluation) live
here too, realised numerically with the kernel layer.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from . import kernels
from .errors import DomainError, NumericOverflowError, PoleProximityError
from .exact import RatPoly, _bernoulli_product, _endpoint_jumps

__all__ = [
    "DerivAtom",
    "RationalFunctionOfS",
    "LinearCombination",
    "reduce_monomial",
    "reduce_poly",
    "integral_poly_zeta",
    "eval_combination",
    "pair_integral",
    "pair_limit_weighted",
    "triple_product_integral",
]

MAX_DEGREE = 64


# ---------------------------------------------------------------------------
# The coefficients: rational functions of s
# ---------------------------------------------------------------------------


class RationalFunctionOfS:
    """A quotient num/den of polynomials in s, stored as given.

    Nothing is cancelled or made monic: the reductions build every
    coefficient reduced over a monic denominator, and a hand-built quotient
    or a sum keeps the num and den it was made from.  Equality
    compares values, num * other.den == other.num * den, so instances are
    unhashable.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: RatPoly, den: RatPoly = RatPoly((1,))):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("RationalFunctionOfS is immutable")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RationalFunctionOfS") -> "RationalFunctionOfS":
        if not isinstance(other, RationalFunctionOfS):
            return NotImplemented
        return RationalFunctionOfS(self.num * other.den + other.num * self.den,
                                   self.den * other.den)

    def __eq__(self, other) -> bool:
        return (isinstance(other, RationalFunctionOfS)
                and self.num * other.den == other.num * self.den)

    __hash__ = None  # equal values need not share a num and den

    def __str__(self) -> str:
        return f"({self.num.ascending_str('s')})/({self.den.ascending_str('s')})"

    def __repr__(self) -> str:
        return f"RationalFunctionOfS({self!s})"


@dataclass(frozen=True, order=True)
class DerivAtom:
    """A reduction target zeta^(j)(s - k): j-th derivative at shift k >= 1."""

    deriv_order: int
    shift: int

    def __str__(self) -> str:
        return f"zeta^({self.deriv_order})(s-{self.shift})"


class LinearCombination:
    """Finite map from :class:`DerivAtom` to rational-function coefficients.

    Zero coefficients are never stored; instances are immutable.
    """

    # _jumps: a reduction's (r, {k: A_k}) for eval_combination; None here and after +
    __slots__ = ("_terms", "_jumps")

    def __init__(self, terms: dict[DerivAtom, RationalFunctionOfS] | None = None):
        clean = {a: c for a, c in (terms or {}).items() if not c.is_zero()}
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_jumps", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LinearCombination is immutable")

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def atoms(self) -> list[DerivAtom]:
        return sorted(self._terms)

    def items(self) -> Iterator[tuple[DerivAtom, RationalFunctionOfS]]:
        return iter(sorted(self._terms.items(), key=lambda kv: kv[0]))

    def __add__(self, other: "LinearCombination") -> "LinearCombination":
        if not isinstance(other, LinearCombination):
            return NotImplemented
        merged = dict(self._terms)
        for atom, coeff in other._terms.items():
            merged[atom] = merged[atom] + coeff if atom in merged else coeff
        return LinearCombination(merged)

    def max_shift(self) -> int:
        return max((a.shift for a in self._terms), default=0)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearCombination) and self._terms == other._terms

    def serialize(self) -> str:
        """Canonical text form: one "atom * (num)/(den)" line per atom."""
        lines = [f"{atom} * {coeff}" for atom, coeff in self.items()]
        return "\n".join(lines) if lines else "0"

    def __repr__(self) -> str:
        return f"<LinearCombination of {len(self._terms)} atoms>"


# ---------------------------------------------------------------------------
# The closed-form reduction
# ---------------------------------------------------------------------------


def _check_r(r: int) -> int:
    """Refuse a reduction order other than 0 and 1; return it as an int."""
    r = operator.index(r)
    if r not in (0, 1):
        raise ValueError("derivative order for the reduction must be 0 or 1")
    return r


@lru_cache(maxsize=MAX_DEGREE)
def _pochhammer(k: int) -> tuple[RatPoly, RatPoly, RatPoly]:
    """Q_k(s) = prod_{j=1..k} (s - j), its s-derivative and its square."""
    q = [1]
    for j in range(1, k + 1):
        q = [lo - j * hi for hi, lo in zip(q + [0], [0] + q)]  # q * (s - j)
    poly = RatPoly(q)
    return poly, poly.derivative(), poly * poly


def reduce_monomial(i: int, r: int) -> LinearCombination:
    """Exact reduction of int_0^1 a^i zeta^(r)(s, a) da, r in {0, 1}:
    :func:`reduce_poly` applied to a^i; the i = 0 case vanishes."""
    r = _check_r(r)
    if not 0 <= operator.index(i) <= MAX_DEGREE:
        raise ValueError(f"monomial degree must be in 0..{MAX_DEGREE}")
    return reduce_poly(RatPoly((0,) * i + (1,)), r)


def reduce_poly(p: RatPoly, r: int) -> LinearCombination:
    """Reduction of int_0^1 p(a) zeta^(r)(s, a) da, in closed form.

    With p(a) = sum_i p_i a^i, A_k = sum_{i>=k} p_i i!/(i-k+1)!, which is
    p^(k-1)(1) - p^(k-1)(0), and the monic Q_k(s) = prod_{j=1..k} (s - j),
    the shift-k atoms are

        r = 0:  zeta(s-k) * (-A_k/Q_k)
        r = 1:  zeta'(s-k) * (-A_k/Q_k)  +  zeta(s-k) * (A_k Q_k'/Q_k^2),

    the r = 1 line being the s-derivative of the r = 0 one.  Q_k has simple
    roots, so both coefficients are built reduced over monic denominators;
    atoms with A_k = 0 are omitted.
    """
    r = _check_r(r)
    if p.degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree must be <= {MAX_DEGREE}")
    jumps = {k: Fraction(jump, p._den)
             for k, jump in enumerate(_endpoint_jumps(p), start=1) if jump}
    terms: dict[DerivAtom, RationalFunctionOfS] = {}
    for k, a_k in jumps.items():
        q, dq, q2 = _pochhammer(k)
        terms[DerivAtom(r, k)] = RationalFunctionOfS(RatPoly((-a_k,)), q)
        if r == 1:
            terms[DerivAtom(0, k)] = RationalFunctionOfS(dq.scale(a_k), q2)
    lc = LinearCombination(terms)
    object.__setattr__(lc, "_jumps", (r, jumps))
    return lc


def integral_poly_zeta(ms: Sequence[int], r: int) -> LinearCombination:
    """Reduction of int_0^1 zeta(-m_1, a) ... zeta(-m_k, a) zeta^(r)(s, a) da.

    Builds the exact product polynomial prod_i (-B_{m_i+1}(a)/(m_i+1)) of
    degree N = sum (m_i + 1); the resulting atoms have shifts 1..N.
    """
    r = _check_r(r)
    if any(m < 0 for m in ms):
        raise ValueError("polynomial factors need non-negative indices")
    degree = sum(m + 1 for m in ms)
    if degree > MAX_DEGREE:
        raise ValueError(f"total product degree {degree} exceeds {MAX_DEGREE}")
    sign = -1 if len(ms) % 2 else 1
    p = _bernoulli_product([m + 1 for m in ms])
    return reduce_poly(p.scale(Fraction(sign, math.prod(m + 1 for m in ms))), r)


def eval_combination(lc: LinearCombination, s: complex) -> complex:
    """Numeric value at s of a reduction from reduce_poly, reduce_monomial
    or integral_poly_zeta; any other combination raises DomainError.

    The value comes from the reduction's jumps A_k, not from its printed
    coefficients: with 1/Q_k = prod_{j<=k} 1/(s - j) and H_k = sum_{j<=k}
    1/(s - j) as one running product and one running sum, zeta^(r)(s-k)
    weighs -A_k/Q_k and, for r = 1, zeta(s-k) weighs (A_k/Q_k) H_k.

    Each shift k takes one Taylor-mode Euler-Maclaurin sum about s - k,
    made at its first atom up to order r, so every value and refusal equals
    its one-atom evaluation; the sum runs in atom order.  Refuses s within
    1e-8 of a coefficient pole, an integer 1..N, naming the first atom with
    it, and names the shift whose zeta evaluation sits on the kernel's pole.
    Errors are raised at the first atom, in atom order, whose value fails.
    """
    if lc._jumps is None:
        raise DomainError("eval_combination evaluates only a reduction from reduce_poly, "
                          "reduce_monomial or integral_poly_zeta")
    (r, jumps), s = lc._jumps, complex(s)
    top = max(jumps, default=0)
    # Integers are 1 apart, so only the nearest one can lie within 1e-8 of s.
    root = round(s.real) if math.isfinite(s.real) else 0
    if 1 <= root <= top and abs(s - root) <= 1e-8:
        k = min(k for k in jumps if k >= root)
        raise PoleProximityError(f"coefficient of {DerivAtom(0, k)} has a pole at s = {root}")
    terms = []  # (order, shift, coefficient), in atom order once sorted
    inv_q, h = 1.0, 0j
    for j in range(1, top + 1):
        step = 1.0 / (s - j)
        inv_q, h = inv_q * step, h + step
        if j in jumps:
            a_over_q = float(jumps[j]) * inv_q
            terms.append((r, j, -a_over_q))
            if r == 1:
                terms.append((0, j, a_over_q * h))
    jets: dict[int, list[complex]] = {}  # shift -> a_0..a_r about s - k
    total = 0j
    for n, k, coeff in sorted(terms):
        try:
            if k not in jets:
                jets[k] = kernels._em_jet(s - k, 1.0, r)
            value = kernels._refuse(n, s - k, 1.0, jets[k][n])
        except PoleProximityError as exc:
            raise PoleProximityError(f"shift {k}: {exc}") from None
        total += coeff * value
    return total


# ---------------------------------------------------------------------------
# Closed-form product integrals
# ---------------------------------------------------------------------------

def pair_integral(s1: complex, s2: complex) -> complex:
    """Closed form of int_0^1 zeta(s1, a) zeta(s2, a) da:

        2 (2 pi)^(s1+s2-2) Gamma(1-s1) Gamma(1-s2) cos(pi (s1-s2)/2)
          * zeta(2 - s1 - s2),

    valid away from the singularities of either side: the Gamma and zeta
    kernels refuse their own poles.
    """
    s1, s2 = complex(s1), complex(s2)
    kernels._refuse_huge_real(s1, "s1")
    kernels._refuse_huge_real(s2, "s2")
    try:
        value = (2.0 * kernels._TWO_PI ** (s1 + s2 - 2.0)
                 * kernels.gamma_complex(1.0 - s1)
                 * kernels.gamma_complex(1.0 - s2)
                 * cmath.cos(0.5 * math.pi * (s1 - s2))
                 * kernels.riemann_zeta(2.0 - s1 - s2))
    except OverflowError:
        raise NumericOverflowError("pair integral overflow") from None
    return kernels._require_finite(value, "pair integral")


def pair_limit_weighted(s1: complex, s2: complex) -> complex:
    """Limit as s -> 1- of int_0^1 zeta(s1,a) zeta(s2,a) (s-1) zeta(s,a) da,
    for Re s1 < 0 and Re s2 < 0: the pair integral minus zeta(s1) zeta(s2)."""
    s1, s2 = complex(s1), complex(s2)
    if s1.real >= 0 or s2.real >= 0:
        raise DomainError("pair_limit_weighted requires Re s1 < 0 and Re s2 < 0")
    return pair_integral(s1, s2) - kernels.riemann_zeta(s1) * kernels.riemann_zeta(s2)


def triple_product_integral(s: complex) -> complex:
    """Closed form of int_0^1 zeta(0,a) zeta(1-s,a) zeta(2-s,a) da for Re s > 1:

        (1/(2(s-1))) * (2 (2 pi)^(-2s) Gamma(s)^2 zeta(2s) - zeta(1-s)^2).
    """
    s = complex(s)
    if s.real <= 1.0:
        raise DomainError("triple_product_integral requires Re s > 1")
    try:
        term = (2.0 * kernels._TWO_PI ** (-2.0 * s)
                * kernels.gamma_complex(s) ** 2
                * kernels.riemann_zeta(2.0 * s))
        zeta_sq = kernels.riemann_zeta(1.0 - s) ** 2
    except OverflowError:
        raise NumericOverflowError("triple product integral overflow") from None
    return kernels._require_finite((term - zeta_sq) / (2.0 * (s - 1.0)), "triple product integral")
