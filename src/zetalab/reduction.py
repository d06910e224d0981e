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
constants A_k.  A reduction keeps its order and those integer jumps, which
are all :func:`eval_combination` reads; its coefficients are built when
first read, with Q_k(s), Q_k'(s) and Q_k(s)^2 from one table cached for
k <= MAX_DEGREE, so poles land only at s = 1..N.  Q_k has simple roots, so
every coefficient is built reduced over a monic denominator and stored as
built: no polynomial gcd runs.

:func:`eval_combination` reads only the order and the jumps: through the
functional equation the value is a sum of shifted zeta values at Re > 1,
whose low modes are exact, all of one parity of k from one integer Horner
sweep (:func:`_modes`), and whose tails are Euler-Maclaurin sums.

The closed-form product integrals (the two-factor integral over (0,1), its
s -> 1 limit combination, and the specific triple-product evaluation) live
here too, realised numerically with the kernel layer.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence

from . import kernels
from .errors import ConvergenceError, DomainError, NumericOverflowError
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

    # _jumps: a reduction's (r, den, {k: integer jump}), A_k = jump/den, else None;
    # _coeffs: None until a reduction's are read (two first reads build equal dicts)
    __slots__ = ("_coeffs", "_jumps")

    def __init__(self, terms: dict[DerivAtom, RationalFunctionOfS] | None = None):
        clean = {a: c for a, c in (terms or {}).items() if not c.is_zero()}
        object.__setattr__(self, "_coeffs", clean)
        object.__setattr__(self, "_jumps", None)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LinearCombination is immutable")

    @property
    def _terms(self) -> dict[DerivAtom, RationalFunctionOfS]:
        if self._coeffs is None:  # a reduction's, from its jumps (reduce_poly)
            (r, den, jumps), terms = self._jumps, {}
            for k, jump in jumps.items():
                a_k, (q, dq, q2) = Fraction(jump, den), _pochhammer(k)
                terms[DerivAtom(r, k)] = RationalFunctionOfS(RatPoly((-a_k,)), q)
                if r == 1:
                    terms[DerivAtom(0, k)] = RationalFunctionOfS(dq.scale(a_k), q2)
            object.__setattr__(self, "_coeffs", terms)
        return self._coeffs

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
    atoms with A_k = 0 are omitted.  The coefficients are built when read.
    """
    r = _check_r(r)
    if p.degree > MAX_DEGREE:
        raise ValueError(f"polynomial degree must be <= {MAX_DEGREE}")
    lc = LinearCombination()
    object.__setattr__(lc, "_coeffs", None)
    object.__setattr__(lc, "_jumps", (r, p._den, {
        k: jump for k, jump in enumerate(_endpoint_jumps(p), start=1) if jump}))
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


# ---------------------------------------------------------------------------
# The value of a reduction: the functional equation with exact low modes
# ---------------------------------------------------------------------------

_MODE_BITS, _FIRST_MODES, _LAST_MODES, _TAIL_SHARE = 128, 8, 64, 1e-14
_LOG_TWO_PI = math.log(kernels._TWO_PI)


@lru_cache(maxsize=None)
def _inv_two_pi(bits: int) -> int:
    """floor(2^bits / (2 pi)), pi = 16 atan(1/5) - 4 atan(1/239) to 32 guard bits."""
    one, pi = 1 << (bits + 32), 0
    for weight, m in ((16, 5), (-4, 239)):  # alternating series of atan(1/m)
        term, n = weight * one // m, 1
        while term:
            pi, term, n = pi + term // n, -term // (m * m), n + 2
    return (one << bits) // (2 * pi)


def _modes(row: list[int], q: int, den: int, first: int, last: int) -> list[float]:
    """e_n (q = 0) or o_n (q = 1) for n = first..last: each the sum over
    k = q mod 2 of sigma_k A_k (2 pi n)^-k, exact, then rounded once.

    ``row`` holds c_i = sigma_k jump_k for k = 2i + 2 - q, i = 0..top, so
    with m = n^2 the sum is n^-(2 top + 2 - q) sum_i g_i m^(top-i) / den,
    g_i = c_i (2 pi)^-(2i+2-q).  In P-bit fixed point X = _inv_two_pi(P)
    errs by at most 1.01 and Y = floor(X^2 / 2^P) by 2^(6-P) of itself, so
    D_i = floor(c_i Z Y^i / 2^(P i)), Z = Y or X, is within
    E_i = 3 + (i+1) |D_i| 2^(8-P) of 2^P g_i.  The D_i are formed once per
    P; each mode is then one exact integer Horner sweep in m, h <- h m + D_i
    from the first non-zero c_i (i_0) on, whose error is at most
    m^(top-i_0) sum_i E_i, and one int/int division.  P starts at
    _MODE_BITS and doubles, for the modes whose error passes 2^-61 of h,
    until none does.
    """
    lead, top, e = next(i for i, c in enumerate(row) if c), len(row) - 1, 2 * len(row) - q
    modes, pending, bits = {}, range(first, last + 1), _MODE_BITS
    while pending:
        x = _inv_two_pi(bits)
        y = x * x >> bits
        zy, ds, err = (y if q == 0 else x) * y ** lead, [], 0  # zy = Z Y^i
        for i, c in enumerate(row[lead:], lead):
            d = c * zy >> bits * i
            ds.append(d)
            if c:
                err += 3 + ((i + 1) * abs(d) >> bits - 8)
            zy *= y
        missed = []
        for n in pending:
            m, h = n * n, 0
            for d in ds:
                h = h * m + d
            if err * m ** (top - lead) << 61 > abs(h):
                missed.append(n)
            else:
                modes[n] = h / (den * n ** e << bits)  # int / int rounds correctly
        pending, bits = missed, 2 * bits
    return [modes[n] for n in range(first, last + 1)]


def eval_combination(lc: LinearCombination, s: complex) -> complex:
    """Value at s, Re s < 1, of a reduction from reduce_poly, reduce_monomial
    or integral_poly_zeta; any other combination, Re s >= 1 (where the
    integral diverges) and NaN raise DomainError.

    Gamma(1-s+k) = (-1)^k Q_k(s) Gamma(1-s) and the functional equation
    (DLMF 25.4.2) turn the sum of -A_k/Q_k zeta(s-k) into
    -2 Gamma(1-s) (2 pi)^(s-1) [sin(pi s/2) E + cos(pi s/2) O], E and O the
    sums over even and odd k of (-1)^floor(k/2) A_k (2 pi)^-k zeta(1+k-s).
    Each zeta(1+k-s) is sum_{n<=n_0} n^(s-1-k), its modes exact
    (:func:`_modes`, one sweep per parity, skipped for a parity with no
    jump: a Bernoulli product's jumps all have one parity), plus one
    Euler-Maclaurin sum zeta(1+k-s, n_0+1).  n_0 doubles from 8 while the
    tail sums cannot reach 4 |Im s| / (2 pi), or while their rounding passes
    1e-14 of the bracket and the modes' rounding; past 64 it raises
    ConvergenceError.  The modes and (n^(s-1), log n) are kept across the
    doublings.  r = 1 gives I'(s), with psi(1-s) from the minus-pole jet.
    sin and cos go about the nearest integer, so each is exactly 0 where it
    vanishes; past the float range of them or of Gamma(1-s) the value raises
    NumericOverflowError.
    """
    if lc._jumps is None:
        raise DomainError("eval_combination evaluates only a reduction from reduce_poly, "
                          "reduce_monomial or integral_poly_zeta")
    s = complex(s)
    if cmath.isnan(s) or s.real >= 1.0:
        raise DomainError(f"eval_combination requires Re s < 1, where the integral converges, "
                          f"not s = {s!r}")
    r, den, jumps = lc._jumps
    if not jumps:
        return 0j
    rows = [(p, [(-1) ** (k // 2) * jumps.get(k, 0) for k in range(2 - p, max(jumps) + 1, 2)])
            for p in (0, 1)]
    rows = [(p, row) for p, row in rows if any(row)]
    try:
        q = round(s.real)
        sin_u, cos_u = cmath.sin(0.5 * math.pi * (s - q)), cmath.cos(0.5 * math.pi * (s - q))
        w = ((sin_u, cos_u), (cos_u, -sin_u), (-sin_u, -cos_u), (-cos_u, sin_u))[q % 4]
        gamma = kernels.gamma_complex(1.0 - s)
        if abs(gamma) < sys.float_info.min:
            raise NumericOverflowError(f"Gamma(1 - s) underflows at s = {s!r}")
        scale = -2.0 * gamma * kernels._TWO_PI ** (s - 1.0)
        # weights (a, b) of E or O and of its s-derivative in the bracket, by
        # parity: dw and g are d/ds of w and of log(Gamma(1-s) (2 pi)^(s-1))
        dw = (0.5 * math.pi * w[1], -0.5 * math.pi * w[0])
        g = _LOG_TWO_PI + kernels._em_jet(1.0, 1.0 - s, 0, minus_pole=True)[0] if r else 0
        weights = [(g * w[p] + dw[p], w[p]) if r else (w[p], 0.0) for p in (0, 1)]
        coeffs = {k: (-1) ** (k // 2) * (jump / den) * kernels._TWO_PI ** -k
                  for k, jump in jumps.items()}
        # e_n or o_n for each parity with a jump, and (n^(s-1), log n), for
        # n = 1..n_0
        modes, powers, n0 = [[] for _ in rows], [], _FIRST_MODES
        mode_weights = [weights[p] for p, _ in rows]
        while n0 + 1 + kernels._EM_CUTOFF < kernels._EM_REACH_PER_S * abs(s.imag):
            n0 *= 2
        while n0 <= _LAST_MODES:
            for (p, row), mode in zip(rows, modes):
                mode += _modes(row, p, den, len(mode) + 1, n0)
            powers += [(n ** (s - 1.0), math.log(n)) for n in range(len(powers) + 1, n0 + 1)]
            bracket, tail_size, mode_size = 0j, 0.0, 0.0
            for k, c in coeffs.items():
                jet = kernels._em_jet(1.0 + k - s, n0 + 1.0, r)
                a, b = weights[k % 2]
                v, d = a * c * jet[0], -b * c * jet[1] if r else 0j  # d/ds zeta(1+k-s) = -zeta'
                bracket += v + d
                tail_size += abs(v) + abs(d)
            for n, (power, log_n) in enumerate(powers):
                for (a, b), mode in zip(mode_weights, modes):
                    term = (a + b * log_n) * power * mode[n]
                    bracket, mode_size = bracket + term, mode_size + abs(term)
            if not tail_size > max(mode_size, _TAIL_SHARE / kernels._MACH_EPS * abs(bracket)):
                return kernels._require_finite(scale * bracket, "eval_combination")
            n0 *= 2
    except (OverflowError, ZeroDivisionError):
        raise NumericOverflowError(f"eval_combination overflow at s = {s!r}") from None
    raise ConvergenceError(f"no n_0 <= {_LAST_MODES} bounds the tail's error at s = {s!r}")


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
