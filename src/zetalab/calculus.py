"""The alpha-calculus layer: antiderivative families in alpha, the forward
alpha-derivative rule, the digamma derivative chain, and the integral over
[1, inf) that follows from them.  The zero mean over [0, 1] (Corollary 4)
is the empty product of :func:`zetalab.reduction.integral_poly_zeta`.

Central derived fact: the antiderivative of zeta^(r)(s, .) is

    sum_{l=0..r} c_l zeta^(l)(s-1, a) / (1-s)^(r+1-l),   c_l = r!/l!.

The coefficients are not taken on faith: differentiating the family in alpha
with the forward rule must collapse to the single term zeta^(r)(s, a), as an
exact identity between Laurent polynomials in 1/(1-s) with Fraction
coefficients -- see :func:`antiderivative_alpha_derivative_symbolic`, which
the test suite runs for every r used anywhere else.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from . import kernels
from .errors import DomainError, NumericOverflowError, PoleProximityError

__all__ = [
    "AntiderivativeTerm",
    "antiderivative_terms",
    "antiderivative_eval",
    "antiderivative_alpha_derivative_symbolic",
    "alpha_derivative",
    "alpha_derivative_at_zero",
    "stieltjes_alpha_derivative",
    "psi_chain",
    "integral_1_inf",
]


@dataclass(frozen=True)
class AntiderivativeTerm:
    """One term c * zeta^(deriv_order)(s-1, a) / (1-s)^pole_power."""

    deriv_order: int
    coefficient: Fraction
    pole_power: int


def antiderivative_terms(r: int) -> tuple[AntiderivativeTerm, ...]:
    """Terms of the antiderivative of zeta^(r)(s, .) in alpha: c_l = r!/l!."""
    r = kernels._check_order(r)
    return tuple(
        AntiderivativeTerm(deriv_order=l,
                           coefficient=Fraction(factorial(r), factorial(l)),
                           pole_power=r + 1 - l)
        for l in range(r + 1)
    )


def _antiderivative(r: int, s: complex, alpha: float) -> complex:
    """sum_l c_l zeta^(l)(s-1, a)/(1-s)^(r+1-l), every order from one
    Taylor-mode sum."""
    terms = antiderivative_terms(r)
    zetas = kernels._hurwitz_derivs([t.deriv_order for t in terms], s - 1.0, alpha)
    one_minus_s = 1.0 - s
    total = 0j
    for term, z in zip(terms, zetas):
        total += float(term.coefficient) * z / one_minus_s ** term.pole_power
    return total


def antiderivative_eval(r: int, s: complex, alpha: float) -> complex:
    """Numeric antiderivative value sum_l c_l zeta^(l)(s-1, a)/(1-s)^(r+1-l)."""
    r = kernels._check_order(r)
    s = complex(s)
    if abs(s - 1.0) <= kernels._POLE_GUARD:
        raise PoleProximityError("antiderivative family is singular at s = 1")
    return _antiderivative(r, s, alpha)


def antiderivative_alpha_derivative_symbolic(r: int) -> dict[int, dict[int, Fraction]]:
    """Differentiate the antiderivative family in alpha, symbolically.

    Each term c_l zeta^(l)(s-1, a)/(1-s)^(r+1-l) maps under d/da to
    -l zeta^(l-1)(s, a) - (s-1) zeta^(l)(s, a) times its coefficient.  The
    coefficient of each zeta^(j)(s, a) is a Laurent polynomial in 1-s, and
    the result is its rows: {j: {p: c_p}} for sum_p c_p (1-s)^(-p), with only
    nonzero c_p, powers ascending, and only nonempty rows.  The family is a
    true antiderivative iff this collapses to {r: {0: 1}}.

    c/(1-s)^p on zeta^(l)(s-1, a) sends -l c/(1-s)^p to zeta^(l-1)(s, a) and
    c/(1-s)^(p-1) to zeta^(l)(s, a).
    """
    rows: dict[int, dict[int, Fraction]] = {}

    def add(j: int, p: int, c: Fraction) -> None:
        row = rows.setdefault(j, {})
        row[p] = row.get(p, 0) + c

    for term in antiderivative_terms(r):
        l, c, p = term.deriv_order, term.coefficient, term.pole_power
        if l >= 1:
            add(l - 1, p, -l * c)
        add(l, p - 1, c)
    out = {}
    for j, row in rows.items():
        row = {p: c for p, c in sorted(row.items()) if c}
        if row:
            out[j] = row
    return out


def alpha_derivative(r: int, s: complex, alpha: float) -> complex:
    """Forward rule: d/da zeta^(r)(s, a) = -r zeta^(r-1)(s+1, a) - s zeta^(r)(s+1, a).

    Valid for s != 0 (the shifted kernel sits on its pole at s = 0, matching
    the stated exclusion of the rule there).
    """
    r = kernels._check_order(r)
    s = complex(s)
    if r == 0:
        return -s * kernels.hurwitz_zeta(s + 1.0, alpha)
    lower, upper = kernels._hurwitz_derivs((r - 1, r), s + 1.0, alpha)
    return -s * upper - r * lower


def alpha_derivative_at_zero(r: int, alpha: float) -> complex:
    """d/da zeta^(r)(0, a) = -r! gamma_{r-1}(a)."""
    r = kernels._check_order(r)
    return -factorial(r) * kernels.stieltjes(r - 1, alpha)


def stieltjes_alpha_derivative(r: int, alpha: float) -> complex:
    """d/da gamma_{r-1}(a) = -(1/r!) d^r/ds^r [s(s+1) zeta(s+2, a)] at s=0.

    With a_k the Taylor coefficients of zeta(2+t, a) in t, that is
    -(a_{r-1} + a_{r-2}); for r = 1 it equals -zeta(2, a).
    """
    r = operator.index(r)
    if r < 1:
        raise ValueError("order must be >= 1")
    if r > 5:
        raise ValueError("order must be <= 5")
    alpha = float(alpha)
    kernels._refuse_args("stieltjes_alpha_derivative", alpha)
    coeffs = kernels._em_jet(2.0 + 0j, alpha, r - 1)
    coeff = coeffs[r - 1] + coeffs[r - 2] if r >= 2 else coeffs[0]
    return kernels._require_finite(-coeff, "stieltjes_alpha_derivative")


def psi_chain(r: int, alpha: float) -> complex:
    """d^r/da^r psi(a) = (-1)^(r-1) r! zeta(r+1, a) for r >= 1."""
    r = operator.index(r)
    if r < 1:
        raise ValueError("order must be >= 1")
    if r > 170:  # r! is past the largest double
        raise NumericOverflowError("psi_chain overflow")
    value = (-1.0) ** (r - 1) * factorial(r) * kernels.hurwitz_zeta(r + 1.0, alpha)
    return kernels._require_finite(value, "psi_chain")


def integral_1_inf(r: int, s: complex) -> complex:
    """int_1^inf zeta^(r)(s, a) da = -sum_l c_l zeta^(l)(s-1)/(1-s)^(r+1-l),
    for Re s > 2 (the antiderivative vanishes at infinity there)."""
    r = kernels._check_order(r)
    s = complex(s)
    if s.real <= 2.0:
        raise DomainError("integral_1_inf requires Re s > 2")
    return -_antiderivative(r, s, 1.0)
