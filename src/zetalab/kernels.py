"""Numeric kernels: gamma, Riemann/Hurwitz zeta, s-derivatives, digamma,
and generalized Stieltjes constants.

Hurwitz zeta is computed by Euler-Maclaurin summation,

    zeta(s, a) ~= sum_{n<M} (n+a)^-s  +  (M+a)^(1-s)/(s-1)  +  (M+a)^-s / 2
                  + sum_{j=1..J} B_{2j}/(2j)! * (s)_{2j-1} * (M+a)^(-s-2j+1),

with the head length M and the Bernoulli-correction count J set by module
constants.  M + a goes no further than max(8, 4|s|/(2 pi)), where the
corrections have fallen below rounding (Johansson, arXiv:1309.2877
section 3), and M is at most 25; for Re s < 1/2 it is shrunk further so the
head/integral cancellation cannot eat the fixed absolute accuracy target.
The correction sum always stops at its smallest term (optimal truncation).

There is one such sum, taken as a power series in t at s + t (Taylor mode,
Johansson, arXiv:1309.2877 sections 2-3): every piece has a closed-form
series, so one pass over the head gives the Taylor coefficients a_0..a_R of
zeta(s+t, a).  zeta(s, a) is a_0, and zeta^(r)(s, a) = r! a_r.  Stieltjes
constants gamma_n(a) are the coefficients at s = 1 of g(t) = zeta(1+t, a) -
1/t, where the integral term minus the pole is the series of
expm1(-t*log(M+a))/t.  Subtracting the pole from finished zeta values
instead would lose all precision near t = 0.  The same sum at a complex
alpha + k gives zeta(s, alpha) for complex alpha (``hurwitz_taylor``).

A single point is a pure-Python sum (``_em_jet_sum``), and never loads numpy.
A quadrature check needs zeta^(r)(s, a) at every node a of a tanh-sinh
level and takes it from the numpy twin at one s (``_zeta_level``, from
``_em_jet_batch``), each node keeping its own M and J; the twin imports
numpy on its first call.  Its head lengths (``_jet_head_lengths``) come
from the reach alone where a bound shows the cancellation rule cannot
bind, and otherwise from the scalar rule node by node.  At real s (and
alpha) both run in floats, and every finite value keeps the complex bits.

Every value zeta^(r)(s, a) is refused, or returned, by one rule after its
sum (``_refuse``): a NaN, an alpha <= 0, s on the pole, then a non-finite
value.  A node the batch leaves non-finite is taken again from the scalar
sum, which refuses it.

Within one verify pass (``checks.run_checks``) each jet is taken once:
``_JET_TABLE`` then holds the pass's jets, and a later request for the same
point, at the same or a lower order, is served from them (a scalar jet from
``_em_jet``, a level's batch from ``_zeta_level``; neither serves the other).
No coefficient depends on the highest order asked for, so a served value is
the bits of a fresh one.  Outside a pass the table is unset and every call
takes its own sum.

The README lists where, measured against mpmath, values miss the accuracy
target without warning.
"""

from __future__ import annotations

import cmath
import contextvars
import math
import numbers
import operator
import struct
from math import factorial
from typing import TYPE_CHECKING

from . import exact
from .errors import DomainError, NumericOverflowError, PoleProximityError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "gamma_complex",
    "riemann_zeta",
    "hurwitz_zeta",
    "hurwitz_zeta_deriv",
    "riemann_zeta_deriv",
    "hurwitz_taylor",
    "stieltjes",
    "digamma",
    "format_complex",
]

_MACH_EPS = 2.220446049250313e-16
_TWO_PI = 2.0 * math.pi
# The fixed numerical policy: the absolute accuracy target for moderate-size
# values, Euler-Maclaurin head length M (at most _EM_CUTOFF, and no longer
# than M + a = max(_EM_MIN_REACH, _EM_REACH_PER_S |s|) needs) and correction
# count J; s-derivatives are refused within _POLE_GUARD of the pole at s = 1.
# Read at call time, so a test may monkeypatch them.
_TARGET_ABS_ERROR = 1e-11
_EM_CUTOFF = 25
_EM_MIN_REACH = 8.0
_EM_REACH_PER_S = 4.0 / _TWO_PI
_EM_TAIL_TERMS = 12
_POLE_GUARD = 0.5
# The highest s-derivative order of the kernels.
_MAX_ORDER = 6

# The jets taken so far in the running verify pass, or None outside one (see
# the module docstring).  A scalar jet's key is the bytes of s, alpha, whether
# alpha is complex and minus_pole; a batch's is the pair (bytes of s, bytes of
# the alphas).  Bytes, not the numbers: 1.0 == 1+0j and 0.0 == -0.0, and both
# pairs hash alike, yet each side of a pair takes its own path or signs its
# own zeros.
_JET_TABLE: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "zetalab_jet_table", default=None)
_JET_KEY = struct.Struct("4d2?").pack
_S_KEY = struct.Struct("2d").pack


# B_{2j}/(2j)! and B_{2j}/(2j) for j = 1..20, from the exact module.
_B2J_OVER_FACT = tuple(
    float(exact.bernoulli_number(2 * j)) / factorial(2 * j) for j in range(1, 21)
)
_B2J_OVER_2J = tuple(
    float(exact.bernoulli_number(2 * j) / (2 * j)) for j in range(1, 21)
)


def _require_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise NumericOverflowError(f"non-finite value in {what}")
    return value


def _refuse_huge_real(z: complex, name: str) -> None:
    """Every double of magnitude >= 2**52 is an integer, so no pole test can
    tell such a finite real part from a pole: refuse it as an overflow."""
    if 2.0 ** 52 <= abs(z.real) < math.inf:
        raise NumericOverflowError(f"Re {name} = {z.real:.3g} is too large to tell from a pole")


def format_complex(z: complex) -> str:
    """Serialize as "re±im·i" with 15 significant digits."""
    z = complex(z)
    re = z.real + 0.0  # normalise -0.0
    im = z.imag + 0.0
    sign = "-" if im < 0 else "+"
    return f"{re:.15g}{sign}{abs(im):.15g}i"


# ---------------------------------------------------------------------------
# Gamma
# ---------------------------------------------------------------------------

# Gamma and digamma step up by the recurrence to Re z >= _STIRLING_SHIFT,
# where eight terms of Stirling's series are below double rounding.
_STIRLING_SHIFT = 16.0
# The coefficients B_{2j}/(2j (2j-1)) of log Gamma's series in z^(1-2j),
# j = 8 down to 1, for Horner's rule.
_LOG_GAMMA_SERIES = tuple(_B2J_OVER_2J[j - 1] / (2 * j - 1) for j in range(8, 0, -1))


def gamma_complex(z: complex) -> complex:
    """Gamma(z) by the upward recurrence and Stirling's series (DLMF 5.11.1),
    reflection for Re z < 1/2.

    sqrt(2 pi) z^(z-1/2) e^-z is formed as the square of z^((z-1/2)/2)
    e^(-z/2), so that no intermediate overflows before Gamma itself does.
    """
    z = complex(z)
    if cmath.isnan(z):
        raise DomainError("gamma_complex got NaN for z")
    _refuse_huge_real(z, "z")
    try:
        if z.real < 0.5:
            n = round(z.real)
            if n <= 0 and abs(z - n) < 1e-12:
                raise PoleProximityError(f"gamma pole at non-positive integer near {z!r}")
            # Gamma(z) Gamma(1-z) = pi / sin(pi z), with sin(pi z) =
            # (-1)^n sin(pi (z - n)) and z - n exact near the pole n
            w = math.pi * (z - n)
            try:
                value = math.pi / ((-1) ** n * cmath.sin(w) * gamma_complex(1.0 - z))
            except OverflowError:
                # from |Im z| ~ 226 on sin(w) overflows before the quotient:
                # move h = e^(i sign(Im z) w/2), |h| = e^(-pi |Im z|/2), from
                # Gamma(1-z) to sin(w), and sin(w) h = (e^(iw) - e^(-iw)) h / 2i
                half = math.copysign(0.5, z.imag) * 1j * w
                sin_h = (cmath.exp(1j * w + half) - cmath.exp(half - 1j * w)) / 2j
                value = math.pi / ((-1) ** n * sin_h) / (gamma_complex(1.0 - z) / cmath.exp(half))
            return _require_finite(value, "gamma reflection")
        shift = 1.0
        while z.real < _STIRLING_SHIFT:
            shift *= z
            z += 1.0
        inv2 = 1.0 / (z * z)
        series = 0j
        for c in _LOG_GAMMA_SERIES:
            series = series * inv2 + c
        half = z ** (0.5 * (z - 0.5)) * cmath.exp(-0.5 * z)
        value = half * half * (math.sqrt(_TWO_PI) * cmath.exp(series / z)) / shift
    except (OverflowError, ZeroDivisionError):
        # round(-inf), exponentials past |Im z| ~ 452 and power overflow; an
        # infinite Im z makes the power's phase infinite, which CPython's
        # complex ** reports as ZeroDivisionError
        raise NumericOverflowError("gamma overflow") from None
    return _require_finite(value, "gamma")


# ---------------------------------------------------------------------------
# Euler-Maclaurin Hurwitz zeta, in Taylor mode: every s-derivative from one sum
# ---------------------------------------------------------------------------


def _em_head_length(s: complex, alpha: float, growth: float = 1.0) -> int:
    """Head length M: _EM_CUTOFF, shrunk when Re s < 1/2 to keep the
    head/integral cancellation, taken ``growth`` times, below the absolute
    accuracy target."""
    if s.real < 0.5:
        cap = (_TARGET_ABS_ERROR / (5.0 * _MACH_EPS * growth)) ** (1.0 / (1.0 - s.real))
        return min(_EM_CUTOFF, max(2, round(cap - alpha) + 1))
    return _EM_CUTOFF


def _em_tail_terms(s: complex) -> int:
    """For very negative Re s the correction series only terminates after
    the rising factorial crosses zero; make sure we reach that point."""
    j = _EM_TAIL_TERMS
    if s.real < 0.0:
        j = max(j, int(-s.real / 2.0) + 3)
    return min(j, len(_B2J_OVER_FACT))


def _jet_head_length(s: complex, alpha: float) -> int:
    """Head length M of a Taylor-mode sum.

    M + a need not pass the reach R = max(_EM_MIN_REACH, _EM_REACH_PER_S |s|)
    (Johansson, arXiv:1309.2877 section 3): the corrections shrink about as
    (|s| / (2 pi (M+a)))^2 a term, so by R the J of them take the sum below
    rounding.  M is at most ceil(R - a), at least 2, and never longer than
    the cancellation rule below gives; where R - a passes _EM_CUTOFF that
    cap binds, and values at large |Im s| stay the fixed cap's.

    For Re s < 1/2 the k-th coefficient's head/integral cancellation is
    L^k/k! times the value's, L = log(M+a), so M allows for the largest such
    factor up to _MAX_ORDER, but is shrunk no further than M + a = 0.6 |Im s|:
    below that the corrections stop converging before they are small
    (measured).  That rule is not evaluated where R - a <= 2, whose M is 2
    whatever it gives: so an infinite alpha takes M = 2.  A NaN alpha raises
    ValueError for Re s < 1/2.
    """
    reach = _EM_REACH_PER_S * abs(s)
    if reach < _EM_MIN_REACH:  # not max(), which costs twice the rest of this path
        reach = _EM_MIN_REACH
    reach -= alpha
    if reach <= 2.0:
        return 2
    m = _em_head_length(s, alpha)
    if m > 2 and s.real < 0.5:  # 2 is the least M, whatever the growth and floor
        # the largest L^k/k!, k <= _MAX_ORDER, as a running product: the
        # factors L/k are at least 1 up to k = L and below 1 after it
        log_t, growth = math.log(m + alpha), 1.0
        for k in range(1, min(int(log_t), _MAX_ORDER) + 1):
            growth *= log_t / k
        floor = 0.6 * abs(s.imag) - alpha + 1.0
        m = max(_em_head_length(s, alpha, growth), int(floor) if floor < m else m)
    # an infinite or NaN reach (an infinite or NaN s) keeps m
    return math.ceil(reach) if reach < m else m


def _jet_head_lengths(s: complex, alphas: np.ndarray) -> np.ndarray:
    """:func:`_jet_head_length` at one s and every alpha of the 1-D float
    array ``alphas`` (each finite and > 0), as an integer array.

    A node with R - alpha <= 2, R the reach, takes M = 2.  Every other node
    takes the reach rule's min(ceil(R - alpha), _EM_CUTOFF), which is the
    scalar's M wherever the cancellation rule cannot bind: for Re s >= 1/2,
    and for Re s < 1/2 when that rule's cap, taken at the growth G =
    _EM_CUTOFF + 1 + the largest alpha among these nodes, is at least R.
    G bounds each such node's growth, which is some L^k/k! <= e^L = M +
    alpha <= _EM_CUTOFF + alpha, M the head length of the ungrown cap.  A
    smaller growth gives a larger cap, and every step of the cap rounds
    monotonically, so each node's cap - alpha is at least R - alpha, and
    round(cap - alpha) + 1 > R - alpha is at least ceil(R - alpha): the
    rule leaves the reach's M.  Otherwise every node takes the scalar rule
    itself.
    """
    import numpy as np

    reach = _EM_REACH_PER_S * abs(s)
    if reach < _EM_MIN_REACH:
        reach = _EM_MIN_REACH
    far = reach - alphas > 2.0
    if s.real < 0.5 and far.any():
        growth = _EM_CUTOFF + 1.0 + alphas[far].max()
        if (_TARGET_ABS_ERROR / (5.0 * _MACH_EPS * growth)) ** (1.0 / (1.0 - s.real)) < reach:
            return np.array([_jet_head_length(s, alpha) for alpha in alphas.tolist()])
    return np.where(far, np.minimum(np.ceil(reach - alphas), _EM_CUTOFF), 2).astype(int)


def _em_jet(s: complex, alpha, order: int, minus_pole: bool = False) -> list[complex]:
    """:func:`_em_jet_sum`, or, within a verify pass, the pass's jet at this
    point cut to ``order``: a point first asked for, or asked for at a higher
    order than its jet has, takes the sum at ``order`` and keeps it."""
    table = _JET_TABLE.get()
    if table is None:
        return _em_jet_sum(s, alpha, order, minus_pole)
    key = _JET_KEY(s.real, s.imag, alpha.real, alpha.imag, isinstance(alpha, complex),
                   minus_pole)
    jet = table.get(key)
    if jet is None or len(jet) <= order:
        jet = table[key] = _em_jet_sum(s, alpha, order, minus_pole)
    return jet[:order + 1]


def _em_jet_sum(s: complex, alpha, order: int, minus_pole: bool = False) -> list[complex]:
    """Taylor coefficients a_0..a_order of zeta(s+t, alpha) in t, for a
    float alpha > 0 or a complex alpha with Re alpha > 0.

    Each Euler-Maclaurin piece is a closed-form series in t, with
    L = log(M+a) and e^(-tL) = sum_k (-L)^k t^k / k!:

      head        sum_n (n+a)^-s (-log(n+a))^k / k!
      integral    (M+a)^(1-s) e^(-tL) / ((s-1) + t)
      half term   (M+a)^-s e^(-tL) / 2
      corrections sum_j B_{2j}/(2j)! (s+t)_{2j-1} (M+a)^(1-s-2j) e^(-tL),
                  cut where the order-0 term is smallest (:func:`_jet_tail`)

    At real s and a float alpha the sum runs in floats, returned as complex
    (module docstring).  Otherwise x^-s is modulus x^(-Re s) and phase
    -Im s log x, and so is (M+a)^(1-s): from (M+a)^-s times (M+a) it would be
    subnormal, and wrong, once Re s log(M+a) passes about 708.  A complex
    alpha takes complex powers and logarithms, and M from Re alpha.

    With ``minus_pole`` s must be 1, and the series is zeta(1+t, a) - 1/t:
    the integral term minus the pole is expm1(-tL)/t.  M comes from
    :func:`_jet_head_length` and does not depend on ``order``, so neither
    does any coefficient.  Overflow yields non-finite coefficients, never an
    exception.
    """
    size = order + 1
    complex_alpha = isinstance(alpha, complex)
    try:
        m, log = _jet_head_length(s, alpha.real), cmath.log if complex_alpha else math.log
        s = s if complex_alpha or s.imag else s.real
        # (n+a)^-s for n = 0..M, the last one (M+a)^-s, and (M+a)^(1-s)
        big_t = m + alpha
        neg_s = -s
        terms = [(n + alpha) ** neg_s for n in range(m + 1)]
        big_t_ms = big_t ** (1.0 - s)
        t_ms = terms.pop()
        log_t = log(big_t)
        tail = _jet_tail(s, big_t, size)
        tail[0] += 0.5  # the half term
        # the t^0 coefficient of every piece; e^(-tL) starts at 1
        if minus_pole:
            integral = -log_t  # expm1(-tL)/t
        else:
            inv_d = 1.0 / (s - 1.0)
            integral = big_t_ms * inv_d  # (M+a)^(1-s) e^(-tL) / ((s-1) + t)
        coefficients = [sum(terms) + integral + t_ms * tail[0]]
        if order:
            # the series of e^(-tL), one term beyond ``order``
            decay = [(-log_t) ** k / factorial(k) for k in range(size + 1)]
            neg_logs = [-log(n + alpha) for n in range(m)]
            for k in range(1, size):
                # sum_n (n+a)^-s (-log(n+a))^k / k!
                terms = list(map(operator.mul, terms, neg_logs))
                if minus_pole:
                    integral = decay[k + 1]
                else:  # ((s-1) + t) f = (M+a)^(1-s) e^(-tL)
                    integral = (big_t_ms * decay[k] - integral) * inv_d
                corrections = sum(map(operator.mul, tail[:k + 1], decay[k::-1]))
                coefficients.append(sum(terms) / factorial(k) + integral + t_ms * corrections)
        return coefficients if type(s) is complex else list(map(complex, coefficients))
    except (OverflowError, ZeroDivisionError, ValueError):
        # a power, exponential, modulus or head length beyond the float
        # range, or an infinite phase
        return [complex(math.nan, math.nan)] * size


def _jet_tail(s: complex, big_t, size: int) -> list[complex]:
    """The Taylor coefficients up to t^(size-1) of
    sum_{j<=J} w_j (s+t)_{2j-1}, w_j = B_{2j}/(2j)! (M+a)^(1-2j), with
    M + a = ``big_t``.

    The order-0 pass sums w_j (s)_{2j-1} and fixes the cut where that term is
    smallest: for Re s < 0 the term magnitudes legitimately rise before
    falling, so the sum is cut back to its last smallest term only when the
    final term has clearly re-entered asymptotic growth.  A second pass, for
    orders >= 1 only, takes the same sum up to that cut by Horner's rule in
    j, on series in t truncated at ``size``: with u = s + t and q_j =
    (u + 2j - 1)(u + 2j), R = w_cut, then R <- w_j + q_j R for j = cut-1
    down to 1, and the sum is u R.  Lane k of q_j R is
    q0 R_k + q1 R_(k-1) + R_(k-2); lanes 1 and 0, which have no R_(k-2) or
    R_(k-1), are taken as q0 R_1 + q1 R_0 and q0 R_0 + w_j, so no step
    multiplies a zero pad.  The sum's t^0 coefficient is left to the first
    pass; at a float s both passes run in floats.  Lane k of a series reads
    only lanes <= k, so neither pass depends on ``size`` below the
    coefficients it makes, and no coefficient does.

    J stays fixed.  A stop once |term| <= eps |acc| would fire at the first
    exactly zero term: at a non-positive integer s the rising factorial
    (s)_{2j-1} vanishes once j >= 1 - s/2 (from j = 1 at s = 0), so every
    later order-0 term is zero, while the higher coefficients are not.  In
    a trial such a stop cut them short, and the finite-difference checks
    prop3_fd_r1..r3 and cor2_* missed by 1e-5.
    """
    inv_t2 = 1.0 / (big_t * big_t)
    weight, poch, acc, min_mag, a = 1.0 / big_t, s, 0.0, math.inf, s + 1.0
    for j, b2j in enumerate(_B2J_OVER_FACT[:_em_tail_terms(s)], 1):
        term = b2j * weight * poch
        acc += term
        mag = abs(term)
        if mag <= min_mag:
            min_mag, cut, acc_at_min = mag, j, acc
        poch *= a * (a + 1.0)  # a = s + 2j - 1
        weight *= inv_t2
        a += 2.0
    if not mag > 10.0 * min_mag:
        cut = j
    tail = [acc_at_min if cut < j else acc]
    if size > 1:
        weights, weight = [], 1.0 / big_t
        for b2j in _B2J_OVER_FACT[:cut]:
            weights.append(b2j * weight)
            weight *= inv_t2
        # R as coefficients of t^0..t^(size-1)
        r = [weights.pop()] + [0.0] * (size - 1)
        lanes = range(size - 1, 1, -1)  # highest power first
        for j in range(cut - 1, 0, -1):
            a = s + (2 * j - 1)
            q0, q1 = a * (a + 1.0), 2.0 * a + 1.0  # q_j = q0 + q1 t + t^2
            for k in lanes:
                r[k] = q0 * r[k] + q1 * r[k - 1] + r[k - 2]
            r[1] = q0 * r[1] + q1 * r[0]
            r[0] = q0 * r[0] + weights.pop()
        tail += [s * r[k] + r[k - 1] for k in range(1, size)]
    return tail


def _rising(s: complex, size: int, count: int):
    """(s+t)_{2j-1} for j = 1..count, each the one before times
    (s+t+2j-1)(s+t+2j), as one list updated in place: read each before
    taking the next.  Entries 2..size+1 hold the coefficients of
    t^0..t^(size-1); two leading zeros stand for those of t^-2 and t^-1.
    Only the batch (:func:`_em_jet_batch`) uses them; the scalar sum takes
    its corrections by recurrence (:func:`_jet_tail`)."""
    poly = [0.0, 0.0, s, 1.0] + [0.0] * (size - 2)
    for j in range(1, count + 1):
        yield poly
        a = s + (2 * j - 1)
        q0, q1 = a * (a + 1.0), 2.0 * a + 1.0  # (u + 2j - 1)(u + 2j) = q0 + q1 t + t^2
        for k in range(size + 1, 1, -1):  # highest power first
            poly[k] = q0 * poly[k] + q1 * poly[k - 1] + poly[k - 2]


def _check_order(r: int) -> int:
    """Refuse an s-derivative order outside 0.._MAX_ORDER; return it as an int."""
    r = operator.index(r)
    if not 0 <= r <= _MAX_ORDER:
        raise ValueError(f"derivative order must be in 0..{_MAX_ORDER}")
    return r


def _refuse_args(fn: str, alpha, s: complex = 0j) -> None:
    """Refuse a NaN s or alpha, and a float alpha <= 0, in ``fn``'s name."""
    if cmath.isnan(s) or cmath.isnan(alpha):
        raise DomainError(f"{fn} got NaN for {'s' if cmath.isnan(s) else 'alpha'}")
    if isinstance(alpha, float) and alpha <= 0.0:
        raise DomainError(f"{fn} requires alpha > 0")


def _refuse(n: int, s: complex, alpha: float, coefficient: complex) -> complex:
    """zeta^(n)(s, alpha) = n! a_n from the sum's ``coefficient`` a_n, or the
    refusal of hurwitz_zeta_deriv(n, s, alpha), in this order: a NaN, an
    alpha <= 0, s on the pole (within 1e-10 of it at order 0, within
    _POLE_GUARD above) and a non-finite value."""
    pole = _POLE_GUARD + 1e-10 if n else 1e-10
    value = factorial(n) * coefficient if n else coefficient
    # every comparison with a NaN is false, so a value returned here is one
    # that none of the refusals below would refuse
    if s == s and alpha > 0.0 and abs(s - 1.0) > pole and cmath.isfinite(value):
        return value
    _refuse_args("hurwitz_zeta_deriv" if n else "hurwitz_zeta", alpha, s)
    if abs(s - 1.0) <= pole:
        raise PoleProximityError(f"s={s!r} is within {_POLE_GUARD} of the pole at 1" if n
                                 else "hurwitz_zeta pole at s = 1")
    raise NumericOverflowError("non-finite value in hurwitz_zeta_deriv" if n
                               else "Euler-Maclaurin overflow in hurwitz_zeta")


def hurwitz_zeta(s: complex, alpha: float) -> complex:
    """Hurwitz zeta(s, alpha) for real alpha > 0, s != 1: the t^0
    coefficient of the Taylor-mode sum."""
    s, alpha = complex(s), float(alpha)
    return _refuse(0, s, alpha, _em_jet(s, alpha, 0)[0])


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta(s) = zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0)


def _times(z: np.ndarray, w) -> np.ndarray:
    """z * w rounded as Python's complex product.  numpy's may fuse its
    multiply-adds, and where the head and integral terms cancel, one rounding
    moved is magnified (at order 6 to about a tenth of the bound)."""
    import numpy as np

    out = np.empty_like(z)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def _em_jet_batch(s: complex, alphas: np.ndarray, order: int) -> np.ndarray:
    """:func:`_em_jet_sum` at one s and every alpha of the 1-D float array
    ``alphas`` (each finite and > 0): column i of the (order + 1) x
    len(alphas) result holds a_0..a_order of zeta(s+t, alphas[i]).

    Every node keeps its own head length (:func:`_jet_head_lengths`) and its
    own Bernoulli cut, taken from the order-0 magnitudes as in
    :func:`_jet_tail`, so its column does not depend on the other nodes, and
    no row depends on the highest order asked for.  The head terms are laid
    out with the term index first, so each running sum runs over all nodes
    at once; the corrections are sum_j w_j (s+t)_{2j-1}, summed forward
    (:func:`_jet_tail` takes the same sum by recurrence), the polynomials in
    t shared by every node and the weights w_j zero past a node's cut; at
    real s they are float arrays, with no phase.  Overflow yields non-finite
    entries, never a warning.
    """
    import numpy as np

    s = complex(s)
    s, times = (s, _times) if s.imag else (s.real, operator.mul)
    alphas = np.asarray(alphas, dtype=float)
    size = order + 1
    try:
        depth = _em_tail_terms(s)
        inv_d = 1.0 / (s - 1.0)
    except (OverflowError, ZeroDivisionError):
        # an infinite Re s, or s = 1
        return np.full((size, len(alphas)), complex(math.nan, math.nan))
    rising = np.array([poly[2:size + 2] for poly in _rising(s, size, depth)])
    cols = np.arange(len(alphas))
    with np.errstate(all="ignore"):
        m = _jet_head_lengths(s, alphas)
        width = m.max(initial=0)
        xs = np.arange(width + 1)[:, None] + alphas
        # numpy's log, though it differs from the scalar's math.log by an ulp
        # on about 2 values in 10^4, which the order-6 cancellation can
        # magnify to most of a tenth of the bound: math.log element by
        # element would cost more than the rest of a 148-node level
        logs = np.log(xs)
        # (n+a)^-s as modulus and phase, as the scalar forms it, for n up to
        # each node's M: row M holds its (M+a)^-s.  sum_n (n+a)^-s
        # (-log(n+a))^k in the scalar's order: running sums over n, read off
        # at each node's M-1; the 1/k! comes at the end
        terms = np.float_power(xs, -s.real)
        if s.imag:
            phase = -s.imag * logs
            terms = terms * np.cos(phase) + 1j * (terms * np.sin(phase))
        t_ms = terms[m, cols]
        head = [terms.cumsum(axis=0)[m - 1, cols]]
        for _ in range(order):
            terms *= -logs
            head.append(terms.cumsum(axis=0)[m - 1, cols])
        big_t = m + alphas
        log_t = logs[m, cols]
        decay = [np.float_power(-log_t, k) / factorial(k) for k in range(size + 1)]
        # (M+a)^(1-s), not (M+a)^-s (M+a), which may be subnormal
        big_t_ms = np.float_power(big_t, 1.0 - s.real)
        if s.imag:
            phase = phase[m, cols]
            big_t_ms = big_t_ms * np.cos(phase) + 1j * (big_t_ms * np.sin(phase))
        integral, prev = [], 0.0
        for k in range(size):  # ((s-1) + t) f = (M+a)^(1-s) e^(-tL)
            prev = times(big_t_ms * decay[k] - prev, inv_d)
            integral.append(prev)
        # w_j = B_{2j}/(2j)! (M+a)^(1-2j), kept up to the last smallest
        # order-0 term, or to J unless the final term has clearly re-entered
        # asymptotic growth (see _jet_tail)
        weights = np.array(_B2J_OVER_FACT[:depth])[:, None] * big_t ** (
            1.0 - 2.0 * np.arange(1, depth + 1))[:, None]
        mags = np.abs(weights * rising[:, :1])
        at_min = depth - 1 - mags[::-1].argmin(axis=0)
        cut = np.where(mags[-1] > 10.0 * mags[at_min, cols], at_min, depth - 1)
        weights[np.arange(depth)[:, None] > cut] = 0.0
        # cumsum adds in j order whatever the number of nodes; sum may pair terms
        tail = [(rising[:, k, None] * weights).cumsum(axis=0)[-1] for k in range(size)]
        tail[0] += 0.5  # the half term
        # head / k! part by part, as Python divides a complex by an int
        return np.array([(head[k].view(float) / factorial(k)).view(head[k].dtype) + integral[k]
                         + times(sum(tail[i] * decay[k - i] for i in range(k + 1)), t_ms)
                         for k in range(size)])


def _zeta_level(r: int, s: complex, alphas: np.ndarray) -> np.ndarray:
    """zeta^(r)(s, a) at every a of the 1-D float array ``alphas``, a
    quadrature level's nodes, from one :func:`_em_jet_batch` call: r! a_r.
    Within a verify pass the batch is the pass's batch at s and these nodes,
    if it reaches order r, and is otherwise taken at order r and kept
    read-only.

    Values and refusals are those of hurwitz_zeta_deriv(r, s, a) node by
    node: s and the first node pass :func:`_refuse` before the batch, and a
    node whose alpha is not finite and > 0, or whose value is not finite, is
    taken again from the scalar, which refuses it as it does node by node.
    """
    import numpy as np

    s = complex(s)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size:  # s's refusals, or the first node's, before the batch
        _refuse(r, s, alphas[0], 0j)
    good = (alphas > 0.0) & (alphas < math.inf)
    nodes = alphas[good]
    table = _JET_TABLE.get()
    if table is None:
        jets = _em_jet_batch(s, nodes, r)
    else:
        key = (_S_KEY(s.real, s.imag), nodes.tobytes())
        jets = table.get(key)
        if jets is None or len(jets) <= r:
            jets = table[key] = _em_jet_batch(s, nodes, r)
            jets.flags.writeable = False
    values = np.full(len(alphas), complex(math.nan, math.nan))
    with np.errstate(invalid="ignore"):  # an inf+nan column is taken again below
        values[good] = factorial(r) * jets[r]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        values[i] = hurwitz_zeta_deriv(r, s, alphas[i])
    return values


def _hurwitz_derivs(orders, s: complex, alpha: float) -> list[complex]:
    """zeta^(n)(s, alpha) for each n in ``orders``, in that order.

    Every order comes from one Taylor-mode sum.  The refusals are those of
    a loop over the orders, in their order: a caller that lists order 0
    first gets hurwitz_zeta's refusals before those of the derivatives.
    """
    s, alpha = complex(s), float(alpha)
    jet = _em_jet(s, alpha, max(orders))
    return [_refuse(n, s, alpha, jet[n]) for n in orders]


def hurwitz_zeta_deriv(r: int, s: complex, alpha: float) -> complex:
    """r-th partial s-derivative of zeta(s, alpha), r <= 6.

    r! times the r-th Taylor coefficient of one Euler-Maclaurin sum taken
    as a power series in s; refused within 1/2 of the pole at s = 1.
    """
    r = _check_order(r)
    s, alpha = complex(s), float(alpha)
    return _refuse(r, s, alpha, _em_jet(s, alpha, r)[r])


def riemann_zeta_deriv(r: int, s: complex) -> complex:
    """r-th derivative of Riemann zeta, = hurwitz_zeta_deriv(r, s, 1)."""
    return hurwitz_zeta_deriv(r, s, 1.0)


# ---------------------------------------------------------------------------
# Stieltjes constants and digamma
# ---------------------------------------------------------------------------


def stieltjes(n: int, alpha: float) -> complex:
    """Generalized Stieltjes constant gamma_n(alpha), for -1 <= n <= 5.

    gamma_n(alpha) is the n-th Taylor coefficient at 0 of
    g(t) = zeta(1+t, alpha) - 1/t; gamma_{-1} = 1 identically.
    """
    n = operator.index(n)
    if not -1 <= n <= 5:
        raise ValueError("stieltjes order must be in -1..5")
    alpha = float(alpha)
    _refuse_args("stieltjes", alpha)
    if n == -1:
        return complex(1.0)
    return _require_finite(_em_jet(1.0 + 0j, alpha, n, minus_pole=True)[n], "stieltjes")


def digamma(alpha: float) -> float:
    """psi(alpha) = Gamma'/Gamma for real alpha > 0.

    Upward recurrence psi(a+1) = psi(a) + 1/a until the argument is large,
    then the Bernoulli asymptotic series.
    """
    alpha = float(alpha)
    _refuse_args("digamma", alpha)
    acc = 0.0
    x = alpha
    while x < _STIRLING_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    pw = inv2
    for j in range(1, 9):
        series += _B2J_OVER_2J[j - 1] * pw
        pw *= inv2
    return _require_finite(acc + math.log(x) - 0.5 / x - series, "digamma")


# ---------------------------------------------------------------------------
# Complex alpha
# ---------------------------------------------------------------------------


def hurwitz_taylor(s: complex, alpha: complex, k: int) -> complex:
    """zeta(s, alpha) for complex alpha inside the disc |alpha| < k - 1/4.

    zeta(s, alpha) = sum_{n<k} (n+alpha)^-s + zeta(s, alpha + k): the head
    carries the singularities at alpha = 0, -1, ..., -(k-1), and the rest is
    the Euler-Maclaurin sum at the complex alpha + k, Re(alpha + k) > 1/4.
    """
    s, alpha = complex(s), complex(alpha)
    _refuse_args("hurwitz_taylor", alpha, s)
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be a positive integer")
    if abs(alpha) >= k - 0.25:
        raise DomainError(f"alpha={alpha!r} outside the safe disc |alpha| < {k - 0.25}")
    _refuse(0, s, 1.0, 0j)  # zeta's pole test; s and alpha = 1 pass the rest
    head = 0j
    try:
        for n in range(k):
            base = n + alpha
            if base == 0:
                raise DomainError("alpha makes a head term (n + alpha) vanish")
            head += cmath.exp(-s * cmath.log(base))
    except OverflowError:
        raise NumericOverflowError("hurwitz_taylor head overflow") from None
    return _require_finite(head + _em_jet(s, alpha + k, 0)[0], "hurwitz_taylor")
