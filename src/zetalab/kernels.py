"""Numeric kernels: gamma, Riemann/Hurwitz zeta, s-derivatives, digamma,
and generalized Stieltjes constants.

Hurwitz zeta is computed by Euler-Maclaurin summation,

    zeta(s, a) ~= sum_{n<M} (n+a)^-s  +  (M+a)^(1-s)/(s-1)  +  (M+a)^-s / 2
                  + sum_{j=1..J} B_{2j}/(2j)! * (s)_{2j-1} * (M+a)^(-s-2j+1),

with the head length M and the Bernoulli-correction count J fixed by module
constants.  For Re s < 1/2 the head length is shrunk so the head/integral
cancellation cannot eat the fixed absolute accuracy target; the correction
sum always stops at its smallest term (optimal truncation).

s-derivatives of any order come from the same sum taken as a power series in
t at s + t (Taylor mode, Johansson, arXiv:1309.2877 sections 2-3): every
piece has a closed-form series, so one pass over the head gives the Taylor
coefficients a_0..a_R of zeta(s+t, a), and zeta^(r)(s, a) = r! a_r.
Stieltjes constants gamma_n(a) are the coefficients at s = 1 of
g(t) = zeta(1+t, a) - 1/t, where the integral term minus the pole is the
series of expm1(-t*log(M+a))/t.  Subtracting the pole from finished zeta
values instead would lose all precision near t = 0.

A single point is a pure-Python sum: ``hurwitz_zeta`` for order 0,
``_em_jet`` for the rest.  Two callers need many points at once and take
them from numpy batches, each point keeping its own M and J: ``hurwitz_taylor``
needs zeta(s+n, k) for n = 0, 1, ... (``_em_hurwitz_batch``, one row at
alpha = k), and a quadrature check needs zeta^(r)(s, a) at every node a of a
tanh-sinh level (``_zeta_level``, from ``_em_jet_batch`` at one s).  An entry
a batch leaves non-finite is taken again from the scalar form, which retries
it or refuses it.

The README lists where, measured against mpmath, values miss the accuracy
target without warning.
"""

from __future__ import annotations

import cmath
import math
import numbers
from math import factorial

import numpy as np

from . import exact
from .errors import (ConvergenceError, DomainError, NumericOverflowError,
                     PoleProximityError)

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
# values, Euler-Maclaurin head length M and correction count J; s-derivatives
# are refused within _POLE_GUARD of the pole at s = 1.  Read at call time, so
# a test may monkeypatch them.
_TARGET_ABS_ERROR = 1e-11
_EM_CUTOFF = 25
_EM_TAIL_TERMS = 12
_POLE_GUARD = 0.5
# The highest s-derivative order of the kernels.
_MAX_ORDER = 6
_FACTORIALS = np.array([float(factorial(k)) for k in range(_MAX_ORDER + 1)])


# B_{2j}/(2j)! and B_{2j}/(2j) for j = 1..20, from the exact module.
_B2J_OVER_FACT = tuple(
    float(exact.bernoulli_number(2 * j)) / factorial(2 * j) for j in range(1, 21)
)
_B2J_OVER_FACT_ARRAY = np.array(_B2J_OVER_FACT)
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

# Lanczos approximation, g = 7, 9 terms.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def gamma_complex(z: complex) -> complex:
    """Gamma(z) by the Lanczos approximation, reflection for Re z < 1/2."""
    z = complex(z)
    if cmath.isnan(z):
        raise DomainError("gamma_complex got NaN for z")
    _refuse_huge_real(z, "z")
    try:
        if z.real < 0.5:
            nearest = round(z.real)
            if nearest <= 0 and abs(z - nearest) < 1e-12:
                raise PoleProximityError(f"gamma pole at non-positive integer near {z!r}")
            # Gamma(z) Gamma(1-z) = pi / sin(pi z)
            return _require_finite(
                math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z)),
                "gamma reflection")
        w = z - 1.0
        acc = complex(_LANCZOS_C[0])
        for i in range(1, len(_LANCZOS_C)):
            acc += _LANCZOS_C[i] / (w + i)
        t = w + _LANCZOS_G + 0.5
        value = math.sqrt(_TWO_PI) * t ** (w + 0.5) * cmath.exp(-t) * acc
    except (OverflowError, ZeroDivisionError):
        # round(-inf), sin of a large imaginary part and exp overflow; an
        # infinite Im z makes the power's phase infinite, which CPython's
        # complex ** reports as ZeroDivisionError
        raise NumericOverflowError("gamma overflow") from None
    return _require_finite(value, "gamma")


# ---------------------------------------------------------------------------
# Euler-Maclaurin Hurwitz zeta
# ---------------------------------------------------------------------------


def _em_head_length(s: complex, alpha: float, growth: float = 1.0) -> int:
    """Head length M: _EM_CUTOFF, shrunk when Re s < 1/2 to keep the
    head/integral cancellation, taken ``growth`` times, below the absolute
    accuracy target."""
    m = _EM_CUTOFF
    if s.real < 0.5:
        cap = (_TARGET_ABS_ERROR / (5.0 * _MACH_EPS * growth)) ** (1.0 / (1.0 - s.real))
        m = min(m, max(2, int(round(cap - alpha)) + 1))
    return m


def _em_tail_terms(s: complex) -> int:
    """For very negative Re s the correction series only terminates after
    the rising factorial crosses zero; make sure we reach that point."""
    j = _EM_TAIL_TERMS
    if s.real < 0.0:
        j = max(j, int(-s.real / 2.0) + 3)
    return min(j, len(_B2J_OVER_FACT))


def _em_lengths(s: np.ndarray, alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_em_head_length` and :func:`_em_tail_terms` at every point of
    the complex array ``s``, as two integer arrays (M, J).

    The cap is taken by ``np.float_power``, which calls the C library's pow
    as Python's ``**`` does; ``np.power`` may differ from it by an ulp, and
    an ulp moved in round(cap - alpha) would move M.  Clamping in floats
    before the integer cast keeps every extreme cap and Re s exact.
    """
    re = s.real
    low = re < 0.5
    # the other points keep M = _EM_CUTOFF; Re s -> 0 there keeps 1/(1 - Re s) finite
    cap = np.float_power(_TARGET_ABS_ERROR / (5.0 * _MACH_EPS),
                         1.0 / (1.0 - np.where(low, re, 0.0)))
    m = np.where(low, np.maximum(np.round(cap - alpha) + 1.0, 2.0), np.inf)
    j = np.where(re < 0.0, np.floor(-re / 2.0) + 3.0, 0.0)
    return (np.minimum(m, _EM_CUTOFF).astype(int),
            np.minimum(np.maximum(j, _EM_TAIL_TERMS), len(_B2J_OVER_FACT)).astype(int))


def _em_tail(s: complex, big_t: float, t_pow: complex, terms: int) -> complex:
    """Bernoulli correction sum with optimal (smallest-term) truncation.

    For Re s < 0 the term magnitudes legitimately rise before falling, so the
    sum is only cut back to its smallest term when the final term has clearly
    re-entered asymptotic growth.  ``t_pow`` must be (M+a)^(-s-1) on entry.
    """
    acc = 0j
    poch = s
    inv_t2 = 1.0 / (big_t * big_t)
    min_mag = math.inf
    acc_at_min = 0j
    mag = 0.0
    for j in range(1, terms + 1):
        term = _B2J_OVER_FACT[j - 1] * poch * t_pow
        acc += term
        mag = abs(term)
        if mag <= min_mag:
            min_mag = mag
            acc_at_min = acc
        if mag == 0.0:
            break
        poch *= (s + (2 * j - 1)) * (s + 2 * j)
        t_pow *= inv_t2
    if mag > 10.0 * min_mag:
        return acc_at_min
    return acc


def _em_hurwitz(s: complex, alpha: float, exp_log: bool = False) -> complex:
    """The Euler-Maclaurin sum.  ``exp_log`` forms every power as
    exp(-s log(n+a)) and the integral term as exp((1-s) log(M+a))."""
    try:
        m = _em_head_length(s, alpha)
        head = 0j
        if exp_log:
            for n in range(m):
                head += cmath.exp(-s * math.log(n + alpha))
        else:
            for n in range(m):
                head += (n + alpha) ** (-s)
        big_t = m + alpha
        log_t = math.log(big_t)
        t_ms = cmath.exp(-s * log_t)  # (M+a)^-s
        if exp_log:
            integral = cmath.exp((1.0 - s) * log_t) / (s - 1.0)
        else:
            integral = t_ms * big_t / (s - 1.0)
        value = head + integral + 0.5 * t_ms
        value += _em_tail(s, big_t, t_ms / big_t, _em_tail_terms(s))
    except (OverflowError, ZeroDivisionError):
        # an infinite Im s makes the power's phase infinite, which CPython's
        # complex ** reports as ZeroDivisionError; like a real +-inf, or an
        # infinite alpha in the head length for Re s < 1/2, it is an overflow
        raise NumericOverflowError("Euler-Maclaurin overflow in hurwitz_zeta") from None
    if not exp_log and not cmath.isfinite(value):
        # For an integral exponent CPython's complex ** multiplies the power
        # out before inverting it, so (1e78) ** -(4+0j) is nan although the
        # power is representable; exp and log keep every term in range.
        try:
            return _em_hurwitz(s, alpha, exp_log=True)
        except NumericOverflowError:
            pass  # still out of range: the caller refuses the non-finite value
    return value


def _em_hurwitz_batch(s: np.ndarray, alpha: float) -> np.ndarray:
    """:func:`_em_hurwitz` at every point of the 1-D complex array ``s``.

    Every point keeps its own head length M and correction count J, and its
    value does not depend on the other points; overflow yields non-finite
    entries, never a warning.  The head terms and the corrections are laid
    out with the term index first, so each running sum or product runs over
    all points at once.
    """
    s = np.asarray(s, dtype=complex)
    alpha = float(alpha)
    m, j = _em_lengths(s, alpha)  # M and J per point
    width = m.max()
    # logarithms from math.log, as in the scalar core: numpy's vectorised log
    # may differ by an ulp, which s*log(M+a) amplifies.  Up to n = width, so
    # that it also holds log(M+a) for every M.
    log_n = np.array(list(map(math.log, (np.arange(width + 1) + alpha).tolist())))
    cols = np.arange(len(s))  # to read off each point's own M-th or cut entry
    with np.errstate(all="ignore"):
        # (n+a)^-s as modulus and phase, as the scalar complex power forms it,
        # summed in the scalar's order: running sums over n, read off at M-1
        modulus = np.power((np.arange(width) + alpha)[:, None], -s.real)
        phase = -s.imag * log_n[:width, None]
        powers = 1j * (np.sin(phase) * modulus)
        powers += np.cos(phase, out=phase) * modulus
        head = powers.cumsum(axis=0, out=powers)[m - 1, cols]
        big_t = m + alpha
        log_t = log_n[m]
        t_ms = np.exp(-s * log_t)  # (M+a)^-s
        integral = t_ms * big_t / (s - 1.0)
        # Bernoulli corrections B_{2j}/(2j)! (s)_{2j-1} (M+a)^(-s-2j+1), each
        # the previous one times (s+2j-1)(s+2j)/(M+a)^2, cut at the smallest
        depth = j.max()
        ks = 2.0 * np.arange(1, depth)[:, None]
        steps = (s + ks - 1.0) * (s + ks) / (big_t * big_t)
        first = s * t_ms / big_t
        terms = _B2J_OVER_FACT_ARRAY[:depth, None] * np.concatenate(
            (first[None], steps)).cumprod(axis=0)
        acc = terms.cumsum(axis=0)
        mags = np.where(np.arange(depth)[:, None] < j, np.abs(terms), np.inf)
        # the last smallest term; keep the sum there only when the final term
        # has clearly re-entered asymptotic growth (see _em_tail)
        at_min = depth - 1 - mags[::-1].argmin(axis=0)
        last = j - 1
        cut = np.where(mags[last, cols] > 10.0 * mags[at_min, cols], at_min, last)
        return head + integral + 0.5 * t_ms + acc[cut, cols]


def hurwitz_zeta(s: complex, alpha: float) -> complex:
    """Hurwitz zeta(s, alpha) for real alpha > 0, s != 1."""
    s = complex(s)
    alpha = float(alpha)
    if cmath.isnan(s) or math.isnan(alpha):
        raise DomainError(f"hurwitz_zeta got NaN for {'s' if cmath.isnan(s) else 'alpha'}")
    if alpha <= 0.0:
        raise DomainError("hurwitz_zeta requires alpha > 0")
    if abs(s - 1.0) <= 1e-10:
        raise PoleProximityError("hurwitz_zeta pole at s = 1")
    return _require_finite(_em_hurwitz(s, alpha), "hurwitz_zeta")


def riemann_zeta(s: complex) -> complex:
    """Riemann zeta(s) = zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0)


# ---------------------------------------------------------------------------
# Taylor-mode Euler-Maclaurin: every s-derivative from one sum
# ---------------------------------------------------------------------------


def _jet_head_length(s: complex, alpha: float) -> int:
    """Head length M of a Taylor-mode sum.

    For Re s < 1/2 the k-th coefficient's head/integral cancellation is
    L^k/k! times the value's, L = log(M+a), so M allows for the largest such
    factor up to _MAX_ORDER, but is shrunk no further than M + a = 0.6 |Im s|:
    below that the corrections stop converging before they are small
    (measured).  Raises OverflowError or ValueError for an infinite or NaN
    alpha.
    """
    m = _em_head_length(s, alpha)
    if s.real < 0.5:
        log_t = math.log(m + alpha)
        growth = max(log_t ** k / factorial(k) for k in range(_MAX_ORDER + 1))
        m = max(_em_head_length(s, alpha, growth),
                int(min(m, 0.6 * abs(s.imag) - alpha + 1.0)))
    return m


def _jet_head_lengths(s: complex, alphas: np.ndarray) -> np.ndarray:
    """:func:`_jet_head_length` at one s and every alpha of the 1-D float
    array ``alphas`` (each finite and > 0), as an integer array.

    Every step rounds as the scalar rule does: powers by ``np.float_power``
    and logarithms by ``math.log`` (see :func:`_em_lengths`), ties of
    round(cap - alpha) to even as Python's round, and min() keeping M when
    the other side is not smaller.
    """
    if not s.real < 0.5:
        return np.full(len(alphas), _EM_CUTOFF)
    power = 1.0 / (1.0 - s.real)

    def length(cap):  # _em_head_length's M, given its cap
        return np.minimum(np.maximum(np.round(cap - alphas) + 1.0, 2.0), _EM_CUTOFF)

    m = length((_TARGET_ABS_ERROR / (5.0 * _MACH_EPS)) ** power)
    log_t = np.array(list(map(math.log, (m + alphas).tolist())))
    orders = np.arange(_MAX_ORDER + 1)[:, None]
    growth = (np.float_power(log_t, orders) / _FACTORIALS[:, None]).max(axis=0)
    floor = 0.6 * abs(s.imag) - alphas + 1.0
    return np.maximum(length(np.float_power(_TARGET_ABS_ERROR / (5.0 * _MACH_EPS * growth),
                                            power)),
                      np.trunc(np.where(floor < m, floor, m))).astype(int)


def _em_jet(s: complex, alpha: float, order: int, minus_pole: bool = False) -> list[complex]:
    """Taylor coefficients a_0..a_order of zeta(s+t, alpha) in t.

    Each Euler-Maclaurin piece is a closed-form series in t, with
    L = log(M+a) and e^(-tL) = sum_k (-L)^k t^k / k!:

      head        sum_n (n+a)^-s (-log(n+a))^k / k!
      integral    (M+a)^(1-s) e^(-tL) / ((s-1) + t)
      half term   (M+a)^-s e^(-tL) / 2
      corrections sum_j B_{2j}/(2j)! (s+t)_{2j-1} (M+a)^(1-s-2j) e^(-tL),
                  cut where the order-0 term is smallest, as in _em_tail

    With ``minus_pole`` s must be 1, and the series is zeta(1+t, a) - 1/t:
    the integral term minus the pole is expm1(-tL)/t.  M comes from
    :func:`_jet_head_length` and does not depend on ``order``, so neither
    does any coefficient.  Overflow yields non-finite coefficients, never an
    exception.
    """
    size = order + 1
    try:
        m = _jet_head_length(s, alpha)
        # sum_n (n+a)^-s (-log(n+a))^k, one order at a time; the 1/k! comes
        # at the end
        xs = [n + alpha for n in range(m)]
        logs = list(map(math.log, xs))
        neg_re, neg_im = -s.real, -s.imag
        terms = [cmath.rect(x ** neg_re, neg_im * log_x) for x, log_x in zip(xs, logs)]
        head = [sum(terms)]
        for _ in range(order):
            terms = [term * -log_x for term, log_x in zip(terms, logs)]
            head.append(sum(terms))
        big_t = m + alpha
        log_t = math.log(big_t)
        # the series of e^(-tL), one term beyond ``order``
        decay = [(-log_t) ** k / factorial(k) for k in range(size + 1)]
        t_ms = cmath.exp(-s * log_t)  # (M+a)^-s
        if minus_pole:
            integral = decay[1:]  # expm1(-tL)/t
        else:
            integral, prev, inv_d, big_t_ms = [], 0j, 1.0 / (s - 1.0), t_ms * big_t
            for k in range(size):  # ((s-1) + t) f = (M+a)^(1-s) e^(-tL)
                prev = (big_t_ms * decay[k] - prev) * inv_d
                integral.append(prev)
        tail = _jet_tail(s, big_t, size)
        tail[0] += 0.5  # the half term
        return [head[k] / factorial(k) + integral[k]
                + t_ms * sum(tail[i] * decay[k - i] for i in range(k + 1))
                for k in range(size)]
    except (OverflowError, ZeroDivisionError, ValueError):
        # a power, exponential, modulus or head length beyond the float
        # range, or an infinite phase
        return [complex(math.nan, math.nan)] * size


def _jet_tail(s: complex, big_t: float, size: int) -> list[complex]:
    """The Taylor coefficients up to t^(size-1) of
    sum_{j<=J} B_{2j}/(2j)! (s+t)_{2j-1} (M+a)^(1-2j), with M + a = ``big_t``
    and J cut where the order-0 term is smallest, as :func:`_em_tail` cuts.

    The cut comes from the order-0 magnitudes alone; then the sum is taken in
    nested form, u (c_1 + (u+1)(u+2) (c_2 + (u+3)(u+4) (c_3 + ...))) at
    u = s + t, one quadratic factor per correction.
    """
    weights = []
    weight, inv_t2, poch, min_mag = 1.0 / big_t, 1.0 / (big_t * big_t), s, math.inf
    for j in range(1, _em_tail_terms(s) + 1):
        c = _B2J_OVER_FACT[j - 1] * weight
        weights.append(c)
        mag = abs(c * poch)
        if mag <= min_mag:
            min_mag, cut = mag, j
        weight *= inv_t2
        poch *= (s + (2 * j - 1)) * (s + 2 * j)
    if not mag > 10.0 * min_mag:
        cut = j
    # two leading zeros stand for the coefficients of t^-2 and t^-1
    g = [0j, 0j, weights[cut - 1]] + [0j] * (size - 1)
    for j in range(cut - 1, 0, -1):
        a = s + (2 * j - 1)
        q0, q1 = a * (a + 1.0), 2.0 * a + 1.0  # (u + 2j - 1)(u + 2j) = q0 + q1 t + t^2
        g = [0j, 0j, q0 * g[2] + weights[j - 1]] + [
            q0 * g[k] + q1 * g[k - 1] + g[k - 2] for k in range(3, size + 2)]
    return [s * g[k] + g[k - 1] for k in range(2, size + 2)]


def _times(z: np.ndarray, w) -> np.ndarray:
    """z * w rounded as Python's complex product.  numpy's may fuse its
    multiply-adds, and where the head and integral terms cancel, one rounding
    moved is magnified (at order 6 to about a tenth of the bound)."""
    out = np.empty_like(z)
    out.real = z.real * w.real - z.imag * w.imag
    out.imag = z.real * w.imag + z.imag * w.real
    return out


def _em_jet_batch(s: complex, alphas: np.ndarray, order: int) -> np.ndarray:
    """:func:`_em_jet` at one s and every alpha of the 1-D float array
    ``alphas`` (each finite and > 0): column i of the (order + 1) x
    len(alphas) result holds a_0..a_order of zeta(s+t, alphas[i]).

    Every node keeps its own head length (:func:`_jet_head_lengths`) and its
    own Bernoulli cut, taken from the order-0 magnitudes as in
    :func:`_jet_tail`, so its column does not depend on the other nodes.  The
    head terms are laid out with the term index first, as in
    :func:`_em_hurwitz_batch`; the corrections are sum_j w_j (s+t)_{2j-1},
    the polynomials in t shared by every node and the weights w_j zero past a
    node's cut.  Overflow yields non-finite entries, never a warning.
    """
    s = complex(s)
    alphas = np.asarray(alphas, dtype=float)
    size = order + 1
    try:
        depth = _em_tail_terms(s)
        inv_d = 1.0 / (s - 1.0)
    except (OverflowError, ZeroDivisionError):
        # an infinite Re s, or s = 1
        return np.full((size, len(alphas)), complex(math.nan, math.nan))
    # (s+t)_{2j-1} up to t^order for j = 1..J, each the one before times
    # (s+t+2j-1)(s+t+2j); two leading zeros stand for t^-2 and t^-1
    poly, rising = [0j, 0j, s, 1.0 + 0j] + [0j] * (size - 2), []
    for j in range(1, depth + 1):
        rising.append(poly[2:size + 2])
        a = s + (2 * j - 1)
        q0, q1 = a * (a + 1.0), 2.0 * a + 1.0
        poly = [0j, 0j] + [q0 * poly[k] + q1 * poly[k - 1] + poly[k - 2]
                           for k in range(2, size + 2)]
    rising = np.array(rising)
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
        # sum_n (n+a)^-s (-log(n+a))^k in the scalar's order: running sums
        # over n, read off at each node's M-1; (n+a)^-s as modulus and phase,
        # as the scalar complex power forms it; the 1/k! comes at the end
        modulus = np.float_power(xs[:width], -s.real)
        phase = -s.imag * logs[:width]
        terms = modulus * np.cos(phase) + 1j * (modulus * np.sin(phase))
        head = [terms.cumsum(axis=0)[m - 1, cols]]
        for _ in range(order):
            terms *= -logs[:width]
            head.append(terms.cumsum(axis=0)[m - 1, cols])
        big_t = m + alphas
        log_t = logs[m, cols]
        decay = [np.float_power(-log_t, k) / factorial(k) for k in range(size + 1)]
        t_ms = np.exp(-s * log_t)  # (M+a)^-s
        integral, prev, big_t_ms = [], 0j, t_ms * big_t
        for k in range(size):  # ((s-1) + t) f = (M+a)^(1-s) e^(-tL)
            prev = _times(big_t_ms * decay[k] - prev, inv_d)
            integral.append(prev)
        # w_j = B_{2j}/(2j)! (M+a)^(1-2j), kept up to the last smallest
        # order-0 term, or to J unless the final term has clearly re-entered
        # asymptotic growth (see _em_tail)
        weights = _B2J_OVER_FACT_ARRAY[:depth, None] * big_t ** (
            1.0 - 2.0 * np.arange(1, depth + 1))[:, None]
        mags = np.abs(weights * rising[:, :1])
        at_min = depth - 1 - mags[::-1].argmin(axis=0)
        cut = np.where(mags[-1] > 10.0 * mags[at_min, cols], at_min, depth - 1)
        weights[np.arange(depth)[:, None] > cut] = 0.0
        # cumsum adds in j order whatever the number of nodes; sum may pair terms
        tail = [(rising[:, k, None] * weights).cumsum(axis=0)[-1] for k in range(size)]
        tail[0] += 0.5  # the half term
        # head / k! part by part, as Python divides a complex by an int
        return np.array([(head[k].view(float) / factorial(k)).view(complex) + integral[k]
                         + _times(sum(tail[i] * decay[k - i] for i in range(k + 1)), t_ms)
                         for k in range(size)])


def _zeta_level(r: int, s: complex, alphas: np.ndarray) -> np.ndarray:
    """zeta^(r)(s, a) at every a of the 1-D float array ``alphas``, a
    quadrature level's nodes, from one :func:`_em_jet_batch` call: r! a_r.

    Values and refusals are those of hurwitz_zeta_deriv(r, s, a) node by
    node: an s the scalar refuses is refused at the first node, and a node
    whose alpha is not finite and > 0, or whose value is not finite, is taken
    again from the scalar, which refuses it or retries it (order 0 in
    exp/log form).  Order 0 has no pole guard, only hurwitz_zeta's.
    """
    s = complex(s)
    alphas = np.asarray(alphas, dtype=float)
    pole = (_POLE_GUARD if r else 0.0) + 1e-10
    if alphas.size and (cmath.isnan(s) or abs(s - 1.0) <= pole):
        hurwitz_zeta_deriv(r, s, alphas[0])  # raises s's refusal, or the node's
    good = (alphas > 0.0) & (alphas < math.inf)
    values = np.full(len(alphas), complex(math.nan, math.nan))
    values[good] = factorial(r) * _em_jet_batch(s, alphas[good], r)[r]
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        values[i] = hurwitz_zeta_deriv(r, s, alphas[i])
    return values


def _hurwitz_derivs(orders, s: complex, alpha: float,
                    checked: bool = True) -> list[complex]:
    """zeta^(n)(s, alpha) for each n in ``orders``, in that order.

    Order 0 comes from the scalar core; every order >= 1 from one
    Taylor-mode sum.  A refused point raises.  With ``checked`` false a
    non-finite value of order >= 1 is returned as it is, for a caller that
    refuses it in its own order.
    """
    s, alpha = complex(s), float(alpha)
    values = {0: hurwitz_zeta(s, alpha)} if 0 in orders else {}
    higher = [n for n in orders if n > 0]
    if higher:
        _check_pole_guard(s, alpha)
        jet = _em_jet(s, alpha, max(higher))
        for n in higher:
            values[n] = factorial(n) * jet[n]
    if checked:
        return [_require_finite(values[n], "hurwitz_zeta_deriv") for n in orders]
    return [values[n] for n in orders]


def _check_pole_guard(s: complex, alpha: float) -> None:
    """Refuse a NaN, an alpha <= 0 and an s within _POLE_GUARD of the pole."""
    if cmath.isnan(s) or math.isnan(alpha):
        raise DomainError(
            f"hurwitz_zeta_deriv got NaN for {'s' if cmath.isnan(s) else 'alpha'}")
    if alpha <= 0.0:
        raise DomainError("hurwitz_zeta_deriv requires alpha > 0")
    if abs(s - 1.0) <= _POLE_GUARD + 1e-10:
        raise PoleProximityError(
            f"s={s!r} is within {_POLE_GUARD} of the pole at 1")


def hurwitz_zeta_deriv(r: int, s: complex, alpha: float) -> complex:
    """r-th partial s-derivative of zeta(s, alpha), r <= 6.

    r! times the r-th Taylor coefficient of one Euler-Maclaurin sum taken
    as a power series in s; refused within 1/2 of the pole at s = 1.
    """
    if not 0 <= r <= _MAX_ORDER:
        raise ValueError(f"derivative order must be in 0..{_MAX_ORDER}")
    return _hurwitz_derivs((r,), s, alpha)[0]


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
    if not -1 <= n <= 5:
        raise ValueError("stieltjes order must be in -1..5")
    alpha = float(alpha)
    if math.isnan(alpha):
        raise DomainError("stieltjes got NaN for alpha")
    if alpha <= 0.0:
        raise DomainError("stieltjes requires alpha > 0")
    if n == -1:
        return complex(1.0)
    return _require_finite(_em_jet(1.0 + 0j, alpha, n, minus_pole=True)[n], "stieltjes")


def digamma(alpha: float) -> float:
    """psi(alpha) = Gamma'/Gamma for real alpha > 0.

    Upward recurrence psi(a+1) = psi(a) + 1/a until the argument is large,
    then the Bernoulli asymptotic series.
    """
    alpha = float(alpha)
    if math.isnan(alpha):
        raise DomainError("digamma got NaN for alpha")
    if alpha <= 0.0:
        raise DomainError("digamma requires alpha > 0")
    acc = 0.0
    x = alpha
    while x < 16.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    pw = inv2
    for j in range(1, 9):
        series += _B2J_OVER_2J[j - 1] * pw
        pw *= inv2
    value = acc + math.log(x) - 0.5 / x - series
    if not math.isfinite(value):
        raise NumericOverflowError("non-finite value in digamma")
    return value


# ---------------------------------------------------------------------------
# Taylor-disc evaluation (complex alpha)
# ---------------------------------------------------------------------------

# The series refuses to converge after this many terms.
_TAYLOR_TERMS = 400


def hurwitz_taylor(s: complex, alpha: complex, k: int) -> complex:
    """zeta(s, alpha) for complex alpha inside the disc |alpha| < k - 1/4.

    Uses the shifted-zeta Taylor expansion

        zeta(s, a) = sum_{n<k} (n+a)^-s
                     + sum_{n>=0} (s)_n zeta_k(s+n) (-a)^n / n!,

    where zeta_k(u) = zeta(u) - sum_{1<=m<k} m^-u and (s)_n is the rising
    factorial.  Requires every zeta_k(s+n) to be off the pole, i.e. s+n != 1.
    """
    s = complex(s)
    alpha = complex(alpha)
    if cmath.isnan(s) or cmath.isnan(alpha):
        raise DomainError(f"hurwitz_taylor got NaN for {'s' if cmath.isnan(s) else 'alpha'}")
    if not isinstance(k, numbers.Integral) or k < 1:
        raise ValueError("k must be a positive integer")
    _refuse_huge_real(s, "s")
    if abs(alpha) >= k - 0.25:
        raise DomainError(f"alpha={alpha!r} outside the safe disc |alpha| < {k - 0.25}")
    # s + n = 1 for some integer n >= 0 would hit the zeta pole
    d = 1.0 - s
    if (abs(d.imag) < 1e-10 and -1e-10 < d.real < math.inf
            and abs(d.real - round(d.real)) < 1e-10):
        raise PoleProximityError(f"pole collision: s + {round(d.real)} = 1")

    head = 0j
    try:
        for n in range(k):
            base = n + alpha
            if base == 0:
                raise DomainError("alpha makes a head term (n + alpha) vanish")
            head += cmath.exp(-s * cmath.log(base))
    except OverflowError:
        raise NumericOverflowError("hurwitz_taylor head overflow") from None

    # zeta_k(s+n) is zeta(s+n, k): the index-shifted form avoids the
    # cancellation that the literal zeta(u) - sum m^-u suffers once zeta(u)
    # rounds to 1 (the series would then blow up in the noise).  The values
    # come a chunk of n at a time from one batch row at alpha = k, the chunk
    # sized so that terms falling at the rate |alpha|/k < 1 reach the
    # threshold in one (alpha != 0 here: the head refuses it).
    threshold = _TARGET_ABS_ERROR / 10.0
    log_rate = math.log(abs(alpha)) - math.log(k)
    chunk = min(64, max(8, int(math.log(threshold) / log_rate) + 8))
    total = head
    poch = 1.0 + 0j  # (s)_n
    coef = 1.0 + 0j  # (-alpha)^n / n!
    small_run = 0
    for start in range(0, _TAYLOR_TERMS, chunk):
        u = s + np.arange(start, min(start + chunk, _TAYLOR_TERMS))
        row = _em_hurwitz_batch(u, k)
        # entries the scalar core would refuse or retry in exp/log form are
        # taken from it when the series reaches them
        rescalar = (~np.isfinite(row) | (np.abs(u - 1.0) <= 1e-10)).tolist()
        for n, zeta_k, redo in zip(range(start, _TAYLOR_TERMS), row.tolist(), rescalar):
            if redo:
                zeta_k = hurwitz_zeta(s + n, k)
            term = poch * zeta_k * coef
            total += term
            try:
                small = abs(term) < threshold
            except OverflowError:
                # a modulus beyond the float range; CPython's abs also raises
                # this for a NaN term when numpy left errno set to ERANGE
                small = False
            if small:
                small_run += 1
                if small_run >= 2 and n >= 4:
                    return _require_finite(total, "hurwitz_taylor")
            else:
                small_run = 0
            poch *= s + n
            coef *= -alpha / (n + 1)
    raise ConvergenceError(
        f"hurwitz_taylor did not reach the term threshold in {_TAYLOR_TERMS} terms")
