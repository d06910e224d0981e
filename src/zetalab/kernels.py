"""Numeric kernels: gamma, Riemann/Hurwitz zeta, s-derivatives, digamma,
and generalized Stieltjes constants.

Hurwitz zeta is computed by Euler-Maclaurin summation,

    zeta(s, a) ~= sum_{n<M} (n+a)^-s  +  (M+a)^(1-s)/(s-1)  +  (M+a)^-s / 2
                  + sum_{j=1..J} B_{2j}/(2j)! * (s)_{2j-1} * (M+a)^(-s-2j+1),

with the head length M and the Bernoulli-correction count J fixed by module
constants.  For Re s < 1/2 the head length is shrunk so the head/integral
cancellation cannot eat the fixed absolute accuracy target; the correction
sum always stops at its smallest term (optimal truncation).

There is one such sum, taken as a power series in t at s + t (Taylor mode,
Johansson, arXiv:1309.2877 sections 2-3): every piece has a closed-form
series, so one pass over the head gives the Taylor coefficients a_0..a_R of
zeta(s+t, a).  zeta(s, a) is a_0, and zeta^(r)(s, a) = r! a_r.  Stieltjes
constants gamma_n(a) are the coefficients at s = 1 of g(t) = zeta(1+t, a) -
1/t, where the integral term minus the pole is the series of
expm1(-t*log(M+a))/t.  Subtracting the pole from finished zeta values
instead would lose all precision near t = 0.  The same sum at a complex
alpha + k gives zeta(s, alpha) for complex alpha (``hurwitz_taylor``).

A single point is a pure-Python sum (``_em_jet``).  A quadrature check needs
zeta^(r)(s, a) at every node a of a tanh-sinh level and takes it from the
numpy twin at one s (``_zeta_level``, from ``_em_jet_batch``), each node
keeping its own M and J.  Every value zeta^(r)(s, a) is refused, or
returned, by one rule after its sum (``_refuse``): a NaN, an alpha <= 0, s
on the pole, then a non-finite value.  A node the batch leaves non-finite
is taken again from the scalar sum, which refuses it.

The README lists where, measured against mpmath, values miss the accuracy
target without warning.
"""

from __future__ import annotations

import cmath
import math
import numbers
import operator
from math import factorial

import numpy as np

from . import exact
from .errors import DomainError, NumericOverflowError, PoleProximityError

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

    For Re s < 1/2 the k-th coefficient's head/integral cancellation is
    L^k/k! times the value's, L = log(M+a), so M allows for the largest such
    factor up to _MAX_ORDER, but is shrunk no further than M + a = 0.6 |Im s|:
    below that the corrections stop converging before they are small
    (measured).  Raises OverflowError or ValueError for an infinite or NaN
    alpha.
    """
    m = _em_head_length(s, alpha)
    if m > 2 and s.real < 0.5:  # 2 is the least M, whatever the growth and floor
        # the largest L^k/k!, k <= _MAX_ORDER, as a running product: the
        # factors L/k are at least 1 up to k = L and below 1 after it
        log_t, growth = math.log(m + alpha), 1.0
        for k in range(1, min(int(log_t), _MAX_ORDER) + 1):
            growth *= log_t / k
        floor = 0.6 * abs(s.imag) - alpha + 1.0
        m = max(_em_head_length(s, alpha, growth), int(floor) if floor < m else m)
    return m


def _jet_head_lengths(s: complex, alphas: np.ndarray) -> np.ndarray:
    """:func:`_jet_head_length` at one s and every alpha of the 1-D float
    array ``alphas`` (each finite and > 0), as an integer array.

    Every step rounds as the scalar rule does: powers by ``np.float_power``,
    which calls the C library's pow as Python's ``**`` does (``np.power``
    may differ from it by an ulp, and an ulp moved in round(cap - alpha)
    would move M); logarithms by ``math.log``; ties of round(cap - alpha) to
    even as Python's round; and min() keeping M when the other side is not
    smaller.
    """
    if not s.real < 0.5:
        return np.full(len(alphas), _EM_CUTOFF)
    power = 1.0 / (1.0 - s.real)

    def length(cap):  # _em_head_length's M, given its cap
        return np.minimum(np.maximum(np.round(cap - alphas) + 1.0, 2.0), _EM_CUTOFF)

    m = length((_TARGET_ABS_ERROR / (5.0 * _MACH_EPS)) ** power)
    log_t = np.array(list(map(math.log, (m + alphas).tolist())))
    growth = np.ones(len(alphas))
    for k in range(1, _MAX_ORDER + 1):
        growth = np.where(k <= log_t, growth * (log_t / k), growth)
    floor = 0.6 * abs(s.imag) - alphas + 1.0
    return np.maximum(length(np.float_power(_TARGET_ABS_ERROR / (5.0 * _MACH_EPS * growth),
                                            power)),
                      np.trunc(np.where(floor < m, floor, m))).astype(int)


def _em_jet(s: complex, alpha, order: int, minus_pole: bool = False) -> list[complex]:
    """Taylor coefficients a_0..a_order of zeta(s+t, alpha) in t, for a
    float alpha > 0 or a complex alpha with Re alpha > 0.

    Each Euler-Maclaurin piece is a closed-form series in t, with
    L = log(M+a) and e^(-tL) = sum_k (-L)^k t^k / k!:

      head        sum_n (n+a)^-s (-log(n+a))^k / k!
      integral    (M+a)^(1-s) e^(-tL) / ((s-1) + t)
      half term   (M+a)^-s e^(-tL) / 2
      corrections sum_j B_{2j}/(2j)! (s+t)_{2j-1} (M+a)^(1-s-2j) e^(-tL),
                  cut where the order-0 term is smallest (:func:`_jet_tail`)

    For a float alpha every power x^-s is formed as modulus x^(-Re s) and
    phase -Im s log x, and so is (M+a)^(1-s): from (M+a)^-s times (M+a) it
    would be subnormal, and wrong, once Re s log(M+a) passes about 708.  A
    complex alpha takes complex powers and logarithms, and M from Re alpha.

    With ``minus_pole`` s must be 1, and the series is zeta(1+t, a) - 1/t:
    the integral term minus the pole is expm1(-tL)/t.  M comes from
    :func:`_jet_head_length` and does not depend on ``order``, so neither
    does any coefficient.  Overflow yields non-finite coefficients, never an
    exception.
    """
    size = order + 1
    neg_re = -s.real
    complex_alpha = isinstance(alpha, complex)
    try:
        m, log = _jet_head_length(s, alpha.real), cmath.log if complex_alpha else math.log
        # (n+a)^-s for n = 0..M, the last one (M+a)^-s, and (M+a)^(1-s).
        # For a > 0 Python's complex power forms x^-s as modulus x^(-Re s)
        # and phase -Im s log x, except at a real integral exponent, which
        # it multiplies out and may overflow on the way: there it is a real
        # power.
        big_t = m + alpha
        if complex_alpha or s.imag or not s.real.is_integer():
            neg_s = -s
            terms = [(n + alpha) ** neg_s for n in range(m + 1)]
            big_t_ms = big_t ** (1.0 - s)
        else:
            terms = [complex((n + alpha) ** neg_re) for n in range(m + 1)]
            big_t_ms = complex(big_t ** (1.0 + neg_re))
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
            logs = [log(n + alpha) for n in range(m)]
            for k in range(1, size):
                # sum_n (n+a)^-s (-log(n+a))^k / k!
                terms = [term * -log_x for term, log_x in zip(terms, logs)]
                if minus_pole:
                    integral = decay[k + 1]
                else:  # ((s-1) + t) f = (M+a)^(1-s) e^(-tL)
                    integral = (big_t_ms * decay[k] - integral) * inv_d
                corrections = sum(tail[i] * decay[k - i] for i in range(k + 1))
                coefficients.append(sum(terms) / factorial(k) + integral + t_ms * corrections)
        return coefficients
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
    orders >= 1 only, sums the higher coefficients of the polynomials
    (s+t)_{2j-1} up to that cut.  Neither pass depends on ``size`` below the
    coefficients it makes, so no coefficient does.
    """
    inv_t2 = 1.0 / (big_t * big_t)
    weight, poch, acc, min_mag, a = 1.0 / big_t, s, 0j, math.inf, s + 1.0
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
        tail += [0j] * (size - 1)
        weight = 1.0 / big_t
        for b2j, poly in zip(_B2J_OVER_FACT[:cut], _rising(s, size, cut)):
            w = b2j * weight
            for k in range(1, size):
                tail[k] += w * poly[k + 2]
            weight *= inv_t2
    return tail


def _rising(s: complex, size: int, count: int):
    """(s+t)_{2j-1} for j = 1..count, each the one before times
    (s+t+2j-1)(s+t+2j), as one list updated in place: read each before
    taking the next.  Entries 2..size+1 hold the coefficients of
    t^0..t^(size-1); two leading zeros stand for those of t^-2 and t^-1."""
    poly = [0j, 0j, s, 1.0 + 0j] + [0j] * (size - 2)
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
    head terms are laid out with the term index first, so each running sum
    runs over all nodes at once; the corrections are sum_j w_j (s+t)_{2j-1},
    as in :func:`_jet_tail`, the polynomials in t shared by every node and
    the weights w_j zero past a node's cut.  Overflow yields non-finite
    entries, never a warning.
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
        modulus = np.float_power(xs, -s.real)
        phase = -s.imag * logs
        terms = modulus * np.cos(phase) + 1j * (modulus * np.sin(phase))
        t_ms = terms[m, cols]
        head = [terms.cumsum(axis=0)[m - 1, cols]]
        for _ in range(order):
            terms *= -logs
            head.append(terms.cumsum(axis=0)[m - 1, cols])
        big_t = m + alphas
        log_t = logs[m, cols]
        decay = [np.float_power(-log_t, k) / factorial(k) for k in range(size + 1)]
        # (M+a)^(1-s), not (M+a)^-s (M+a), which may be subnormal
        modulus, phase = np.float_power(big_t, 1.0 - s.real), phase[m, cols]
        big_t_ms = modulus * np.cos(phase) + 1j * (modulus * np.sin(phase))
        integral, prev = [], 0j
        for k in range(size):  # ((s-1) + t) f = (M+a)^(1-s) e^(-tL)
            prev = _times(big_t_ms * decay[k] - prev, inv_d)
            integral.append(prev)
        # w_j = B_{2j}/(2j)! (M+a)^(1-2j), kept up to the last smallest
        # order-0 term, or to J unless the final term has clearly re-entered
        # asymptotic growth (see _jet_tail)
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
    node: s and the first node pass :func:`_refuse` before the batch, and a
    node whose alpha is not finite and > 0, or whose value is not finite, is
    taken again from the scalar, which refuses it as it does node by node.
    """
    s = complex(s)
    alphas = np.asarray(alphas, dtype=float)
    if alphas.size:  # s's refusals, or the first node's, before the batch
        _refuse(r, s, alphas[0], 0j)
    good = (alphas > 0.0) & (alphas < math.inf)
    values = np.full(len(alphas), complex(math.nan, math.nan))
    with np.errstate(invalid="ignore"):  # an inf+nan column is taken again below
        values[good] = factorial(r) * _em_jet_batch(s, alphas[good], r)[r]
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
    while x < 16.0:
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
