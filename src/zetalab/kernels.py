"""Numeric kernels: gamma, Riemann/Hurwitz zeta, s-derivatives, digamma,
and generalized Stieltjes constants.

Hurwitz zeta is computed by Euler-Maclaurin summation,

    zeta(s, a) ~= sum_{n<M} (n+a)^-s  +  (M+a)^(1-s)/(s-1)  +  (M+a)^-s / 2
                  + sum_{j=1..J} B_{2j}/(2j)! * (s)_{2j-1} * (M+a)^(-s-2j+1),

with the head length M and the Bernoulli-correction count J fixed by module
constants.  For Re s < 1/2 the head length is shrunk so the head/integral
cancellation cannot eat the absolute accuracy target; the correction sum
always stops at its smallest term (optimal truncation).

s-derivatives of any order share one kernel: trapezoidal (Cauchy) contour
differentiation on a circle around s.  One set of contour samples per point
serves every order a caller needs at that point: each Taylor coefficient is
one dot product of the same samples.  Stieltjes constants gamma_n(a) are the
Taylor coefficients at 0 of g(t) = zeta(1+t, a) - 1/t, where g is evaluated in
subtracted form: the Euler-Maclaurin integral term minus the pole is
expm1(-t*log(M+a))/t, which is stable uniformly in t.  Doing the subtraction
on finished zeta values instead would lose all precision near t = 0.

Euler-Maclaurin has two forms with the same head length, correction count
and truncation policy.  A single point (``hurwitz_zeta``, and so
``riemann_zeta`` and order 0 of the derivatives) runs the scalar pure-Python
form: for one point numpy's per-call overhead costs about six times the whole
loop.  Every caller that needs many points at once runs the numpy batch, an
M x K array of head terms and a J x K array of corrections, each point
keeping its own M and J; the batch takes the pole-subtracted form by a flag.
The K samples of a contour (derivatives of order >= 1, ``stieltjes``) are one
batch row.  Up to 256 rows of contour points share one batch, and each row is
computed exactly as it would be alone: the contours of several alphas around
the same s (a quadrature level's nodes), or of alpha = 1 around several
centres, each on its own circle (the shifts s - k of a moment integral's
reduction).  ``hurwitz_taylor`` takes its zeta(s+n, k), n = 0, 1, ..., as
one row at alpha = k per chunk of n; an entry the batch leaves non-finite is
taken again from the scalar form, which retries it or refuses it.

The README lists where, measured against mpmath, values miss the accuracy
target without warning.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import exact
from .errors import (ConvergenceError, DomainError, EvaluationError,
                     NumericOverflowError, PoleProximityError)

__all__ = [
    "PrecisionConfig",
    "DEFAULT_CONFIG",
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
# The fixed numerical policy: Euler-Maclaurin head length M, correction count
# J, Cauchy contour radius.  Read at call time, so a test may monkeypatch them.
_EM_CUTOFF = 25
_EM_TAIL_TERMS = 12
_CONTOUR_RADIUS = 0.5


@dataclass(frozen=True)
class PrecisionConfig:
    """The accuracy settings a caller may vary; the rest is fixed above.

    contour_points   sample count K on the contour (power of two)
    target_abs_error absolute accuracy target for moderate-size values
    """

    contour_points: int = 32
    target_abs_error: float = 1e-11

    def __post_init__(self):
        if self.contour_points < 16 or self.contour_points & (self.contour_points - 1):
            raise ValueError("contour_points must be a power of two >= 16")
        if self.target_abs_error < 1e-13:
            raise ValueError("target_abs_error must be >= 1e-13 at double precision")


DEFAULT_CONFIG = PrecisionConfig()


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


def gamma_complex(z: complex, config: PrecisionConfig | None = None) -> complex:
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
                math.pi / (cmath.sin(math.pi * z) * gamma_complex(1.0 - z, config)),
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


def _em_head_length(s: complex, alpha: float, cfg: PrecisionConfig) -> int:
    """Head length M: _EM_CUTOFF, shrunk when Re s < 1/2 to keep the
    head/integral cancellation below the absolute accuracy target."""
    m = _EM_CUTOFF
    if s.real < 0.5:
        cap = (cfg.target_abs_error / (5.0 * _MACH_EPS)) ** (1.0 / (1.0 - s.real))
        m = min(m, max(2, int(round(cap - alpha)) + 1))
    return m


def _em_tail_terms(s: complex) -> int:
    """For very negative Re s the correction series only terminates after
    the rising factorial crosses zero; make sure we reach that point."""
    j = _EM_TAIL_TERMS
    if s.real < 0.0:
        j = max(j, int(-s.real / 2.0) + 3)
    return min(j, len(_B2J_OVER_FACT))


def _em_lengths(s: np.ndarray, alpha: np.ndarray,
                cfg: PrecisionConfig) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_em_head_length` and :func:`_em_tail_terms` at every point of
    the complex array ``s``, as two integer arrays (M, J): M for every alpha
    of ``alpha`` broadcast against ``s``, J for the points alone.

    The cap is taken by ``np.float_power``, which calls the C library's pow
    as Python's ``**`` does; ``np.power`` may differ from it by an ulp, and
    an ulp moved in round(cap - alpha) would move M.  Clamping in floats
    before the integer cast keeps every extreme cap and Re s exact.
    """
    re = s.real
    low = re < 0.5
    # the other points keep M = _EM_CUTOFF; Re s -> 0 there keeps 1/(1 - Re s) finite
    cap = np.float_power(cfg.target_abs_error / (5.0 * _MACH_EPS),
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


def _em_hurwitz(s: complex, alpha: float, cfg: PrecisionConfig,
                exp_log: bool = False) -> complex:
    """The Euler-Maclaurin sum.  ``exp_log`` forms every power as
    exp(-s log(n+a)) and the integral term as exp((1-s) log(M+a))."""
    m = _em_head_length(s, alpha, cfg)
    try:
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
        # complex ** reports as ZeroDivisionError; like a real +-inf it is an overflow
        raise NumericOverflowError("Euler-Maclaurin overflow in hurwitz_zeta") from None
    if not exp_log and not cmath.isfinite(value):
        # For an integral exponent CPython's complex ** multiplies the power
        # out before inverting it, so (1e78) ** -(4+0j) is nan although the
        # power is representable; exp and log keep every term in range.
        try:
            return _em_hurwitz(s, alpha, cfg, exp_log=True)
        except NumericOverflowError:
            pass  # still out of range: the caller refuses the non-finite value
    return value


def _em_hurwitz_batch(s: np.ndarray, alphas, cfg: PrecisionConfig,
                      minus_pole: bool = False) -> np.ndarray:
    """:func:`_em_hurwitz` on the grid ``alphas`` x ``s``: row i holds the
    values at every point of the 1-D array ``s`` for alpha = alphas[i].  A
    2-D ``s`` gives each alpha its own points instead: row i of the result
    is alpha = alphas[i] at the points of row i of ``s``.

    With ``minus_pole`` the points are t and the value is
    zeta(1+t, alpha) - 1/t, the pole removed inside the integral term:
    (M+a)^(1-s)/(s-1) - 1/t = expm1(-t log(M+a))/t.  t = 0 is not allowed.
    Every (alpha, point) pair keeps its own head length M and correction
    count J, and its value does not depend on the other pairs; overflow
    yields non-finite entries, never a warning.  The head terms and the
    corrections are laid out with the term index first, so each running sum
    or product runs over all pairs at once.
    """
    alphas = [float(a) for a in alphas]
    t = np.asarray(s, dtype=complex)
    s = 1.0 + t if minus_pole else t
    alpha = np.array(alphas)[:, None]
    m, j = _em_lengths(s, alpha, cfg)  # M per pair, J per point of s
    width = m.max()
    # logarithms from math.log, as in the scalar core: numpy's vectorised log
    # may differ by an ulp, which s*log(M+a) amplifies.  One row per alpha,
    # up to n = width so that it also holds log(M+a) for every M.
    log_n = np.array([list(map(math.log, row))
                      for row in (np.arange(width + 1) + alpha).tolist()])
    # the alpha and point index of every pair, to read off its own M-th or cut entry
    rows, cols = np.arange(len(alphas))[:, None], np.arange(s.shape[-1])
    with np.errstate(all="ignore"):
        # (n+a)^-s as modulus and phase, as the scalar complex power forms it,
        # summed in the scalar's order: running sums over n, read off at M-1
        modulus = np.power((np.arange(width)[:, None] + alpha.T)[:, :, None], -s.real)
        phase = -s.imag * log_n.T[:width, :, None]
        powers = 1j * (np.sin(phase) * modulus)
        powers += np.cos(phase, out=phase) * modulus
        head = powers.cumsum(axis=0, out=powers)[m - 1, rows, cols]
        big_t = m + alpha
        log_t = log_n[rows, m]
        t_ms = np.exp(-s * log_t)  # (M+a)^-s
        if minus_pole:
            integral = np.expm1(-t * log_t) / t
        else:
            integral = t_ms * big_t / (s - 1.0)
        # Bernoulli corrections B_{2j}/(2j)! (s)_{2j-1} (M+a)^(-s-2j+1), each
        # the previous one times (s+2j-1)(s+2j)/(M+a)^2, cut at the smallest
        depth = j.max()
        ks = 2.0 * np.arange(1, depth)[:, None, None]
        steps = (s + ks - 1.0) * (s + ks) / (big_t * big_t)
        first = s * t_ms / big_t
        terms = _B2J_OVER_FACT_ARRAY[:depth, None, None] * np.concatenate(
            (first[None], steps)).cumprod(axis=0)
        acc = terms.cumsum(axis=0)
        mags = np.where(np.arange(depth)[:, None, None] < j, np.abs(terms), np.inf)
        # the last smallest term; keep the sum there only when the final term
        # has clearly re-entered asymptotic growth (see _em_tail)
        at_min = depth - 1 - mags[::-1].argmin(axis=0)
        last = j - 1
        cut = np.where(mags[last, rows, cols] > 10.0 * mags[at_min, rows, cols],
                       at_min, last)
        return head + integral + 0.5 * t_ms + acc[cut, rows, cols]


def hurwitz_zeta(s: complex, alpha: float,
                 config: PrecisionConfig | None = None) -> complex:
    """Hurwitz zeta(s, alpha) for real alpha > 0, s != 1."""
    cfg = config or DEFAULT_CONFIG
    s = complex(s)
    alpha = float(alpha)
    if cmath.isnan(s) or math.isnan(alpha):
        raise DomainError(f"hurwitz_zeta got NaN for {'s' if cmath.isnan(s) else 'alpha'}")
    if alpha <= 0.0:
        raise DomainError("hurwitz_zeta requires alpha > 0")
    if abs(s - 1.0) <= 1e-10:
        raise PoleProximityError("hurwitz_zeta pole at s = 1")
    return _require_finite(_em_hurwitz(s, alpha, cfg), "hurwitz_zeta")


def riemann_zeta(s: complex, config: PrecisionConfig | None = None) -> complex:
    """Riemann zeta(s) = zeta(s, 1)."""
    return hurwitz_zeta(s, 1.0, config)


# ---------------------------------------------------------------------------
# Contour (Cauchy) differentiation
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _twiddle(points: int, n: int) -> np.ndarray:
    """exp(-i n theta) at the ``points`` angles theta = 2 pi k / points, as a
    read-only array; n = -1 gives the unit circle the samples sit on."""
    w = np.exp(-1j * n * (_TWO_PI * np.arange(points) / points))
    w.flags.writeable = False
    return w


def _contour_coeff(f, rho, points: int, orders) -> list[list[complex]]:
    """Taylor coefficients a_n about 0, for each n in ``orders``, of every
    function sampled by ``f`` on |t| = rho: one list per function.

    ``rho`` is one radius for every function, and ``f`` then maps the 1-D
    array of the ``points`` sample points to their values, one row per
    function (a 1-D result is one function).  Or ``rho`` is a list of one
    radius per function, and ``f`` maps the 2-D array whose row i holds the
    points on |t| = rho[i] to the same rows.  Each a_n is one dot product of
    a row with exp(-i n theta), never a matrix product, so it depends neither
    on the other rows nor on which other orders are asked for.
    """
    circle = _twiddle(points, -1)
    per_row = isinstance(rho, list)
    with np.errstate(all="ignore"):  # overflow leaves non-finite samples
        samples = np.atleast_2d(f(np.array(rho)[:, None] * circle if per_row
                                  else rho * circle))
        radii = rho if per_row else [rho] * len(samples)
        twiddles = [(n, _twiddle(points, n)) for n in orders]
        return [[complex(np.dot(row, twiddle)) / (points * radius ** n)
                 for n, twiddle in twiddles]
                for row, radius in zip(samples, radii)]


# At most this many Euler-Maclaurin rows (contours x contour points) go into
# one numpy batch, which bounds its memory when many contours share a batch.
_BATCH_ROWS = 256


def _contour_radius(s: complex) -> float:
    """_CONTOUR_RADIUS, shrunk to half the distance to the pole."""
    return min(_CONTOUR_RADIUS, 0.5 * abs(s - 1.0))


def _hurwitz_rows(orders, centres, alphas, cfg: PrecisionConfig) -> list:
    """zeta^(n)(s, a) for each n in ``orders`` at each point (s, a) of the
    sequences ``centres`` and ``alphas``: one entry per point, in order.

    An entry is the dict {n: value} of its orders, or the EvaluationError
    that refuses its point; nothing is raised.  Order 0 comes from the scalar
    core; every order >= 1 from one contour per point, the contours of up to
    _BATCH_ROWS sample rows running as one batch, each on its own circle.
    Contour values are left unchecked: a non-finite one is the caller's to
    refuse, in its own order.
    """
    centres = [complex(s) for s in centres]
    shared = len(set(centres)) == 1  # one centre: every row on the same circle
    higher = [n for n in orders if n > 0]
    rows: list = []
    for centre, alpha in zip(centres, alphas):
        alpha = float(alpha)
        try:
            row = {0: hurwitz_zeta(centre, alpha, cfg)} if 0 in orders else {}
            if higher:
                _check_contour(centre, alpha)
        except EvaluationError as exc:
            row = exc
        rows.append(row)
    live = [i for i, row in enumerate(rows) if higher and isinstance(row, dict)]
    step = max(1, _BATCH_ROWS // cfg.contour_points)
    for start in range(0, len(live), step):
        chunk = live[start:start + step]
        chunk_alphas = [alphas[i] for i in chunk]
        if shared:
            centre = centres[0]
            coeffs = _contour_coeff(
                lambda t: _em_hurwitz_batch(centre + t, chunk_alphas, cfg),
                _contour_radius(centre), cfg.contour_points, higher)
        else:
            at = np.array([centres[i] for i in chunk])[:, None]
            coeffs = _contour_coeff(
                lambda t: _em_hurwitz_batch(at + t, chunk_alphas, cfg),
                [_contour_radius(centres[i]) for i in chunk],
                cfg.contour_points, higher)
        for i, row_coeffs in zip(chunk, coeffs):
            for n, coeff in zip(higher, row_coeffs):
                rows[i][n] = factorial(n) * coeff
    return rows


def _hurwitz_derivs(orders, s: complex, alphas,
                    cfg: PrecisionConfig) -> list[list[complex]]:
    """zeta^(n)(s, a) for each n in ``orders`` and each a in the sequence
    ``alphas``: one list per alpha, in the order of ``orders``.

    The values of :func:`_hurwitz_rows` about one centre; errors are those
    of taking the alphas one after another: the first that fails raises.
    """
    out = []
    for row in _hurwitz_rows(orders, [s] * len(alphas), alphas, cfg):
        if isinstance(row, EvaluationError):
            raise row
        out.append([_require_finite(row[n], "hurwitz_zeta_deriv") for n in orders])
    return out


def _check_contour(s: complex, alpha: float) -> None:
    """Refuse a NaN, an alpha <= 0 and a contour around s that meets the pole."""
    if cmath.isnan(s) or math.isnan(alpha):
        raise DomainError(
            f"hurwitz_zeta_deriv got NaN for {'s' if cmath.isnan(s) else 'alpha'}")
    if alpha <= 0.0:
        raise DomainError("hurwitz_zeta_deriv requires alpha > 0")
    if abs(s - 1.0) <= _CONTOUR_RADIUS + 1e-10:
        raise PoleProximityError(
            f"contour of radius {_CONTOUR_RADIUS} around s={s!r} meets the pole at 1")


def hurwitz_zeta_deriv(r: int, s: complex, alpha: float,
                       config: PrecisionConfig | None = None) -> complex:
    """r-th partial s-derivative of zeta(s, alpha), r <= 6.

    Trapezoidal contour differentiation on a circle around s; the radius
    shrinks to half the distance to the pole at s = 1 when necessary.
    """
    if not 0 <= r <= 6:
        raise ValueError("derivative order must be in 0..6")
    return _hurwitz_derivs((r,), s, (alpha,), config or DEFAULT_CONFIG)[0][0]


def riemann_zeta_deriv(r: int, s: complex,
                       config: PrecisionConfig | None = None) -> complex:
    """r-th derivative of Riemann zeta, = hurwitz_zeta_deriv(r, s, 1)."""
    return hurwitz_zeta_deriv(r, s, 1.0, config)


# ---------------------------------------------------------------------------
# Stieltjes constants and digamma
# ---------------------------------------------------------------------------


def stieltjes(n: int, alpha: float, config: PrecisionConfig | None = None) -> complex:
    """Generalized Stieltjes constant gamma_n(alpha), for -1 <= n <= 5.

    gamma_n(alpha) is the n-th Taylor coefficient at 0 of
    g(t) = zeta(1+t, alpha) - 1/t; gamma_{-1} = 1 identically.
    """
    cfg = config or DEFAULT_CONFIG
    if not -1 <= n <= 5:
        raise ValueError("stieltjes order must be in -1..5")
    alpha = float(alpha)
    if math.isnan(alpha):
        raise DomainError("stieltjes got NaN for alpha")
    if alpha <= 0.0:
        raise DomainError("stieltjes requires alpha > 0")
    if n == -1:
        return complex(1.0)
    (coeff,), = _contour_coeff(
        lambda t: _em_hurwitz_batch(t, (alpha,), cfg, minus_pole=True),
        _CONTOUR_RADIUS, cfg.contour_points, (n,))
    return _require_finite(coeff, "stieltjes")


def digamma(alpha: float, config: PrecisionConfig | None = None) -> float:
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


def hurwitz_taylor(s: complex, alpha: complex, k: int,
                   config: PrecisionConfig | None = None) -> complex:
    """zeta(s, alpha) for complex alpha inside the disc |alpha| < k - 1/4.

    Uses the shifted-zeta Taylor expansion

        zeta(s, a) = sum_{n<k} (n+a)^-s
                     + sum_{n>=0} (s)_n zeta_k(s+n) (-a)^n / n!,

    where zeta_k(u) = zeta(u) - sum_{1<=m<k} m^-u and (s)_n is the rising
    factorial.  Requires every zeta_k(s+n) to be off the pole, i.e. s+n != 1.
    """
    cfg = config or DEFAULT_CONFIG
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
    threshold = cfg.target_abs_error / 10.0
    log_rate = math.log(abs(alpha)) - math.log(k)
    chunk = min(64, max(8, int(math.log(threshold) / log_rate) + 8))
    total = head
    poch = 1.0 + 0j  # (s)_n
    coef = 1.0 + 0j  # (-alpha)^n / n!
    small_run = 0
    for start in range(0, _TAYLOR_TERMS, chunk):
        u = s + np.arange(start, min(start + chunk, _TAYLOR_TERMS))
        row = _em_hurwitz_batch(u, (k,), cfg)[0]
        # entries the scalar core would refuse or retry in exp/log form are
        # taken from it when the series reaches them
        rescalar = (~np.isfinite(row) | (np.abs(u - 1.0) <= 1e-10)).tolist()
        for n, zeta_k, redo in zip(range(start, _TAYLOR_TERMS), row.tolist(), rescalar):
            if redo:
                zeta_k = hurwitz_zeta(s + n, k, cfg)
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
