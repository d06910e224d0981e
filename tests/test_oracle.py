"""Taylor-mode s-derivatives and Stieltjes constants against mpmath.

Every point of a fixed seeded grid must lie within the README's bound for
these kernels, 100 times the zeta bound: max(1e-9, 1e-11 |value|), both
node by node and from the level batch the quadrature checks use.  The grid
covers Re s in [-2, 6], |Im s| <= 20 and |s - 1| >= 0.55, so the band
0 < Re s < 1 next to the pole guard is included, and alpha in [0.05, 50]:
random points, a ring just outside the pole guard, and the corners.

Two more groups: points at huge alpha, where every value lies far below the
absolute floor of the bound and is held to the relative part alone; and
zeta(s, alpha) at complex alpha from hurwitz_taylor, every point within
1e-9, or 1e-13 relative for large values, or refused.

Last, Gamma(z) on Re z in [-60, 171.6], |Im z| <= 60, next to its poles and
next to the largest double, within the README's max(1e-11, 1e-13 |Gamma|);
and the pair integral with Gamma(1 - s1) next to a pole.
"""

import cmath
import math
import random

import numpy as np
import pytest

from zetalab import (gamma_complex, hurwitz_taylor, hurwitz_zeta, hurwitz_zeta_deriv,
                     pair_integral, stieltjes)
from zetalab.errors import EvaluationError
from zetalab.kernels import _zeta_level

mp = pytest.importorskip("mpmath")


def bound(value: complex) -> float:
    return 100.0 * max(1e-11, 1e-13 * abs(value))


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def deriv_grid(r: int) -> list[tuple[complex, float]]:
    """(s, alpha) points for order r: 40 random, 8 on the ring
    0.55 <= |s - 1| <= 0.6, and the corners of the s rectangle and of the
    real segment at both ends of the alpha range."""
    rng = random.Random(f"oracle:{r}")
    points = []
    while len(points) < 40:
        s = complex(rng.uniform(-2.0, 6.0), rng.uniform(-20.0, 20.0))
        if abs(s - 1.0) >= 0.55:
            points.append((s, log_uniform(rng, 0.05, 50.0)))
    for _ in range(8):
        s = 1.0 + cmath.rect(rng.uniform(0.55, 0.6), rng.uniform(-math.pi, math.pi))
        points.append((s, log_uniform(rng, 0.05, 50.0)))
    for s in (-2.0 - 20.0j, -2.0 + 20.0j, 6.0 - 20.0j, 6.0 + 20.0j, -2.0, 0.45, 6.0):
        for alpha in (0.05, 50.0):
            points.append((complex(s), alpha))
    return points


@pytest.fixture(autouse=True)
def mp_digits():
    with mp.workdps(20):
        yield


def by_level(r: int, points: list[tuple[complex, float]]) -> list[complex]:
    """zeta^(r) at the points from the quadrature level batch, one call per
    s over all of its alphas."""
    alphas: dict[complex, list[float]] = {}
    for s, alpha in points:
        alphas.setdefault(s, []).append(alpha)
    levels = {s: iter(_zeta_level(r, s, np.array(group)).tolist())
              for s, group in alphas.items()}
    return [next(levels[s]) for s, _ in points]


@pytest.mark.parametrize("r", range(1, 7))
def test_derivatives_within_bound(r):
    # node by node, and by level
    misses = []
    points = deriv_grid(r)
    for (s, alpha), level in zip(points, by_level(r, points)):
        expected = complex(mp.zeta(mp.mpc(s.real, s.imag), alpha, r))
        for route, got in (("node", hurwitz_zeta_deriv(r, s, alpha)), ("level", level)):
            error = abs(got - expected)
            if error > bound(expected):
                misses.append((route, s, alpha, error / bound(expected)))
    assert not misses, misses


STIELTJES_ALPHAS = [0.05, 50.0] + [log_uniform(random.Random(f"oracle:gamma:{k}"), 0.05, 50.0)
                                   for k in range(6)]


@pytest.mark.parametrize("n", range(6))
def test_stieltjes_within_bound(n):
    misses = []
    for alpha in STIELTJES_ALPHAS:
        # the package's Taylor convention: (-1)^n gamma_n / n! in mpmath's
        expected = complex(mp.stieltjes(n, alpha) * (-1) ** n / mp.factorial(n))
        error = abs(stieltjes(n, alpha) - expected)
        if error > bound(expected):
            misses.append((alpha, error / bound(expected)))
    assert not misses, misses


# (r, s, alpha) where Re s log(M + alpha) passes about 708, so that
# (M + alpha)^-s is subnormal
HUGE_ALPHA = [(1, 2.0, 1e160), (2, 2.0, 1e160), (1, 4.0, 1e78), (0, 4.0, 1e78),
              (0, 2.0, 1e160)]


@pytest.mark.parametrize("r, s, alpha", HUGE_ALPHA)
def test_huge_alpha_relative(r, s, alpha):
    expected = complex(mp.zeta(s, alpha, r))
    relative = 1e-13 if r == 0 else 1e-11
    values = [hurwitz_zeta_deriv(r, s, alpha), _zeta_level(r, s, np.array([alpha]))[0]]
    if r == 0:
        values.append(hurwitz_zeta(s, alpha))
    for got in values:
        assert abs(got - expected) <= relative * abs(expected), (got, expected)


def taylor_bound(value: complex) -> float:
    """1e-9, the bound of the cross-check of hurwitz_taylor against the
    real-alpha kernel, or the README's 1e-13 relative for large values."""
    return max(1e-9, 1e-13 * abs(value))


def taylor_grid(k: int) -> list[tuple[complex, complex]]:
    """(s, alpha) with complex alpha inside the disc of k, on both sides of
    the real axis and near -1 and -2; s to Re s = 8.5, and the integers
    s = 0, -1, -2, where s + n = 1 for some n >= 0."""
    points = []
    for s in (-6.5 + 0.2j, -2.5, -1.3 + 0.7j, 0.4 - 1.2j, 1.7 + 0.3j, 3.1, 8.5,
              0.0, -1.0, -2.0):
        for alpha in (0.05j, 0.3 + 0.4j, -0.6 + 0.9j, 1.2 - 0.5j, -1.6 - 0.1j,
                      2.5 + 1.5j, -0.2 - 3.1j, -0.95 + 0.05j, -2.1 - 0.2j):
            if abs(alpha) < k - 0.25:
                points.append((complex(s), alpha))
    return points


@pytest.mark.parametrize("k", [2, 3, 4])
def test_complex_alpha_within_bound(k):
    misses, values = [], 0
    for s, alpha in taylor_grid(k):
        expected = complex(mp.zeta(mp.mpc(s.real, s.imag), mp.mpc(alpha.real, alpha.imag)))
        try:
            got = hurwitz_taylor(s, alpha, k)
        except EvaluationError:
            continue
        values += 1
        if abs(got - expected) > taylor_bound(expected):
            misses.append((s, alpha, k, abs(got - expected) / taylor_bound(expected)))
    assert not misses, misses
    assert values == len(taylor_grid(k))  # nothing on this grid is refused


def gamma_grid() -> list[complex]:
    """2000 seeded points with Re z in [-60, 171.6] and |Im z| <= 60; the
    offsets +-1e-11, 1e-6 and -1e-3 from the poles 0, -3, ..., -60; and 171.5
    and 171.62, where Gamma nears the largest double."""
    rng = random.Random("oracle:Gamma")
    points = [complex(rng.uniform(-60.0, 171.6), rng.uniform(-60.0, 60.0))
              for _ in range(2000)]
    for n in range(0, 61, 3):
        for delta in (1e-11, -1e-11, 1e-6, -1e-3):
            points.append(complex(-n + delta))
    return points + [171.5 + 0j, 171.62 + 0j]


def test_gamma_within_bound():
    misses, refused = [], []
    with mp.workdps(30):
        for z in gamma_grid():
            expected = complex(mp.gamma(mp.mpc(z.real, z.imag)))
            try:
                got = gamma_complex(z)
            except EvaluationError:
                refused.append(z)
                continue
            bound = max(1e-11, 1e-13 * abs(expected))
            if abs(got - expected) > bound:
                misses.append((z, abs(got - expected) / bound))
    assert not misses, misses
    assert not refused, refused  # every Gamma on this grid is a finite double


def test_pair_integral_next_to_a_gamma_pole():
    # Gamma(1 - s1) at -5e-11, just outside gamma_complex's pole guard of 1e-12
    s1, s2 = 1.00000000005, -0.5
    with mp.workdps(30):
        a, b = mp.mpf(s1), mp.mpf(s2)
        expected = float(2 * (2 * mp.pi) ** (a + b - 2) * mp.gamma(1 - a) * mp.gamma(1 - b)
                         * mp.cos(mp.pi * (a - b) / 2) * mp.zeta(2 - a - b))
    got = pair_integral(s1, s2)
    assert abs(got - expected) <= 1e-13 * abs(expected), (got, expected)
