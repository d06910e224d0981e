"""Taylor-mode s-derivatives and Stieltjes constants against mpmath.

Every point of a fixed seeded grid must lie within the README's bound for
these kernels, 100 times the zeta bound: max(1e-9, 1e-11 |value|), both
node by node and from the level batch the quadrature checks use.  The grid
covers Re s in [-2, 6], |Im s| <= 20 and |s - 1| >= 0.55, so the band
0 < Re s < 1 next to the pole guard is included, and alpha in [0.05, 50]:
random points, a ring just outside the pole guard, and the corners.
"""

import cmath
import math
import random

import numpy as np
import pytest

from zetalab import hurwitz_zeta_deriv, stieltjes
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
