"""Identity registry, check runner, and report rendering.

Every proposition, corollary, forward-difference fact, closed-form product
integral, and pole-order fact of the alpha-calculus gets at least one
registered check.  Exact statements (rational arithmetic, symbolic
collapses) are checked for literal equality; numeric statements carry a
per-check absolute tolerance derived from the kernel accuracy analysis:
1e-12 to 1e-9 for direct kernel identities, 1e-8 to 1e-6 for quadrature
and finite-difference checks, 1e-5 for the finite differences of
``cor2_second_link`` and ``cor2_gamma1_chain``, 5e-2, 5e-3 and 1e-3
for the s -> 1 limit at s = 0.9, 0.99 and 0.999, and 1e-3 for the
eps -> 0 limit of ``pole_psi_simple``.

The kernels run at one fixed accuracy policy, which the JSON report
records under "config".  Checks are pure; two runs produce identical
reports byte-for-byte (random cases use a fixed seed).  Kernel
evaluation failures downgrade a check to skipped(reason), never to a silent
pass.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement, product
from typing import Callable, Iterable, Sequence

from . import calculus, kernels
from .errors import EvaluationError
from .exact import (RatPoly, _bernoulli_basis_integral, bernoulli_polynomial,
                    bernoulli_product_integral, poly_integral_01, rational_str,
                    zeta_neg_int_poly)
from .kernels import format_complex
from .quadrature import tanh_sinh_01
from .reduction import (DerivAtom, LinearCombination, RationalFunctionOfS,
                        eval_combination, integral_poly_zeta, pair_integral,
                        pair_limit_weighted, reduce_monomial,
                        triple_product_integral)

__all__ = ["CheckSpec", "CheckResult", "build_registry", "run_checks",
           "render_report", "REQUIRED_ID_PREFIXES"]

# Families that must each have at least one registered check.
REQUIRED_ID_PREFIXES = (
    "prop1", "prop2", "prop3", "prop4",
    "cor1", "cor2", "cor3", "cor4", "cor5", "cor6", "cor7", "cor8", "cor9",
    "note_fwd", "pair", "pole",
)


@dataclass(frozen=True)
class CheckSpec:
    """One registered identity instance."""

    id: str
    description: str
    paper_anchor: str
    tolerance: float  # 0.0 marks an exact (literal equality) check
    run: Callable[[], tuple]


@dataclass(frozen=True)
class CheckResult:
    id: str
    description: str
    paper_anchor: str
    lhs: object  # complex or Fraction; None when skipped
    rhs: object
    abs_error: float
    tolerance: float
    status: str  # "pass" | "fail" | "skipped(...)"


# ---------------------------------------------------------------------------
# Small numeric helpers used by the checks
# ---------------------------------------------------------------------------


def _diff5(f, x: float, h: float) -> complex:
    """Five-point central first derivative."""
    return (f(x - 2 * h) - 8 * f(x - h) + 8 * f(x + h) - f(x + 2 * h)) / (12 * h)


def _diff2_5(f, x: float, h: float) -> complex:
    """Five-point central second derivative."""
    return (-f(x - 2 * h) + 16 * f(x - h) - 30 * f(x)
            + 16 * f(x + h) - f(x + 2 * h)) / (12 * h * h)


def _d_da(f, alpha: float) -> complex:
    """Five-point derivative in alpha, with a step that shrinks below alpha = 1."""
    return _diff5(f, alpha, 0.002 * min(1.0, alpha))


def _central(f, x: float, h: float) -> complex:
    """Two-point central first derivative."""
    return (f(x + h) - f(x - h)) / (2 * h)


def _worst(points: Iterable[tuple], lhs: Callable, rhs: Callable) -> tuple:
    """The (lhs(*p), rhs(*p)) pair with the largest absolute discrepancy over
    the points, visited in order with lhs before rhs at each point."""
    pairs = [(lhs(*p), rhs(*p)) for p in points]
    return max(pairs, key=lambda pair: abs(complex(pair[0]) - complex(pair[1])))


def _indicator(ok: bool) -> tuple[Fraction, Fraction]:
    return Fraction(1 if ok else 0), Fraction(1)


def _quad(f, tol: float) -> complex:
    """The tanh-sinh value of int_0^1 f."""
    return tanh_sinh_01(f, tol).value


def _product(polys: Iterable[RatPoly]) -> RatPoly:
    return math.prod(polys, start=RatPoly.one())


def _trapezoid_coeff(f: Callable[[complex], complex], n: int) -> complex:
    """The n-th Taylor coefficient at 0 of f, by the trapezoidal rule on 32
    samples of the circle |t| = 1/2 (Cauchy's integral formula)."""
    import numpy as np

    points, rho = 32, 0.5
    theta = 2.0 * math.pi * np.arange(points) / points
    samples = np.array([f(t) for t in (rho * np.exp(1j * theta)).tolist()])
    return complex(np.dot(samples, np.exp(-1j * n * theta))) / (points * rho ** n)


# ---------------------------------------------------------------------------
# The checks, each a function of the values it is registered with
# ---------------------------------------------------------------------------


def _prop2_fd(r: int, points) -> tuple:
    return _worst(points, partial(calculus.alpha_derivative, r),
                  lambda s, a: _d_da(lambda x: kernels.hurwitz_zeta_deriv(r, s, x), a))


def _prop3_fd(r: int) -> tuple:
    return _worst(product((0.7, 1.0)), partial(calculus.alpha_derivative_at_zero, r),
                  lambda a: _d_da(lambda x: kernels.hurwitz_zeta_deriv(r, 0.0, x), a))


def _prop3_contour(r: int, a: float) -> tuple:
    lhs = calculus.alpha_derivative_at_zero(r, a)
    # independent route: r-th Taylor coefficient of s*zeta(s+1,a)
    # from raw samples on a circle, without the pole-subtracted kernel
    rhs = -math.factorial(r) * _trapezoid_coeff(
        lambda t: t * kernels.hurwitz_zeta(t + 1.0, a), r)
    return lhs, rhs


def _prop4_fd(r: int) -> tuple:
    return _worst(product((0.8, 1.0)), partial(calculus.stieltjes_alpha_derivative, r),
                  lambda a: _central(partial(kernels.stieltjes, r - 1), a, 1e-4))


def _note_fwd(r: int) -> tuple:
    return _worst(product((-2.5, -0.5, 0.5 + 0.5j), (0.2, 0.7)),
                  lambda s, a: (kernels.hurwitz_zeta_deriv(r, s, a)
                                - kernels.hurwitz_zeta_deriv(r, s, a + 1.0)),
                  lambda s, a: cmath.exp(-complex(s) * math.log(a)) * (-math.log(a)) ** r)


def _cor1_fd(r: int) -> tuple:
    return _worst(((-0.5, 0.6), (-1.5, 1.1)),
                  lambda s, a: _d_da(lambda x: calculus.antiderivative_eval(r, s, x), a),
                  partial(kernels.hurwitz_zeta_deriv, r))


def _cor2_link(r: int, alphas, rhs) -> tuple:
    """d/da zeta^(r)(0, a) by finite differences against rhs(a)."""
    return _worst(product(alphas),
                  lambda a: _d_da(lambda x: kernels.hurwitz_zeta_deriv(r, 0.0, x), a), rhs)


def _cor3(r: int, s: complex) -> tuple:
    lhs = calculus.integral_1_inf(r, s)
    big_a = 200.0
    # [1, A] onto (0, 1): the integral is (A-1) times the mapped one
    width = big_a - 1.0
    quad = _quad(lambda xs: kernels._zeta_level(r, s, 1.0 + width * xs), 5e-9 / width)
    return lhs, width * quad - calculus.antiderivative_eval(r, s, big_a)


def _cor5(s: float) -> tuple:
    s1 = s2 = -1.0
    f0 = kernels.riemann_zeta(s1) * kernels.riemann_zeta(s2)

    def integrand(xs):
        f = kernels._zeta_level(0, s1, xs) * kernels._zeta_level(0, s2, xs)
        return (s - 1.0) * kernels._zeta_level(0, s, xs) * (f - f0)

    # int (s-1) zeta(s,a) f0 da = 0 for Re s < 1, so subtracting the
    # constant f0 changes nothing analytically but removes the
    # a^(1-s) boundary layer that no double-precision node can reach.
    return _quad(integrand, 1e-9), pair_limit_weighted(s1, s2)


def _multisets(max_total: int) -> list[tuple[int, ...]]:
    """Every multiset of one to three indices >= 1 with sum at most max_total."""
    return [ms for size in (1, 2, 3)
            for ms in combinations_with_replacement(range(1, max_total + 1), size)
            if sum(ms) <= max_total]


def _cor6_two_paths() -> tuple:
    # the Bernoulli-basis route against the term-wise integral of the same
    # product, each product taken once, from its prefix's
    products, ok = {(): RatPoly.one()}, True
    for ms in _multisets(12):
        p = products[ms] = products[ms[:-1]] * bernoulli_polynomial(ms[-1])
        ok = ok and _bernoulli_basis_integral(p) == poly_integral_01(p)
    return _indicator(ok)


def _cor6_odd_zero() -> tuple:
    return _indicator(all(bernoulli_product_integral(ms) == 0
                          for ms in _multisets(15) if sum(ms) % 2 == 1))


def _random_cases(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        ms = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        yield ms, complex(rng.uniform(-1.6, 0.55), rng.uniform(-0.4, 0.4))


def _cor78_quad(r: int, count: int, seed: int) -> tuple:
    def quadrature(ms, s):
        prod = _product(map(zeta_neg_int_poly, ms))
        return _quad(lambda xs: prod.evaluate_complex(xs) * kernels._zeta_level(r, s, xs), 1e-9)

    return _worst(_random_cases(count, seed),
                  lambda ms, s: eval_combination(integral_poly_zeta(ms, r), s), quadrature)


def _cor7_exact_negint() -> tuple:
    return _worst((((1,), 2), ((0, 2), 3), ((2, 2), 1)),
                  lambda ms, m: eval_combination(integral_poly_zeta(ms, 0), complex(-m)),
                  lambda ms, m: complex(float(poly_integral_01(_product(map(zeta_neg_int_poly, (m, *ms)))))))


def _cor7_shift_bound() -> tuple:
    return _indicator(all(1 <= atom.shift <= sum(m + 1 for m in ms) and atom.deriv_order == 0
                          for ms in ((0,), (1,), (0, 1), (2, 2), (1, 2, 3))
                          for atom in integral_poly_zeta(ms, 0).atoms()))


def _reduces_to(k: int, r: int, terms: dict) -> tuple:
    """Whether int a^k zeta^(r)(s,a) da reduces to the atoms of ``terms``,
    given as {(r, shift): (numerator, denominator polynomial in s)}."""
    expected = LinearCombination({
        DerivAtom(*atom): RationalFunctionOfS(RatPoly((num,)), den)
        for atom, (num, den) in terms.items()})
    return _indicator(reduce_monomial(k, r) == expected)


def _cor8_shift_bound() -> tuple:
    lc = integral_poly_zeta((1, 2), 1)
    return _indicator(all(1 <= atom.shift <= 5 and atom.deriv_order <= 1 for atom in lc.atoms())
                      and lc.max_shift() == 5)


def _cor9_quad(s: float) -> tuple:
    lhs = triple_product_integral(s)
    return lhs, _quad(lambda xs: (kernels._zeta_level(0, 0.0, xs)
                                  * kernels._zeta_level(0, 1.0 - s, xs)
                                  * kernels._zeta_level(0, 2.0 - s, xs)), 1e-9)


def _decays_linearly(deviation: Callable[[float], float]) -> tuple:
    """Whether deviation(eps) shrinks at least linearly over eps = 1e-2, 1e-3, 1e-4."""
    devs = [deviation(e) for e in (1e-2, 1e-3, 1e-4)]
    return _indicator(devs[0] > 5 * devs[1] > 25 * devs[2])


def _kernel_neg_int_poly() -> tuple:
    polys = [zeta_neg_int_poly(m) for m in range(9)]
    return _worst(product(range(9), [Fraction(tenths, 10) for tenths in range(1, 20, 3)]),
                  lambda m, a: kernels.hurwitz_zeta(-m, float(a)),
                  lambda m, a: complex(float(polys[m].evaluate(a))))


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def build_registry() -> list[CheckSpec]:
    """All registered checks, sorted by id."""
    specs: list[CheckSpec] = []
    seen: set[str] = set()

    def add(cid: str, description: str, anchor: str, tolerance: float,
            run: Callable[[], tuple]) -> None:
        if cid in seen:
            raise ValueError(f"duplicate check id {cid!r}")
        seen.add(cid)
        specs.append(CheckSpec(id=cid, description=description, paper_anchor=anchor,
                               tolerance=tolerance, run=run))

    # -- Proposition 1: continuity in alpha at 0 / 1 ------------------------

    add("prop1_taylor_alpha_zero", "alpha->0 limit of the complex-alpha path is zeta(s)",
        "Proposition 1", 1e-9,
        lambda: (kernels.hurwitz_taylor(-1.5, 1e-10, 2), kernels.riemann_zeta(-1.5)))
    add("prop1_taylor_alpha_one", "complex-alpha path at alpha=1 equals zeta(s)",
        "Proposition 1", 1e-10,
        lambda: (kernels.hurwitz_taylor(-2.5, 1.0, 3), kernels.riemann_zeta(-2.5)))
    add("prop1_s_zero_left_limit", "zeta(s) -> zeta(0) = -1/2 as s -> 0-",
        "Proposition 1", 1e-6,
        lambda: (kernels.riemann_zeta(-1e-7), complex(-0.5)))

    # -- Proposition 2: forward alpha-derivative rule ------------------------

    for r, points in ((0, ((-1.0, 0.5), (2.0, 0.3), (0.75 + 0.75j, 0.8))),
                      (1, ((-2.5, 0.7), (2.0, 0.3), (1.5 + 1.0j, 1.2))),
                      (2, ((-1.5, 1.2), (3.0, 0.5)))):
        add(f"prop2_fd_r{r}",
            f"d/da zeta^({r})(s,a) = -{r} zeta^({r - 1})(s+1,a) - s zeta^({r})(s+1,a) vs finite differences",
            "Proposition 2", 1e-6, partial(_prop2_fd, r, points))

    # -- Proposition 3: derivative at s = 0 is a Stieltjes constant ---------

    for r in (0, 1, 2, 3):
        add(f"prop3_fd_r{r}",
            f"d/da zeta^({r})(0,a) = -{r}! gamma_{r - 1}(a) vs finite differences",
            "Proposition 3", 1e-6, partial(_prop3_fd, r))

    for r in (1, 2, 3):
        add(f"prop3_contour_r{r}",
            "the same derivative from raw contour samples of s*zeta(s+1,a)",
            "Proposition 3", 1e-8, partial(_prop3_contour, r, 0.8))

    # -- Proposition 4: alpha-derivative of Stieltjes constants -------------

    for r in (1, 2):
        add(f"prop4_fd_r{r}",
            f"d/da gamma_{r - 1}(a) from the closed form vs finite differences",
            "Proposition 4", 1e-6, partial(_prop4_fd, r))

    add("prop4_closed_r1", "d/da gamma_0(a) = -zeta(2, a)",
        "Proposition 4 / Corollary 2", 1e-9,
        lambda: (calculus.stieltjes_alpha_derivative(1, 1.0),
                 complex(-math.pi ** 2 / 6)))

    # -- Note: forward difference with log factor ----------------------------

    for r in (0, 1, 2, 3):
        add(f"note_fwd_r{r}",
            f"zeta^({r})(s,a) - zeta^({r})(s,a+1) = a^-s (-log a)^{r}",
            "Note after the Proposition", 1e-8, partial(_note_fwd, r))

    # -- Corollary 1: antiderivative family ---------------------------------

    for r in range(7):
        add(f"cor1_collapse_r{r}",
            "symbolic d/da of the antiderivative family collapses to zeta^(r)(s,a)",
            "Corollary 1a-f", 0.0,
            lambda r=r: _indicator(calculus.antiderivative_alpha_derivative_symbolic(r)
                                   == {r: {0: 1}}))

    for r, coeffs, anchor in ((1, (1, 1), "Corollary 1b"), (2, (2, 2, 1), "Corollary 1c")):
        add(f"cor1_coeffs_r{r}", f"antiderivative coefficients for r={r} are {coeffs}",
            anchor, 0.0,
            lambda r=r, coeffs=coeffs: _indicator(
                tuple(t.coefficient for t in calculus.antiderivative_terms(r)) == coeffs))

    for r in (0, 1, 2):
        add(f"cor1_fd_r{r}",
            "d/da of the numeric antiderivative reproduces zeta^(r)(s,a)",
            "Corollary 1f", 1e-6, partial(_cor1_fd, r))

    add("cor1_value_r0", "antiderivative at s=-1 equals zeta(-2,a)/2 = -B_3(a)/6",
        "Corollary 1a", 1e-11,
        lambda: (calculus.antiderivative_eval(0, -1.0, 0.3),
                 complex(float(zeta_neg_int_poly(2).evaluate(Fraction(3, 10))) / 2.0)))
    add("cor1_instance_r2_s3",
        "r=2 antiderivative at s=3, a=1 matches its displayed expansion",
        "Corollary 1c", 1e-12,
        lambda: (calculus.antiderivative_eval(2, 3.0, 1.0),
                 2 * kernels.riemann_zeta(2.0) / (-2.0) ** 3
                 + 2 * kernels.riemann_zeta_deriv(1, 2.0) / (-2.0) ** 2
                 + kernels.riemann_zeta_deriv(2, 2.0) / (-2.0)))

    # -- Corollary 2: the derivative diagram ---------------------------------

    add("cor2_psi_link", "d/da zeta'(0,a) = psi(a)", "Corollary 2", 1e-7,
        lambda: _cor2_link(1, (0.5, 1.0, 1.5), lambda a: complex(kernels.digamma(a))))
    add("cor2_second_link", "d^2/da^2 zeta'(0,a) = zeta(2,a)", "Corollary 2", 1e-5,
        lambda: _worst(product((0.5, 1.0, 1.5)),
                       lambda a: _diff2_5(lambda x: kernels.hurwitz_zeta_deriv(1, 0.0, x),
                                          a, 0.01 * min(1.0, a)),
                       partial(kernels.hurwitz_zeta, 2.0)))
    add("cor2_gamma1_link", "d/da zeta''(0,a) = -2 gamma_1(a)", "Corollary 2", 1e-6,
        lambda: _cor2_link(2, (0.5, 1.0), lambda a: -2.0 * kernels.stieltjes(1, a)))
    add("cor2_gamma1_chain", "d/da (-2 gamma_1(a)) = 2 (zeta(2,a) + zeta'(2,a))",
        "Corollary 2", 1e-5,
        lambda: (_central(lambda x: -2.0 * kernels.stieltjes(1, x), 1.0, 1e-4),
                 2.0 * (kernels.hurwitz_zeta(2.0, 1.0) + kernels.hurwitz_zeta_deriv(1, 2.0, 1.0))))
    add("cor2_euler", "psi(1) = -gamma_0(1), Euler's constant",
        "Corollary 2", 1e-9,
        lambda: (complex(kernels.digamma(1.0)), -kernels.stieltjes(0, 1.0)))

    # -- Corollary 3: the improper integral on [1, inf) ----------------------

    for r, (tag, s) in product((0, 1), (("s3", 3.0), ("s4", 4.0), ("sc", 3.5 + 0.5j))):
        add(f"cor3_quad_r{r}_{tag}",
            "closed form of the [1,inf) integral vs quadrature plus analytic tail",
            "Corollary 3", 1e-6, partial(_cor3, r, s))

    add("cor3_exact_r0_s3", "r=0, s=3 value is zeta(2)/2",
        "Corollary 3", 1e-10,
        lambda: (calculus.integral_1_inf(0, 3.0), complex(math.pi ** 2 / 12)))

    # -- Corollary 4: zero mean on [0, 1] ------------------------------------

    for r in (0, 1, 2):
        add(f"cor4_quad_r{r}",
            "int_0^1 zeta^(r)(s,a) da = 0 by tanh-sinh quadrature",
            "Corollary 4", 1e-7,
            lambda r=r: _worst(product((-1.5, 0.3)),
                               lambda s: _quad(lambda xs: kernels._zeta_level(r, s, xs), 1e-8),
                               lambda s: 0j))

    # -- Corollary 5: the s -> 1- limit --------------------------------------

    for tag, s, tol in (("s09", 0.9, 5e-2), ("s099", 0.99, 5e-3), ("s0999", 0.999, 1e-3)):
        add(f"cor5_limit_{tag}",
            f"weighted triple integral at s={s} approaches the pair-integral deficit",
            "Corollary 5", tol, partial(_cor5, s))

    add("cor5_zero_cross", "s1=-1, s2=-2 limit vanishes (cos factor and zeta(-2))",
        "Corollary 5", 1e-12,
        lambda: (pair_limit_weighted(-1.0, -2.0), 0j))

    # -- Corollary 6: exact Bernoulli product integrals ----------------------

    add("cor6_two_paths",
        "product integrals agree between the Bernoulli-basis and antiderivative routes",
        "Corollary 6", 0.0, _cor6_two_paths)
    add("cor6_odd_zero", "odd total degree forces an exactly zero integral",
        "Corollary 6", 0.0, _cor6_odd_zero)
    add("cor6_value_11", "int B_1^2 = 1/12", "Corollary 6", 0.0,
        lambda: (bernoulli_product_integral((1, 1)), Fraction(1, 12)))
    add("cor6_value_22", "int B_2^2 = 1/180", "Corollary 6", 0.0,
        lambda: (bernoulli_product_integral((2, 2)), Fraction(1, 180)))
    add("cor6_value_12", "int B_1 B_2 = 0", "Corollary 6", 0.0,
        lambda: (bernoulli_product_integral((1, 2)), Fraction(0)))

    # -- Corollaries 7/8: IBP reduction --------------------------------------

    add("cor7_random_quad",
        "six random reductions match tanh-sinh quadrature (r=0)",
        "Corollary 7", 1e-7, partial(_cor78_quad, 0, 6, 20260711))
    add("cor8_random_quad",
        "four random reductions match tanh-sinh quadrature (r=1)",
        "Corollary 8", 1e-7, partial(_cor78_quad, 1, 4, 20260712))
    add("cor7_exact_negint",
        "polynomial-valued cases reproduce the exact rational integral",
        "Corollary 7", 1e-12, _cor7_exact_negint)
    add("cor7_shift_bound", "atom shifts stay within 1..N and order 0",
        "Corollary 7", 0.0, _cor7_shift_bound)

    s_minus_1, s_minus_2 = RatPoly((-1, 1)), RatPoly((-2, 1))
    add("cor7_symbolic_i1", "int a zeta(s,a) da reduces to zeta(s-1)/(1-s)",
        "Corollary 7", 0.0,
        lambda: _reduces_to(1, 0, {(0, 1): (-1, s_minus_1)}))
    add("cor7_symbolic_i2",
        "int a^2 zeta(s,a) da reduces to zeta(s-1)/(1-s) + 2 zeta(s-2)/((s-1)(2-s))",
        "Corollary 7", 0.0,
        lambda: _reduces_to(2, 0, {(0, 1): (-1, s_minus_1),
                                   (0, 2): (-2, s_minus_1 * s_minus_2)}))
    add("cor8_symbolic_i1",
        "int a zeta'(s,a) da reduces to zeta'(s-1)/(1-s) + zeta(s-1)/(1-s)^2",
        "Corollary 8", 0.0,
        lambda: _reduces_to(1, 1, {(1, 1): (-1, s_minus_1),
                                   (0, 1): (1, s_minus_1 * s_minus_1)}))
    add("cor8_shift_bound", "ms=(1,2), r=1 atoms stay within order <=1, shifts 1..5",
        "Corollary 8", 0.0, _cor8_shift_bound)

    # -- Corollary 9: the triple-product evaluation ---------------------------

    add("cor9_value_s2", "closed form at s=2 equals -1/360",
        "Corollary 9", 1e-10,
        lambda: (triple_product_integral(2.0), complex(-1.0 / 360.0)))
    add("cor9_exact_s3", "closed form at s=3 equals the exact polynomial integral",
        "Corollary 9", 1e-12,
        lambda: (triple_product_integral(3.0),
                 complex(float(poly_integral_01(_product(map(zeta_neg_int_poly, (0, 2, 1))))))))
    add("cor9_quad_s25", "closed form at s=2.5 matches tanh-sinh quadrature",
        "Corollary 9", 1e-8, partial(_cor9_quad, 2.5))

    # -- Pair integral closed form -------------------------------------------

    add("pair_value_00", "pair integral at s1=s2=0 equals 1/12",
        "pair-integral closed form", 1e-10,
        lambda: (pair_integral(0.0, 0.0), complex(1.0 / 12.0)))
    add("pair_value_m1m1", "pair integral at s1=s2=-1 equals 1/720",
        "pair-integral closed form", 1e-10,
        lambda: (pair_integral(-1.0, -1.0), complex(1.0 / 720.0)))
    add("pair_value_0m1", "pair integral at s1=0, s2=-1 vanishes (odd cosine)",
        "pair-integral closed form", 1e-12,
        lambda: (pair_integral(0.0, -1.0), 0j))
    add("pair_symmetry", "the closed form is symmetric in s1 <-> s2",
        "pair-integral closed form", 1e-12,
        lambda: (pair_integral(-0.8 + 0.3j, -2.2), pair_integral(-2.2, -0.8 + 0.3j)))
    add("pair_quad", "pair integral at (-0.5, -1.5) matches tanh-sinh quadrature",
        "pair-integral closed form", 1e-8,
        lambda: (pair_integral(-0.5, -1.5),
                 _quad(lambda xs: kernels._zeta_level(0, -0.5, xs) * kernels._zeta_level(0, -1.5, xs),
                       1e-10)))

    # -- Pole-order facts ------------------------------------------------------

    add("pole_zeta_order2", "eps^2 zeta(2, eps) -> 1",
        "pole structure in alpha", 1e-6,
        lambda: (1e-8 * kernels.hurwitz_zeta(2.0, 1e-4), complex(1.0)))
    add("pole_zeta_trend", "the deviation decays at least linearly in eps",
        "pole structure in alpha", 0.0,
        lambda: _decays_linearly(lambda e: abs(e * e * kernels.hurwitz_zeta(2.0, e) - 1.0)))
    add("pole_psi_simple", "eps psi(eps) -> -1 via the recurrence",
        "pole structure in alpha", 1e-3,
        lambda: (complex(1e-4 * (kernels.digamma(1.0 + 1e-4) - 1.0 / 1e-4)),
                 complex(-1.0)))
    add("pole_psi_trend", "the psi deviation decays at least linearly in eps",
        "pole structure in alpha", 0.0,
        lambda: _decays_linearly(lambda e: abs(e * (kernels.digamma(1.0 + e) - 1.0 / e) + 1.0)))
    add("pole_psi_chain_r1", "d/da psi(a) = zeta(2, a)",
        "psi derivative chain", 1e-6,
        lambda: (complex(_central(kernels.digamma, 0.5, 1e-4)), calculus.psi_chain(1, 0.5)))
    add("pole_psi_chain_r2", "d^2/da^2 psi(a) = -2 zeta(3, a) at a=1",
        "psi derivative chain", 1e-9,
        lambda: (calculus.psi_chain(2, 1.0), complex(-2 * 1.2020569031595942)))  # zeta(3)

    # -- Kernel cross-validation (supporting checks) ---------------------------

    add("kernel_taylor_cross",
        "complex-alpha path plus the shift vs the real-alpha path on a 20-point grid",
        "Taylor continuation in the disc |alpha| < k", 1e-9,
        lambda: _worst(product((-2.5, -1.5, -0.5, 0.75, 2.5), (0.3, 0.7, 1.2, 1.6)),
                       lambda s, a: kernels.hurwitz_taylor(s, a, 3), kernels.hurwitz_zeta))
    add("kernel_neg_int_poly",
        "zeta(-m, a) equals the exact polynomial -B_{m+1}(a)/(m+1)",
        "zeta at non-positive integers", 1e-10, _kernel_neg_int_poly)

    specs.sort(key=lambda sp: sp.id)
    return specs


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


def _execute(spec: CheckSpec) -> CheckResult:
    try:
        lhs, rhs = spec.run()
    except EvaluationError as exc:
        lhs = rhs = None
        abs_error, status = math.inf, f"skipped({exc})"
    else:
        if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
            abs_error, passed = abs(float(lhs - rhs)), lhs == rhs
        else:
            lhs, rhs = complex(lhs), complex(rhs)
            abs_error = abs(lhs - rhs)
            passed = abs_error <= spec.tolerance
        status = "pass" if passed else "fail"
    return CheckResult(id=spec.id, description=spec.description,
                       paper_anchor=spec.paper_anchor, lhs=lhs, rhs=rhs,
                       abs_error=abs_error, tolerance=spec.tolerance, status=status)


def run_checks(filter: str | None = None) -> list[CheckResult]:
    """Execute every registered check whose id starts with ``filter``.

    Individual check failures are results, not errors; kernel evaluation
    errors become skipped(reason) results.  Results are ordered by id.

    The checks share one table of zeta jets (``kernels._JET_TABLE``), set
    for this call only, and run in descending id order: a family numbers
    its orders upward (``note_fwd_r0..r3``), so its top order takes each
    jet and the lower orders read it.
    """
    specs = [spec for spec in build_registry()
             if filter is None or spec.id.startswith(filter)]
    token = kernels._JET_TABLE.set({})
    try:
        results = [_execute(spec) for spec in reversed(specs)]
    finally:
        kernels._JET_TABLE.reset(token)
    return results[::-1]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def _serialize_value(v) -> str | None:
    if v is None:
        return None
    if isinstance(v, Fraction):
        return rational_str(v)
    return format_complex(complex(v))


def _round15(x: float) -> float:
    if math.isinf(x):
        return x
    return float(f"{x:.15g}")


def _tally(results: Sequence[CheckResult]) -> tuple[int, int, int]:
    passed = sum(1 for r in results if r.status == "pass")
    failed = sum(1 for r in results if r.status == "fail")
    skipped = len(results) - passed - failed
    return passed, failed, skipped


def render_report(results: Sequence[CheckResult], format: str = "text") -> str:
    """Render results as an aligned text table or byte-stable JSON."""
    results = sorted(results, key=lambda res: res.id)
    if format == "text":
        return _render_text(results)
    if format == "json":
        return _render_json(results)
    raise ValueError(f"unknown report format {format!r}")


def _render_text(results: Sequence[CheckResult]) -> str:
    headers = ("id", "status", "abs_error", "tolerance", "description")
    rows = []
    for res in results:
        tol = "exact" if res.tolerance == 0.0 else f"{res.tolerance:.1e}"
        err = "-" if math.isinf(res.abs_error) else f"{res.abs_error:.3e}"
        rows.append((res.id, res.status, err, tol, res.description))
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    passed, failed, skipped = _tally(results)
    tally = f"{passed} passed, {failed} failed"
    if skipped:
        tally += f", {skipped} skipped"
    lines.append(tally)
    return "\n".join(lines) + "\n"


def _render_json(results: Sequence[CheckResult]) -> str:
    passed, failed, skipped = _tally(results)
    doc = {
        # the fixed policy, so the report records what its numbers rest on
        "config": {"target_abs_error": kernels._TARGET_ABS_ERROR,
                   "em_cutoff": kernels._EM_CUTOFF,
                   "em_min_reach": kernels._EM_MIN_REACH,
                   "em_reach_per_s": kernels._EM_REACH_PER_S,
                   "em_tail_terms": kernels._EM_TAIL_TERMS},
        "summary": {"passed": passed, "failed": failed, "skipped": skipped},
        "checks": [
            {
                "id": res.id,
                "description": res.description,
                "paper_anchor": res.paper_anchor,
                "lhs": _serialize_value(res.lhs),
                "rhs": _serialize_value(res.rhs),
                "abs_error": None if math.isinf(res.abs_error) else _round15(res.abs_error),
                "tolerance": res.tolerance,
                "status": res.status,
            }
            for res in results
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
