"""Identity registry, check runner, and report rendering.

Every proposition, corollary, forward-difference fact, closed-form product
integral, and pole-order fact of the alpha-calculus gets at least one
registered check.  Exact statements (rational arithmetic, symbolic
collapses) are checked for literal equality; numeric statements carry a
per-check absolute tolerance derived from the kernel accuracy analysis:
~1e-9 for direct kernel identities, 1e-6 for finite-difference checks,
1e-3 for the s -> 1 limit extrapolation.

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
from typing import Callable, Sequence

import numpy as np

from . import calculus, kernels
from .errors import EvaluationError
from .exact import (RatPoly, bernoulli_polynomial, bernoulli_product_integral,
                    poly_eval, poly_integral_01, rational_str, zeta_neg_int_poly)
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
    parameters: dict
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


def _worst_pair(pairs: Sequence[tuple[complex, complex]]) -> tuple[complex, complex]:
    """The (lhs, rhs) pair with the largest absolute discrepancy."""
    return max(pairs, key=lambda p: abs(complex(p[0]) - complex(p[1])))


def _indicator(ok: bool) -> tuple[Fraction, Fraction]:
    return Fraction(1 if ok else 0), Fraction(1)


def _fd_step(alpha: float) -> float:
    return 0.002 * min(1.0, alpha)


def _trapezoid_coeff(f: Callable[[complex], complex], n: int) -> complex:
    """The n-th Taylor coefficient at 0 of f, by the trapezoidal rule on 32
    samples of the circle |t| = 1/2 (Cauchy's integral formula)."""
    points, rho = 32, 0.5
    theta = 2.0 * math.pi * np.arange(points) / points
    samples = np.array([f(t) for t in (rho * np.exp(1j * theta)).tolist()])
    return complex(np.dot(samples, np.exp(-1j * n * theta))) / (points * rho ** n)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def build_registry() -> list[CheckSpec]:
    """All registered checks, sorted by id."""
    specs: list[CheckSpec] = []
    seen: set[str] = set()

    def add(cid: str, description: str, anchor: str, tolerance: float,
            run: Callable[[], tuple], **parameters) -> None:
        if cid in seen:
            raise ValueError(f"duplicate check id {cid!r}")
        seen.add(cid)
        specs.append(CheckSpec(id=cid, description=description,
                               paper_anchor=anchor, parameters=parameters,
                               tolerance=tolerance, run=run))

    # -- Proposition 1: continuity in alpha at 0 / 1 ------------------------

    add("prop1_taylor_alpha_zero", "alpha->0 limit of the complex-alpha path is zeta(s)",
        "Proposition 1", 1e-9,
        lambda: (kernels.hurwitz_taylor(-1.5, 1e-10, 2),
                 kernels.riemann_zeta(-1.5)), s=-1.5)
    add("prop1_taylor_alpha_one", "complex-alpha path at alpha=1 equals zeta(s)",
        "Proposition 1", 1e-10,
        lambda: (kernels.hurwitz_taylor(-2.5, 1.0, 3), kernels.riemann_zeta(-2.5)), s=-2.5)
    add("prop1_s_zero_left_limit", "zeta(s) -> zeta(0) = -1/2 as s -> 0-",
        "Proposition 1", 1e-6,
        lambda: (kernels.riemann_zeta(-1e-7), complex(-0.5)))

    # -- Proposition 2: forward alpha-derivative rule ------------------------

    _prop2_points = {
        0: ((-1.0, 0.5), (2.0, 0.3), (0.75 + 0.75j, 0.8)),
        1: ((-2.5, 0.7), (2.0, 0.3), (1.5 + 1.0j, 1.2)),
        2: ((-1.5, 1.2), (3.0, 0.5)),
    }

    def _prop2(r: int):
        def run():
            pairs = []
            for s, a in _prop2_points[r]:
                lhs = calculus.alpha_derivative(r, s, a)
                rhs = _diff5(lambda x: kernels.hurwitz_zeta_deriv(r, s, x), a, _fd_step(a))
                pairs.append((lhs, rhs))
            return _worst_pair(pairs)
        return run

    for r in (0, 1, 2):
        add(f"prop2_fd_r{r}",
            f"d/da zeta^({r})(s,a) = -{r} zeta^({r - 1})(s+1,a) - s zeta^({r})(s+1,a) vs finite differences",
            "Proposition 2", 1e-6, _prop2(r), r=r, points=_prop2_points[r])

    # -- Proposition 3: derivative at s = 0 is a Stieltjes constant ---------

    def _prop3_fd(r: int):
        def run():
            pairs = []
            for a in (0.7, 1.0):
                lhs = calculus.alpha_derivative_at_zero(r, a)
                rhs = _diff5(lambda x: kernels.hurwitz_zeta_deriv(r, 0.0, x),
                             a, _fd_step(a))
                pairs.append((lhs, rhs))
            return _worst_pair(pairs)
        return run

    for r in (0, 1, 2, 3):
        add(f"prop3_fd_r{r}",
            f"d/da zeta^({r})(0,a) = -{r}! gamma_{r - 1}(a) vs finite differences",
            "Proposition 3", 1e-6, _prop3_fd(r), r=r)

    def _prop3_contour(r: int):
        def run():
            a = 0.8
            lhs = calculus.alpha_derivative_at_zero(r, a)
            # independent route: r-th Taylor coefficient of s*zeta(s+1,a)
            # from raw samples on a circle, without the pole-subtracted kernel
            rhs = -math.factorial(r) * _trapezoid_coeff(
                lambda t: t * kernels.hurwitz_zeta(t + 1.0, a), r)
            return lhs, rhs
        return run

    for r in (1, 2, 3):
        add(f"prop3_contour_r{r}",
            "the same derivative from raw contour samples of s*zeta(s+1,a)",
            "Proposition 3", 1e-8, _prop3_contour(r), r=r, alpha=0.8)

    # -- Proposition 4: alpha-derivative of Stieltjes constants -------------

    def _prop4_fd(r: int):
        def run():
            pairs = []
            for a in (0.8, 1.0):
                lhs = calculus.stieltjes_alpha_derivative(r, a)
                h = 1e-4
                rhs = (kernels.stieltjes(r - 1, a + h)
                       - kernels.stieltjes(r - 1, a - h)) / (2 * h)
                pairs.append((lhs, rhs))
            return _worst_pair(pairs)
        return run

    for r in (1, 2):
        add(f"prop4_fd_r{r}",
            f"d/da gamma_{r - 1}(a) from the closed form vs finite differences",
            "Proposition 4", 1e-6, _prop4_fd(r), r=r)

    add("prop4_closed_r1", "d/da gamma_0(a) = -zeta(2, a)",
        "Proposition 4 / Corollary 2", 1e-9,
        lambda: (calculus.stieltjes_alpha_derivative(1, 1.0),
                 -kernels.hurwitz_zeta(2.0, 1.0)))

    # -- Note: forward difference with log factor ----------------------------

    def _note_fwd(r: int):
        def run():
            pairs = []
            for s in (-2.5, -0.5, 0.5 + 0.5j):
                for a in (0.2, 0.7):
                    lhs = (kernels.hurwitz_zeta_deriv(r, s, a)
                           - kernels.hurwitz_zeta_deriv(r, s, a + 1.0))
                    rhs = cmath.exp(-complex(s) * math.log(a)) * (-math.log(a)) ** r
                    pairs.append((lhs, rhs))
            return _worst_pair(pairs)
        return run

    for r in (0, 1, 2, 3):
        add(f"note_fwd_r{r}",
            f"zeta^({r})(s,a) - zeta^({r})(s,a+1) = a^-s (-log a)^{r}",
            "Note after the Proposition", 1e-8, _note_fwd(r), r=r)

    # -- Corollary 1: antiderivative family ---------------------------------

    def _cor1_collapse(r: int):
        def run():
            collapsed = calculus.antiderivative_alpha_derivative_symbolic(r)
            return _indicator(collapsed == {r: RationalFunctionOfS.one()})
        return run

    for r in range(5):
        add(f"cor1_collapse_r{r}",
            "symbolic d/da of the antiderivative family collapses to zeta^(r)(s,a)",
            "Corollary 1a-f", 0.0, _cor1_collapse(r), r=r)

    add("cor1_coeffs_r1", "antiderivative coefficients for r=1 are (1, 1)",
        "Corollary 1b", 0.0,
        lambda: _indicator(tuple(t.coefficient for t in calculus.antiderivative_terms(1))
                           == (Fraction(1), Fraction(1))))
    add("cor1_coeffs_r2", "antiderivative coefficients for r=2 are (2, 2, 1)",
        "Corollary 1c", 0.0,
        lambda: _indicator(tuple(t.coefficient for t in calculus.antiderivative_terms(2))
                           == (Fraction(2), Fraction(2), Fraction(1))))

    def _cor1_fd(r: int):
        def run():
            pairs = []
            for s, a in ((-0.5, 0.6), (-1.5, 1.1)):
                lhs = _diff5(lambda x: calculus.antiderivative_eval(r, s, x),
                             a, _fd_step(a))
                rhs = kernels.hurwitz_zeta_deriv(r, s, a)
                pairs.append((lhs, rhs))
            return _worst_pair(pairs)
        return run

    for r in (0, 1, 2):
        add(f"cor1_fd_r{r}",
            "d/da of the numeric antiderivative reproduces zeta^(r)(s,a)",
            "Corollary 1f", 1e-6, _cor1_fd(r), r=r)

    add("cor1_value_r0", "antiderivative at s=-1 equals zeta(-2,a)/2 = -B_3(a)/6",
        "Corollary 1a", 1e-11,
        lambda: (calculus.antiderivative_eval(0, -1.0, 0.3),
                 complex(float(poly_eval(zeta_neg_int_poly(2), Fraction(3, 10))) / 2.0)))

    def _cor1_instance():
        lhs = calculus.antiderivative_eval(2, 3.0, 1.0)
        rhs = (2 * kernels.riemann_zeta(2.0) / (-2.0) ** 3
               + 2 * kernels.riemann_zeta_deriv(1, 2.0) / (-2.0) ** 2
               + kernels.riemann_zeta_deriv(2, 2.0) / (-2.0))
        return lhs, rhs

    add("cor1_instance_r2_s3",
        "r=2 antiderivative at s=3, a=1 matches its displayed expansion",
        "Corollary 1c", 1e-12, _cor1_instance)

    # -- Corollary 2: the derivative diagram ---------------------------------

    def _cor2_psi():
        pairs = []
        for a in (0.5, 1.0, 1.5):
            lhs = _diff5(lambda x: kernels.hurwitz_zeta_deriv(1, 0.0, x), a, _fd_step(a))
            pairs.append((lhs, complex(kernels.digamma(a))))
        return _worst_pair(pairs)

    add("cor2_psi_link", "d/da zeta'(0,a) = psi(a)", "Corollary 2", 1e-7, _cor2_psi)

    def _cor2_second():
        pairs = []
        for a in (0.5, 1.0, 1.5):
            lhs = _diff2_5(lambda x: kernels.hurwitz_zeta_deriv(1, 0.0, x),
                           a, 0.01 * min(1.0, a))
            pairs.append((lhs, kernels.hurwitz_zeta(2.0, a)))
        return _worst_pair(pairs)

    add("cor2_second_link", "d^2/da^2 zeta'(0,a) = zeta(2,a)",
        "Corollary 2", 1e-5, _cor2_second)

    def _cor2_gamma1():
        pairs = []
        for a in (0.5, 1.0):
            lhs = _diff5(lambda x: kernels.hurwitz_zeta_deriv(2, 0.0, x), a, _fd_step(a))
            pairs.append((lhs, -2.0 * kernels.stieltjes(1, a)))
        return _worst_pair(pairs)

    add("cor2_gamma1_link", "d/da zeta''(0,a) = -2 gamma_1(a)",
        "Corollary 2", 1e-6, _cor2_gamma1)

    def _cor2_gamma1_chain():
        a, h = 1.0, 1e-4
        lhs = (-2.0 * kernels.stieltjes(1, a + h)
               + 2.0 * kernels.stieltjes(1, a - h)) / (2 * h)
        rhs = 2.0 * (kernels.hurwitz_zeta(2.0, a) + kernels.hurwitz_zeta_deriv(1, 2.0, a))
        return lhs, rhs

    add("cor2_gamma1_chain", "d/da (-2 gamma_1(a)) = 2 (zeta(2,a) + zeta'(2,a))",
        "Corollary 2", 1e-5, _cor2_gamma1_chain)

    add("cor2_euler", "psi(1) = -gamma_0(1), Euler's constant",
        "Corollary 2", 1e-9,
        lambda: (complex(kernels.digamma(1.0)), -kernels.stieltjes(0, 1.0)))

    # -- Corollary 3: the improper integral on [1, inf) ----------------------

    def _cor3(r: int, s: complex):
        def run():
            lhs = calculus.integral_1_inf(r, s)
            big_a = 200.0
            # [1, A] onto (0, 1): the integral is (A-1) times the mapped one
            width = big_a - 1.0
            quad = tanh_sinh_01(
                lambda xs: kernels._zeta_level(r, s, 1.0 + width * xs), 5e-9 / width)
            rhs = width * quad.value - calculus.antiderivative_eval(r, s, big_a)
            return lhs, rhs
        return run

    for r in (0, 1):
        for tag, s in (("s3", 3.0), ("s4", 4.0), ("sc", 3.5 + 0.5j)):
            add(f"cor3_quad_r{r}_{tag}",
                "closed form of the [1,inf) integral vs quadrature plus analytic tail",
                "Corollary 3", 1e-6, _cor3(r, s), r=r, s=str(s))

    add("cor3_exact_r0_s3", "r=0, s=3 value is zeta(2)/2",
        "Corollary 3", 1e-10,
        lambda: (calculus.integral_1_inf(0, 3.0), kernels.riemann_zeta(2.0) / 2.0))

    # -- Corollary 4: zero mean on [0, 1] ------------------------------------

    def _cor4_endpoint(r: int):
        def run():
            vals = [calculus.integral_01(r, s) for s in (-1.0, -0.5, -2.5, 0.3, 0.5 + 0.5j)]
            worst = max(vals, key=abs)
            return worst, 0j
        return run

    for r in (0, 1, 2):
        add(f"cor4_endpoint_r{r}",
            "int_0^1 zeta^(r)(s,a) da vanishes via antiderivative endpoints",
            "Corollary 4", 1e-9, _cor4_endpoint(r), r=r)

    def _cor4_quad(r: int):
        def run():
            vals = []
            for s in (-1.5, 0.3):
                q = tanh_sinh_01(lambda xs: kernels._zeta_level(r, s, xs), 1e-8)
                vals.append(q.value)
            return max(vals, key=abs), 0j
        return run

    for r in (0, 1, 2):
        add(f"cor4_quad_r{r}",
            "the same vanishing integral by tanh-sinh quadrature",
            "Corollary 4", 1e-7, _cor4_quad(r), r=r)

    # -- Corollary 5: the s -> 1- limit --------------------------------------

    def _cor5(s: float):
        def run():
            s1 = s2 = -1.0
            f0 = kernels.riemann_zeta(s1) * kernels.riemann_zeta(s2)

            def integrand(xs):
                f = kernels._zeta_level(0, s1, xs) * kernels._zeta_level(0, s2, xs)
                return (s - 1.0) * kernels._zeta_level(0, s, xs) * (f - f0)

            # int (s-1) zeta(s,a) f0 da = 0 for Re s < 1, so subtracting the
            # constant f0 changes nothing analytically but removes the
            # a^(1-s) boundary layer that no double-precision node can reach.
            lhs = tanh_sinh_01(integrand, 1e-9).value
            rhs = pair_limit_weighted(s1, s2)
            return lhs, rhs
        return run

    for tag, s, tol in (("s09", 0.9, 5e-2), ("s099", 0.99, 5e-3), ("s0999", 0.999, 1e-3)):
        add(f"cor5_limit_{tag}",
            f"weighted triple integral at s={s} approaches the pair-integral deficit",
            "Corollary 5", tol, _cor5(s), s=s, s1=-1.0, s2=-1.0)

    add("cor5_zero_cross", "s1=-1, s2=-2 limit vanishes (cos factor and zeta(-2))",
        "Corollary 5", 1e-12,
        lambda: (pair_limit_weighted(-1.0, -2.0), 0j))

    # -- Corollary 6: exact Bernoulli product integrals ----------------------

    def _cor6_multisets(max_total: int = 12) -> list[tuple[int, ...]]:
        out = []
        for m1 in range(1, max_total + 1):
            out.append((m1,))
            for m2 in range(m1, max_total + 1):
                if m1 + m2 > max_total:
                    break
                out.append((m1, m2))
                for m3 in range(m2, max_total + 1):
                    if m1 + m2 + m3 > max_total:
                        break
                    out.append((m1, m2, m3))
        return out

    def _cor6_two_paths():
        ok = True
        for ms in _cor6_multisets():
            prod = RatPoly.one()
            for m in ms:
                prod = prod * bernoulli_polynomial(m)
            if bernoulli_product_integral(ms) != poly_integral_01(prod):
                ok = False
                break
        return _indicator(ok)

    add("cor6_two_paths",
        "product integrals agree between the Bernoulli-basis and antiderivative routes",
        "Corollary 6", 0.0, _cor6_two_paths, max_index_sum=12)

    def _cor6_odd_zero():
        ok = all(bernoulli_product_integral(ms) == 0
                 for ms in _cor6_multisets(15) if sum(ms) % 2 == 1)
        return _indicator(ok)

    add("cor6_odd_zero", "odd total degree forces an exactly zero integral",
        "Corollary 6", 0.0, _cor6_odd_zero, max_index_sum=15)

    add("cor6_value_11", "int B_1^2 = 1/12", "Corollary 6", 0.0,
        lambda: (bernoulli_product_integral((1, 1)), Fraction(1, 12)))
    add("cor6_value_22", "int B_2^2 = 1/180", "Corollary 6", 0.0,
        lambda: (bernoulli_product_integral((2, 2)), Fraction(1, 180)))
    add("cor6_value_12", "int B_1 B_2 = 0", "Corollary 6", 0.0,
        lambda: (bernoulli_product_integral((1, 2)), Fraction(0)))

    # -- Corollaries 7/8: IBP reduction --------------------------------------

    def _random_cases(r: int, count: int, seed: int):
        rng = random.Random(seed)
        cases = []
        for _ in range(count):
            ms = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
            s = complex(rng.uniform(-1.6, 0.55), rng.uniform(-0.4, 0.4))
            cases.append((ms, s))
        return cases

    def _cor78_quad(r: int, count: int, seed: int):
        def run():
            pairs = []
            for ms, s in _random_cases(r, count, seed):
                lc = integral_poly_zeta(ms, r)
                lhs = eval_combination(lc, s)
                prod = RatPoly.one()
                for m in ms:
                    prod = prod * zeta_neg_int_poly(m)

                def integrand(xs, _p=prod, _s=s):
                    return _p.evaluate_complex(xs) * kernels._zeta_level(r, _s, xs)

                rhs = tanh_sinh_01(integrand, 1e-9).value
                pairs.append((lhs, rhs))
            return _worst_pair(pairs)
        return run

    add("cor7_random_quad",
        "six random reductions match tanh-sinh quadrature (r=0)",
        "Corollary 7", 1e-7, _cor78_quad(0, 6, 20260711), r=0)
    add("cor8_random_quad",
        "four random reductions match tanh-sinh quadrature (r=1)",
        "Corollary 8", 1e-7, _cor78_quad(1, 4, 20260712), r=1)

    def _cor7_exact_negint():
        pairs = []
        for ms, m in (((1,), 2), ((0, 2), 3), ((2, 2), 1)):
            lc = integral_poly_zeta(ms, 0)
            lhs = eval_combination(lc, complex(-m))
            prod = zeta_neg_int_poly(m)
            for mi in ms:
                prod = prod * zeta_neg_int_poly(mi)
            pairs.append((lhs, complex(float(poly_integral_01(prod)))))
        return _worst_pair(pairs)

    add("cor7_exact_negint",
        "polynomial-valued cases reproduce the exact rational integral",
        "Corollary 7", 1e-12, _cor7_exact_negint)

    def _cor7_shift_bound():
        ok = True
        for ms in ((0,), (1,), (0, 1), (2, 2), (1, 2, 3)):
            n = sum(m + 1 for m in ms)
            lc = integral_poly_zeta(ms, 0)
            for atom in lc.atoms():
                if not (1 <= atom.shift <= n and atom.deriv_order == 0):
                    ok = False
        return _indicator(ok)

    add("cor7_shift_bound", "atom shifts stay within 1..N and order 0",
        "Corollary 7", 0.0, _cor7_shift_bound)

    def _cor7_symbolic_i1():
        expected = LinearCombination({
            DerivAtom(0, 1): RationalFunctionOfS(RatPoly((-1,)), RatPoly((-1, 1))),
        })
        return _indicator(reduce_monomial(1, 0) == expected)

    add("cor7_symbolic_i1", "int a zeta(s,a) da reduces to zeta(s-1)/(1-s)",
        "Corollary 7", 0.0, _cor7_symbolic_i1)

    def _cor7_symbolic_i2():
        s_minus_1 = RatPoly((-1, 1))
        s_minus_2 = RatPoly((-2, 1))
        expected = LinearCombination({
            DerivAtom(0, 1): RationalFunctionOfS(RatPoly((-1,)), s_minus_1),
            DerivAtom(0, 2): RationalFunctionOfS(RatPoly((-2,)), s_minus_1 * s_minus_2),
        })
        return _indicator(reduce_monomial(2, 0) == expected)

    add("cor7_symbolic_i2",
        "int a^2 zeta(s,a) da reduces to zeta(s-1)/(1-s) + 2 zeta(s-2)/((s-1)(2-s))",
        "Corollary 7", 0.0, _cor7_symbolic_i2)

    def _cor8_symbolic_i1():
        s_minus_1 = RatPoly((-1, 1))
        expected = LinearCombination({
            DerivAtom(1, 1): RationalFunctionOfS(RatPoly((-1,)), s_minus_1),
            DerivAtom(0, 1): RationalFunctionOfS(RatPoly((1,)), s_minus_1 * s_minus_1),
        })
        return _indicator(reduce_monomial(1, 1) == expected)

    add("cor8_symbolic_i1",
        "int a zeta'(s,a) da reduces to zeta'(s-1)/(1-s) + zeta(s-1)/(1-s)^2",
        "Corollary 8", 0.0, _cor8_symbolic_i1)

    def _cor8_shift_bound():
        lc = integral_poly_zeta((1, 2), 1)
        n = 5
        ok = all(1 <= atom.shift <= n and atom.deriv_order <= 1
                 for atom in lc.atoms())
        return _indicator(ok and lc.max_shift() == n)

    add("cor8_shift_bound", "ms=(1,2), r=1 atoms stay within order <=1, shifts 1..5",
        "Corollary 8", 0.0, _cor8_shift_bound)

    # -- Corollary 9: the triple-product evaluation ---------------------------

    add("cor9_value_s2", "closed form at s=2 equals -1/360",
        "Corollary 9", 1e-10,
        lambda: (triple_product_integral(2.0), complex(-1.0 / 360.0)))

    def _cor9_exact_s3():
        lhs = triple_product_integral(3.0)
        integrand = (zeta_neg_int_poly(0) * zeta_neg_int_poly(2)
                     * zeta_neg_int_poly(1))
        return lhs, complex(float(poly_integral_01(integrand)))

    add("cor9_exact_s3", "closed form at s=3 equals the exact polynomial integral",
        "Corollary 9", 1e-12, _cor9_exact_s3)

    def _cor9_quad_s25():
        s = 2.5
        lhs = triple_product_integral(s)

        def integrand(xs):
            return (kernels._zeta_level(0, 0.0, xs)
                    * kernels._zeta_level(0, 1.0 - s, xs)
                    * kernels._zeta_level(0, 2.0 - s, xs))

        rhs = tanh_sinh_01(integrand, 1e-9).value
        return lhs, rhs

    add("cor9_quad_s25", "closed form at s=2.5 matches tanh-sinh quadrature",
        "Corollary 9", 1e-8, _cor9_quad_s25)

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

    def _pair_quad():
        lhs = pair_integral(-0.5, -1.5)
        rhs = tanh_sinh_01(
            lambda xs: (kernels._zeta_level(0, -0.5, xs)
                        * kernels._zeta_level(0, -1.5, xs)), 1e-10).value
        return lhs, rhs

    add("pair_quad", "pair integral at (-0.5, -1.5) matches tanh-sinh quadrature",
        "pair-integral closed form", 1e-8, _pair_quad)

    # -- Pole-order facts ------------------------------------------------------

    add("pole_zeta_order2", "eps^2 zeta(2, eps) -> 1",
        "pole structure in alpha", 1e-6,
        lambda: (1e-8 * kernels.hurwitz_zeta(2.0, 1e-4), complex(1.0)))

    def _pole_zeta_trend():
        devs = [abs(e * e * kernels.hurwitz_zeta(2.0, e) - 1.0)
                for e in (1e-2, 1e-3, 1e-4)]
        return _indicator(devs[0] > 5 * devs[1] > 25 * devs[2])

    add("pole_zeta_trend", "the deviation decays at least linearly in eps",
        "pole structure in alpha", 0.0, _pole_zeta_trend)

    add("pole_psi_simple", "eps psi(eps) -> -1 via the recurrence",
        "pole structure in alpha", 1e-3,
        lambda: (complex(1e-4 * (kernels.digamma(1.0 + 1e-4) - 1.0 / 1e-4)),
                 complex(-1.0)))

    def _pole_psi_trend():
        devs = []
        for e in (1e-2, 1e-3, 1e-4):
            psi_eps = kernels.digamma(1.0 + e) - 1.0 / e
            devs.append(abs(e * psi_eps + 1.0))
        return _indicator(devs[0] > 5 * devs[1] > 25 * devs[2])

    add("pole_psi_trend", "the psi deviation decays at least linearly in eps",
        "pole structure in alpha", 0.0, _pole_psi_trend)

    def _pole_psi_chain():
        a, h = 0.5, 1e-4
        lhs = (kernels.digamma(a + h) - kernels.digamma(a - h)) / (2 * h)
        rhs = calculus.psi_chain(1, a)
        return complex(lhs), rhs

    add("pole_psi_chain_r1", "d/da psi(a) = zeta(2, a)",
        "psi derivative chain", 1e-6, _pole_psi_chain)
    add("pole_psi_chain_r2", "d^2/da^2 psi(a) = -2 zeta(3, a) at a=1",
        "psi derivative chain", 1e-9,
        lambda: (calculus.psi_chain(2, 1.0), -2.0 * kernels.riemann_zeta(3.0)))

    # -- Kernel cross-validation (supporting checks) ---------------------------

    def _kernel_taylor_cross():
        pairs = []
        for s in (-2.5, -1.5, -0.5, 0.75, 2.5):
            for a in (0.3, 0.7, 1.2, 1.6):
                pairs.append((kernels.hurwitz_taylor(s, a, 3), kernels.hurwitz_zeta(s, a)))
        return _worst_pair(pairs)

    add("kernel_taylor_cross",
        "complex-alpha path plus the shift vs the real-alpha path on a 20-point grid",
        "Taylor continuation in the disc |alpha| < k", 1e-9, _kernel_taylor_cross)

    def _kernel_neg_int_poly():
        pairs = []
        for m in range(9):
            poly = zeta_neg_int_poly(m)
            for tenths in range(1, 20, 3):
                a = Fraction(tenths, 10)
                pairs.append((kernels.hurwitz_zeta(-m, float(a)),
                              complex(float(poly_eval(poly, a)))))
        return _worst_pair(pairs)

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
        return CheckResult(id=spec.id, description=spec.description,
                           paper_anchor=spec.paper_anchor, lhs=None, rhs=None,
                           abs_error=math.inf, tolerance=spec.tolerance,
                           status=f"skipped({exc})")
    if isinstance(lhs, Fraction) and isinstance(rhs, Fraction):
        abs_error = 0.0 if lhs == rhs else abs(float(lhs - rhs))
        passed = lhs == rhs
    else:
        lhs = complex(lhs)
        rhs = complex(rhs)
        abs_error = abs(lhs - rhs)
        passed = abs_error <= spec.tolerance
    return CheckResult(id=spec.id, description=spec.description,
                       paper_anchor=spec.paper_anchor, lhs=lhs, rhs=rhs,
                       abs_error=abs_error, tolerance=spec.tolerance,
                       status="pass" if passed else "fail")


def run_checks(filter: str | None = None) -> list[CheckResult]:
    """Execute every registered check whose id starts with ``filter``.

    Individual check failures are results, not errors; kernel evaluation
    errors become skipped(reason) results.  Results are ordered by id.
    """
    results = [
        _execute(spec)
        for spec in build_registry()
        if filter is None or spec.id.startswith(filter)
    ]
    return sorted(results, key=lambda res: res.id)


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
