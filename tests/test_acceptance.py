"""Acceptance suite: every criterion at its stated tolerance.

Each test covers one numbered criterion and prints one pass/fail line (shown
with `pytest -s`; under plain pytest the per-test result line serves the same
purpose).  Expected values come from independent oracles: the exact rational
module, closed forms, finite differences, and the quadrature module.
"""

import json
import math
import random
from fractions import Fraction
from math import comb

from conftest import central, diff5
from zetalab import calculus
from zetalab.checks import run_checks
from zetalab.cli import main
from zetalab.exact import (RatPoly, bernoulli_number, bernoulli_polynomial,
                           bernoulli_product_integral, poly_integral_01,
                           zeta_neg_int_poly)
from zetalab.kernels import (digamma, hurwitz_taylor, hurwitz_zeta,
                             hurwitz_zeta_deriv, riemann_zeta, stieltjes)
from zetalab.quadrature import tanh_sinh_01
from zetalab.reduction import (eval_combination, integral_poly_zeta,
                               pair_integral, pair_limit_weighted,
                               triple_product_integral)

def report(n: int, detail: str):
    print(f"criterion {n:2d}: PASS  ({detail})")


def multisets(max_total):
    out = []
    for m1 in range(1, max_total + 1):
        out.append((m1,))
        for m2 in range(m1, max_total + 1 - m1):
            out.append((m1, m2))
            for m3 in range(m2, max_total + 1 - m1 - m2):
                out.append((m1, m2, m3))
    return [ms for ms in out if sum(ms) <= max_total]


def test_criterion_01_exact_bernoulli_suite():
    # recurrence oracle up to n = 30
    for m in range(1, 31):
        assert sum(comb(m + 1, k) * bernoulli_number(k) for k in range(m + 1)) == 0
    # product integrals vs the independent antiderivative path, sum <= 12
    count = 0
    for ms in multisets(12):
        prod = RatPoly((1,))
        for m in ms:
            prod = prod * bernoulli_polynomial(m)
        assert bernoulli_product_integral(ms) == poly_integral_01(prod), ms
        if sum(ms) % 2 == 1:
            assert bernoulli_product_integral(ms) == 0, ms
        count += 1
    report(1, f"recurrence n<=30; {count} product multisets, two paths + odd-zero")


def test_criterion_02_kernel_cross_validation():
    worst = 0.0
    points = 0
    for s in (-2.5, -1.5, -0.5, 0.75, 2.5):
        for a in (0.3, 0.7, 1.2, 1.6):
            d = abs(hurwitz_taylor(s, a, 3) - hurwitz_zeta(s, a))
            worst = max(worst, d)
            points += 1
    assert points == 20 and worst <= 1e-9
    worst_poly = 0.0
    for m in range(9):
        poly = zeta_neg_int_poly(m)
        for tenths in range(1, 20):
            a = Fraction(tenths, 10)
            d = abs(hurwitz_zeta(-float(m), float(a)) - float(poly.evaluate(a)))
            worst_poly = max(worst_poly, d)
    assert worst_poly <= 1e-10
    report(2, f"taylor-vs-EM worst {worst:.2e} <= 1e-9; "
              f"zeta(-m,a) worst {worst_poly:.2e} <= 1e-10")


def test_criterion_03_forward_difference():
    worst = 0.0
    for r in range(4):
        for s in (-2.5, -0.5, 0.5 + 0.5j):
            for a in (0.2, 0.7):
                lhs = (hurwitz_zeta_deriv(r, s, a)
                       - hurwitz_zeta_deriv(r, s, a + 1.0))
                rhs = a ** (-complex(s)) * (-math.log(a)) ** r
                worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-8
    report(3, f"worst residual {worst:.2e} <= 1e-8 over r<=3 grid")


def test_criterion_04_alpha_derivative_rule():
    points = [(0, -1.0, 0.5), (0, 2.0, 0.3), (0, 0.75 + 0.75j, 0.8),
              (1, -2.5, 0.7), (1, 2.0, 0.3), (1, 1.5 + 1.0j, 1.2),
              (2, -1.5, 1.2), (2, 3.0, 0.5)]
    worst = 0.0
    for r, s, a in points:
        lhs = calculus.alpha_derivative(r, s, a)
        rhs = diff5(lambda x: hurwitz_zeta_deriv(r, s, x),
                    a, 0.002 * min(1.0, a))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-6
    report(4, f"worst residual {worst:.2e} <= 1e-6 at 8 points, r <= 2")


def test_criterion_05_stieltjes_chain():
    worst_fd = 0.0
    for r in range(4):
        for a in (0.7, 1.0):
            lhs = calculus.alpha_derivative_at_zero(r, a)
            rhs = diff5(lambda x: hurwitz_zeta_deriv(r, 0.0, x),
                        a, 0.002 * min(1.0, a))
            worst_fd = max(worst_fd, abs(lhs - rhs))
    assert worst_fd <= 1e-6

    h, a = 1e-4, 1.0
    d_gamma0 = (stieltjes(0, a + h) - stieltjes(0, a - h)) / (2 * h)
    assert abs(d_gamma0 + hurwitz_zeta(2.0, a)) <= 1e-5
    d_gamma1 = (stieltjes(1, a + h) - stieltjes(1, a - h)) / (2 * h)
    expected = -(hurwitz_zeta(2.0, a) + hurwitz_zeta_deriv(1, 2.0, a))
    assert abs(d_gamma1 - expected) <= 1e-5

    assert abs(complex(digamma(1.0)) + stieltjes(0, 1.0)) <= 1e-9

    worst_psi = 0.0
    for a in (0.5, 1.0, 1.5):
        fd = central(digamma, a, 1e-4)
        worst_psi = max(worst_psi, abs(fd - hurwitz_zeta(2.0, a)))
    assert worst_psi <= 1e-6
    report(5, f"d/da zeta^(r)(0,.) worst {worst_fd:.2e}; gamma chain <= 1e-5; "
              f"psi(1) = -gamma_0(1); d/da psi worst {worst_psi:.2e}")


def test_criterion_06_antiderivative_family():
    for r in range(7):
        collapsed = calculus.antiderivative_alpha_derivative_symbolic(r)
        assert collapsed == {r: {0: 1}}, r
    assert tuple(t.coefficient for t in calculus.antiderivative_terms(1)) == \
        (Fraction(1), Fraction(1))
    assert tuple(t.coefficient for t in calculus.antiderivative_terms(2)) == \
        (Fraction(2), Fraction(2), Fraction(1))
    report(6, "symbolic collapse exact for r<=6; r=1,2 coefficient displays literal")


def test_criterion_07_improper_integral():
    worst = 0.0
    for r in (0, 1):
        for s in (3.0, 4.0, 3.5 + 0.5j):
            closed = calculus.integral_1_inf(r, s)
            big_a = 200.0
            # [1, A] onto (0, 1) by the affine map a = 1 + (A-1) x
            width = big_a - 1.0
            quad = tanh_sinh_01(
                lambda xs: [hurwitz_zeta_deriv(r, s, 1.0 + width * x) for x in xs.tolist()],
                5e-9 / width)
            tail = -calculus.antiderivative_eval(r, s, big_a)
            worst = max(worst, abs(closed - (width * quad.value + tail)))
    assert worst <= 1e-6
    exact = abs(calculus.integral_1_inf(0, 3.0) - math.pi ** 2 / 12.0)
    assert exact <= 1e-10
    report(7, f"quad+tail worst {worst:.2e} <= 1e-6; r0 s3 vs zeta(2)/2 {exact:.2e}")


def test_criterion_08_zero_mean_interval():
    worst_quad = 0.0
    for r in (0, 1, 2):
        for s in (-1.5, -0.5, 0.3):
            q = tanh_sinh_01(
                lambda xs: [hurwitz_zeta_deriv(r, s, a) for a in xs.tolist()], 1e-8)
            worst_quad = max(worst_quad, abs(q.value))
    assert worst_quad <= 1e-7
    report(8, f"tanh-sinh worst {worst_quad:.2e} <= 1e-7")


def test_criterion_09_reduction_vs_quadrature():
    rng = random.Random(20260809)
    worst = 0.0
    for case in range(10):
        r = 0 if case < 6 else 1
        ms = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        s = complex(rng.uniform(-1.6, 0.55), rng.uniform(-0.4, 0.4))
        lc = integral_poly_zeta(ms, r)
        n = sum(m + 1 for m in ms)
        assert all(1 <= atom.shift <= n and atom.deriv_order <= r
                   for atom in lc.atoms()), (ms, r)
        prod = RatPoly((1,))
        for m in ms:
            prod = prod * zeta_neg_int_poly(m)
        quad = tanh_sinh_01(
            lambda xs: [prod.evaluate_complex(a) * hurwitz_zeta_deriv(r, s, a)
                        for a in xs.tolist()], 1e-9)
        worst = max(worst, abs(eval_combination(lc, s) - quad.value))
    assert worst <= 1e-7

    worst_exact = 0.0
    for ms, m in (((0,), 1), ((1,), 2), ((0, 2), 3), ((2, 2), 1)):
        lc = integral_poly_zeta(ms, 0)
        prod = zeta_neg_int_poly(m)
        for mi in ms:
            prod = prod * zeta_neg_int_poly(mi)
        d = abs(eval_combination(lc, complex(-m)) - float(poly_integral_01(prod)))
        worst_exact = max(worst_exact, d)
    assert worst_exact <= 1e-12
    report(9, f"10 random cases worst {worst:.2e} <= 1e-7; "
              f"polynomial cases worst {worst_exact:.2e}; shifts within N")


def test_criterion_10_product_integral_closed_forms():
    assert abs(pair_integral(0.0, 0.0) - 1.0 / 12.0) <= 1e-10
    assert abs(pair_integral(-1.0, -1.0) - 1.0 / 720.0) <= 1e-10
    assert abs(triple_product_integral(2.0) + 1.0 / 360.0) <= 1e-10

    s, s1 = 0.999, -1.0
    f0 = riemann_zeta(s1) ** 2

    def integrand(a):
        f = hurwitz_zeta(s1, a) ** 2
        return (s - 1.0) * hurwitz_zeta(s, a) * (f - f0)

    # subtracting f0 uses int_0^1 zeta(s,a) da = 0 (criterion 8) to remove
    # the a^(1-s) boundary layer below double-precision resolution
    limit = tanh_sinh_01(lambda xs: [integrand(a) for a in xs.tolist()], 1e-9).value
    target = pair_limit_weighted(s1, s1)
    assert abs(target + 1.0 / 180.0) <= 1e-12
    assert abs(limit - target) <= 1e-3
    report(10, f"pair values and triple value <= 1e-10; "
               f"s=0.999 limit deviation {abs(limit - target):.2e} <= 1e-3")


def test_criterion_11_pole_structure():
    zeta_devs = []
    psi_devs = []
    for eps in (1e-2, 1e-3, 1e-4):
        zeta_devs.append(abs(eps * eps * hurwitz_zeta(2.0, eps) - 1.0))
        psi_eps = digamma(1.0 + eps) - 1.0 / eps
        psi_devs.append(abs(eps * psi_eps + 1.0))
    # at least first-order convergence along the ladder
    assert zeta_devs[0] > 5 * zeta_devs[1] > 25 * zeta_devs[2]
    assert psi_devs[0] > 5 * psi_devs[1] > 25 * psi_devs[2]
    assert zeta_devs[2] <= 1e-6 and psi_devs[2] <= 1e-3
    report(11, f"eps^2 zeta(2,eps)-1: {['%.1e' % d for d in zeta_devs]}; "
               f"eps psi(eps)+1: {['%.1e' % d for d in psi_devs]}")


def test_criterion_12_report_determinism(tmp_path):
    paths = [tmp_path / "one.json", tmp_path / "two.json"]
    codes = [main(["verify", "--format", "json", "--out", str(p)]) for p in paths]
    blobs = [p.read_bytes() for p in paths]
    assert codes == [0, 0]
    assert blobs[0] == blobs[1]
    doc = json.loads(blobs[0])
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["passed"] == len(doc["checks"])
    report(12, f"two runs byte-identical ({len(blobs[0])} bytes), exit code 0, "
               f"{doc['summary']['passed']} checks passed")


def test_full_registry_is_green():
    results = run_checks()
    bad = [r for r in results if r.status != "pass"]
    assert not bad, [(r.id, r.status) for r in bad]
