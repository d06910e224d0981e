"""Alpha-calculus layer: antiderivatives, forward rule, Stieltjes chain,
the zero mean over [0, 1], and the integral over [1, inf)."""

import math
from fractions import Fraction

import pytest

from conftest import TARGET_IDS, TARGETS, central, diff5
from zetalab import kernels
from zetalab.calculus import (AntiderivativeTerm, alpha_derivative,
                              alpha_derivative_at_zero,
                              antiderivative_alpha_derivative_symbolic,
                              antiderivative_eval, antiderivative_terms,
                              integral_1_inf, psi_chain,
                              stieltjes_alpha_derivative)
from zetalab.errors import DomainError, NumericOverflowError, PoleProximityError
from zetalab.exact import zeta_neg_int_poly
from zetalab.kernels import (digamma, hurwitz_zeta, hurwitz_zeta_deriv,
                             riemann_zeta, riemann_zeta_deriv, stieltjes)
from zetalab.quadrature import tanh_sinh_01

from test_kernels import zeta_prime_2_oracle

class TestAntiderivativeTerms:
    @pytest.mark.parametrize("r, coeffs", [
        (0, (1,)),
        (1, (1, 1)),
        (2, (2, 2, 1)),
        (3, (6, 6, 3, 1)),
    ])
    def test_coefficients(self, r, coeffs):
        terms = antiderivative_terms(r)
        assert tuple(t.coefficient for t in terms) == tuple(map(Fraction, coeffs))
        assert tuple(t.pole_power for t in terms) == tuple(r + 1 - l for l in range(r + 1))
        assert all(t.coefficient == Fraction(math.factorial(r), math.factorial(t.deriv_order))
                   for t in terms)

    def test_first_term(self):
        assert antiderivative_terms(0) == (
            AntiderivativeTerm(deriv_order=0, coefficient=Fraction(1), pole_power=1),)

    def test_order_guard(self):
        with pytest.raises(ValueError):
            antiderivative_terms(7)


class TestSymbolicCollapse:
    @pytest.mark.parametrize("r", range(7))
    def test_collapses_to_single_term(self, r):
        collapsed = antiderivative_alpha_derivative_symbolic(r)
        assert collapsed == {r: {0: 1}}
        assert type(collapsed[r][0]) is Fraction


class TestAntiderivativeEval:
    def test_exact_polynomial_value(self):
        # r=0, s=-1: F(a) = zeta(-2, a)/2 = -B_3(a)/6
        for tenths in (3, 7, 11):
            a = Fraction(tenths, 10)
            expected = float(zeta_neg_int_poly(2).evaluate(a)) / 2.0
            got = antiderivative_eval(0, -1.0, float(a))
            assert abs(got - expected) < 1e-11

    def test_fd_reproduces_zeta_r0(self):
        s, a, h = -0.5, 0.6, 1e-5
        fd = central(lambda x: antiderivative_eval(0, s, x), a, h)
        assert abs(fd - hurwitz_zeta(s, a)) < 1e-6

    @pytest.mark.parametrize("r", [0, 1, 2, 3])
    def test_fd_reproduces_zeta_grid(self, r):
        # 12-point antiderivative property grid, Re s < 1
        for s in (-0.5, -1.5, 0.3):
            for a in (0.6, 1.1):
                fd = diff5(lambda x: antiderivative_eval(r, s, x),
                           a, 0.002 * min(1.0, a))
                assert abs(fd - hurwitz_zeta_deriv(r, s, a)) < 1e-6, (r, s, a)

    def test_instance_r2_s3(self):
        got = antiderivative_eval(2, 3.0, 1.0)
        expected = (2 * riemann_zeta(2.0) / (-2.0) ** 3
                    + 2 * riemann_zeta_deriv(1, 2.0) / (-2.0) ** 2
                    + riemann_zeta_deriv(2, 2.0) / (-2.0))
        assert abs(got - expected) < 1e-12

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            antiderivative_eval(1, 1.1, 0.5)


class TestAlphaDerivative:
    def test_r0_exact_zero(self):
        # -(-1) * zeta(0, 1/2) = 0
        assert abs(alpha_derivative(0, -1.0, 0.5)) < 1e-13

    @pytest.mark.parametrize("r, s, a", [
        (0, -1.0, 0.5), (0, 2.0, 0.3),
        (1, -2.5, 0.7), (1, 2.0, 0.3),
        (2, -1.5, 1.2), (2, 2.0, 1.0),
    ])
    def test_vs_finite_difference(self, r, s, a):
        fd = diff5(lambda x: hurwitz_zeta_deriv(r, s, x), a, 0.002 * min(1.0, a))
        assert abs(alpha_derivative(r, s, a) - fd) < 1e-6

    def test_near_zero_s_raises(self):
        with pytest.raises(PoleProximityError):
            alpha_derivative(1, 1e-12, 0.7)


class TestAlphaDerivativeAtZero:
    def test_r0_is_minus_one(self):
        for a in (0.4, 1.0, 1.7):
            assert abs(alpha_derivative_at_zero(0, a) - (-1.0)) < 1e-12

    def test_r1_at_one_is_minus_euler(self):
        assert abs(alpha_derivative_at_zero(1, 1.0) - (-0.5772156649015329)) < 1e-11

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_vs_finite_difference(self, r):
        a = 1.0
        fd = diff5(lambda x: hurwitz_zeta_deriv(r, 0.0, x), a, 0.002)
        assert abs(alpha_derivative_at_zero(r, a) - fd) < 1e-6

    def test_r2_is_minus_two_gamma1(self):
        got = alpha_derivative_at_zero(2, 1.0)
        assert abs(got - (-2.0 * stieltjes(1, 1.0))) < 1e-11

    def test_r0_refuses_bad_alpha(self):
        # -0! gamma_{-1}(a) is -1 only for a > 0
        with pytest.raises(DomainError):
            alpha_derivative_at_zero(0, -1.0)


class TestStieltjesAlphaDerivative:
    def test_r1_is_minus_zeta2(self):
        assert abs(stieltjes_alpha_derivative(1, 1.0) + math.pi ** 2 / 6.0) < 1e-10

    def test_r2_value(self):
        got = stieltjes_alpha_derivative(2, 1.0)
        expected = -(math.pi ** 2 / 6.0 + zeta_prime_2_oracle())
        assert abs(got - expected) < 1e-9

    def test_vs_finite_difference(self):
        a, h = 0.8, 1e-4
        fd = (stieltjes(0, a + h) - stieltjes(0, a - h)) / (2 * h)
        assert abs(stieltjes_alpha_derivative(1, a) - fd) < 1e-6

    def test_domain(self):
        with pytest.raises(DomainError):
            stieltjes_alpha_derivative(1, -0.5)
        with pytest.raises(ValueError):
            stieltjes_alpha_derivative(0, 1.0)

    def test_nan_alpha_is_a_domain_error(self):
        with pytest.raises(DomainError) as info:
            stieltjes_alpha_derivative(1, float("nan"))
        assert str(info.value) == "stieltjes_alpha_derivative got NaN for alpha"

    def test_overflow_is_not_returned(self):
        # zeta(2 + t, 1e-300) overflows in the head
        with pytest.raises(NumericOverflowError):
            stieltjes_alpha_derivative(2, 1e-300)


class TestPsiChain:
    def test_r1_at_one(self):
        assert abs(psi_chain(1, 1.0) - math.pi ** 2 / 6.0) < 1e-12

    def test_r2_at_one(self):
        got = psi_chain(2, 1.0)
        assert abs(got - (-2.0 * riemann_zeta(3.0))) < 1e-12
        assert abs(got - (-2.4041138063191884)) < 1e-9

    def test_vs_finite_difference(self):
        a, h = 0.5, 1e-4
        fd = (digamma(a + h) - digamma(a - h)) / (2 * h)
        assert abs(psi_chain(1, a) - fd) < 1e-6

    def test_order_guard(self):
        with pytest.raises(ValueError):
            psi_chain(0, 1.0)

    def test_largest_order_below_overflow(self):
        # 170! is the last factorial below the largest double; the product
        # order (-1)^(r-1) * r! * zeta(r+1, a) is kept bit for bit
        assert psi_chain(170, 1.0) == -7.257415615307999e306

    def test_factorial_overflow_is_an_evaluation_error(self):
        with pytest.raises(NumericOverflowError):
            psi_chain(171, 1.0)

    def test_non_finite_value_is_not_returned(self):
        # 170! * zeta(171, 0.5) ~ 2^171 * 170! is past the largest double
        with pytest.raises(NumericOverflowError):
            psi_chain(170, 0.5)


class TestZeroMeanOnUnitInterval:
    """Corollary 4: int_0^1 zeta^(r)(s, a) da = 0 for Re s < 1."""

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("s", [-2.5, -0.5, 0.3, 0.5 + 0.5j])
    def test_quadrature_vanishes(self, r, s):
        q = tanh_sinh_01(
            lambda xs: [hurwitz_zeta_deriv(r, s, a) for a in xs.tolist()], 1e-8)
        assert abs(q.value) <= 1e-9

    @pytest.mark.parametrize("r", [0, 1, 2])
    @pytest.mark.parametrize("s", [-2.5, -0.5, 0.3, 0.5 + 0.5j])
    def test_unit_shift_gap_vanishes_at_zero(self, r, s):
        # F(a) - F(a+1) = sum_l c_l (-log a)^l a^(1-s)/(1-s)^(r+1-l), from
        # zeta(s-1, a) - zeta(s-1, a+1) = a^(1-s); it tends to 0 as a -> 0+
        # when Re s < 1, which is why F(0+) = F(1)
        s = complex(s)
        for a in (0.5, 1e-2, 1e-4, 1e-6):
            gap = sum(float(t.coefficient) * (-math.log(a)) ** t.deriv_order
                      * a ** (1.0 - s) / (1.0 - s) ** t.pole_power
                      for t in antiderivative_terms(r))
            shifted = antiderivative_eval(r, s, a) - antiderivative_eval(r, s, a + 1.0)
            assert abs(shifted - gap) <= 1e-12, (a, shifted, gap)


class TestIntegral1Inf:
    def test_r0_s3(self):
        assert abs(integral_1_inf(0, 3.0) - math.pi ** 2 / 12.0) < 1e-10

    def test_r0_s4(self):
        assert abs(integral_1_inf(0, 4.0) - riemann_zeta(3.0) / 3.0) < 1e-11

    def test_r1_s3(self):
        # -zeta(2)/4 + zeta'(2)/2, both factors from independent oracles
        expected = -(math.pi ** 2 / 6.0) / 4.0 + zeta_prime_2_oracle() / 2.0
        got = integral_1_inf(1, 3.0)
        assert abs(got - expected) < 1e-9
        assert abs(got - (-0.8800076438699785)) < 1e-9

    def test_precondition(self):
        with pytest.raises(DomainError):
            integral_1_inf(0, 2.0)
        with pytest.raises(ValueError):
            integral_1_inf(7, 3.0)


class TestOrdersFiveAndSix:
    """The calculus takes every kernel order, 0..6; orders 5 and 6 against
    mpmath (optional), at 20 digits."""

    @pytest.mark.parametrize("r", [5, 6])
    def test_antiderivative_fd_vs_mpmath(self, r):
        mp = pytest.importorskip("mpmath")
        for s in (-0.5, -1.5, 0.3):
            for a in (0.6, 1.1):
                fd = diff5(lambda x: antiderivative_eval(r, s, x), a, 0.002 * min(1.0, a))
                with mp.workdps(20):
                    ref = complex(mp.zeta(s, a, r))
                assert abs(fd - ref) <= 1e-7 * abs(ref), (s, a)

    @pytest.mark.parametrize("r", [5, 6])
    def test_integral_1_inf_vs_mpmath_quad(self, r):
        mp = pytest.importorskip("mpmath")
        for s in (3.5 + 0.5j, 4.0 - 1.0j):
            with mp.workdps(20):
                ref = complex(mp.quad(lambda x: mp.zeta(s, x, r), [1, mp.inf]))
            assert abs(integral_1_inf(r, s) - ref) <= 1e-13 * abs(ref), s

    @pytest.mark.parametrize("r", [5, 6])
    def test_alpha_derivative_at_zero_vs_mpmath(self, r):
        mp = pytest.importorskip("mpmath")
        for a in (0.3, 0.8, 2.5):
            with mp.workdps(20):
                ref = complex(mp.diff(lambda x: mp.zeta(0, x, r), a))
            assert abs(alpha_derivative_at_zero(r, a) - ref) <= 1e-11, a


# ---------------------------------------------------------------------------
# The primitive's sum, once per point, against one kernel call per order
# ---------------------------------------------------------------------------


def per_order_antiderivative(r, s, alpha):
    """antiderivative_eval as one hurwitz_zeta_deriv call per order."""
    s = complex(s)
    one_minus_s = 1.0 - s
    total = 0j
    for term in antiderivative_terms(r):
        z = hurwitz_zeta_deriv(term.deriv_order, s - 1.0, alpha)
        total += float(term.coefficient) * z / one_minus_s ** term.pole_power
    return total


def per_order_integral_1_inf(r, s):
    """integral_1_inf as minus the Riemann-zeta sum, order by order."""
    s = complex(s)
    one_minus_s = 1.0 - s
    total = 0j
    for term in antiderivative_terms(r):
        z = riemann_zeta_deriv(term.deriv_order, s - 1.0)
        total += float(term.coefficient) * z / one_minus_s ** term.pole_power
    return -total


def per_order_alpha_derivative(r, s, alpha):
    """The forward rule with one hurwitz_zeta_deriv call per order."""
    s = complex(s)
    value = -s * hurwitz_zeta_deriv(r, s + 1.0, alpha)
    if r >= 1:
        value -= r * hurwitz_zeta_deriv(r - 1, s + 1.0, alpha)
    return value


ALPHAS = (0.3, 1.0, 2.5)
# -0.7, 0.3+0.6j and 2.7 put s - 1 or s + 1 within 1 of the pole guard
GRID_S = (-2.5, -0.7, -1.5 + 2.0j, 0.3 + 0.6j, 2.7, 3.0 - 1.5j)


class TestOneJetPerPoint:
    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_antiderivative_eval(self, target):
        for r in range(7):
            for s in GRID_S:
                for a in ALPHAS:
                    assert (antiderivative_eval(r, s, a)
                            == per_order_antiderivative(r, s, a)), (r, s, a)

    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_alpha_derivative(self, target):
        for r in range(7):
            for s in GRID_S:
                for a in ALPHAS:
                    assert (alpha_derivative(r, s, a)
                            == per_order_alpha_derivative(r, s, a)), (r, s, a)

    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_integral_1_inf(self, target):
        for r in range(7):
            for s in (2.6, 3.0, 4.0 + 1.0j, 2.2 - 0.5j):
                assert integral_1_inf(r, s) == per_order_integral_1_inf(r, s)

    @pytest.mark.parametrize("call, r_max", [
        (lambda r: antiderivative_eval(r, -0.5 + 1.0j, 0.7), 6),
        (lambda r: integral_1_inf(r, 3.0), 6),
        (lambda r: alpha_derivative(r, 2.0, 0.3), 6),
    ], ids=["antiderivative_eval", "integral_1_inf", "alpha_derivative"])
    def test_one_jet_per_call(self, monkeypatch, call, r_max):
        jets = []
        jet = kernels._em_jet

        def counted(*args, **kwargs):
            jets.append(args)
            return jet(*args, **kwargs)

        monkeypatch.setattr(kernels, "_em_jet", counted)
        for r in range(1, r_max + 1):
            jets.clear()
            call(r)
            assert len(jets) == 1, r
