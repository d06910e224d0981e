"""Numeric kernels against independent oracles.

Oracles used here: closed forms (pi^2/6, sqrt(pi), -log(2 pi)/2), the exact
rational module for zeta at non-positive integers, the dyadic identity
zeta(s, 1/2) = (2^s - 1) zeta(s), lgamma for zeta'(0, a), an accelerated
alternating series for zeta'(2), finite differences for derivative
consistency, the Laurent definition for Stieltjes constants, an exact
rational forward sum for the Bernoulli corrections' jet, and mpmath
(optional) for the Taylor-mode derivatives and Stieltjes constants.  zeta
itself is the Taylor-mode sum at order 0, checked bit for bit against the
order-6 sum; the Taylor-mode batch behind the quadrature checks is checked
against the scalar sum.  The complex-alpha values of hurwitz_taylor are
checked against mpmath in test_oracle.py.
"""

import cmath
import gzip
import inspect
import json
import math
import random
import struct
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from conftest import BATCHES_PER_PASS, TARGET_IDS, TARGETS
import zetalab
from zetalab import calculus, exact, kernels, quadrature
from zetalab.errors import (DomainError, EvaluationError, NumericOverflowError,
                            PoleProximityError)
from zetalab.exact import zeta_neg_int_poly
from zetalab.checks import run_checks
from zetalab.reduction import pair_integral
from zetalab.kernels import (digamma, format_complex, gamma_complex,
                             hurwitz_taylor, hurwitz_zeta, hurwitz_zeta_deriv,
                             riemann_zeta, riemann_zeta_deriv, stieltjes)

EULER_GAMMA = 0.5772156649015329


def alternating_sum(terms):
    """Accelerated alternating series sum_{k>=0} (-1)^k a_k (Chebyshev-based)."""
    n = len(terms)
    d = (3.0 + math.sqrt(8.0)) ** n
    d = (d + 1.0 / d) / 2.0
    b, c, total = -1.0, -d, 0.0
    for k, a_k in enumerate(terms):
        c = b - c
        total += c * a_k
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return total / d


def zeta_prime_2_oracle():
    """zeta'(2) from eta'(2) = (log 2 / 2) zeta(2) + zeta'(2) / 2."""
    # eta'(2) = sum_{n>=1} (-1)^n log(n)/n^2 = -sum_{k>=0} (-1)^k log(k+1)/(k+1)^2
    eta_prime = -alternating_sum([math.log(k + 1) / (k + 1) ** 2 for k in range(40)])
    return 2.0 * eta_prime - math.log(2.0) * (math.pi ** 2 / 6.0)


class TestGamma:
    def test_one(self):
        assert abs(gamma_complex(1.0) - 1.0) < 1e-13

    def test_factorial(self):
        assert abs(gamma_complex(5.0) - 24.0) < 1e-11

    def test_half_is_sqrt_pi(self):
        assert abs(gamma_complex(0.5) - math.sqrt(math.pi)) < 1e-13

    def test_functional_equation(self):
        for z in (0.3 + 0.7j, 2.5, 4.0 - 1.0j):
            assert abs(gamma_complex(z + 1) - z * gamma_complex(z)) < 1e-10

    def test_reflection_region(self):
        # Gamma(z) Gamma(1-z) sin(pi z) = pi on both sides of the split
        for z in (-2.3 + 0.4j, -0.7, 0.2):
            prod = gamma_complex(z) * gamma_complex(1.0 - z) * cmath.sin(math.pi * z)
            assert abs(prod - math.pi) < 1e-10

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            gamma_complex(-3.0)
        with pytest.raises(PoleProximityError):
            gamma_complex(0.0 + 1e-14j)

    @pytest.mark.parametrize("n", [1, 3, 7, 19])
    @pytest.mark.parametrize("delta", [1e-4, -1e-4, 1e-9, -1e-9])
    def test_reflection_keeps_digits_next_to_a_pole(self, n, delta):
        # Gamma(z) = Gamma(z + n + 1) / prod_{k=0..n} (z + k), whose right
        # side takes Gamma at 1 + delta, off the reflection path
        z = -n + delta
        expected = gamma_complex(z + n + 1)
        for k in range(n + 1):
            expected /= z + k
        assert abs(gamma_complex(z) - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("y", [230.0, 300.0, 400.0])
    def test_modulus_on_the_imaginary_axis_past_the_sine_overflow(self, y):
        # |Gamma(iy)|^2 = pi / (y sinh(pi y)) (DLMF 5.4.3).  From |Im z| ~ 226
        # on, the reflection's sin(pi z) overflows while Gamma(z) is far from
        # the smallest double; log sinh x = x - log 2 + log1p(-e^(-2x)) keeps
        # the reference finite
        x = math.pi * y
        log_sinh = x - math.log(2.0) + math.log1p(-math.exp(-2.0 * x))
        expected = 0.5 * (math.log(math.pi) - math.log(y) - log_sinh)
        assert abs(math.log(abs(gamma_complex(complex(0.0, y)))) - expected) <= 1e-12

    def test_overflow_is_an_error(self):
        for z in (400.0, 171.7):
            with pytest.raises(NumericOverflowError):
                gamma_complex(z)


class TestRiemannZeta:
    def test_basel(self):
        assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12

    @pytest.mark.parametrize("n", range(0, 9))
    def test_nonpositive_integers_vs_exact(self, n):
        expected = float(zeta_neg_int_poly(n).evaluate(1))
        assert abs(riemann_zeta(-float(n)) - expected) < 1e-10

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            riemann_zeta(1.0 + 1e-12j)

    def test_complex_strip(self):
        # conjugate symmetry on the critical strip
        v = riemann_zeta(0.5 + 6.0j)
        w = riemann_zeta(0.5 - 6.0j)
        assert abs(v - w.conjugate()) < 1e-12


class TestHurwitzZeta:
    def test_alpha_one_is_riemann(self):
        for s in (2.5, -1.5, 0.3 + 0.4j):
            assert hurwitz_zeta(s, 1.0) == riemann_zeta(s)

    @pytest.mark.parametrize("s", [2.0, 3.0, -1.5, 0.5, -0.5 + 1.0j])
    def test_dyadic_identity(self, s):
        # zeta(s, 1/2) = (2^s - 1) zeta(s)
        lhs = hurwitz_zeta(s, 0.5)
        rhs = (2.0 ** complex(s) - 1.0) * riemann_zeta(s)
        assert abs(lhs - rhs) < 1e-11

    def test_half_value(self):
        assert abs(hurwitz_zeta(2.0, 0.5) - math.pi ** 2 / 2.0) < 1e-12

    def test_forward_difference(self):
        lhs = hurwitz_zeta(2.0, 0.3) - hurwitz_zeta(2.0, 1.3)
        assert abs(lhs - 0.3 ** -2.0) < 1e-11

    @pytest.mark.parametrize("m", range(0, 9))
    def test_negative_integers_vs_exact(self, m):
        poly = zeta_neg_int_poly(m)
        for tenths in range(1, 20):
            a = Fraction(tenths, 10)
            expected = float(poly.evaluate(a))
            assert abs(hurwitz_zeta(-float(m), float(a)) - expected) < 1e-10

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, 0.0)
        with pytest.raises(DomainError):
            hurwitz_zeta(2.0, -1.0)

    def test_pole_guard(self):
        with pytest.raises(PoleProximityError):
            hurwitz_zeta(1.0, 0.5)

    @pytest.mark.parametrize("s, alpha", [(4.0, 1e78), (2.0, 1e160), (2.0, math.inf)])
    def test_huge_alpha_at_integral_s(self, s, alpha):
        # complex ** gives nan for these integral exponents although every
        # power is representable; the value is the integral and half terms,
        # 0 at alpha = inf
        expected = alpha ** (1.0 - s) / (s - 1.0) + alpha ** -s / 2.0
        assert abs(hurwitz_zeta(s, alpha) - expected) <= 1e-13 * abs(expected)

    def test_huge_alpha_overflow_still_raises(self):
        # about alpha^5 / 5 = 2e349: every overflow of the sum is one refusal
        with pytest.raises(NumericOverflowError,
                           match="^Euler-Maclaurin overflow in hurwitz_zeta$"):
            hurwitz_zeta(-4.0, 1e70)


class TestDerivatives:
    def test_order_zero_delegates(self):
        assert hurwitz_zeta_deriv(0, 2.0, 0.7) == hurwitz_zeta(2.0, 0.7)

    def test_log_gamma_link(self):
        # zeta'(0, a) = log(Gamma(a)/sqrt(2 pi)), via lgamma
        for a in (0.5, 1.0, 2.0):
            expected = math.lgamma(a) - 0.5 * math.log(2.0 * math.pi)
            assert abs(hurwitz_zeta_deriv(1, 0.0, a) - expected) < 1e-9

    def test_zeta_prime_zero(self):
        assert abs(riemann_zeta_deriv(1, 0.0) - (-0.5 * math.log(2.0 * math.pi))) < 1e-9

    def test_zeta_prime_two_alternating_oracle(self):
        assert abs(riemann_zeta_deriv(1, 2.0) - zeta_prime_2_oracle()) < 1e-9

    @pytest.mark.parametrize("s, a", [(2.5, 0.7), (-0.5, 1.3), (3.0 + 1.0j, 0.4)])
    def test_vs_central_difference(self, s, a):
        h = 1e-5
        fd = (hurwitz_zeta(s + h, a) - hurwitz_zeta(s - h, a)) / (2 * h)
        assert abs(hurwitz_zeta_deriv(1, s, a) - fd) < 1e-6

    def test_second_derivative_consistency(self):
        # d/ds of zeta'(s, a) by finite differences matches r=2
        s, a, h = 2.0, 0.6, 1e-4
        fd = (hurwitz_zeta_deriv(1, s + h, a) - hurwitz_zeta_deriv(1, s - h, a)) / (2 * h)
        assert abs(hurwitz_zeta_deriv(2, s, a) - fd) < 1e-5

    def test_pole_margin_guard(self):
        with pytest.raises(PoleProximityError):
            hurwitz_zeta_deriv(1, 1.2, 0.7)  # |s-1| within the pole guard 0.5

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            hurwitz_zeta_deriv(7, 3.0, 1.0)
        with pytest.raises(ValueError):
            hurwitz_zeta_deriv(-1, 3.0, 1.0)


class TestTaylorDisc:
    def test_alpha_one_consistency(self):
        for s in (-2.5, 0.6, 2.5):
            assert abs(hurwitz_taylor(s, 1.0, 3) - riemann_zeta(s)) < 1e-10

    def test_cross_method_spot(self):
        assert abs(hurwitz_taylor(-2.5, 0.7, 4) - hurwitz_zeta(-2.5, 0.7)) < 1e-9

    def test_cross_method_grid(self):
        worst = 0.0
        for s in (-2.5, -1.5, -0.5, 0.75, 2.5):
            for a in (0.3, 0.7, 1.2, 1.6):
                d = abs(hurwitz_taylor(s, a, 3) - hurwitz_zeta(s, a))
                worst = max(worst, d)
        assert worst < 1e-9

    def test_alpha_to_zero_limit(self):
        assert abs(hurwitz_taylor(-1.5, 1e-10, 2) - riemann_zeta(-1.5)) < 1e-9

    def test_complex_alpha_against_difference_identity(self):
        # zeta(s, a) - zeta(s, a+1) = a^-s holds for complex a in the disc
        s, a = -1.5, 0.4 + 0.8j
        lhs = hurwitz_taylor(s, a, 3) - hurwitz_taylor(s, a + 1.0, 3)
        rhs = cmath.exp(-s * cmath.log(a))
        assert abs(lhs - rhs) < 1e-10

    def test_disc_guard(self):
        with pytest.raises(DomainError):
            hurwitz_taylor(2.0, 1.8, 2)

    @pytest.mark.parametrize("s", [0.0, -1.0, -2.0])
    def test_s_plus_n_equal_to_one_is_a_value(self, s):
        # s + n = 1 for an integer n >= 0 is no pole of zeta(s, alpha)
        assert abs(hurwitz_taylor(s, 0.5, 2) - hurwitz_zeta(s, 0.5)) < 1e-12

    @pytest.mark.parametrize("k", [3.0, 2.5, "3"])
    def test_non_integer_k_is_refused(self, k):
        with pytest.raises(ValueError, match="^k must be a positive integer$"):
            hurwitz_taylor(0.5, 0.3, k)


class TestStieltjes:
    def test_order_minus_one_exact(self):
        assert stieltjes(-1, 0.37) == 1.0

    def test_euler_constant(self):
        assert abs(stieltjes(0, 1.0) - EULER_GAMMA) < 1e-12

    @pytest.mark.parametrize("a", [0.5, 2.0])
    def test_negative_digamma(self, a):
        assert abs(stieltjes(0, a) - (-digamma(a))) < 1e-12

    def test_gamma1_value(self):
        # Taylor-coefficient convention: gamma_1(1) = +0.0728158...
        assert abs(stieltjes(1, 1.0) - 0.07281584548367672) < 1e-12

    @pytest.mark.parametrize("a", [0.3, 1.0, 1.7])
    def test_laurent_definition(self, a):
        # zeta(1+s, a) ~ 1/s + sum gamma_n(a) s^n near s = 0
        s = 0.1
        partial = sum(stieltjes(n, a).real * s ** n for n in range(6))
        lhs = hurwitz_zeta(1.0 + s, a).real - 1.0 / s
        assert abs(lhs - partial) < 1e-6

    @pytest.mark.parametrize("n", range(0, 6))
    def test_real_for_real_alpha(self, n):
        for a in (0.4, 1.0, 2.3):
            assert abs(stieltjes(n, a).imag) < 1e-10

    def test_order_bounds(self):
        with pytest.raises(ValueError):
            stieltjes(6, 1.0)
        with pytest.raises(ValueError):
            stieltjes(-2, 1.0)

    def test_order_minus_one_is_complex_one(self):
        value = stieltjes(-1, 2.0)
        assert type(value) is complex and value == 1.0 + 0j

    @pytest.mark.parametrize("alpha, message", [
        (0.0, "stieltjes requires alpha > 0"),
        (-2.0, "stieltjes requires alpha > 0"),
        (float("nan"), "stieltjes got NaN for alpha"),
    ])
    def test_order_minus_one_checks_alpha(self, alpha, message):
        # gamma_{-1} = 1 holds only where the family is defined
        with pytest.raises(DomainError) as info:
            stieltjes(-1, alpha)
        assert str(info.value) == message


class TestDigamma:
    def test_euler(self):
        assert abs(digamma(1.0) + EULER_GAMMA) < 1e-13

    def test_half(self):
        expected = -EULER_GAMMA - 2.0 * math.log(2.0)
        assert abs(digamma(0.5) - expected) < 1e-13

    def test_recurrence(self):
        assert abs(digamma(2.0) - (digamma(1.0) + 1.0)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)


NAN = float("nan")


class TestNaNArguments:
    @pytest.mark.parametrize("call, fn, name", [
        (lambda: hurwitz_zeta(NAN, 1.0), "hurwitz_zeta", "s"),
        (lambda: hurwitz_zeta(complex(2.0, NAN), 1.0), "hurwitz_zeta", "s"),
        (lambda: hurwitz_zeta(2.0, NAN), "hurwitz_zeta", "alpha"),
        (lambda: hurwitz_zeta(-1.5 + 4.0j, NAN), "hurwitz_zeta", "alpha"),
        (lambda: hurwitz_zeta_deriv(0, NAN, 1.0), "hurwitz_zeta", "s"),
        (lambda: hurwitz_zeta_deriv(1, NAN, 1.0), "hurwitz_zeta_deriv", "s"),
        (lambda: hurwitz_zeta_deriv(4, 2.0, NAN), "hurwitz_zeta_deriv", "alpha"),
        (lambda: riemann_zeta_deriv(2, complex(NAN, 3.0)), "hurwitz_zeta_deriv", "s"),
        (lambda: stieltjes(1, NAN), "stieltjes", "alpha"),
        (lambda: digamma(NAN), "digamma", "alpha"),
        (lambda: gamma_complex(NAN), "gamma_complex", "z"),
        (lambda: gamma_complex(complex(-2.5, NAN)), "gamma_complex", "z"),
        (lambda: hurwitz_taylor(NAN, 0.5, 2), "hurwitz_taylor", "s"),
        (lambda: hurwitz_taylor(-1.5, complex(0.3, NAN), 3), "hurwitz_taylor", "alpha"),
        (lambda: calculus.stieltjes_alpha_derivative(1, NAN),
         "stieltjes_alpha_derivative", "alpha"),
    ])
    def test_nan_is_a_domain_error_naming_the_argument(self, call, fn, name):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == f"{fn} got NaN for {name}"

    @pytest.mark.parametrize("call, fn", [
        (lambda: hurwitz_zeta(2.0, 0.0), "hurwitz_zeta"),
        (lambda: hurwitz_zeta(-1.5 + 2.0j, -0.3), "hurwitz_zeta"),
        (lambda: hurwitz_zeta_deriv(0, 2.0, -1.0), "hurwitz_zeta"),
        (lambda: hurwitz_zeta_deriv(3, 2.0, 0.0), "hurwitz_zeta_deriv"),
        (lambda: hurwitz_zeta(2.0, -math.inf), "hurwitz_zeta"),
        # below alpha = -26 the growth bound at Re s < 1/2 is negative
        (lambda: hurwitz_zeta(-1.0, -30.0), "hurwitz_zeta"),
        (lambda: hurwitz_zeta_deriv(1, -1.0, -30.0), "hurwitz_zeta_deriv"),
        (lambda: hurwitz_zeta(-1.5 + 2.0j, -1e300), "hurwitz_zeta"),
        (lambda: hurwitz_zeta_deriv(2, 0.3 + 5.0j, -math.inf), "hurwitz_zeta_deriv"),
        (lambda: stieltjes(2, -0.5), "stieltjes"),
        (lambda: stieltjes(-1, 0.0), "stieltjes"),
        (lambda: digamma(0.0), "digamma"),
        (lambda: digamma(-2.5), "digamma"),
        (lambda: calculus.stieltjes_alpha_derivative(1, -0.5), "stieltjes_alpha_derivative"),
        (lambda: calculus.stieltjes_alpha_derivative(4, 0.0), "stieltjes_alpha_derivative"),
    ])
    def test_alpha_at_most_zero_is_a_domain_error_naming_the_function(self, call, fn):
        with pytest.raises(DomainError) as info:
            call()
        assert type(info.value) is DomainError
        assert str(info.value) == f"{fn} requires alpha > 0"

    @pytest.mark.parametrize("call", [
        lambda: hurwitz_zeta(math.inf, 1.0),
        lambda: hurwitz_zeta(-math.inf, 1.0),
        lambda: hurwitz_zeta(complex(2.0, math.inf), 1.0),
        lambda: hurwitz_zeta(complex(2.0, -math.inf), 1.0),
        lambda: hurwitz_zeta(complex(-3.0, math.inf), 2.5),
        lambda: hurwitz_taylor(complex(2.0, math.inf), 0.5, 2),
        lambda: hurwitz_taylor(-math.inf, 0.5, 3),
        lambda: gamma_complex(-math.inf),
        lambda: gamma_complex(complex(0.0, math.inf)),
        lambda: gamma_complex(0.3 + 800j),
        lambda: pair_integral(0.3 + 800j, 0.2),
        lambda: pair_integral(-math.inf, 0.3),
        # every double of magnitude >= 2**52 is an integer: not a pole
        lambda: hurwitz_taylor(-1e300, 0.5, 2),
        lambda: pair_integral(1e300, 0.2),
        lambda: gamma_complex(-1e300),
        # alpha = inf at Re s < 1/2: M = 2, and (M+a)^(1-s) is infinite
        lambda: hurwitz_zeta_deriv(1, 0.3, math.inf),
        lambda: hurwitz_zeta(0.3, math.inf),
    ], ids=["re+inf", "re-inf", "im+inf", "im-inf", "re-3_im+inf", "taylor_im+inf",
            "taylor_re-inf", "gamma_re-inf", "gamma_im+inf", "gamma_im800",
            "pair_im800", "pair_re-inf", "taylor_re-1e300", "pair_re1e300",
            "gamma_re-1e300", "deriv_alpha+inf", "alpha+inf"])
    def test_infinity_is_not_a_domain_error(self, call):
        with pytest.raises(NumericOverflowError) as info:
            call()
        assert len(str(info.value)) < 80


class TestPoleStructure:
    def test_zeta_double_pole_ladder(self):
        devs = []
        for eps in (1e-2, 1e-3, 1e-4):
            devs.append(abs(eps * eps * hurwitz_zeta(2.0, eps) - 1.0))
        assert devs[0] > 5 * devs[1] > 25 * devs[2]
        assert devs[2] < 1e-6

    def test_psi_simple_pole_ladder(self):
        devs = []
        for eps in (1e-2, 1e-3, 1e-4):
            psi_eps = digamma(1.0 + eps) - 1.0 / eps
            devs.append(abs(eps * psi_eps + 1.0))
        assert devs[0] > 5 * devs[1] > 25 * devs[2]
        assert devs[2] < 1e-3


class TestConfig:
    def test_defaults(self):
        assert kernels._TARGET_ABS_ERROR == 1e-11
        assert kernels._EM_CUTOFF == 25 and kernels._EM_TAIL_TERMS == 12
        assert kernels._EM_MIN_REACH == 8.0
        assert kernels._EM_REACH_PER_S == 4.0 / (2.0 * math.pi)
        assert kernels._POLE_GUARD == 0.5 and kernels._MAX_ORDER == 6

    def test_no_public_callable_takes_a_config(self):
        # the accuracy policy is fixed: no public function, class or method
        # of the package accepts a configuration
        assert not hasattr(zetalab, "PrecisionConfig")
        assert not hasattr(zetalab, "DEFAULT_CONFIG")
        checked = 0
        for module in [zetalab, *(m for m in vars(zetalab).values()
                                  if inspect.ismodule(m))]:
            for name, obj in vars(module).items():
                if (name.startswith("_") or not callable(obj)
                        or inspect.isclass(obj) and issubclass(obj, Exception)):
                    continue
                if not getattr(obj, "__module__", "").startswith("zetalab"):
                    continue
                members = [obj]
                if inspect.isclass(obj):
                    members += [m for n, m in vars(obj).items()
                                if not n.startswith("_") and callable(m)]
                for member in members:
                    params = inspect.signature(member).parameters
                    assert not {"config", "cfg"} & set(params), (module.__name__, name)
                    checked += 1
        assert checked > 50

    def test_custom_precision_still_accurate(self, monkeypatch):
        # a reach past the cutoff, so the head is the 40 terms asked for
        monkeypatch.setattr(kernels, "_EM_CUTOFF", 40)
        monkeypatch.setattr(kernels, "_EM_MIN_REACH", 50.0)
        monkeypatch.setattr(kernels, "_EM_TAIL_TERMS", 14)
        assert kernels._jet_head_length(2.0 + 0j, 1.0) == 40
        assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12
        assert abs(riemann_zeta_deriv(1, 2.0) - zeta_prime_2_oracle()) < 1e-9


class TestSerialization:
    def test_representative(self):
        assert format_complex(complex(1.5, -2.25)) == "1.5-2.25i"

    def test_fifteen_digits(self):
        assert format_complex(complex(math.pi ** 2 / 6.0, 0.0)) == "1.64493406684823+0i"

    def test_negative_zero_normalised(self):
        assert format_complex(complex(-0.0, -0.0)) == "0+0i"


EPS = 2.220446049250313e-16
CIRCLE = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
ALPHAS = (0.05, 0.3, 1.0, 2.7, 12.0, 50.0)


def zeta_bound(value):
    """The README accuracy of a zeta value: 1e-11 absolute or 1e-13 relative."""
    return max(1e-11, 1e-13 * abs(value))


class TestOverflow:
    @pytest.mark.parametrize("r", [1, 3])
    def test_derivative_overflow_raises_without_warnings(self, r):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                hurwitz_zeta_deriv(r, -300.0, 1e6)

    def test_infinite_s_raises_without_warnings(self):
        # the head length and correction count stay finite at Re s = -inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError):
                hurwitz_zeta_deriv(1, -math.inf, 1.0)

    @pytest.mark.parametrize("s", [-300.0, -300.0 + 2.0j, -150.5])
    def test_scalar_overflow_raises(self, s):
        with pytest.raises(NumericOverflowError):
            hurwitz_zeta(s, 1e6)


class TestExtremeRealS:
    # Real s runs in float arithmetic.  At these s every refusal is the one
    # the complex arithmetic gave, and the only values returned where it
    # refused are the true ones at s = 1e300: 1 at alpha = 1 and 0 above,
    # every derivative 0.  Other returned values are not pinned here (the
    # README lists the real-axis faults); the level batch must return the
    # scalar's bits.
    S = [math.inf, -math.inf, 1e300, -1e300, 400.0, -400.0, 700.5, -171.5]
    REFUSED = {(s, alpha) for s in (math.inf, -math.inf, -1e300) for alpha in (0.5, 1.0, 3.0)}
    REFUSED.add((1e300, 0.5))
    PINNED = {(1e300, 1.0, 0): 1.0, (1e300, 1.0, 2): 0.0, (1e300, 3.0, 0): 0.0,
              (1e300, 3.0, 2): 0.0}

    @pytest.mark.parametrize("s", S)
    @pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("r", [0, 2])
    def test_scalar_and_level_outcomes(self, s, alpha, r):
        scalar = outcome(lambda: hurwitz_zeta_deriv(r, s, alpha))
        level = outcome(lambda: kernels._zeta_level(r, s, np.array([alpha]))[0])
        if (s, alpha) in self.REFUSED:
            message = ("non-finite value in hurwitz_zeta_deriv" if r
                       else "Euler-Maclaurin overflow in hurwitz_zeta")
            assert scalar == level == (NumericOverflowError, message)
            return
        assert struct.pack("2d", scalar.real, scalar.imag) == struct.pack(
            "2d", level.real, level.imag)
        assert type(scalar) is complex and cmath.isfinite(scalar)
        if (s, alpha, r) in self.PINNED:
            assert scalar == self.PINNED[s, alpha, r]


# ---------------------------------------------------------------------------
# Taylor-mode derivatives and Stieltjes constants against mpmath
# ---------------------------------------------------------------------------


def tenth_of_bound(value):
    """A tenth of the README bound for derivatives, 100x the zeta bound."""
    return 0.1 * 100.0 * zeta_bound(value)


class TestTaylorModeRegression:
    def test_derivatives(self):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        rng = random.Random(4)
        for _ in range(60):
            s = complex(rng.uniform(-2.0, 6.0), rng.uniform(-20.0, 20.0))
            if abs(s - 1.0) < 1.5:
                continue
            alpha = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            for r in range(1, 5):
                expected = complex(mp.zeta(mp.mpc(s.real, s.imag), alpha, r))
                got = hurwitz_zeta_deriv(r, s, alpha)
                assert abs(got - expected) <= tenth_of_bound(expected), (r, s, alpha)

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5, 1.0, 1.7, 3.3, 10.0, 50.0])
    def test_stieltjes(self, alpha):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30
        for n in range(6):
            # the package's Taylor convention: (-1)^n gamma_n / n! in mpmath's
            expected = complex(mp.stieltjes(n, alpha) * (-1) ** n / mp.factorial(n))
            got = stieltjes(n, alpha)
            assert abs(got - expected) <= tenth_of_bound(expected), (n, alpha)

    @pytest.mark.parametrize("alpha", [0.1, 0.8, 4.0])
    def test_stieltjes_alpha_derivative(self, alpha):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 30

        def coeff(k):  # the t^k coefficient of zeta(2 + t, alpha)
            return mp.zeta(2, alpha, k) / mp.factorial(k) if k >= 0 else 0

        for r in range(1, 6):
            # -(1/r!) d^r/ds^r [s(s+1) zeta(s+2, a)] at s = 0
            expected = -complex(coeff(r - 1) + coeff(r - 2))
            got = calculus.stieltjes_alpha_derivative(r, alpha)
            assert abs(got - expected) <= tenth_of_bound(expected), (r, alpha)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_stieltjes_order_zero_is_minus_digamma(self, alpha):
        # gamma_0(a) = -psi(a) exactly; the Taylor-mode sum at s = 1 takes
        # the pole off inside the integral term
        assert abs(stieltjes(0, alpha) + digamma(alpha)) <= 0.1 * zeta_bound(digamma(alpha))


def shift_identity_points():
    """30 (s, alpha) pairs over Re s in [-2, 6], |Im s| <= 20, |s - 1| >= 0.55
    and alpha in [0.05, 50]."""
    rng = random.Random(5)
    points = []
    while len(points) < 30:
        s = complex(rng.uniform(-2.0, 6.0), rng.uniform(-20.0, 20.0))
        if abs(s - 1.0) >= 0.55:
            points.append((s, math.exp(rng.uniform(math.log(0.05), math.log(50.0)))))
    return points


class TestShiftIdentity:
    """zeta(s, a) - zeta(s, a + 1) = a^-s exactly, so its t-series at s + t
    ties two independent Euler-Maclaurin sums to a closed form."""

    @pytest.mark.parametrize("r", range(1, 7))
    def test_derivatives(self, r):
        for s, alpha in shift_identity_points():
            here = hurwitz_zeta_deriv(r, s, alpha)
            above = hurwitz_zeta_deriv(r, s, alpha + 1.0)
            # d^r/ds^r a^-s = (-log a)^r a^-s
            expected = (-math.log(alpha)) ** r * cmath.exp(-s * math.log(alpha))
            assert (abs(here - above - expected)
                    <= tenth_of_bound(here) + tenth_of_bound(above)), (r, s, alpha)

    @pytest.mark.parametrize("n", range(6))
    def test_stieltjes(self, n):
        for alpha in ALPHAS:
            here, above = stieltjes(n, alpha), stieltjes(n, alpha + 1.0)
            # the t^n coefficient of a^(-1-t)
            expected = (-math.log(alpha)) ** n / math.factorial(n) / alpha
            assert (abs(here - above - expected)
                    <= tenth_of_bound(here) + tenth_of_bound(above)), (n, alpha)


# ---------------------------------------------------------------------------
# Every order from one Taylor-mode sum, against one sum per order
# ---------------------------------------------------------------------------


def multi_order_points():
    """(s, alpha) pairs: 12 with 0.5 < |s - 1| < 1, near the pole guard, and
    12 farther out."""
    rng = random.Random(20261019)
    for band in ((0.55, 0.95), (1.1, 8.0)):
        for _ in range(12):
            s = 1.0 + cmath.rect(rng.uniform(*band), rng.uniform(-math.pi, math.pi))
            alpha = math.exp(rng.uniform(math.log(0.05), math.log(50.0)))
            yield s, alpha


class TestMultiOrderJet:
    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_coefficients_equal_one_jet_per_order(self, target):
        # every coefficient up to r of the order-6 sum, bit for bit, and so
        # for the Stieltjes series
        for s, alpha in multi_order_points():
            every = kernels._em_jet(s, alpha, 6)
            for r in range(7):
                assert kernels._em_jet(s, alpha, r) == every[:r + 1], (s, alpha, r)
        for alpha in ALPHAS:
            every = kernels._em_jet(1.0 + 0j, alpha, 6, minus_pole=True)
            for r in range(7):
                assert (kernels._em_jet(1.0 + 0j, alpha, r, minus_pole=True)
                        == every[:r + 1]), (alpha, r)

    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_derivatives_equal_one_jet_per_order(self, target):
        # the head length does not depend on the highest order asked for, so
        # neither does any coefficient
        shrunk = 0
        for s, alpha in multi_order_points():
            expected = [hurwitz_zeta(s, alpha)] + [
                math.factorial(r) * kernels._em_jet(s, alpha, r)[r]
                for r in range(1, 7)]
            assert kernels._hurwitz_derivs(range(7), s, alpha) == expected
            assert [hurwitz_zeta_deriv(r, s, alpha) for r in range(7)] == expected
            shrunk += kernels._em_head_length(s, alpha) < kernels._EM_CUTOFF
        assert shrunk  # the grid reaches Re s where M shrinks

    def test_orders_in_any_order_and_subset(self):
        s, alpha = 0.3 + 0.6j, 0.7
        every = kernels._hurwitz_derivs(range(7), s, alpha)
        assert kernels._hurwitz_derivs((4, 1), s, alpha) == [every[4], every[1]]

    # The refusals of every order
    @pytest.mark.parametrize("r", range(1, 7))
    @pytest.mark.parametrize("s, alpha, error, message", [
        (1.2, 0.7, PoleProximityError, "s=(1.2+0j) is within 0.5 of the pole at 1"),
        (0.6 + 0.3j, 2.0, PoleProximityError,
         "s=(0.6+0.3j) is within 0.5 of the pole at 1"),
        (1.0, 0.7, PoleProximityError, "s=(1+0j) is within 0.5 of the pole at 1"),
        (2.0, 0.0, DomainError, "hurwitz_zeta_deriv requires alpha > 0"),
        (-1.5 + 2.0j, -0.3, DomainError, "hurwitz_zeta_deriv requires alpha > 0"),
    ])
    def test_refusals_keep_type_and_message(self, r, s, alpha, error, message):
        with pytest.raises(error) as info:
            hurwitz_zeta_deriv(r, s, alpha)
        assert str(info.value) == message

    # order 0 is evaluated first, as in a loop over the orders
    @pytest.mark.parametrize("s, alpha, error, message", [
        (1.2, 0.7, PoleProximityError, "s=(1.2+0j) is within 0.5 of the pole at 1"),
        (1.0, 0.7, PoleProximityError, "hurwitz_zeta pole at s = 1"),
        (2.0, 0.0, DomainError, "hurwitz_zeta requires alpha > 0"),
    ])
    def test_all_orders_raise_the_first_error_of_the_order_loop(self, s, alpha,
                                                                error, message):
        with pytest.raises(error) as info:
            kernels._hurwitz_derivs(range(7), s, alpha)
        assert str(info.value) == message


def outcome(call):
    """The value of call(), or the type and message of the error it raised."""
    try:
        return call()
    except EvaluationError as exc:
        return type(exc), str(exc)


class TestDerivativesOverAlphas:
    # a quadrature level's nodes, one after another: the first refusal wins
    @pytest.mark.parametrize("orders, s, alphas, error, message", [
        ((1,), 1.2, [0.5, 0.7], PoleProximityError,
         "s=(1.2+0j) is within 0.5 of the pole at 1"),
        ((1,), 0.6 + 0.3j, [math.nan, 0.7], DomainError,
         "hurwitz_zeta_deriv got NaN for alpha"),
        ((2,), 3.0, [0.5, math.nan, 0.7], DomainError,
         "hurwitz_zeta_deriv got NaN for alpha"),
        ((0, 1), 3.0, [0.5, math.nan], DomainError, "hurwitz_zeta got NaN for alpha"),
        ((1,), math.nan, [1.0], DomainError, "hurwitz_zeta_deriv got NaN for s"),
        ((1,), 3.0, [1.0, 0.0], DomainError, "hurwitz_zeta_deriv requires alpha > 0"),
        ((1, 2), 3.0, [1.0, 2.0, -2.0, math.nan], DomainError,
         "hurwitz_zeta_deriv requires alpha > 0"),
        ((1,), 3.0, list(np.linspace(1.0, 9.0, 13)) + [math.nan], DomainError,
         "hurwitz_zeta_deriv got NaN for alpha"),
        ((1, 3), -300.0, [0.5, 1e6, 1.0], NumericOverflowError,
         "non-finite value in hurwitz_zeta_deriv"),
        ((1,), -300.0, [1e3, math.nan], NumericOverflowError,
         "non-finite value in hurwitz_zeta_deriv"),
        ((0, 1), -300.0, [3.0, 0.5, 1e3, -1.0], NumericOverflowError,
         "Euler-Maclaurin overflow in hurwitz_zeta"),
    ])
    def test_refusals_node_by_node(self, orders, s, alphas, error, message):
        got = outcome(lambda: [kernels._hurwitz_derivs(orders, s, alpha)
                               for alpha in alphas])
        assert got == (error, message)
        # the level batch, one call per order, refuses at the same node
        level = outcome(lambda: [kernels._zeta_level(r, s, np.array(alphas))
                                 for r in orders])
        assert level == (error, message)

    def test_finite_at_very_negative_s(self):
        for alpha in (0.5, 1.0, 3.0):
            value, = kernels._hurwitz_derivs((1,), -300.0, alpha)
            assert cmath.isfinite(value)


class TestOneCore:
    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_zeta_is_the_first_coefficient_of_the_order_six_sum(self, target):
        # one Euler-Maclaurin sum for every order: zeta is its t^0 coefficient,
        # bit for bit whatever the highest order taken with it
        for s, alpha in multi_order_points():
            assert hurwitz_zeta(s, alpha) == kernels._em_jet(s, alpha, 6)[0], (s, alpha)

    def test_complex_alpha_on_the_real_axis_matches_the_real_path(self):
        # a real alpha given as a complex takes complex powers and logs but
        # the same head length; every coefficient agrees within a tenth of
        # the README bound
        for s, alpha in multi_order_points():
            real = kernels._em_jet(s, alpha, 6)
            as_complex = kernels._em_jet(s, complex(alpha), 6)
            for r, (got, ref) in enumerate(zip(as_complex, real)):
                value = math.factorial(r) * ref
                bound = 0.1 * zeta_bound(value) if r == 0 else tenth_of_bound(value)
                assert math.factorial(r) * abs(got - ref) <= bound, (s, alpha, r)


# ---------------------------------------------------------------------------
# The Bernoulli corrections' jet against the forward sum
# ---------------------------------------------------------------------------


def correction_jet_points():
    """(s, M + a) as the scalar sum takes them, seeded: the non-positive
    integers, where the order-0 terms vanish from j = 1 - s/2 on and the
    higher lanes do not; Re s down to -40, where the cut falls before J;
    |Im s| <= 40; a complex alpha + 3, as hurwitz_taylor passes it; and
    s = 1, where the Stieltjes series (``minus_pole``) takes its tail."""
    rng = random.Random(20261020)

    def alpha():
        return math.exp(rng.uniform(math.log(0.05), math.log(50.0)))

    points = [(complex(-n), alpha()) for n in range(21)]
    points += [(complex(rng.uniform(-40.0, 10.0), rng.uniform(-40.0, 40.0)), alpha())
               for _ in range(40)]
    points += [(complex(rng.uniform(-40.0, 10.0)), alpha()) for _ in range(15)]
    points += [(complex(rng.uniform(-2.5, 2.5), rng.uniform(-2.0, 2.0)),
                complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) + 3)
               for _ in range(15)]
    points += [(1.0 + 0j, alpha()) for _ in range(8)]
    return [(s, kernels._jet_head_length(s, a.real) + a) for s, a in points]


def correction_weights(s, big_t):
    """The weights w_j = B_{2j}/(2j)! (M+a)^(1-2j) up to the order-0 pass's
    cut, each formed as the kernel forms it, and whether the cut fell before
    J.  The cut is the kernel's rule, copied: the last smallest order-0
    term where the final one is more than ten times it, otherwise J."""
    inv_t2 = 1.0 / (big_t * big_t)
    weights, mags, weight, poch, a = [], [], 1.0 / big_t, s, s + 1.0
    for b2j in kernels._B2J_OVER_FACT[:kernels._em_tail_terms(s)]:
        weights.append(b2j * weight)
        mags.append(abs(b2j * weight * poch))
        poch *= a * (a + 1.0)
        weight *= inv_t2
        a += 2.0
    last_smallest = len(mags) - mags[::-1].index(min(mags))
    cut = last_smallest if mags[-1] > 10.0 * min(mags) else len(mags)
    return weights[:cut], cut < len(mags)


def forward_correction_jet(s, weights, size):
    """Lanes t^0..t^(size-1) of sum_j w_j (s+t)_{2j-1}, summed term by term
    in exact rational arithmetic on the float ``weights``, and each lane's
    scale sum_j |w_j| [t^k] prod_i (|s + i| + t): the forward sum's terms,
    every factor s + i taken by modulus.  Horner's rule rounds on that
    scale.  On sum_j |w_j [t^k](s+t)_{2j-1}| its error reads up to 200 eps
    at the non-positive integers: at s = -1, (s+t)_3 = t^3 - t has no t^2,
    while the recurrence's last step u R adds w_2 into lane 2 and takes it
    out again."""
    def times(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def plus(x, y):
        return x[0] + y[0], x[1] + y[1]

    re, im = Fraction(s.real), Fraction(s.imag)
    zero = (Fraction(0), Fraction(0))
    poly, poly_abs = [zero] * size, [0.0] * size  # (s+t)_{2j-1}, from j = 0
    poly[0], poly_abs[0] = (Fraction(1), Fraction(0)), 1.0
    lanes, scales = [zero] * size, [0.0] * size
    for j, w in enumerate(weights, 1):
        for i in range(max(2 * j - 3, 0), 2 * j - 1):  # times (s + i + t)
            c, c_abs = (re + i, im), abs(s + i)
            poly = [plus(times(c, p), q) for p, q in zip(poly, [zero] + poly)]
            poly_abs = [c_abs * p + q for p, q in zip(poly_abs, [0.0] + poly_abs)]
        w_exact = Fraction(complex(w).real), Fraction(complex(w).imag)
        lanes = [plus(lane, times(w_exact, p)) for lane, p in zip(lanes, poly)]
        scales = [scale + abs(w) * p for scale, p in zip(scales, poly_abs)]
    return [complex(float(x), float(y)) for x, y in lanes], scales


def lane_bits(lanes):
    return [struct.pack("2d", z.real, z.imag) for z in lanes]


class TestCorrectionJet:
    SIZE = kernels._MAX_ORDER + 1

    def test_lanes_hold_the_forward_sum(self):
        # lanes 1..6 (lane 0 is the order-0 pass, kept apart) within 4 eps of
        # the scale the recurrence rounds on; worst seen 2.1 eps
        short_cut = 0
        for s, big_t in correction_jet_points():
            got = kernels._jet_tail(s, big_t, self.SIZE)
            weights, before_j = correction_weights(s, big_t)
            lanes, scales = forward_correction_jet(s, weights, self.SIZE)
            for k in range(1, self.SIZE):
                assert abs(got[k] - lanes[k]) <= 4.0 * EPS * scales[k], (s, big_t, k)
            short_cut += before_j
        assert short_cut  # the grid reaches a cut before J

    def test_lane_bits_do_not_depend_on_the_size(self):
        for s, big_t in correction_jet_points():
            every = lane_bits(kernels._jet_tail(s, big_t, self.SIZE))
            for size in range(1, self.SIZE):
                assert lane_bits(kernels._jet_tail(s, big_t, size)) == every[:size], (s, size)


# (s, M + a, float.hex of Re and Im of lanes 0..6): _jet_tail as its order
# >= 1 pass ran through two leading zero pads, before lanes 0 and 1 were
# taken apart.  Seeded: the non-positive integers 0, -3 and -10, four real
# and four complex s, M + a from 1.5 to 60, and one complex alpha.
JET_TAIL_BITS = [
    (0.0, 1.5, [
        ('0x0.0p+0', '0x0.0p+0'),
        ('0x1.60862e89f6818p-5', '0x0.0p+0'),
        ('-0x1.6e56465b50f8cp-5', '0x0.0p+0'),
        ('-0x1.25c61faa6d453p-4', '0x0.0p+0'),
        ('-0x1.1cfd5e77cb802p-4', '0x0.0p+0'),
        ('-0x1.77080398b123ap-5', '0x0.0p+0'),
        ('-0x1.64b6683ca032ap-6', '0x0.0p+0'),
    ]),
    (-3.0, 7.25, [
        ('-0x1.1a4db9e497c4dp-5', '0x0.0p+0'),
        ('0x1.775464417fee9p-7', '0x0.0p+0'),
        ('0x1.6f04dc7137976p-16', '0x0.0p+0'),
        ('-0x1.e8123a19da529p-19', '0x0.0p+0'),
        ('-0x1.1b9f2c288007ep-27', '0x0.0p+0'),
        ('0x1.c8cd38c0b4caep-30', '0x0.0p+0'),
        ('-0x1.9fba1c56fb4c0p-45', '0x0.0p+0'),
    ]),
    (-10.0, 60.0, [
        ('-0x1.c6f59e7c32c96p-7', '0x0.0p+0'),
        ('0x1.6bae629ad637cp-10', '0x0.0p+0'),
        ('0x1.745edeeb5917cp-23', '0x0.0p+0'),
        ('-0x1.b803d04b1264cp-28', '0x0.0p+0'),
        ('-0x1.ddda0411559a2p-40', '0x0.0p+0'),
        ('0x1.7c597167b38c5p-45', '0x0.0p+0'),
        ('0x1.0a4bc8bb395d8p-56', '0x0.0p+0'),
    ]),
    (-7.618420684788788, 7.301441554338186, [
        ('-0x1.600acf16923dfp-4', '0x0.0p+0'),
        ('0x1.66fa2180aa625p-7', '0x0.0p+0'),
        ('0x1.1df505dcf0187p-14', '0x0.0p+0'),
        ('-0x1.9dc2a1276323ap-19', '0x0.0p+0'),
        ('-0x1.6c973f12fe4f5p-25', '0x0.0p+0'),
        ('0x1.5e3b878587bd1p-30', '0x0.0p+0'),
        ('0x1.94f29de5405d1p-36', '0x0.0p+0'),
    ]),
    (-4.649541277029883, 1.9151290614649579, [
        ('-0x1.8c437de136193p-3', '0x0.0p+0'),
        ('0x1.26e20c1609dd5p-5', '0x0.0p+0'),
        ('0x1.0301782dcb212p-9', '0x0.0p+0'),
        ('-0x1.dba2d2ff0bb98p-14', '0x0.0p+0'),
        ('-0x1.17c27094a17fap-16', '0x0.0p+0'),
        ('0x1.e8cafee2f484ep-21', '0x0.0p+0'),
        ('0x1.d004f83a88f48p-24', '0x0.0p+0'),
    ]),
    (-5.574798090628576, 5.980732747619282, [
        ('-0x1.3bbf7279616c7p-4', '0x0.0p+0'),
        ('0x1.bb8591ffaacbfp-7', '0x0.0p+0'),
        ('0x1.6e6ceeb8f5c2cp-14', '0x0.0p+0'),
        ('-0x1.9037dc07c9586p-18', '0x0.0p+0'),
        ('-0x1.4657ff70635fap-24', '0x0.0p+0'),
        ('0x1.0ee9887ea926bp-28', '0x0.0p+0'),
        ('0x1.def3af8c1f247p-35', '0x0.0p+0'),
    ]),
    (-8.718726126281648, 2.809232672309032, [
        ('-0x1.dc3d996d572e7p-3', '0x0.0p+0'),
        ('0x1.4b5a85f709977p-6', '0x0.0p+0'),
        ('0x1.f5b2f62e8c8f4p-11', '0x0.0p+0'),
        ('0x1.884dee2cfc220p-19', '0x0.0p+0'),
        ('-0x1.976af693c6b5ep-19', '0x0.0p+0'),
        ('-0x1.0527c8c5d0b00p-23', '0x0.0p+0'),
        ('0x1.4cb0364258c4fp-27', '0x0.0p+0'),
    ]),
    ((-17.940152797986926-18.64293473356654j), 5.057499165293016, [
        ('-0x1.68bf4de579a67p-2', '-0x1.300e91cd93aa1p-3'),
        ('0x1.17b519f7ef140p-9', '-0x1.3d137520e7042p-7'),
        ('-0x1.367402890eee2p-12', '-0x1.5c68c2c478ae4p-11'),
        ('0x1.ec67efeeee5f4p-17', '-0x1.00281a646b55ap-13'),
        ('0x1.107b99f34c1c3p-16', '-0x1.9dd2de8d13483p-19'),
        ('0x1.e27bc98247bb4p-22', '0x1.ceed4e8e18df8p-20'),
        ('-0x1.541bff371e7bep-23', '0x1.09daea18c7f1ap-25'),
    ]),
    ((-4.569111050851259-2.1559470949145165j), 52.304809300729204, [
        ('-0x1.dd1513a09a021p-8', '-0x1.c2218d00e2968p-9'),
        ('0x1.a1985ce0737b5p-10', '-0x1.e1287a40d1d30p-22'),
        ('0x1.be70e1b7160bdp-24', '0x1.0d84ed7c78c83p-24'),
        ('-0x1.4d748aeff96cep-27', '0x1.494ae4a56ecbcp-37'),
        ('-0x1.3195aa8161edfp-40', '-0x1.004b206ac4917p-40'),
        ('0x1.7ca255f7973e5p-44', '-0x1.f9ecf454a5166p-54'),
        ('0x1.3900ea5278fb2p-57', '0x1.ae14a56af8576p-57'),
    ]),
    ((-9.600550502345794-22.136556545763995j), 14.382352404108376, [
        ('-0x1.f8efd9ff61fabp-5', '-0x1.0c4b6a781b4a0p-3'),
        ('0x1.a32cfa9fea7fdp-8', '-0x1.44a3be9d6f515p-11'),
        ('0x1.3bc8e1025881ep-16', '0x1.24ab1993dd3bap-15'),
        ('-0x1.8612b40ecbf00p-21', '0x1.0dcf04499d79ap-22'),
        ('-0x1.50324206b4f6ap-28', '-0x1.12a256d64def3p-27'),
        ('0x1.22fffc786c38ep-33', '-0x1.322c6bd2b4a9fp-34'),
        ('0x1.3ea7101df838ap-40', '0x1.f21133b442ed1p-40'),
    ]),
    ((-11.51827941016997-28.733645417313838j), 10.474433710381707, [
        ('-0x1.09ec2d66a70a3p-3', '-0x1.f56f657417701p-3'),
        ('0x1.610a05a6e3c2ep-7', '-0x1.dcd5ce896d2e5p-9'),
        ('0x1.296567f75e37fp-13', '0x1.32afb194f30b6p-13'),
        ('-0x1.f91fad7025885p-19', '0x1.1b5f9502e3dd1p-18'),
        ('-0x1.126c5744ba2cap-23', '-0x1.6e897e248571ep-24'),
        ('0x1.323c5b1aade5ap-29', '-0x1.f022c5bce954fp-29'),
        ('0x1.b5e20df7f4aafp-34', '0x1.0b9bd521850b2p-34'),
    ]),
    ((0.5+2j), (4+1.25j), [
        ('0x1.5ff4e7ea29756p-6', '0x1.1c6b5040dc500p-5'),
        ('0x1.33c8d68e52532p-6', '-0x1.97b077b88b165p-8'),
        ('-0x1.1bf06c34412d2p-13', '0x1.fe894c14014d0p-20'),
        ('-0x1.377260dc64d24p-17', '0x1.e7a59ea252a3cp-17'),
        ('0x1.cc4e2e5bab231p-23', '-0x1.26e3d60528401p-22'),
        ('-0x1.9928988c34839p-29', '-0x1.24cee10c9bcb7p-26'),
        ('0x1.9eb33f82b0685p-34', '0x1.74bcadf2551f8p-31'),
    ]),
]


class TestCorrectionJetBits:
    @pytest.mark.parametrize("s, big_t, lanes", JET_TAIL_BITS)
    def test_lane_bits(self, s, big_t, lanes):
        got = kernels._jet_tail(s, big_t, len(lanes))
        assert [(complex(z).real.hex(), complex(z).imag.hex()) for z in got] == lanes


# ---------------------------------------------------------------------------
# The Taylor-mode batch behind the quadrature checks: one s, a level's alphas
# ---------------------------------------------------------------------------


GRID_ALPHAS = [1e-3, 0.0123, 0.05, 0.3, 1.0, 2.7, 12.0, 50.0, 199.0, 200.0]
# circle centres: Re s >= 1/2; Re s < 1/2, where M shrinks with alpha; large
# |Im s|; and very negative Re s, where J grows
GRID_CENTRES = [3.0, 0.7 - 0.2j, -1.6, -1.9 + 4.0j, 0.2 + 7.0j, 2.0 - 45.0j, -30.0 + 2.0j]
# The corrections stop shrinking once |s| passes about 2 pi (M + alpha); the
# sum is then cut back to its smallest term
CUT_CIRCLES = [c + z for c in (2.0 - 200.0j, 2.0 - 300.0j) for z in CIRCLE.tolist()]


def final_over_smallest(s, alpha):
    """|final Bernoulli correction| / |smallest| at s: above 10 the sum is
    cut back to its smallest term."""
    big_t = kernels._jet_head_length(s, alpha) + alpha
    poch, mags = s, []
    for j in range(1, kernels._em_tail_terms(s) + 1):
        mags.append(abs(kernels._B2J_OVER_FACT[j - 1] * poch * big_t ** (1.0 - 2 * j)))
        poch *= (s + 2 * j - 1) * (s + 2 * j)
    return mags[-1] / min(mags)


def jet_lengths_match_scalar(s, alphas):
    """The batch's head lengths equal the scalar rule at every alpha."""
    got = kernels._jet_head_lengths(complex(s), np.array(alphas, dtype=float))
    return got.tolist() == [kernels._jet_head_length(complex(s), a) for a in alphas]


def scalar_head_lengths_per_batch(monkeypatch):
    """Patch the batch head-length rule to record, for each of its calls, how
    many head lengths it took from the scalar rule."""
    scalar, batch = kernels._jet_head_length, kernels._jet_head_lengths
    calls, inside = [], []

    def counted(s, alpha):
        if inside:
            calls[-1] += 1
        return scalar(s, alpha)

    def recorded(s, alphas):
        calls.append(0)
        inside.append(True)
        try:
            return batch(s, alphas)
        finally:
            inside.pop()

    monkeypatch.setattr(kernels, "_jet_head_length", counted)
    monkeypatch.setattr(kernels, "_jet_head_lengths", recorded)
    return calls


def ulps_around(x, count=20):
    return [x + d * EPS * abs(x) for d in range(-count, count + 1)]


def fixed_cap_head_length(s, alpha):
    """The head length rule before the reach bound, copied as the reference
    the reach may only shorten: _EM_CUTOFF, shrunk for Re s < 1/2 so the
    head/integral cancellation times the largest L^k/k! stays below the
    target, and floored at M + alpha = 0.6 |Im s|."""
    def shrunk(growth):
        if s.real < 0.5:
            cap = (kernels._TARGET_ABS_ERROR / (5.0 * EPS * growth)) ** (1.0 / (1.0 - s.real))
            return min(kernels._EM_CUTOFF, max(2, round(cap - alpha) + 1))
        return kernels._EM_CUTOFF

    m = shrunk(1.0)
    if m > 2 and s.real < 0.5:
        log_t, growth = math.log(m + alpha), 1.0
        for k in range(1, min(int(log_t), kernels._MAX_ORDER) + 1):
            growth *= log_t / k
        floor = 0.6 * abs(s.imag) - alpha + 1.0
        m = max(shrunk(growth), int(floor) if floor < m else m)
    return m


def reach(s):
    """max(_EM_MIN_REACH, _EM_REACH_PER_S |s|): how far M + alpha need go."""
    return max(kernels._EM_MIN_REACH, kernels._EM_REACH_PER_S * abs(s))


class TestHeadLength:
    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_reach_only_shortens_the_fixed_cap_rule(self, target):
        # M = min(fixed cap rule, max(2, ceil(R - alpha))) on a seeded grid,
        # and M = 2 at alpha = inf, where the fixed cap rule raises for
        # Re s < 1/2
        rng = random.Random(20261019)
        alphas = [math.exp(rng.uniform(math.log(1e-8), math.log(1e6))) for _ in range(40)]
        shortened = kept = 0
        for _ in range(400):
            s = complex(rng.uniform(-60.0, 30.0), rng.uniform(-100.0, 100.0))
            for alpha in alphas:
                m, fixed = kernels._jet_head_length(s, alpha), fixed_cap_head_length(s, alpha)
                assert m <= fixed, (s, alpha)
                assert m == min(fixed, max(2, math.ceil(reach(s) - alpha))), (s, alpha)
                shortened += m < fixed
                kept += m == fixed > 2
            assert kernels._jet_head_length(s, math.inf) == 2
            assert jet_lengths_match_scalar(s, alphas)
        assert shortened and kept  # both rules bind somewhere on the grid

    def test_a_reach_within_two_skips_the_cancellation_rule(self, monkeypatch):
        def unused(*args):
            raise AssertionError("the cancellation rule was evaluated")

        monkeypatch.setattr(kernels, "_em_head_length", unused)
        for s in (2.0 + 0j, -40.5 + 3.0j, 0.3 + 5.0j, 12.0 + 50.0j):
            for alpha in (reach(s) - 1.0, reach(s), 50.0, 1e78, 1e160, math.inf):
                assert kernels._jet_head_length(s, alpha) == 2, (s, alpha)
            assert kernels._jet_head_lengths(s, np.array([reach(s), 1e78])).tolist() == [2, 2]


def quadrature_s_values():
    """(r, s) of every zeta factor the quadrature checks integrate, recorded
    from a run of the registry."""
    seen = []
    level = kernels._zeta_level

    def recorded(r, s, alphas):
        if (r, complex(s)) not in seen:
            seen.append((r, complex(s)))
        return level(r, s, alphas)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_zeta_level", recorded)
        run_checks()
    return seen


class TestJetBatch:
    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_head_lengths_match_scalar_rule(self, target, monkeypatch):
        rng = random.Random(20261020)
        alphas = GRID_ALPHAS + [math.exp(rng.uniform(math.log(1e-3), math.log(200.0)))
                                for _ in range(10)]
        # both sides of Re s = 1/2, the extremes, random points where the
        # 0.6 |Im s| floor may bind, and random points right of 1/2 where
        # the reach grows with |s|
        points = [complex(x, y) for x in ulps_around(0.5) + [0.4999, -1e300, -40.5, 1e300]
                  for y in (0.0, 7.0, -60.0)]
        points += [complex(rng.uniform(-3.0, 0.5), rng.uniform(-80.0, 80.0))
                   for _ in range(500)]
        points += [complex(rng.uniform(0.5, 30.0), rng.uniform(-80.0, 80.0))
                   for _ in range(200)]
        assert all(jet_lengths_match_scalar(s, alphas) for s in points)
        # R - alpha at an integer k and an ulp or so either side: R =
        # _EM_MIN_REACH at alpha = 8 - k, or _EM_REACH_PER_S |s| on circles
        # |s| = (k + alpha) / _EM_REACH_PER_S outside |s| = 8 / _EM_REACH_PER_S,
        # past the cutoff too
        for s in (2.0 + 0j, 0.3 + 5.0j, -1.5 + 4.0j):
            assert all(jet_lengths_match_scalar(s, ulps_around(kernels._EM_MIN_REACH - k, 3))
                       for k in range(1, 8))
        exact = 0
        for k in range(1, kernels._EM_CUTOFF + 6):
            for alpha in (0.3, 2.7, 12.0):
                if k + alpha < kernels._EM_MIN_REACH:
                    continue
                for x in (-1.0, 0.2, 0.7, 3.0):
                    y = math.sqrt(((k + alpha) / kernels._EM_REACH_PER_S) ** 2 - x * x)
                    for s in (complex(x, v) for v in ulps_around(y, 3)):
                        exact += reach(s) - alpha == k
                        assert jet_lengths_match_scalar(s, [alpha]), (s, alpha)
        assert exact
        # the cancellation rule's own ties, with the reach out of its way
        monkeypatch.setattr(kernels, "_EM_MIN_REACH", math.inf)
        base = target / (5.0 * EPS)
        for alpha in ALPHAS:
            # round(cap - alpha) at k + 1/2, first with the plain cap, then
            # with the cap shrunk by the growth of the head length the plain
            # cap gives
            ties = []
            for k in range(1, kernels._EM_CUTOFF):
                ties += ulps_around(1.0 - math.log(base) / math.log(k + 0.5 + alpha))
                for m in range(2, kernels._EM_CUTOFF + 1):
                    log_t = math.log(m + alpha)
                    growth = max(log_t ** n / math.factorial(n) for n in range(7))
                    tie = 1.0 - math.log(base / growth) / math.log(k + 0.5 + alpha)
                    if kernels._em_head_length(complex(tie), alpha) == m:
                        ties += ulps_around(tie)
            # and 0.6 |Im s| - alpha + 1 at an integer
            floors = [complex(x, y) for n in range(-2, kernels._EM_CUTOFF + 1)
                      for y in ulps_around((n + alpha - 1.0) / 0.6, 3) for x in (-1.0, 0.2)]
            assert all(jet_lengths_match_scalar(s, [alpha])
                       for s in floors + [complex(x) for x in ties])

    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_reach_rule_holds_up_to_the_growth_bound(self, target, monkeypatch):
        # Re s from -4 up to 1/2, where the cancellation cap at the growth
        # bound falls below the reach, at the opening nodes on (0, 1), the
        # same nodes mapped to [1, 200] as cor3 takes them, and both at once
        scalar_calls = scalar_head_lengths_per_batch(monkeypatch)
        opening = quadrature._opening_nodes()
        node_sets = [opening.tolist(), (1.0 + 199.0 * opening).tolist()]
        node_sets.append(node_sets[0] + node_sets[1])
        for k in range(450):
            for y in (0.0, 3.0, -9.0):
                s = complex(-4.0 + 0.01 * k, y)
                assert all(jet_lengths_match_scalar(s, alphas) for alphas in node_sets), s
        assert 0 in scalar_calls and max(scalar_calls) > 0  # both branches ran

    def test_a_verify_pass_takes_the_reach_rule_at_every_batch(self, monkeypatch):
        scalar_calls = scalar_head_lengths_per_batch(monkeypatch)
        assert all(r.status == "pass" for r in run_checks())
        assert scalar_calls == [0] * BATCHES_PER_PASS

    def test_coefficients_match_scalar(self):
        # every coefficient r <= 6, within a tenth of the README bound, and on
        # circles where every point's corrections are cut back to their
        # smallest term at alpha = 1e-3, which every point takes
        rng = random.Random(20261021)
        points = [s for _, s in quadrature_s_values()]
        while len(points) < 80:
            s = complex(rng.uniform(-2.0, 10.0), rng.uniform(-20.0, 20.0))
            if abs(s - 1.0) >= 0.05:
                points.append(s)
        assert all(final_over_smallest(s, 1e-3) > 10.0 for s in CUT_CIRCLES)
        points += CUT_CIRCLES
        worst = 0.0
        for s in points:
            alphas = np.array([1e-3, 200.0] + [math.exp(rng.uniform(math.log(1e-3),
                                                                     math.log(200.0)))
                                               for _ in range(14)])
            batch = kernels._em_jet_batch(s, alphas, 6)
            for alpha, column in zip(alphas.tolist(), batch.T.tolist()):
                for r, (got, ref) in enumerate(zip(column, kernels._em_jet(s, alpha, 6))):
                    value = math.factorial(r) * ref
                    bound = 0.1 * zeta_bound(value) if r == 0 else tenth_of_bound(value)
                    worst = max(worst, math.factorial(r) * abs(got - ref) / bound)
        assert worst <= 1.0

    def test_rows_do_not_depend_on_the_highest_order(self):
        # a verify pass serves row r from a batch taken at a higher order
        alphas = np.concatenate([quadrature._opening_nodes(), quadrature._level_nodes(4)[0]])
        cases = [(s, alphas) for _, s in quadrature_s_values()]
        cases += [(s, np.array([1e-3, 0.7, 200.0])) for s in CUT_CIRCLES]
        for s, xs in cases:
            jets = [kernels._em_jet_batch(s, xs, top) for top in range(kernels._MAX_ORDER + 1)]
            for top, jet in enumerate(jets):
                for r in range(top + 1):
                    assert jet[:r + 1].tobytes() == jets[r].tobytes(), (s, r, top)

    def test_columns_do_not_depend_on_the_other_nodes(self):
        alphas = np.array(GRID_ALPHAS)
        for s in GRID_CENTRES:
            level = kernels._em_jet_batch(s, alphas, 6)
            for i in range(len(alphas)):
                alone = kernels._em_jet_batch(s, alphas[i:i + 1], 6)
                assert level[:, i].tobytes() == alone[:, 0].tobytes(), (s, alphas[i])

    @pytest.mark.parametrize("r", range(kernels._MAX_ORDER + 1))
    @pytest.mark.parametrize("s", [-0.7 - 0.2j, -1.6 + 0.4j, 2.0 - 45.0j, 0.4999999,
                                   1.0 + 0.5000002j])
    def test_a_node_does_not_depend_on_its_tanh_sinh_call(self, r, s):
        # tanh_sinh_01 samples levels 0..3 in one call: a node's value must be
        # the same bits in that block, in its own level alone and alone.  The
        # nodes are mapped to [1, 200] as cor3 takes them, where for Re s < 0
        # their head lengths differ within the block, and taken on (0, 1)
        # unless a^-s overflows at the smallest node there; the last two s lie
        # just outside the pole guard
        opening = quadrature._opening_nodes()
        maps = [lambda xs: 1.0 + 199.0 * xs] + ([lambda xs: xs] if s.real < 1.2 else [])
        if s.real < 0.0:
            assert len(set(kernels._jet_head_lengths(s, maps[0](opening)).tolist())) > 2
        for to_alpha in maps:
            block = kernels._zeta_level(r, s, to_alpha(opening))
            start = 0
            for level in range(quadrature._OPENING_LEVELS):
                alphas = to_alpha(quadrature._level_nodes(level)[0])
                own = block[start:start + len(alphas)]
                assert own.tobytes() == kernels._zeta_level(r, s, alphas).tobytes(), level
                for value, alpha in zip(own, alphas.tolist()):
                    alone = kernels._zeta_level(r, s, np.array([alpha]))
                    assert value.tobytes() == alone.tobytes(), (level, alpha)
                start += len(alphas)
            assert start == len(opening)

    def test_overflow_is_non_finite_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kernels._em_jet_batch(-300.0, np.array([0.5, 1e6, 1.0]), 3)
            edges = [kernels._em_jet_batch(s, np.array([0.5, 2.0]), 2)
                     for s in (-math.inf, 1.0, complex(2.0, math.inf))]
        assert np.isfinite(got[:, [0, 2]]).all() and not np.isfinite(got[:, 1]).any()
        assert not any(np.isfinite(edge).any() for edge in edges)

    def test_level_overflow_is_the_scalar_refusal_without_warnings(self):
        # a^-s overflows at the smallest level-0 node on (0, 1): its inf+nan
        # column, times r!, must not warn before the scalar refuses the node
        alphas = quadrature._level_nodes(0)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericOverflowError) as info:
                kernels._zeta_level(0, 2.0 - 45.0j, alphas)
        assert str(info.value) == "Euler-Maclaurin overflow in hurwitz_zeta"


# ---------------------------------------------------------------------------
# The bounds that settle the correction cut and the Re s < 1/2 head length
# ---------------------------------------------------------------------------


CORPUS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "kernel_refs.json.gz"
HEAD_LENGTH_PINS = Path(__file__).parent / "data" / "jet_head_lengths.json"
# (s, M + a) where (s)_{2j-1} overflows before J while the weights do not
# vanish: with every term the sum is not finite, and the search cuts it back
# to a finite one
RISING_OVERFLOW = [(complex(3.18e13), 6.36e12), (complex(0.0, 3.18e13), 6.36e12),
                   (complex(3.18e13), 9.54e12)]


@pytest.fixture(scope="module")
def corpus_sums():
    """(s, alpha, order, minus_pole) of the Taylor-mode sum behind every
    stored kernel-eval input: zeta and the broken region at order 0, the
    derivatives at order r, the Stieltjes constants at s = 1 minus the
    pole, and hurwitz_taylor(s, alpha, 3) at the complex alpha + 3."""
    with gzip.open(CORPUS, "rt") as fh:
        classes = json.load(fh)["classes"]
    sums = [(complex(x, y), a, 0, False) for x, y, a, *_ in classes["zeta"] + classes["broken"]]
    sums += [(complex(x, y), a, r, False) for r, x, y, a, *_ in classes["deriv"]]
    sums += [(1.0 + 0j, a, n, True) for n, a, *_ in classes["stieltjes"]]
    sums += [(complex(x, y), complex(u, v) + 3, 0, False)
             for x, y, u, v, *_ in classes["taylor"]]
    return sums


def bound_grid():
    """(s, alpha), seeded: the integers -20..10 but the pole, real and
    complex s with Re s in [-45, 12] and |Im s| up to 300, alpha from 1e-3
    to 1e160 and inf."""
    rng = random.Random(20261023)
    alphas = [1e-3, 0.05, 0.7, 3.0, 12.0, 60.0, 500.0, 1e6, 1e78, 1e160, math.inf]
    ss = [complex(n) for n in range(-20, 11) if n != 1]
    ss += [complex(rng.uniform(-45.0, 12.0)) for _ in range(15)]
    ss += [complex(rng.uniform(-45.0, 12.0), rng.uniform(-300.0, 300.0)) for _ in range(25)]
    return [(s, alpha) for s in ss for alpha in alphas]


def complex_alpha_grid():
    """(s, alpha + 3) as hurwitz_taylor passes them, seeded, and complex
    alphas with Re alpha up to 1e6."""
    rng = random.Random(20261024)
    points = [(complex(rng.uniform(-12.0, 8.0), rng.uniform(-40.0, 40.0)),
               complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) + 3) for _ in range(60)]
    points += [(complex(rng.uniform(-3.0, 3.0)), complex(rng.uniform(1e3, 1e6), 7.0))
               for _ in range(10)]
    return points


def tail_falls(s, big_t):
    """Whether _jet_tail's bound skips the smallest-term search."""
    return abs(s) + 2.0 * kernels._em_tail_terms(s) < kernels._EM_TAIL_FALL * abs(big_t)


def searched(call, inputs):
    """``call`` at every input with the bound off, so every cut is searched for."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_EM_TAIL_FALL", 0.0)
        return [call(*x) for x in inputs]


def head_length_pin_grid():
    """100 seeded s with Re s < 1/2, every third on the real axis and the
    rest with |Im s| up to 40 or 1000, and at each 20 alphas: 16 in
    [1e-3, 60], 1e-300, 1e-9, 1e160 and inf."""
    rng = random.Random(20261022)
    grid = []
    for i in range(100):
        x = rng.uniform(-3.0, 0.5) if i % 2 else rng.uniform(-60.0, -3.0)
        y = [0.0, rng.uniform(-40.0, 40.0), rng.uniform(-1000.0, 1000.0)][i % 3]
        alphas = [math.exp(rng.uniform(math.log(1e-3), math.log(60.0))) for _ in range(16)]
        grid.append((complex(x, y), alphas + [1e-300, 1e-9, 1e160, math.inf]))
    return grid


def cancellation_rule_calls(monkeypatch):
    """Patch the cancellation rule to count its evaluations."""
    rule, calls = kernels._em_head_length, []

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(kernels, "_em_head_length", counted)
    return calls


class TestFallBound:
    def test_bernoulli_factor(self):
        # B_{2j+2} / ((2j+1)(2j+2) B_{2j}) < 1/(4 p^2) < 1/(4 pi^2) for every
        # ratio of two of the at most 20 corrections, exactly, with p > pi:
        # math.pi is pi rounded to nearest, within half its ulp of 2^-51.
        # The factor is zeta(2j+2)/zeta(2j) / (4 pi^2), less than 1/(4 pi^2)
        # by a share below 4^-j, so p = 355/113, 2.7e-7 above pi, fails from
        # j = 12 on
        pi_above = Fraction(math.pi) + Fraction(1, 2 ** 51)
        assert len(kernels._B2J_OVER_FACT) == 20
        for j in range(1, 20):
            b, b_next = exact.bernoulli_number(2 * j), exact.bernoulli_number(2 * j + 2)
            assert (2 * j + 1) * (2 * j + 2) * abs(b) > 4 * pi_above ** 2 * abs(b_next), j
        assert (kernels._EM_TAIL_FALL / (2.0 * math.pi)) ** 2 < 0.89

    def test_tail_bits(self):
        points = [(s, kernels._jet_head_length(s, a) + a) for s, a in bound_grid()]
        points += [(s, kernels._jet_head_length(s, a.real) + a) for s, a in complex_alpha_grid()]
        points += RISING_OVERFLOW
        sides = [tail_falls(s, big_t) for s, big_t in points]
        assert any(sides) and not all(sides)
        for size in range(1, kernels._MAX_ORDER + 2):
            got = [lane_bits(kernels._jet_tail(s, big_t, size)) for s, big_t in points]
            assert got == searched(lambda s, t: lane_bits(kernels._jet_tail(s, t, size)), points)
        # where every term is summed the rising factorial overflows, and the
        # search gives the finite tail
        for s, big_t in RISING_OVERFLOW:
            assert tail_falls(s, big_t) and cmath.isfinite(kernels._jet_tail(s, big_t, 1)[0])

    def test_sum_bits(self):
        points = [(s, a, False) for s, a in bound_grid()]
        points += [(s, a, False) for s, a in complex_alpha_grid()]
        points += [(1.0 + 0j, a, True) for _, a in bound_grid()[:11]]
        points += [(s, big_t - 25.0, False) for s, big_t in RISING_OVERFLOW]
        for order in range(kernels._MAX_ORDER + 1):
            inputs = [(s, a, order, pole) for s, a, pole in points]
            got = [lane_bits(kernels._em_jet_sum(*x)) for x in inputs]
            assert got == searched(lambda *x: lane_bits(kernels._em_jet_sum(*x)), inputs), order

    def test_corpus_bits(self, corpus_sums):
        got = [lane_bits(kernels._em_jet_sum(*x)) for x in corpus_sums]
        assert got == searched(lambda *x: lane_bits(kernels._em_jet_sum(*x)), corpus_sums)

    def test_corpus_takes_both_sides_of_each_bound(self, corpus_sums, monkeypatch):
        calls = cancellation_rule_calls(monkeypatch)
        tail = {True: 0, False: 0}
        head = {"settled": 0, "rule": 0}
        for s, alpha, _, _ in corpus_sums:
            before = len(calls)
            m = kernels._jet_head_length(s, alpha.real)
            tail[tail_falls(s, m + alpha)] += 1
            if s.real < 0.5 and reach(s) - alpha.real > 2.0:
                head["rule" if len(calls) > before else "settled"] += 1
        assert len(corpus_sums) == 76500
        assert all(tail.values()) and all(head.values()), (tail, head)


class TestHeadLengthPins:
    def test_recorded_head_lengths(self, monkeypatch):
        # M at Re s < 1/2 as recorded before the growth bound could settle it
        # in the scalar rule, and the batch's M node by node
        calls = cancellation_rule_calls(monkeypatch)
        pins = json.loads(HEAD_LENGTH_PINS.read_text())["m"]
        grid = head_length_pin_grid()
        assert len(pins) == len(grid) == 100
        settled = 0
        for (s, alphas), row in zip(grid, pins):
            for alpha, m in zip(alphas, row):
                before = len(calls)
                assert kernels._jet_head_length(s, alpha) == m, (s, alpha)
                settled += len(calls) == before and reach(s) - alpha > 2.0
            finite = alphas[:-1]  # the batch takes finite alphas only
            assert kernels._jet_head_lengths(s, np.array(finite)).tolist() == row[:-1], s
        assert settled and calls  # both sides of the growth bound

    def test_nan_alpha_raises(self):
        for s in (0.2 + 3.0j, -5.0 + 0j, -40.0 + 100.0j):
            with pytest.raises(ValueError):
                kernels._jet_head_length(s, math.nan)


# ---------------------------------------------------------------------------
# Complex alpha: what hurwitz_taylor refuses (its values: test_oracle.py)
# ---------------------------------------------------------------------------


class TestTaylorRefusals:
    @pytest.mark.parametrize("s, alpha, k, error, message", [
        (complex(1.0, 1e-10), 0.5, 2, PoleProximityError, "hurwitz_zeta pole at s = 1"),
        (1.0, 0.3 + 0.4j, 3, PoleProximityError, "hurwitz_zeta pole at s = 1"),
        (1.5, -1.0, 3, DomainError, "alpha makes a head term (n + alpha) vanish"),
        (math.nan, 0.5, 2, DomainError, "hurwitz_taylor got NaN for s"),
        (-1.5, complex(0.3, math.nan), 3, DomainError, "hurwitz_taylor got NaN for alpha"),
        (math.inf, 0.5, 3, NumericOverflowError, "non-finite value in hurwitz_taylor"),
        (-math.inf, 0.5, 3, NumericOverflowError, "non-finite value in hurwitz_taylor"),
        (complex(2.0, math.inf), 0.5, 2, NumericOverflowError,
         "non-finite value in hurwitz_taylor"),
        (complex(2.0, -math.inf), 0.5, 2, NumericOverflowError,
         "non-finite value in hurwitz_taylor"),
    ])
    def test_refusals_keep_type_and_message(self, s, alpha, k, error, message):
        assert outcome(lambda: hurwitz_taylor(s, alpha, k)) == (error, message)

    def test_value_at_large_re_s(self):
        # inside the disc at Re s = 8.5; mpmath 1.3 at 30 digits:
        # -845.227695669552708... + 1637.377804517998303...i
        expected = -845.2276956695527 + 1637.3778045179983j
        assert abs(hurwitz_taylor(8.5, -1.6 - 0.1j, 2) - expected) <= 1e-9
