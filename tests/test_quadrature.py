"""tanh-sinh quadrature against analytic antiderivatives, on (0, 1) and, through
the affine map, on [1, A]."""

import math

import pytest

from zetalab.errors import ConvergenceError, NumericOverflowError
from zetalab.quadrature import tanh_sinh_01


def integrate_1_to(f, big_a, tol):
    """Integral of f over [1, A] as (A-1) times that of f(1 + (A-1) x) over
    (0, 1), to the absolute tolerance ``tol``."""
    width = big_a - 1.0
    return width * tanh_sinh_01(lambda x: f(1.0 + width * x), tol / width).value


class TestTanhSinh:
    def test_constant(self):
        res = tanh_sinh_01(lambda x: 1.0, 1e-13)
        assert abs(res.value - 1.0) < 1e-13
        assert res.evaluations > 0

    def test_inverse_sqrt(self):
        res = tanh_sinh_01(lambda x: x ** -0.5, 1e-12)
        assert abs(res.value - 2.0) < 1e-11

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.8])
    def test_algebraic_singularity_family(self, sigma):
        res = tanh_sinh_01(lambda x: x ** -sigma, 1e-12)
        exact = 1.0 / (1.0 - sigma)
        assert abs(res.value - exact) / exact < 1e-10

    def test_log_singularity(self):
        res = tanh_sinh_01(lambda x: math.log(x), 1e-12)
        assert abs(res.value + 1.0) < 1e-11

    def test_both_endpoints(self):
        # Beta(1/2, 1/2) = pi; the right-endpoint 1-x cancellation caps the
        # reachable accuracy near 1e-8 when the integrand only receives x
        res = tanh_sinh_01(lambda x: (x * (1 - x)) ** -0.5, 1e-9)
        assert abs(res.value - math.pi) < 1e-7

    def test_complex_componentwise(self):
        res = tanh_sinh_01(lambda x: complex(x, x * x), 1e-13)
        assert abs(res.value - complex(0.5, 1.0 / 3.0)) < 1e-12

    def test_error_estimate_bound(self):
        res = tanh_sinh_01(lambda x: math.exp(x), 1e-10)
        assert abs(res.value - (math.e - 1.0)) <= max(1e-10, 10 * res.error_estimate)

    def test_refinement_monotonic_for_analytic(self):
        # track level-by-level estimates through the public interface by
        # shrinking tolerance; each refinement gains at least 10x until the floor
        errs = []
        for tol in (1e-3, 1e-6, 1e-12):
            res = tanh_sinh_01(lambda x: 1.0 / (1.0 + x), tol)
            errs.append(abs(res.value - math.log(2.0)))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < 1e-12

    def test_nonfinite_sample_raises(self):
        with pytest.raises(NumericOverflowError):
            tanh_sinh_01(lambda x: float("nan"), 1e-8)

    def test_budget_exhaustion_raises(self):
        with pytest.raises(ConvergenceError):
            tanh_sinh_01(lambda x: x ** -0.999, 1e-14, budget=64)

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            tanh_sinh_01(lambda x: 1.0, 0.0)


class TestAffineMap:
    def test_power_rule(self):
        value = integrate_1_to(lambda x: x ** -3.0, 100.0, 1e-12)
        exact = (1.0 - 100.0 ** -2.0) / 2.0
        assert abs(value - exact) < 1e-11

    def test_oscillatory_smooth(self):
        value = integrate_1_to(lambda x: math.sin(x) / x, 50.0, 1e-11)
        # Si(50) - Si(1): against a 100x tighter run of the same rule
        finer = integrate_1_to(lambda x: math.sin(x) / x, 50.0, 1e-13)
        assert abs(value - finer) < 1e-10

    def test_long_interval(self):
        value = integrate_1_to(lambda x: x ** -2.0, 5000.0, 1e-11)
        assert abs(value - (1.0 - 1.0 / 5000.0)) < 1e-10
