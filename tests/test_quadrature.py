"""tanh-sinh quadrature against analytic antiderivatives, on (0, 1) and, through
the affine map, on [1, A]."""

import inspect
import itertools
import math

import numpy as np
import pytest

from zetalab import quadrature
from zetalab.errors import ConvergenceError, NumericOverflowError
from zetalab.quadrature import _level_nodes, tanh_sinh_01


def integrate_1_to(f, big_a, tol):
    """Integral of f over [1, A] as (A-1) times that of f(1 + (A-1) x) over
    (0, 1), to the absolute tolerance ``tol``; f takes an array of nodes."""
    width = big_a - 1.0
    return width * tanh_sinh_01(lambda xs: f(1.0 + width * xs), tol / width).value


def per_node(g):
    """A scalar integrand as an integrand over a level's nodes."""
    return lambda xs: [g(x) for x in xs.tolist()]


def scalar_tanh_sinh(g, tol, budget=2 ** 16):
    """The scalar loop: the same nodes and refinement, with g called node by
    node in node order, one sample at a time."""
    evaluations = 0
    partial = 0j
    value_prev = None
    for level in itertools.count():
        xs, ws = _level_nodes(level)
        if evaluations + len(ws) > budget:
            raise ConvergenceError("budget")
        for x, w in zip(xs.tolist(), ws):
            partial += w * complex(g(x))
            evaluations += 1
        value = 2.0 ** (-level) * partial
        if value_prev is not None:
            diff = value - value_prev
            err = max(abs(diff.real), abs(diff.imag))
            if err <= tol:
                return value, err, evaluations
        value_prev = value


# (scalar integrand, tolerance): every integrand of the tests below
SCALAR_CASES = [
    (lambda x: 1.0, 1e-13),
    (lambda x: x ** -0.5, 1e-12),
    (lambda x: x ** -0.2, 1e-12),
    (lambda x: x ** -0.8, 1e-12),
    (math.log, 1e-12),
    (lambda x: (x * (1 - x)) ** -0.5, 1e-9),
    (lambda x: complex(x, x * x), 1e-13),
    (math.exp, 1e-10),
    (lambda x: 1.0 / (1.0 + x), 1e-1),  # converges at level 1,
    (lambda x: 1.0 / (1.0 + x), 1e-3),  # and at level 2, inside the opening call
    (lambda x: 1.0 / (1.0 + x), 1e-12),
    (lambda x: (1.0 + 99.0 * x) ** -3.0, 1e-12 / 99.0),
    (lambda x: math.sin(1.0 + 49.0 * x) / (1.0 + 49.0 * x), 1e-13 / 49.0),
    (lambda x: (1.0 + 4999.0 * x) ** -2.0, 1e-11 / 4999.0),
]


class TestTanhSinh:
    def test_constant(self):
        res = tanh_sinh_01(lambda xs: np.ones_like(xs), 1e-13)
        assert abs(res.value - 1.0) < 1e-13
        assert res.evaluations > 0

    def test_inverse_sqrt(self):
        res = tanh_sinh_01(lambda xs: xs ** -0.5, 1e-12)
        assert abs(res.value - 2.0) < 1e-11

    @pytest.mark.parametrize("sigma", [0.2, 0.5, 0.8])
    def test_algebraic_singularity_family(self, sigma):
        res = tanh_sinh_01(lambda xs: xs ** -sigma, 1e-12)
        exact = 1.0 / (1.0 - sigma)
        assert abs(res.value - exact) / exact < 1e-10

    def test_log_singularity(self):
        res = tanh_sinh_01(np.log, 1e-12)
        assert abs(res.value + 1.0) < 1e-11

    def test_both_endpoints(self):
        # Beta(1/2, 1/2) = pi; the right-endpoint 1-x cancellation caps the
        # reachable accuracy near 1e-8 when the integrand only receives x
        res = tanh_sinh_01(lambda xs: (xs * (1 - xs)) ** -0.5, 1e-9)
        assert abs(res.value - math.pi) < 1e-7

    def test_complex_componentwise(self):
        res = tanh_sinh_01(lambda xs: xs + 1j * (xs * xs), 1e-13)
        assert abs(res.value - complex(0.5, 1.0 / 3.0)) < 1e-12

    def test_error_estimate_bound(self):
        res = tanh_sinh_01(np.exp, 1e-10)
        assert abs(res.value - (math.e - 1.0)) <= max(1e-10, 10 * res.error_estimate)

    def test_refinement_monotonic_for_analytic(self):
        # track level-by-level estimates through the public interface by
        # shrinking tolerance; each refinement gains at least 10x until the floor
        errs = []
        for tol in (1e-3, 1e-6, 1e-12):
            res = tanh_sinh_01(lambda xs: 1.0 / (1.0 + xs), tol)
            errs.append(abs(res.value - math.log(2.0)))
        assert errs[0] >= errs[1] >= errs[2]
        assert errs[2] < 1e-12

    def test_nonfinite_sample_raises(self):
        with pytest.raises(NumericOverflowError):
            tanh_sinh_01(lambda xs: np.full(len(xs), np.nan), 1e-8)

    def test_nonfinite_sample_names_its_node(self):
        # the first level's fourth node gives inf; the error names that x
        # even though the whole level was sampled before any check
        xs0 = _level_nodes(0)[0].tolist()

        def f(xs):
            return [math.inf if x == xs0[3] else 1.0 for x in xs.tolist()]

        with pytest.raises(NumericOverflowError) as info:
            tanh_sinh_01(f, 1e-8)
        assert str(info.value) == f"non-finite integrand sample at x={xs0[3]!r}"

    def test_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_BUDGET", 64)
        with pytest.raises(ConvergenceError):
            tanh_sinh_01(lambda xs: xs ** -0.999, 1e-14)

    def test_default_budget_stops_after_level_12(self):
        # levels 0..12 hold 37 886 nodes; level 13 would pass 2**16
        with pytest.raises(ConvergenceError, match="budget exhausted: 37886 evaluations"):
            tanh_sinh_01(lambda xs: xs ** -0.999, 1e-14)

    def test_takes_only_the_integrand_and_tolerance(self):
        assert list(inspect.signature(tanh_sinh_01).parameters) == ["f", "tol"]

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            tanh_sinh_01(lambda xs: np.ones_like(xs), 0.0)

    @pytest.mark.parametrize("tol", [math.nan, -1e-9, -math.inf])
    def test_bad_tolerance_raises_before_sampling(self, tol):
        calls = []
        with pytest.raises(ValueError, match="tolerance must be positive"):
            tanh_sinh_01(lambda xs: calls.append(xs) or np.ones_like(xs), tol)
        assert calls == []

    def test_opening_levels_in_one_call_then_one_per_level(self):
        # levels 0..3 in one call, concatenated in level order; then one call
        # per level on its new nodes, up to the level that converges (6 here)
        calls = []

        def f(xs):
            calls.append(xs)
            return (xs * (1 - xs)) ** -0.5

        res = tanh_sinh_01(f, 1e-9)
        opening = [x for level in range(4) for x in _level_nodes(level)[0].tolist()]
        assert [xs.tolist() for xs in calls] == [opening] + [
            _level_nodes(level)[0].tolist() for level in (4, 5, 6)]
        assert all(xs.dtype == np.float64 and xs.ndim == 1 for xs in calls)
        assert sum(len(xs) for xs in calls) == res.evaluations == 592

    def test_early_convergence_counts_only_the_levels_it_used(self):
        # converged at level 2: one call on 74 nodes, 37 samples in the value
        calls = []
        res = tanh_sinh_01(lambda xs: calls.append(len(xs)) or 1.0 / (1.0 + xs), 1e-3)
        assert calls == [74] and res.evaluations == 37

    def test_wrong_sample_count_raises(self):
        with pytest.raises(ValueError, match="integrand returned 73 values for 74 nodes"):
            tanh_sinh_01(lambda xs: xs[1:], 1e-8)
        # a later level's short return (this integrand needs level 4)
        with pytest.raises(ValueError):
            tanh_sinh_01(lambda xs: (xs * (1 - xs)) ** -0.5 if len(xs) == 74 else xs[1:], 1e-9)


class TestScalarReference:
    @pytest.mark.parametrize("g, tol", SCALAR_CASES)
    def test_equals_the_scalar_loop(self, g, tol):
        res = tanh_sinh_01(per_node(g), tol)
        assert (res.value, res.error_estimate, res.evaluations) == scalar_tanh_sinh(g, tol)

    @pytest.mark.parametrize("tol, evaluations", [(1e-1, 19), (1e-3, 37)])
    def test_non_finite_past_the_converged_level_is_never_checked(self, tol, evaluations):
        # inf at every level-3 node, which the opening call samples; the loop
        # converges at level 1 or 2, so returns as the scalar loop does
        level_3 = set(_level_nodes(3)[0].tolist())

        def g(x):
            return math.inf if x in level_3 else 1.0 / (1.0 + x)

        res = tanh_sinh_01(per_node(g), tol)
        assert (res.value, res.error_estimate, res.evaluations) == scalar_tanh_sinh(g, tol)
        assert res.evaluations == evaluations

    def test_array_result_equals_list_result(self):
        # an integrand may return an array or a list; the samples decide
        res = tanh_sinh_01(lambda xs: 1.0 / (1.0 + xs), 1e-12)
        assert res == tanh_sinh_01(lambda xs: (1.0 / (1.0 + xs)).tolist(), 1e-12)


class TestAffineMap:
    def test_power_rule(self):
        value = integrate_1_to(lambda xs: xs ** -3.0, 100.0, 1e-12)
        exact = (1.0 - 100.0 ** -2.0) / 2.0
        assert abs(value - exact) < 1e-11

    def test_oscillatory_smooth(self):
        value = integrate_1_to(lambda xs: np.sin(xs) / xs, 50.0, 1e-11)
        # Si(50) - Si(1): against a 100x tighter run of the same rule
        finer = integrate_1_to(lambda xs: np.sin(xs) / xs, 50.0, 1e-13)
        assert abs(value - finer) < 1e-10

    def test_long_interval(self):
        value = integrate_1_to(lambda xs: xs ** -2.0, 5000.0, 1e-11)
        assert abs(value - (1.0 - 1.0 / 5000.0)) < 1e-10
