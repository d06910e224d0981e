"""Exact rational layer: Bernoulli numbers/polynomials and [0,1] integrals."""

import math
import random
from fractions import Fraction
from math import comb

import pytest

from zetalab.exact import (RatPoly, _endpoint_jumps, bernoulli_number,
                           bernoulli_polynomial, bernoulli_product_integral,
                           poly_integral_01, rational_str, zeta_neg_int_poly)


def multisets(max_total, max_len=3):
    out = []
    for m1 in range(1, max_total + 1):
        out.append((m1,))
        for m2 in range(m1, max_total + 1 - m1):
            out.append((m1, m2))
            if max_len >= 3:
                for m3 in range(m2, max_total + 1 - m1 - m2):
                    out.append((m1, m2, m3))
    return [ms for ms in out if sum(ms) <= max_total]


class TestBernoulliNumbers:
    @pytest.mark.parametrize("n, expected", [
        (0, Fraction(1)),
        (1, Fraction(-1, 2)),
        (2, Fraction(1, 6)),
        (3, Fraction(0)),
        (12, Fraction(-691, 2730)),
    ])
    def test_values(self, n, expected):
        assert bernoulli_number(n) == expected

    def test_recurrence_oracle(self):
        # sum_{k=0}^{m} C(m+1, k) B_k = 0 for every m >= 1
        for m in range(1, 31):
            acc = sum(comb(m + 1, k) * bernoulli_number(k) for k in range(m + 1))
            assert acc == 0, m

    def test_odd_vanish(self):
        assert all(bernoulli_number(n) == 0 for n in range(3, 31, 2))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            bernoulli_number(-1)

    def test_canonical_form(self):
        for n in range(0, 25):
            b = bernoulli_number(n)
            assert b.denominator > 0
            assert math.gcd(abs(b.numerator), b.denominator) == 1

    def test_concurrent_cache_growth(self):
        from concurrent.futures import ThreadPoolExecutor
        expected = bernoulli_number(80)
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(bernoulli_number, [80] * 16 + list(range(50, 80))))
        assert values[0] == expected
        assert all(values[i] == expected for i in range(16))


class TestBernoulliPolynomials:
    def test_low_degrees(self):
        assert bernoulli_polynomial(0) == RatPoly((1,))
        assert bernoulli_polynomial(1) == RatPoly((Fraction(-1, 2), 1))
        assert bernoulli_polynomial(2) == RatPoly((Fraction(1, 6), -1, 1))

    def test_product_example(self):
        prod = bernoulli_polynomial(1) * bernoulli_polynomial(2)
        assert prod == RatPoly((Fraction(-1, 12), Fraction(2, 3), Fraction(-3, 2), 1))

    def test_mul_zero_absorbs(self):
        assert bernoulli_polynomial(4) * RatPoly() == RatPoly()

    def test_square(self):
        b1 = bernoulli_polynomial(1)
        assert b1 * b1 == RatPoly((Fraction(1, 4), -1, 1))

    def test_eval(self):
        assert bernoulli_polynomial(1).evaluate(Fraction(1, 2)) == 0
        assert bernoulli_polynomial(2).evaluate(0) == Fraction(1, 6)
        assert RatPoly().evaluate(Fraction(7, 3)) == 0

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 16])
    def test_eval_equals_fraction_horner(self, n):
        # the integer Horner against Horner in Fractions
        for x in (0, 1, -3, Fraction(7, 3), Fraction(-5, 12), Fraction(1, 10 ** 9)):
            for p in (bernoulli_polynomial(n), bernoulli_polynomial(n).derivative(),
                      RatPoly((Fraction(3, 4),) * n + (Fraction(-2, 9),))):
                acc = Fraction(0)
                for c in reversed(p.coeffs):
                    acc = acc * x + c
                assert p.evaluate(x) == acc, (n, x, p)

    @pytest.mark.parametrize("n", range(17))
    def test_reflection(self, n):
        # B_n(1 - x) = (-1)^n B_n(x), by exact evaluation at rational points
        bn = bernoulli_polynomial(n)
        for x in (0, 1, -3, Fraction(1, 2), Fraction(7, 3), Fraction(-5, 12)):
            assert bn.evaluate(1 - x) == (-1) ** n * bn.evaluate(x), (n, x)

    def test_degree_formula(self):
        for n in range(12):
            assert bernoulli_polynomial(n).degree == n

    def test_memoized(self):
        assert bernoulli_polynomial(9) is bernoulli_polynomial(9)

    def test_negative_index_refused_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ValueError, match="non-negative"):
                bernoulli_polynomial(-1)


class TestIntegrals:
    def test_constant(self):
        assert poly_integral_01(RatPoly((1,))) == 1

    @pytest.mark.parametrize("n", range(1, 17))
    def test_zero_mean(self, n):
        assert poly_integral_01(bernoulli_polynomial(n)) == 0

    def test_b1_squared(self):
        b1 = bernoulli_polynomial(1)
        assert poly_integral_01(b1 * b1) == Fraction(1, 12)

    @pytest.mark.parametrize("ms, expected", [
        ((1, 2), Fraction(0)),
        ((1, 1), Fraction(1, 12)),
        ((2, 2), Fraction(1, 180)),
        ((), Fraction(1)),
    ])
    def test_product_integral_values(self, ms, expected):
        assert bernoulli_product_integral(ms) == expected

    def test_invalid_index(self):
        with pytest.raises(ValueError):
            bernoulli_product_integral((0, 2))

    def test_two_independent_paths_agree(self):
        for ms in multisets(12):
            prod = RatPoly((1,))
            for m in ms:
                prod = prod * bernoulli_polynomial(m)
            assert bernoulli_product_integral(ms) == poly_integral_01(prod), ms

    def test_odd_sum_vanishes_exactly(self):
        odd = [ms for ms in multisets(15) if sum(ms) % 2 == 1]
        assert odd
        for ms in odd:
            assert bernoulli_product_integral(ms) == 0, ms


def chain_product_integral(indices):
    """The Bernoulli-basis integral by the Fraction derivative chain that the
    integer endpoint jumps replaced: every p^(n-1) evaluated at 0 and at 1."""
    if any(m < 1 for m in indices):
        raise ValueError("Bernoulli product indices must be >= 1")
    prod = RatPoly.one()
    for m in indices:
        prod = prod * bernoulli_polynomial(m)
    total = prod.evaluate(0)
    deriv = prod
    n = 1
    while not deriv.is_zero():
        jump = deriv.evaluate(1) - deriv.evaluate(0)
        total -= bernoulli_number(n) * jump / math.factorial(n)
        deriv = deriv.derivative()
        n += 1
    return total


class TestProductIntegralAgainstChain:
    def test_every_small_multiset(self):
        cases = multisets(15)
        assert len(cases) > 100
        for ms in cases:
            assert bernoulli_product_integral(ms) == chain_product_integral(ms), ms

    @pytest.mark.parametrize("ms", [(20, 20), (13, 13, 14), (31, 32)])
    def test_large(self, ms):
        got = bernoulli_product_integral(ms)
        assert got == chain_product_integral(ms)
        assert got != 0 or sum(ms) % 2 == 1

    def test_empty_product(self):
        assert bernoulli_product_integral(()) == 1
        assert isinstance(bernoulli_product_integral(()), Fraction)

    @pytest.mark.parametrize("ms", [(0,), (3, 0), (2, -1, 4)])
    def test_index_below_one_rejected(self, ms):
        with pytest.raises(ValueError):
            bernoulli_product_integral(ms)


def derivative_chain_jumps(ints):
    """[p^(k-1)(1) - p^(k-1)(0) for k = 1..deg p] of the integer polynomial
    with ascending coefficients ``ints``, by the integer derivative chain
    that the Taylor shift replaced: each jump is the sum of a derivative's
    coefficients past the constant one."""
    jumps, deriv = [], list(ints)
    while len(deriv) > 1:
        jumps.append(sum(deriv[1:]))
        deriv = [i * deriv[i] for i in range(1, len(deriv))]
    return jumps


class TestEndpointJumps:
    @pytest.mark.parametrize("degree", range(65))
    def test_taylor_shift_matches_the_derivative_chain(self, degree):
        # seeded integers of up to 40 digits, either sign, leading one nonzero
        rng = random.Random(f"jumps:{degree}")
        for _ in range(4):
            ints = [rng.randint(-10 ** 40, 10 ** 40) for _ in range(degree)]
            ints.append(rng.choice([-1, 1]) * rng.randint(1, 10 ** 40))
            p = RatPoly._from_ints(list(ints), rng.randint(1, 10 ** 6))
            assert _endpoint_jumps(p) == derivative_chain_jumps(p._ints)

    def test_zero_polynomial_has_no_jumps(self):
        assert _endpoint_jumps(RatPoly()) == []


class TestZetaNegIntPoly:
    def test_zeta_zero(self):
        # zeta(0, x) = 1/2 - x
        assert zeta_neg_int_poly(0) == RatPoly((Fraction(1, 2), -1))

    def test_zeta_minus_one(self):
        assert zeta_neg_int_poly(1) == bernoulli_polynomial(2).scale(Fraction(-1, 2))

    def test_zeta_minus_two(self):
        # -B_3(x)/3 with B_3 = x^3 - (3/2)x^2 + (1/2)x
        assert zeta_neg_int_poly(2) == RatPoly((0, Fraction(-1, 6), Fraction(1, 2),
                                                Fraction(-1, 3)))

    @pytest.mark.parametrize("m", range(11))
    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2)])
    def test_rational_everywhere(self, m, x):
        value = zeta_neg_int_poly(m).evaluate(x)
        assert isinstance(value, Fraction)

    @pytest.mark.parametrize("m", range(11))
    def test_value_at_one(self, m):
        poly = bernoulli_polynomial(m + 1)
        expected = -poly.evaluate(1) / (m + 1)
        assert zeta_neg_int_poly(m).evaluate(1) == expected


class TestRatPolyBasics:
    def test_trailing_zeros_stripped(self):
        assert RatPoly((1, 2, 0, 0)).degree == 1

    def test_zero_polynomial(self):
        z = RatPoly()
        assert z.is_zero() and z.degree == -1

    def test_derivative(self):
        p = RatPoly((5, 3, 1))
        assert p.derivative() == RatPoly((3, 2))

    def test_pretty_str(self):
        assert bernoulli_polynomial(2).pretty_str() == "alpha^2 - alpha + 1/6"

    # a scalar product is .scale, so * takes only another RatPoly
    @pytest.mark.parametrize("other", [0.5, 1j, "x", None, 3, Fraction(1, 2)])
    def test_other_operand_types_are_a_type_error(self, other):
        p = RatPoly((1, 2))
        for op in (lambda: p * other, lambda: other * p, lambda: p + other,
                   lambda: other + p, lambda: p - other):
            with pytest.raises(TypeError):
                op()

    def test_rational_str(self):
        assert rational_str(Fraction(-691, 2730)) == "-691/2730"
        assert rational_str(Fraction(3)) == "3"
