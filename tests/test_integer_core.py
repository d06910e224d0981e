"""Property tests of ``zetalab.exact``: the stored form of ``RatPoly``
(integer numerators over one positive denominator, in lowest terms, however
the polynomial was built), the endpoint jumps p^(k-1)(1) - p^(k-1)(0)
against the Fraction derivative chain, products, scalar products and the
integer Taylor shift against their Fraction loops, the two [0, 1]
integration routes against their Fraction sums, and the reflection
p(1 - x)."""

import math
from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from zetalab.exact import (RatPoly, _bernoulli_over_factorial,  # noqa: E402
                           _bernoulli_product, _endpoint_jumps, _int_poly_mul,
                           bernoulli_number, bernoulli_polynomial,
                           bernoulli_product_integral, poly_integral_01,
                           poly_reflect)

coefficients = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**9)
polys = st.lists(coefficients, max_size=65).map(RatPoly)  # degree -1..64
PROPERTY = settings(max_examples=60, deadline=None, database=None)


def chain_jumps(p):
    """[p^(k-1)(1) - p^(k-1)(0) for k = 1..deg p] in Fractions."""
    out = []
    deriv = p
    while deriv.degree >= 1:
        out.append(deriv.evaluate(1) - deriv.evaluate(0))
        deriv = deriv.derivative()
    return out


@PROPERTY
@given(polys)
@example(RatPoly())
@example(RatPoly((Fraction(-7, 3),)))
@example(RatPoly((0,) * 64 + (1,)))
def test_jumps_match_the_derivative_chain(p):
    assert [Fraction(j, p._den) for j in _endpoint_jumps(p)] == chain_jumps(p)


@PROPERTY
@given(polys)
@example(RatPoly())
@example(RatPoly((5,)))
@example(RatPoly((Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3))))
def test_stored_form_round_trips_over_the_least_denominator(p):
    c, d = p._ints, p._den
    assert d >= 1 and all(type(x) is int for x in c)
    assert tuple(Fraction(x, d) for x in c) == p.coeffs
    assert RatPoly(p.coeffs) == p
    # d is least: no factor of d divides every numerator
    assert math.gcd(d, *c) == 1
    assert d == math.lcm(*(x.denominator for x in p.coeffs))


@PROPERTY
@given(st.lists(coefficients, max_size=33).map(RatPoly),
       st.lists(coefficients, max_size=33).map(RatPoly))
def test_integer_product_matches_ratpoly_product(p, q):
    product = _int_poly_mul(p._ints, q._ints)
    assert tuple(Fraction(x, p._den * q._den) for x in product) == (p * q).coeffs


def fraction_product(p, q):
    """The Fraction double loop that RatPoly products used before they ran
    on integer numerators, kept as the reference."""
    out = [Fraction(0)] * (len(p.coeffs) + len(q.coeffs) - 1) if p.coeffs and q.coeffs else []
    for i, a in enumerate(p.coeffs):
        if a == 0:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return RatPoly(out)


# small and large denominators, both signs, zeros among the coefficients
wide_coefficients = st.one_of(coefficients, st.just(Fraction(0)),
                              st.fractions(min_value=-10**40, max_value=10**40,
                                           max_denominator=10**40))
wide_polys = st.lists(wide_coefficients, max_size=12).map(RatPoly)


@PROPERTY
@given(wide_polys, wide_polys)
@example(RatPoly(), RatPoly((1, 2)))
@example(RatPoly((3,)), RatPoly())
@example(RatPoly((Fraction(-2, 3),)), RatPoly((Fraction(5, 7),)))
@example(RatPoly((Fraction(-1, 10**30), 0, Fraction(7, 3))),
         RatPoly((Fraction(10**30, 3), Fraction(-1, 6))))
def test_product_matches_the_fraction_double_loop(p, q):
    product = p * q
    assert product == fraction_product(p, q)
    assert all(type(c) is Fraction for c in product.coeffs)


@PROPERTY
@given(wide_polys, st.one_of(st.integers(-10**20, 10**20), wide_coefficients))
@example(RatPoly((1, -2)), 0)
@example(RatPoly(), Fraction(-3, 4))
def test_scale_is_the_product_with_a_constant(p, c):
    scaled = p.scale(c)
    assert scaled == RatPoly(c * a for a in p.coeffs)
    assert scaled == fraction_product(p, RatPoly((c,)))


def fraction_termwise_integral(p):
    """The Fraction sum that poly_integral_01 took before it ran on integer
    numerators, kept as the reference."""
    return sum((c / (k + 1) for k, c in enumerate(p.coeffs)), Fraction(0))


@PROPERTY
@given(st.lists(wide_coefficients, max_size=65).map(RatPoly))  # degree -1..64
@example(RatPoly())
@example(RatPoly((Fraction(-7, 3),)))
@example(RatPoly((Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3))))  # B_2, mean 0
@example(RatPoly((0,) * 64 + (Fraction(-1, 10**40 + 1),)))
def test_termwise_integral_matches_the_fraction_sum(p):
    value = poly_integral_01(p)
    assert type(value) is Fraction and value == fraction_termwise_integral(p)


def test_bernoulli_table_is_one_table_over_one_denominator():
    t, D = _bernoulli_over_factorial(64)
    assert len(t) > 64
    for n in range(65):
        assert Fraction(t[n], D) == bernoulli_number(n) / math.factorial(n)
    # a lower degree reads the same table, not one of its own
    assert _bernoulli_over_factorial(3) is _bernoulli_over_factorial(64)


def fraction_bernoulli_basis(p):
    """p(0) - sum_n B_n (p^(n-1)(1) - p^(n-1)(0)) / n! in Fractions."""
    total = p.coeffs[0]
    for n, jump in enumerate(chain_jumps(p), start=1):
        total -= bernoulli_number(n) * jump / math.factorial(n)
    return total


@PROPERTY
@given(st.lists(st.integers(1, 30), max_size=3))  # degree 0..90
@example([])
@example([1, 1])
@example([30, 30, 30])  # past the table's first degree, so it grows
def test_bernoulli_product_integral_matches_the_fraction_sums(ms):
    p = math.prod(map(bernoulli_polynomial, ms), start=RatPoly.one())
    assert _bernoulli_product(ms) == p
    value = bernoulli_product_integral(ms)
    assert type(value) is Fraction
    assert value == fraction_bernoulli_basis(p) == fraction_termwise_integral(p)


@PROPERTY
@given(polys, st.lists(coefficients, min_size=1, max_size=4))
@example(RatPoly(), [Fraction(1, 3)])
@example(RatPoly((Fraction(5, 7),)), [Fraction(0), Fraction(1)])
@example(RatPoly((Fraction(-1, 2), 1)), [Fraction(1, 2), Fraction(-7, 3)])
def test_reflection_evaluates_to_p_at_one_minus_x(p, xs):
    q = poly_reflect(p)
    assert q.degree == p.degree
    for x in xs:
        assert q.evaluate(x) == sum(c * (1 - x) ** k for k, c in enumerate(p.coeffs))


def fraction_shift(p, delta):
    """The Fraction binomial expansion that shift_argument took before the
    integer Taylor shift, kept as the reference."""
    delta = Fraction(delta)
    out = [Fraction(0)] * len(p.coeffs)
    for k, c in enumerate(p.coeffs):
        pw = Fraction(1)
        for j in range(k, -1, -1):
            out[j] += c * math.comb(k, j) * pw
            pw *= delta
    return RatPoly(out)


deltas = st.one_of(st.sampled_from([Fraction(-2, 3), Fraction(5, 7), Fraction(10**30, 3)]),
                   coefficients)


@PROPERTY
@given(polys, deltas)  # degree -1..64
@example(RatPoly(), Fraction(5, 7))
@example(RatPoly((Fraction(-7, 3),)), Fraction(-2, 3))
@example(RatPoly((0,) * 64 + (1,)), Fraction(-2, 3))
@example(RatPoly((0,) * 64 + (Fraction(1, 7),)), Fraction(5, 7))
@example(RatPoly((Fraction(1, 3),) * 65), Fraction(10**30, 3))
@example(RatPoly((Fraction(1, 6), Fraction(-1, 2), Fraction(1, 3))), 0)
def test_shift_matches_the_fraction_binomial_expansion(p, delta):
    shifted = p.shift_argument(delta)
    assert shifted == fraction_shift(p, delta)
    assert shifted.shift_argument(-delta) == p


def assert_stored_form(p):
    """Numerators over a positive denominator, in lowest terms, with no
    trailing zero numerator."""
    c, d = p._ints, p._den
    assert type(d) is int and d >= 1
    assert all(type(x) is int for x in c)
    assert math.gcd(d, *c) == 1
    assert not c or c[-1] != 0


@PROPERTY
@given(wide_polys, wide_polys, wide_coefficients, deltas)
@example(RatPoly(), RatPoly(), Fraction(0), Fraction(1))
@example(RatPoly((Fraction(1, 2), 1)), RatPoly((Fraction(-1, 2), -1)), Fraction(2), Fraction(-2, 3))
@example(RatPoly((0, Fraction(1, 2))), RatPoly((2,)), Fraction(6, 5), Fraction(5, 7))
def test_every_operation_keeps_the_stored_form(p, q, c, delta):
    built = [p, q, RatPoly(p.coeffs + (0, 0)), p + q, q + p, p * q, p.scale(c),
             p.derivative(), p.shift_argument(delta), poly_reflect(p)]
    for r in built:
        assert_stored_form(r)
    # equal values compare and hash equal, however they were built
    pairs = [
        (RatPoly(p.coeffs + (0, 0)), p),
        (p + q, q + p),
        (p + q, RatPoly(a + b for a, b in zip(p.coeffs + (0,) * 12, q.coeffs + (0,) * 12))),
        (p * q, q * p),
        (p.scale(c), p * RatPoly((c,))),
        (p.derivative(), RatPoly(k * a for k, a in enumerate(p.coeffs) if k)),
        (p.shift_argument(delta).shift_argument(-delta), p),
        (poly_reflect(poly_reflect(p)), p),
        (p + p.scale(-1), RatPoly()),
    ]
    for a, b in pairs:
        assert a == b and hash(a) == hash(b)


@pytest.mark.parametrize("n", [0, 1, 2, 7, 30, 64])
def test_bernoulli_polynomials_keep_the_stored_form(n):
    p = bernoulli_polynomial(n)
    assert_stored_form(p)
    assert p == RatPoly(math.comb(n, i) * bernoulli_number(n - i) for i in range(n + 1))
    assert_stored_form(_bernoulli_product([n, n, 1] if n else []))
