"""IBP reduction engine: symbolic structure, exact values, closed forms."""

import cmath
import dataclasses
import hashlib
import itertools
import json
import math
import random
import sys
import types
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from zetalab import calculus, kernels, reduction
from zetalab.errors import (ConvergenceError, DomainError, NumericOverflowError,
                            PoleProximityError)
from zetalab.exact import (RatPoly, bernoulli_number, poly_integral_01,
                           zeta_neg_int_poly)
from zetalab.kernels import hurwitz_zeta, riemann_zeta
from zetalab.quadrature import tanh_sinh_01
from zetalab.reduction import (DerivAtom, LinearCombination,
                               RationalFunctionOfS, eval_combination,
                               MAX_DEGREE, integral_poly_zeta, pair_integral,
                               pair_limit_weighted, reduce_monomial,
                               reduce_poly, triple_product_integral)

S_MINUS_1 = RatPoly((-1, 1))
S_MINUS_2 = RatPoly((-2, 1))


def rf(num, den=RatPoly((1,))):
    return RationalFunctionOfS(RatPoly(num) if not isinstance(num, RatPoly) else num,
                               RatPoly(den) if not isinstance(den, RatPoly) else den)


class TestRationalFunction:
    def test_stored_as_given(self):
        # (s-1)(s-2) / ((s-1)^2 (s-3)) keeps both polynomials, yet equals
        # (s-2)/((s-1)(s-3))
        num = S_MINUS_1 * S_MINUS_2
        den = S_MINUS_1 * S_MINUS_1 * RatPoly((-3, 1))
        f = RationalFunctionOfS(num, den)
        assert (f.num, f.den) == (num, den)
        assert f == rf(S_MINUS_2, S_MINUS_1 * RatPoly((-3, 1)))
        assert f != rf(S_MINUS_1, S_MINUS_1 * RatPoly((-3, 1)))

    def test_denominator_not_made_monic(self):
        f = RationalFunctionOfS(RatPoly((1,)), RatPoly((1, -1)))  # 1/(1-s)
        assert (f.num, f.den) == (RatPoly((1,)), RatPoly((1, -1)))
        assert f == rf((-1,), S_MINUS_1)

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(rf((1,), S_MINUS_1))

    def test_zero(self):
        f = RationalFunctionOfS(RatPoly(), S_MINUS_1)
        assert f.is_zero() and f == rf(())

    def test_addition(self):
        a = rf((1,), (0, 1))           # 1/s
        b = rf((1,), (1, 1))           # 1/(1+s)
        total = a + b                  # (1+2s)/(s(1+s))
        assert total == rf((1, 2), RatPoly((0, 1)) * RatPoly((1, 1)))

    # the quotients and the combinations are values, not an algebra: + with
    # their own type is their only arithmetic
    @pytest.mark.parametrize("other", [0.5, 1j, "x", None, RatPoly((1, 2)), 2,
                                       Fraction(1, 3)])
    def test_other_operand_types_are_a_type_error(self, other):
        for f in (rf((1,), S_MINUS_1), integral_poly_zeta((1,), 0)):
            for op in (lambda: f * other, lambda: other * f, lambda: f + other,
                       lambda: other + f, lambda: f - other):
                with pytest.raises(TypeError):
                    op()

    def test_integer_roots(self):
        f = rf((1,), S_MINUS_1 * S_MINUS_2)
        assert [k for k in range(-8, 9) if f.den.evaluate(k) == 0] == [1, 2]

    def test_equality_decidable(self):
        assert rf((2,), (0, 2)) == rf((1,), (0, 1))   # 2/(2s) == 1/s


class TestReduceMonomial:
    def test_i0_is_zero(self):
        assert reduce_monomial(0, 0).is_zero()
        assert reduce_monomial(0, 1).is_zero()

    def test_i1_r0(self):
        expected = LinearCombination({DerivAtom(0, 1): rf((-1,), S_MINUS_1)})
        assert reduce_monomial(1, 0) == expected

    def test_i2_r0(self):
        expected = LinearCombination({
            DerivAtom(0, 1): rf((-1,), S_MINUS_1),
            DerivAtom(0, 2): rf((-2,), S_MINUS_1 * S_MINUS_2),
        })
        assert reduce_monomial(2, 0) == expected

    def test_i1_r1(self):
        expected = LinearCombination({
            DerivAtom(1, 1): rf((-1,), S_MINUS_1),
            DerivAtom(0, 1): rf((1,), S_MINUS_1 * S_MINUS_1),
        })
        assert reduce_monomial(1, 1) == expected

    @pytest.mark.parametrize("i, r", [(3, 0), (5, 0), (3, 1), (6, 1)])
    def test_shift_bounds(self, i, r):
        lc = reduce_monomial(i, r)
        assert all(1 <= atom.shift <= i for atom in lc.atoms())
        assert all(atom.deriv_order <= r for atom in lc.atoms())

    def test_denominator_roots_in_range(self):
        lc = reduce_monomial(6, 1)
        for atom, coeff in lc.items():
            roots = [k for k in range(-8, MAX_DEGREE + 6) if coeff.den.evaluate(k) == 0]
            assert roots and all(1 <= root <= 6 for root in roots), (atom, roots)

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            reduce_monomial(1, 2)
        with pytest.raises(ValueError):
            reduce_monomial(65, 0)

    def test_serialization_golden(self):
        assert reduce_monomial(1, 0).serialize() == \
            "zeta^(0)(s-1) * (-1)/(-1 + 1*s)"
        assert reduce_monomial(1, 1).serialize() == (
            "zeta^(0)(s-1) * (1)/(1 + -2*s + 1*s^2)\n"
            "zeta^(1)(s-1) * (-1)/(-1 + 1*s)")
        assert LinearCombination().serialize() == "0"


class TestReducePoly:
    def test_constant_vanishes(self):
        assert reduce_poly(RatPoly((1,)), 0).is_zero()

    def test_zeta_zero_poly(self):
        # p = 1/2 - a: reduces to zeta(s-1)/(s-1)
        lc = reduce_poly(RatPoly((Fraction(1, 2), -1)), 0)
        assert lc == LinearCombination({DerivAtom(0, 1): rf((1,), S_MINUS_1)})

    def test_zeta_zero_poly_at_minus_two(self):
        # evaluates to zeta(-3)/(-3)
        lc = reduce_poly(RatPoly((Fraction(1, 2), -1)), 0)
        got = eval_combination(lc, -2.0)
        assert abs(got - riemann_zeta(-3.0) / (-3.0)) < 1e-13

    def test_b2_weight_at_minus_one(self):
        # int_0^1 B_2(a) zeta(-1, a) da = int B_2 * (-B_2/2) = -1/360,
        # by the exact route and by the reduction
        from zetalab.exact import bernoulli_polynomial
        b2 = bernoulli_polynomial(2)
        exact = poly_integral_01(b2 * zeta_neg_int_poly(1))
        assert exact == Fraction(-1, 360)
        got = eval_combination(reduce_poly(b2, 0), -1.0)
        assert abs(got - float(exact)) < 1e-12

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            reduce_poly(RatPoly([1] * 66), 0)


class TestIntegralPolyZeta:
    def test_single_zero_index(self):
        lc = integral_poly_zeta((0,), 0)
        assert lc == LinearCombination({DerivAtom(0, 1): rf((1,), S_MINUS_1)})

    @pytest.mark.parametrize("r", [0, 1])
    def test_empty_sequence_is_zero(self, r):
        # Corollary 4: int_0^1 zeta^(r)(s, a) da = 0 for Re s < 1
        lc = integral_poly_zeta((), r)
        assert lc.is_zero()
        for s in (-1.0, -0.5, -2.5, 0.3, 0.5 + 0.5j):
            assert eval_combination(lc, s) == 0j

    def test_shift_bound_r1(self):
        lc = integral_poly_zeta((1, 2), 1)
        n = 5
        assert lc.max_shift() == n
        assert all(1 <= a.shift <= n and a.deriv_order <= 1 for a in lc.atoms())

    def test_degree_guard(self):
        with pytest.raises(ValueError):
            integral_poly_zeta((40, 40), 0)
        with pytest.raises(ValueError):
            integral_poly_zeta((-1,), 0)


def _linear_factors(roots):
    """prod_{m in roots} (s - m) for a Counter of integer roots."""
    out = RatPoly.one()
    for m in roots.elements():
        out = out * RatPoly((-m, 1))
    return out


def _shift_and_scale(coeff, scale, pole):
    """(num, roots) at s - 1, by Horner on (s - 1), times scale/(s-1)^pole:
    num / prod (s - m) becomes num(s-1) scale / prod (s - m - 1) (s-1)^pole."""
    num, roots = coeff
    out = RatPoly()
    for c in reversed(num.coeffs):
        out = out * S_MINUS_1 + RatPoly((c,))
    shifted = Counter({m + 1: n for m, n in roots.items()})
    shifted[1] += pole
    return out.scale(scale), shifted


def _add(a, b):
    """Sum of two (num, roots) over the least common multiple of the dens."""
    (n0, r0), (n1, r1) = a, b
    roots = r0 | r1
    return n0 * _linear_factors(roots - r0) + n1 * _linear_factors(roots - r1), roots


@lru_cache(maxsize=None)
def _recursive_monomial(i, r):
    """The reduction as one integration by parts at a time: boundary terms
    at a = 1 plus i/(s-1) times the (i-1, s-1) integral, whose shift-k atoms
    become shift k+1 (and, for r = 1, minus i/(s-1)^2 times the r = 0 one).
    This was the engine before the closed form; it stays here as the exact
    reference, {atom: (num, roots)} for num / prod_{m in roots} (s - m), the
    roots a Counter: sums go over the lcm of the dens, so the den of a
    shift-k atom divides Q_k^2 and never grows past degree 2k."""
    if i == 0:
        return {}
    out = {DerivAtom(r, 1): (RatPoly((-1,)), Counter({1: 1}))}  # 1/(1-s)
    if r == 1:
        out[DerivAtom(0, 1)] = (RatPoly.one(), Counter({1: 2}))  # 1/(1-s)^2
    parts = [(r, i, 1)] + ([(0, -i, 2)] if r == 1 else [])
    for inner, scale, pole in parts:
        for a, coeff in _recursive_monomial(i - 1, inner).items():
            atom = DerivAtom(a.deriv_order, a.shift + 1)
            term = _shift_and_scale(coeff, scale, pole)
            out[atom] = _add(out[atom], term) if atom in out else term
    return out


def _equal_by_value(lc, combo):
    """The reduction lc has the atoms of combo's nonzero pairs, and each of
    its coefficients num/den equals the pair's value."""
    got = dict(lc.items())
    want = {a: (num, _linear_factors(roots)) for a, (num, roots) in combo.items()
            if not num.is_zero()}
    return set(got) == set(want) and all(
        got[a].num * den == num * got[a].den for a, (num, den) in want.items())


class TestClosedFormAgainstRecursion:
    @pytest.mark.parametrize("r", [0, 1])
    def test_every_monomial_to_degree_16(self, r):
        for i in range(17):
            assert _equal_by_value(reduce_monomial(i, r), _recursive_monomial(i, r)), (i, r)


FROZEN = Path(__file__).parent / "data" / "integral_poly_zeta_sha256.json"


def _small_multisets(max_degree):
    """Every multiset of 1 to 3 indices m >= 0 with sum(m + 1) <= max_degree,
    as descending tuples."""
    for parts in (1, 2, 3):
        for ms in itertools.combinations_with_replacement(range(max_degree), parts):
            if sum(m + 1 for m in ms) <= max_degree:
                yield tuple(sorted(ms, reverse=True))


class TestFrozenSerialization:
    """sha256 of ``integral_poly_zeta(ms, r).serialize()`` for every multiset
    of degree <= 16 and r in {0, 1}, recorded from the recursive engine."""

    def test_every_small_multiset(self):
        frozen = json.loads(FROZEN.read_text())
        keys = {f"{','.join(map(str, ms))};{r}"
                for ms in _small_multisets(16) for r in (0, 1)}
        assert set(frozen) == keys
        for key, digest in frozen.items():
            ms_text, r = key.split(";")
            ms = tuple(int(m) for m in ms_text.split(","))
            text = integral_poly_zeta(ms, int(r)).serialize()
            assert hashlib.sha256(text.encode()).hexdigest() == digest, key


def _expected_atoms(ms, r):
    """{atom: (num, den)} from A_k and Q_k, built here from bernoulli_number:
    zeta(-m, a) = -B_{m+1}(a)/(m+1) with B_n(a) = sum_j C(n, j) B_{n-j} a^j."""
    p = RatPoly.one()
    for m in ms:
        n = m + 1
        p = p * RatPoly([Fraction(-math.comb(n, j) * bernoulli_number(n - j), n)
                         for j in range(n + 1)])
    out, q = {}, RatPoly.one()
    for k in range(1, p.degree + 1):
        q = q * RatPoly((-k, 1))
        a_k = sum(p.coeffs[i] * math.perm(i, k - 1)
                  for i in range(k, p.degree + 1))
        if a_k == 0:
            continue
        out[DerivAtom(r, k)] = (RatPoly((-a_k,)), q)
        if r == 1:
            out[DerivAtom(0, k)] = (q.derivative().scale(a_k), q * q)
    return out


@lru_cache(maxsize=None)
def _integer_roots(den):
    """The integer roots of den among those a reduction can have, 1..MAX_DEGREE."""
    return tuple(j for j in range(-8, MAX_DEGREE + 6) if den.evaluate(j) == 0)


def _reduced_and_monic(coeff):
    return (coeff.den.coeffs[-1] == 1
            and all(coeff.num.evaluate(j) != 0 for j in _integer_roots(coeff.den)))


class TestBuiltReducedAndMonic:
    """Every coefficient the package builds is reduced over a monic
    denominator; with its value that fixes num and den, hence the text form."""

    @pytest.mark.parametrize("r", [0, 1])
    def test_reductions(self, r):
        for n in range(1, MAX_DEGREE + 1):
            lc = integral_poly_zeta(parity_multiset(n), r)
            assert all(_reduced_and_monic(c) for _, c in lc.items()), n

    @pytest.mark.parametrize("r", range(7))
    def test_symbolic_alpha_derivative(self, monkeypatch, r):
        # the alpha-calculus builds Laurent rows in 1/(1-s), not quotients:
        # nonzero Fractions at ascending powers, so equal values are equal rows
        assert calculus.antiderivative_alpha_derivative_symbolic(r) == {r: {0: 1}}
        # with every odd order's pole raised by one, a row is left per order
        terms = calculus.antiderivative_terms
        monkeypatch.setattr(calculus, "antiderivative_terms", lambda r: tuple(
            dataclasses.replace(t, pole_power=t.pole_power + t.deriv_order % 2)
            for t in terms(r)))
        rows = calculus.antiderivative_alpha_derivative_symbolic(r)
        assert sorted(rows) == list(range(r + 1))
        for row in rows.values():
            assert row and list(row) == sorted(row)
            assert all(type(c) is Fraction and c for c in row.values())


class TestHighDegreeClosedForm:
    """Degrees the recursive engine took minutes over (degree 42 alone took
    152 s): every atom must carry exactly -A_k/Q_k (or its s-derivative)."""

    @pytest.mark.parametrize("ms, r", [((63,), 1), ((20, 20), 0)])
    def test_atoms_match_closed_form(self, ms, r):
        got = dict(integral_poly_zeta(ms, r).items())
        expected = _expected_atoms(ms, r)
        assert set(got) == set(expected)
        for atom, (num, den) in expected.items():
            coeff = got[atom]
            assert (coeff.num, coeff.den) == (num, den), atom


def _benchmark_module(name):
    """perfbench/<name>.py, run from its source text so that no bytecode is
    written beside it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


class TestBenchmarkReadsTheReduction:
    """The moment-integrals benchmark checks integral_poly_zeta against a
    closed form of its own through items(), num, den and coeffs, and builds
    its wrong reduction with num.scale, the constructor and +."""

    MOMENT = _benchmark_module("moment")

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("ms", [(0,), (4,), (2, 3), (1, 2, 4), (5, 5, 2)])
    def test_match_and_a_nudged_coefficient_does_not(self, ms, r):
        lc = integral_poly_zeta(ms, r)
        expected = self.MOMENT.closed_form(ms, r)
        assert self.MOMENT.coefficients_match(lc, expected)
        atom, coeff = next(iter(lc.items()))
        nudge = RationalFunctionOfS(coeff.num.scale(Fraction(1, 10**6)), coeff.den)
        wrong = lc + LinearCombination({atom: nudge})
        assert not self.MOMENT.coefficients_match(wrong, expected)

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("ms", [(0,), (4,), (2, 3), (1, 2, 4), (5, 5, 2)])
    def test_value_within_the_benchmark_bound(self, ms, r):
        # at the point perfbench/selftest.py evaluates its reductions
        mpmath = pytest.importorskip("mpmath")
        s = complex(-0.7, 0.2)
        ref = self.MOMENT.reference_value(mpmath, self.MOMENT.closed_form(ms, r), s)
        assert abs(eval_combination(integral_poly_zeta(ms, r), s) - ref) <= self.MOMENT.VALUE_TOL


class TestEvalCombination:
    @pytest.mark.parametrize("lc", [
        LinearCombination({DerivAtom(0, 1): rf((-1,), S_MINUS_1)}),  # equals reduce_monomial(1, 0)
        reduce_monomial(2, 1) + reduce_monomial(2, 1),
        reduce_monomial(2, 0) + LinearCombination(),
        LinearCombination(),
    ], ids=["hand-built", "sum", "sum-with-empty", "empty"])
    def test_only_a_reduction_is_evaluated(self, lc):
        with pytest.raises(DomainError, match="evaluates only a reduction"):
            eval_combination(lc, -0.5)

    @pytest.mark.parametrize("r", [0, 1])
    def test_empty(self, r):
        assert eval_combination(integral_poly_zeta((), r), 0.3) == 0j

    def test_monomial_at_minus_one(self):
        # zeta(-2)/2 = 0
        value = eval_combination(reduce_monomial(1, 0), -1.0)
        assert abs(value) < 1e-11

    def test_polynomial_exactness(self):
        # at s = -m the integrand is a polynomial; exact rational oracle
        for ms, m in (((0,), 1), ((1,), 2), ((0, 2), 3), ((2, 2), 1)):
            lc = integral_poly_zeta(ms, 0)
            prod = zeta_neg_int_poly(m)
            for mi in ms:
                prod = prod * zeta_neg_int_poly(mi)
            expected = float(poly_integral_01(prod))
            got = eval_combination(lc, complex(-m))
            assert abs(got - expected) < 1e-12, (ms, m)

    def test_quadrature_agreement(self):
        ms, s = (1,), -0.7 + 0.2j
        lc = integral_poly_zeta(ms, 0)
        prod = zeta_neg_int_poly(1)
        quad = tanh_sinh_01(
            lambda xs: [prod.evaluate_complex(a) * hurwitz_zeta(s, a) for a in xs.tolist()],
            1e-10)
        assert abs(eval_combination(lc, s) - quad.value) < 1e-8


def seeded_multiset(n):
    """One multiset of indices m with sum(m + 1) == n, drawn by a generator
    seeded with n."""
    rng = random.Random(f"exact-at-integers:{n}")
    ms, rest = [], n
    while rest:
        part = rng.randint(1, rest)
        ms.append(part - 1)
        rest -= part
    return tuple(ms)


class TestExactAtTheIntegers:
    """At s = -m the integrand is the polynomial p(a) zeta(-m, a), so the
    integral is the rational poly_integral_01 of that product: a reference
    that needs no mpmath and sees any wrong digit.  The per-shift atom sum
    missed every non-zero point of this grid (worst 2.4e25 relative) and
    returned up to 7.8e30 where the integral is 0."""

    @pytest.mark.parametrize("m", [0, 1, 2, 5])
    def test_within_1e_minus_13_and_exact_zeros(self, m):
        misses, zeros = [], 0
        for n in range(2, MAX_DEGREE + 1):
            ms = seeded_multiset(n)
            prod = zeta_neg_int_poly(m)
            for mi in ms:
                prod = prod * zeta_neg_int_poly(mi)
            exact = poly_integral_01(prod)
            got = eval_combination(integral_poly_zeta(ms, 0), complex(-m))
            if exact == 0:
                zeros += 1
                if got != 0:
                    misses.append((ms, got))
            elif abs(got - float(exact)) > 1e-13 * abs(float(exact)):
                misses.append((ms, abs(got / float(exact) - 1)))
        assert not misses, misses
        assert 0 < zeros < MAX_DEGREE - 1  # both kinds of point are on the grid


# ---------------------------------------------------------------------------
# The exact low modes and the value's bits
# ---------------------------------------------------------------------------


# jumps of both parities: p(1 - a) is neither p(a) nor -p(a)
BOTH_PARITIES = RatPoly((Fraction(3, 7), Fraction(-2, 5), 1, Fraction(5, 3), 0, -7,
                         Fraction(1, 11)))

# (multiset or polynomial, r, s, float.hex of Re and Im, the last n0): the
# values as each mode was summed on its own, before one sweep per parity
# took them.  n0 starts at 32 and 64 at |Im s| = 72.5 and 97, and the tail
# rule doubles it at (0,) * 64.
EVAL_BITS = [
    (BOTH_PARITIES, 0, (-0.75+0j), '0x1.83e89c5998d3ap-5', '-0x0.0p+0', 8),
    (BOTH_PARITIES, 1, (0.3-2.5j), '-0x1.728104d48aa65p-3', '-0x1.971af0f7bba49p-6', 8),
    ((0, 1), 0, (-0.5+0j), '-0x1.a4392f661fbadp-12', '0x0.0p+0', 8),
    ((1, 1), 1, (-1.7+0.4j), '-0x1.404f246001516p-16', '-0x1.072102230dcc2p-16', 8),
    ((2, 3, 4), 0, (-3+0j), '-0x1.4cfe03228e7b8p-31', '0x0.0p+0', 8),
    ((2, 3, 4), 1, (-2+0j), '0x1.0d20ad4897de9p-29', '-0x0.0p+0', 8),
    ((5, 6, 7), 1, (0.25+11j), '0x1.0c811c771c65dp-30', '0x1.b789f4bad6927p-29', 8),
    ((9, 10, 12), 0, (-4.2-7.5j), '-0x1.5c10b0c38bfefp-21', '-0x1.49dc11d9ea23fp-20', 8),
    ((15, 15, 16), 1, (0.6-1.25j), '-0x1.56345c52cb1ccp-4', '0x1.cfbad4ccdee78p-8', 8),
    ((31, 31), 0, (0.1+3j), '-0x1.2e21e1860b39cp+52', '0x1.32ae4269ea6dcp+54', 8),
    ((3, 4), 0, (0.2+72.5j), '0x1.252e41a5f0439p-18', '0x1.3b2af54da388ap-17', 32),
    ((1, 2, 3), 1, (-0.4-97j), '-0x1.a125fdb3c078fp-16', '0x1.13082e74ae1e9p-17', 64),
    ((0,) * 64, 0, (0.3+0j), '0x1.ddc2003b7d8bcp-70', '-0x0.0p+0', 16),
    ((0,) * 64, 1, (0.45+0j), '0x1.5f0aaa46a337bp-65', '-0x0.0p+0', 16),
]


def _reduction(ms_or_poly, r):
    if isinstance(ms_or_poly, RatPoly):
        return reduce_poly(ms_or_poly, r)
    return integral_poly_zeta(ms_or_poly, r)


def _rows(lc):
    """{parity q: row} as eval_combination builds them, rows of zeros left out."""
    _, den, jumps = lc._jumps
    rows = {q: [(-1) ** (k // 2) * jumps.get(k, 0) for k in range(2 - q, max(jumps) + 1, 2)]
            for q in (0, 1)}
    return den, {q: row for q, row in rows.items() if any(row)}


class TestEvaluationBits:
    @pytest.mark.parametrize("ms_or_poly, r, s, re, im, n0", EVAL_BITS)
    def test_value_bits(self, monkeypatch, ms_or_poly, r, s, re, im, n0):
        reached = []

        def modes(row, q, den, first, last):
            reached.append(last)
            return sweep(row, q, den, first, last)

        sweep = reduction._modes
        monkeypatch.setattr(reduction, "_modes", modes)
        value = eval_combination(_reduction(ms_or_poly, r), s)
        assert (value.real.hex(), value.imag.hex()) == (re, im)
        assert max(reached) == n0

    def test_both_kinds_of_row_are_pinned(self):
        assert len(_rows(reduce_poly(BOTH_PARITIES, 0))[1]) == 2
        parities = {q for ms, *_ in EVAL_BITS if not isinstance(ms, RatPoly)
                    for q in _rows(integral_poly_zeta(ms, 0))[1]}
        assert parities == {0, 1}


def _pi_times(bits):
    """pi 2^bits, to within 8 units, from Stormer's formula
    pi/4 = 6 atan(1/8) + 2 atan(1/57) + atan(1/239): not the program's."""
    one, total = 1 << (bits + 16), 0
    for weight, m in ((24, 8), (8, 57), (4, 239)):
        term, n = weight * one // m, 1
        while term:
            total, term, n = total + term // n, -term // (m * m), n + 2
    return total >> 16


@lru_cache(maxsize=None)
def _reference_powers(q, n, bits=4096):
    """(2 pi n)^-(2i+2-q) for i = 0..MAX_DEGREE/2 in bits-bit fixed point:
    x = 1/(2 pi n) and each power of it truncated, every error far below
    2^-3000 of the power."""
    x = (1 << 2 * bits) // (2 * _pi_times(bits) * n)
    x2 = x * x >> bits
    powers = [x2 if q == 0 else x]
    for _ in range(MAX_DEGREE // 2):
        powers.append(powers[-1] * x2 >> bits)
    return powers


def reference_mode(row, q, den, n, bits=4096):
    """sum_i row_i (2 pi n)^-(2i+2-q) / den in bits-bit fixed point, rounded
    once."""
    total = sum(c * power for c, power in zip(row, _reference_powers(q, n, bits)))
    return total / (den << bits)


class TestModes:
    """Each mode is the correctly rounded sum, against an independent
    4096-bit evaluation."""

    def test_seeded_products(self):
        parities = set()
        for n in range(2, MAX_DEGREE + 1):
            den, rows = _rows(integral_poly_zeta(seeded_multiset(n), 0))
            for q, row in rows.items():
                parities.add(q)
                got = reduction._modes(row, q, den, 1, 64)
                want = [reference_mode(row, q, den, m) for m in range(1, 65)]
                assert got == want, (n, q)
        assert parities == {0, 1}

    def test_both_parities_and_the_pieces_eval_combination_asks_for(self):
        den, rows = _rows(reduce_poly(BOTH_PARITIES, 1))
        for q, row in rows.items():
            every = reduction._modes(row, q, den, 1, 64)
            assert every == [reference_mode(row, q, den, m) for m in range(1, 65)]
            pieces = [reduction._modes(row, q, den, a + 1, b)
                      for a, b in ((0, 8), (8, 16), (16, 32), (32, 64))]
            assert sum(pieces, []) == every

    @pytest.mark.parametrize("q", [0, 1])
    def test_a_row_whose_first_precision_fails(self, monkeypatch, q):
        # c_20 (2 pi)^-(42-q) is about 2^-111: at 128 bits its D is about
        # 2^17, below 2^61 times its rounding bound, so every mode takes 256
        row, den, asked = [0] * 20 + [1, -5, 3], 7, []
        inv_two_pi = reduction._inv_two_pi
        monkeypatch.setattr(reduction, "_inv_two_pi",
                            lambda bits: asked.append(bits) or inv_two_pi(bits))
        got = reduction._modes(row, q, den, 1, 64)
        assert asked == [reduction._MODE_BITS, 2 * reduction._MODE_BITS]
        assert got == [reference_mode(row, q, den, m) for m in range(1, 65)]


class TestRefusals:
    """eval_combination serves Re s < 1 and returns a value or raises."""

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("s", [1.0, 1.0 + 1e-9, 1.5, 2.6 + 0.4j])
    def test_re_s_at_least_one(self, s, r):
        for lc in (integral_poly_zeta((1, 2), r), integral_poly_zeta((), r)):
            with pytest.raises(DomainError, match="requires Re s < 1"):
                eval_combination(lc, s)

    @pytest.mark.parametrize("s", [complex("nan"), complex(0.3, math.nan)])
    def test_nan(self, s):
        with pytest.raises(DomainError, match="requires Re s < 1"):
            eval_combination(integral_poly_zeta((1, 2), 0), s)

    # sin(pi s/2) passes the largest double from |Im s| = 452.4 on, and
    # Gamma(1 - s) (2 pi)^(s-1) from Re s = -170.6 down
    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("s", [complex(0.3, math.inf), complex(0.3, -math.inf),
                                   0.3 + 500j, -2.5 - 460j, -200.0, complex(-math.inf, 0.0)])
    def test_out_of_the_float_range(self, s, r):
        with pytest.raises(NumericOverflowError):
            eval_combination(integral_poly_zeta((1, 2), r), s)

    def test_gamma_underflow_is_refused_not_zero(self):
        # here sin and cos of pi s/2 are finite and Gamma(1 - s) is subnormal
        s = 0.5 + 451.75j
        assert abs(kernels.gamma_complex(1 - s)) < sys.float_info.min
        assert math.isfinite(abs(cmath.sin(0.5 * math.pi * s)))
        with pytest.raises(NumericOverflowError, match="underflows"):
            eval_combination(integral_poly_zeta((1, 2), 0), s)

    @pytest.mark.parametrize("height", [141.5, 200.0, 449.0])
    def test_heights_past_the_tails_reach(self, height):
        # the Euler-Maclaurin tail at n_0 + 1 = 65 is sure only to
        # |Im s| = 2 pi (65 + 25) / 4 = 141.4
        assert eval_combination(integral_poly_zeta((1, 2), 0), 0.3 + 141.3j)
        with pytest.raises(ConvergenceError):
            eval_combination(integral_poly_zeta((1, 2), 0), complex(0.3, height))

    def test_modes_past_the_last_count(self, monkeypatch):
        # (0,) * 64 at 0.3 needs more than 8 exact modes: its tail terms
        # reach 1e-14 while the integral is 1.6e-21
        lc = integral_poly_zeta((0,) * 64, 0)
        value = eval_combination(lc, 0.3)
        monkeypatch.setattr(reduction, "_LAST_MODES", 8)
        with pytest.raises(ConvergenceError):
            eval_combination(lc, 0.3)
        monkeypatch.setattr(reduction, "_LAST_MODES", 64)
        assert eval_combination(lc, 0.3) == value


class TestLazyCoefficients:
    """A reduction is its jumps: the coefficients are built on first read."""

    def test_reduction_and_evaluation_build_no_quotient(self, monkeypatch):
        monkeypatch.setattr(reduction, "RationalFunctionOfS", None)  # any build fails
        lc = integral_poly_zeta((3, 4, 5), 1)
        eval_combination(lc, -0.7 + 0.2j)
        monkeypatch.undo()
        assert len(lc) == 2 * 6  # six odd shifts, two atoms each

    @pytest.mark.parametrize("read", [
        lambda lc: lc.items(), lambda lc: lc.atoms(), lambda lc: lc.serialize(),
        lambda lc: lc == lc, lambda lc: lc + LinearCombination(), len,
        lambda lc: lc.max_shift(), lambda lc: lc.is_zero(), repr,
    ], ids=["items", "atoms", "serialize", "eq", "add", "len", "max_shift", "is_zero", "repr"])
    def test_every_reader_builds_the_same_coefficients(self, read):
        lc = integral_poly_zeta((1, 2), 1)
        read(lc)
        built = lc._terms
        assert built is lc._terms  # built once, then kept
        assert built == dict(integral_poly_zeta((1, 2), 1).items())


def parity_multiset(n):
    """One multiset of degree n: 1, 2 or 3 near-equal factors by n mod 3."""
    parts = min(1 + n % 3, n)
    return tuple(n // parts + (i < n % parts) - 1 for i in range(parts))


class TestPairIntegral:
    def test_at_zero_zero(self):
        assert abs(pair_integral(0.0, 0.0) - 1.0 / 12.0) < 1e-12

    def test_at_minus_one_twice(self):
        assert abs(pair_integral(-1.0, -1.0) - 1.0 / 720.0) < 1e-13

    def test_cosine_kills_mixed_parity(self):
        assert abs(pair_integral(0.0, -1.0)) < 1e-13

    def test_symmetry(self):
        a, b = -0.8 + 0.3j, -2.2
        assert abs(pair_integral(a, b) - pair_integral(b, a)) < 1e-12

    def test_vs_quadrature(self):
        got = pair_integral(-0.5, -1.5)
        quad = tanh_sinh_01(
            lambda xs: [hurwitz_zeta(-0.5, a) * hurwitz_zeta(-1.5, a) for a in xs.tolist()],
            1e-11)
        assert abs(got - quad.value) < 1e-9

    def test_gamma_pole_guard(self):
        with pytest.raises(PoleProximityError):
            pair_integral(1.0, -0.5)

    def test_zeta_pole_guard(self):
        with pytest.raises(PoleProximityError):
            pair_integral(0.5, 0.5)

    def test_non_finite_product_is_an_overflow(self):
        # every factor is finite, their product is not
        with pytest.raises(NumericOverflowError, match="non-finite value in pair integral"):
            pair_integral(-136.17 + 76.66j, -132.1 - 61.84j)


class TestPairLimitWeighted:
    def test_minus_one_twice(self):
        # 1/720 - 1/144 = -1/180
        assert abs(pair_limit_weighted(-1.0, -1.0) + 1.0 / 180.0) < 1e-12

    def test_minus_two_twice(self):
        # zeta(-2) = 0, leaving the pair integral 1/7560
        assert abs(pair_limit_weighted(-2.0, -2.0) - 1.0 / 7560.0) < 1e-13

    def test_mixed_vanishes(self):
        assert abs(pair_limit_weighted(-1.0, -2.0)) < 1e-12

    def test_limit_realisation_decreasing(self):
        # quadrature of the weighted integral approaches the closed form as
        # s -> 1-, with the deviation shrinking in (1 - s); the constant-mean
        # subtraction removes the boundary layer (see the acceptance suite)
        s1 = -1.0
        f0 = riemann_zeta(s1) ** 2
        target = pair_limit_weighted(s1, s1)
        devs = []
        for s in (0.9, 0.99, 0.999):
            def g(a, s=s):
                f = hurwitz_zeta(s1, a) ** 2
                return (s - 1.0) * hurwitz_zeta(s, a) * (f - f0)
            devs.append(abs(tanh_sinh_01(
                lambda xs: [g(a) for a in xs.tolist()], 1e-9).value - target))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] <= 1e-3

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            pair_limit_weighted(0.5, -1.0)


class TestTripleProductIntegral:
    def test_at_two(self):
        assert abs(triple_product_integral(2.0) + 1.0 / 360.0) < 1e-12

    def test_at_three_exact_oracle(self):
        integrand = zeta_neg_int_poly(0) * zeta_neg_int_poly(2) * zeta_neg_int_poly(1)
        expected = float(poly_integral_01(integrand))
        assert expected == 1.0 / 30240.0
        assert abs(triple_product_integral(3.0) - expected) < 1e-12

    def test_vs_quadrature(self):
        s = 2.5
        quad = tanh_sinh_01(
            lambda xs: [hurwitz_zeta(0.0, a) * hurwitz_zeta(1.0 - s, a)
                        * hurwitz_zeta(2.0 - s, a) for a in xs.tolist()], 1e-11)
        assert abs(triple_product_integral(s) - quad.value) < 1e-9

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            triple_product_integral(0.5)

    def test_overflow_is_an_error(self):
        # Gamma(100)^2 overflows
        with pytest.raises(NumericOverflowError):
            triple_product_integral(100.0)
