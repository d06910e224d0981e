"""IBP reduction engine: symbolic structure, exact values, closed forms."""

import hashlib
import itertools
import json
import math
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest

from conftest import TARGET_IDS, TARGETS
from zetalab import kernels, reduction
from zetalab.errors import DomainError, NumericOverflowError, PoleProximityError
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
    def test_gcd_reduction_and_monic(self):
        # ((s-1)(s-2)) / ((s-1)^2 (s-3)) -> (s-2)/((s-1)(s-3))
        num = S_MINUS_1 * S_MINUS_2
        den = S_MINUS_1 * S_MINUS_1 * RatPoly((-3, 1))
        f = RationalFunctionOfS(num, den)
        assert f.num == S_MINUS_2
        assert f.den == S_MINUS_1 * RatPoly((-3, 1))
        assert f.den.leading() == 1

    def test_monic_normalisation_moves_constant(self):
        f = RationalFunctionOfS(RatPoly((1,)), RatPoly((1, -1)))  # 1/(1-s)
        assert f.den == S_MINUS_1
        assert f.num == RatPoly((-1,))

    def test_zero(self):
        f = RationalFunctionOfS(RatPoly(), S_MINUS_1)
        assert f.is_zero() and f.den == RatPoly((1,))

    def test_arithmetic(self):
        a = rf((1,), (0, 1))           # 1/s
        b = rf((1,), (1, 1))           # 1/(1+s)
        total = a + b                  # (1+2s)/(s(1+s))
        assert total == rf((1, 2), RatPoly((0, 1)) * RatPoly((1, 1)))
        assert a - a == RationalFunctionOfS.zero()
        assert (a * b) == rf((1,), RatPoly((0, 1)) * RatPoly((1, 1)))

    def test_scaling_by_int_and_fraction(self):
        f = rf((1,), S_MINUS_1)        # 1/(s-1)
        assert f * 2 == 2 * f == rf((2,), S_MINUS_1)
        assert f * Fraction(1, 3) == Fraction(1, 3) * f == rf((Fraction(1, 3),), S_MINUS_1)

    def test_scaling_runs_no_gcd(self, monkeypatch):
        coeff = integral_poly_zeta((19,), 1).coefficient(DerivAtom(0, 20))
        assert coeff.den.degree == 40

        def no_gcd(a, b):
            raise AssertionError("a scalar product re-ran the gcd")

        monkeypatch.setattr(reduction, "_poly_gcd", no_gcd)
        assert (coeff * 3).num == coeff.num.scale(3)
        assert (Fraction(-2, 7) * coeff).num == coeff.num.scale(Fraction(-2, 7))
        assert (-coeff).num == -coeff.num
        assert (coeff * 3).den == (-coeff).den == coeff.den
        assert (coeff * 0).is_zero()

    @pytest.mark.parametrize("other", [0.5, 1j, "x", RatPoly((1, 2))])
    def test_other_operand_types_are_a_type_error(self, other):
        f = rf((1,), S_MINUS_1)
        for op in (lambda: f * other, lambda: other * f, lambda: f + other,
                   lambda: other + f, lambda: f - other):
            with pytest.raises(TypeError):
                op()

    def test_shift_argument(self):
        f = rf((1,), S_MINUS_1)        # 1/(s-1)
        assert f.shifted_argument(-1) == rf((1,), S_MINUS_2)

    def test_evaluate(self):
        f = rf((-1,), S_MINUS_1)       # 1/(1-s)
        assert abs(f.evaluate(3.0) - (-0.5)) < 1e-15

    def test_integer_roots(self):
        f = rf((1,), S_MINUS_1 * S_MINUS_2)
        assert [k for k in range(-8, 9) if f.den.evaluate(k) == 0] == [1, 2]

    def test_equality_decidable(self):
        assert rf((2,), (0, 2)) == rf((1,), (0, 1))   # 2/(2s) == 1/s


class TestLinearCombinationScale:
    @pytest.mark.parametrize("factor", [3, -1, 0, Fraction(-2, 7)])
    def test_scalar_scales_each_coefficient(self, factor):
        lc = integral_poly_zeta((1, 2), 1)
        scaled = lc.scale(factor)
        assert scaled.atoms() == (lc.atoms() if factor else [])
        for atom, coeff in lc.items():
            assert scaled.coefficient(atom) == rf(coeff.num.scale(factor), coeff.den)
        assert scaled == lc.scale(rf((factor,)))


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


@lru_cache(maxsize=None)
def _recursive_monomial(i, r):
    """The reduction as one integration by parts at a time: boundary terms
    at a = 1 plus i times the (i-1, s-1) integral.  This was the engine
    before the closed form; it stays here as the exact reference."""
    if i == 0:
        return LinearCombination()
    inv_1ms = rf((-1,), S_MINUS_1)                  # 1/(1-s)
    inv_1ms2 = rf((1,), S_MINUS_1 * S_MINUS_1)      # 1/(1-s)^2
    if r == 0:
        factor = rf((i,), S_MINUS_1)
        return (LinearCombination({DerivAtom(0, 1): inv_1ms})
                + _recursive_monomial(i - 1, 0).shifted().scale(factor))
    f1 = rf((i,), S_MINUS_1)
    f0 = rf((-i,), S_MINUS_1 * S_MINUS_1)
    return (LinearCombination({DerivAtom(1, 1): inv_1ms, DerivAtom(0, 1): inv_1ms2})
            + _recursive_monomial(i - 1, 1).shifted().scale(f1)
            + _recursive_monomial(i - 1, 0).shifted().scale(f0))


class TestClosedFormAgainstRecursion:
    @pytest.mark.parametrize("r", [0, 1])
    def test_every_monomial_to_degree_16(self, r):
        for i in range(17):
            old, new = _recursive_monomial(i, r), reduce_monomial(i, r)
            assert new == old, (i, r)
            assert new.serialize() == old.serialize(), (i, r)


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
        a_k = sum(p.coefficient(i) * math.perm(i, k - 1)
                  for i in range(k, p.degree + 1))
        if a_k == 0:
            continue
        out[DerivAtom(r, k)] = (RatPoly((-a_k,)), q)
        if r == 1:
            out[DerivAtom(0, k)] = (q.derivative().scale(a_k), q * q)
    return out


class TestHighDegreeClosedForm:
    """Degrees the recursive engine took minutes over (degree 42 alone took
    152 s): every atom must carry exactly -A_k/Q_k (or its s-derivative)."""

    @pytest.mark.parametrize("ms, r", [((63,), 1), ((20, 20), 0)])
    def test_atoms_match_closed_form(self, ms, r):
        lc = integral_poly_zeta(ms, r)
        expected = _expected_atoms(ms, r)
        assert set(lc.atoms()) == set(expected)
        for atom, (num, den) in expected.items():
            coeff = lc.coefficient(atom)
            assert (coeff.num, coeff.den) == (num, den), atom


def _scanned_pole_error(lc, s):
    """The message the refusal must give: the first atom, in order, whose
    denominator has an integer root within 1e-8 of s (every pole a reduction
    can have, 1..MAX_DEGREE, is in the scan)."""
    for atom, coeff in lc.items():
        for root in range(-8, MAX_DEGREE + 6):
            if coeff.den.evaluate(root) == 0 and abs(s - root) <= 1e-8:
                return f"coefficient of {atom} has a pole at s = {root}"
    return None


class TestPoleRefusal:
    LC = reduce_monomial(6, 1)

    @pytest.mark.parametrize("shift", range(1, 7))
    @pytest.mark.parametrize("offset", [0, 5e-9, -9e-9, 5e-9j, -7e-9j, 6e-9 + 6e-9j])
    def test_refuses_near_each_shift(self, shift, offset):
        s = shift + offset
        expected = _scanned_pole_error(self.LC, s)
        assert expected is not None
        with pytest.raises(PoleProximityError) as err:
            eval_combination(self.LC, s)
        assert str(err.value) == expected

    @pytest.mark.parametrize("s", [0.0, 1e-9, -3.0, -3.0 + 5e-9j])
    def test_evaluates_near_non_pole_integers(self, s):
        assert _scanned_pole_error(self.LC, s) is None
        assert math.isfinite(abs(eval_combination(self.LC, s)))

    @pytest.mark.parametrize("s", [2.0 + 2e-8, 3.0 - 2e-8j])
    def test_window_is_1e_minus_8(self, s):
        # just outside the window the coefficients are let through; the
        # zeta(s-k) factor on the kernel's pole is refused instead
        assert _scanned_pole_error(self.LC, s) is None
        with pytest.raises(PoleProximityError) as err:
            eval_combination(self.LC, s)
        assert str(err.value).startswith("shift ")


class TestEvalCombination:
    def test_pole_outside_the_shifts(self):
        # a hand-built coefficient with its pole at s = 100
        lc = LinearCombination({DerivAtom(0, 1): RationalFunctionOfS(
            RatPoly((1,)), RatPoly((-100, 1)))})
        with pytest.raises(PoleProximityError) as err:
            eval_combination(lc, 100.0)
        assert str(err.value) == "coefficient of zeta^(0)(s-1) has a pole at s = 100"

    def test_pole_off_the_integers(self):
        lc = LinearCombination({DerivAtom(0, 1): RationalFunctionOfS(
            RatPoly((1,)), RatPoly((-1, 2)))})
        with pytest.raises(PoleProximityError) as err:
            eval_combination(lc, 0.5)
        assert str(err.value) == "coefficient of zeta^(0)(s-1) has a pole at s = 0.5+0i"

    def test_empty(self):
        assert eval_combination(LinearCombination(), 0.3) == 0j

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

    def test_pole_guard_names_shift(self):
        with pytest.raises(PoleProximityError) as err:
            eval_combination(reduce_monomial(2, 0), 2.0)
        assert "s = 2" in str(err.value)
        with pytest.raises(PoleProximityError) as err:
            eval_combination(
                LinearCombination({DerivAtom(0, 3): rf((1,))}), 4.0 + 1e-12j)
        assert "shift 3" in str(err.value)


@lru_cache(maxsize=None)
def riemann_zeta_deriv_cached(n, z, target):
    """riemann_zeta_deriv at the accuracy target ``target``, remembered: the
    parity grid meets each zeta^(n)(s-k) at every degree >= k."""
    return kernels.riemann_zeta_deriv(n, z)


def atom_by_atom(lc, s):
    """eval_combination as one riemann_zeta_deriv call per atom: the loop
    that the batch over shifts replaced, kept as its reference."""
    s = complex(s)
    root = round(s.real) if math.isfinite(s.real) else None
    if root is not None and abs(s - root) <= 1e-8:
        for atom, coeff in lc.items():
            if coeff.den.evaluate(root) == 0:
                raise PoleProximityError(
                    f"coefficient of {atom} has a pole at s = {root}")
    total = 0j
    for atom, coeff in lc.items():
        try:
            value = riemann_zeta_deriv_cached(atom.deriv_order, s - atom.shift,
                                              kernels._TARGET_ABS_ERROR)
        except PoleProximityError as exc:
            raise PoleProximityError(f"shift {atom.shift}: {exc}") from None
        try:
            total += coeff.evaluate(s) * value
        except ZeroDivisionError:
            raise PoleProximityError(
                f"coefficient of {atom} has a pole at s = {kernels.format_complex(s)}") from None
    return total


def outcome(call):
    """The value of call(), or the type and message of the ValueError it raised."""
    try:
        return call()
    except ValueError as exc:  # EvaluationError is a ValueError
        return type(exc), str(exc)


def parity_multiset(n):
    """One multiset of degree n: 1, 2 or 3 near-equal factors by n mod 3."""
    parts = min(1 + n % 3, n)
    return tuple(n // parts + (i < n % parts) - 1 for i in range(parts))


# At 1.3 shift 1, and at 2.6+0.4i shifts 1 and 2, lie within 1 of the pole
# guard around s = 1.
PARITY_S = (0.0, -1.0, -3.0, 0.3, 0.55, -0.7 + 0.2j, -1.6 - 0.4j, 1.3, 2.6 + 0.4j)


class TestShiftBatch:
    """eval_combination takes every order of a shift from one Taylor-mode
    sum; each value and each refusal must equal the atom-by-atom loop's."""

    @pytest.mark.parametrize("r", [0, 1])
    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    def test_bitwise_equal_to_atom_by_atom(self, target, r):
        for n in range(2, MAX_DEGREE + 1):
            ms = parity_multiset(n)
            assert sum(m + 1 for m in ms) == n
            lc = integral_poly_zeta(ms, r)
            for s in PARITY_S:
                got = outcome(lambda: eval_combination(lc, s))
                assert got == outcome(lambda: atom_by_atom(lc, s)), (ms, s)

    ONE = RationalFunctionOfS.one()
    # 1/(s - 33/10): a pole off the integers, at s = 3.3
    POLE_33 = rf((1,), (Fraction(-33, 10), 1))
    POLE_6395 = rf((1,), (Fraction(1279, 2), 1))
    POLE_6411 = rf((1,), (Fraction(6411, 10), 1))

    @pytest.mark.parametrize("terms, s, error, message", [
        ({DerivAtom(0, 1): ONE, DerivAtom(1, 2): ONE}, complex("nan"), DomainError,
         "hurwitz_zeta got NaN for s"),
        ({DerivAtom(1, 1): ONE, DerivAtom(2, 3): ONE}, complex("nan"), DomainError,
         "hurwitz_zeta_deriv got NaN for s"),
        ({DerivAtom(0, 1): ONE, DerivAtom(1, 1): ONE}, complex(0.3, math.inf),
         NumericOverflowError, "Euler-Maclaurin overflow in hurwitz_zeta"),
        ({DerivAtom(1, 1): ONE, DerivAtom(1, 2): ONE}, complex(0.3, math.inf),
         NumericOverflowError, "non-finite value in hurwitz_zeta_deriv"),
        ({DerivAtom(1, 1): ONE, DerivAtom(7, 2): ONE, DerivAtom(1, 3): ONE}, 0.3,
         ValueError, "derivative order must be in 0..6"),
        ({DerivAtom(-1, 2): ONE, DerivAtom(1, 1): ONE}, 0.3,
         ValueError, "derivative order must be in 0..6"),
        ({DerivAtom(0, 1): ONE, DerivAtom(1, 3): ONE, DerivAtom(1, 1): ONE,
          DerivAtom(2, 2): ONE}, 2.3, PoleProximityError,
         "shift 1: s=(1.2999999999999998+0j) is within 0.5 of the pole at 1"),
        ({DerivAtom(1, 1): POLE_33, DerivAtom(1, 2): ONE, DerivAtom(2, 4): ONE}, 3.3,
         PoleProximityError, "coefficient of zeta^(1)(s-1) has a pole at s = 3.3+0i"),
        ({DerivAtom(1, 2): ONE, DerivAtom(2, 1): POLE_33}, 3.3, PoleProximityError,
         "shift 2: s=(1.2999999999999998+0j) is within 0.5 of the pole at 1"),
        # zeta(-640.5) and zeta'(-640.5) are finite, zeta'(-643.5) overflows
        ({DerivAtom(1, 1): ONE, DerivAtom(1, 4): ONE}, -639.5,
         NumericOverflowError, "non-finite value in hurwitz_zeta_deriv"),
        ({DerivAtom(1, 1): POLE_6395, DerivAtom(1, 4): ONE}, -639.5, PoleProximityError,
         "coefficient of zeta^(1)(s-1) has a pole at s = -639.5+0i"),
        ({DerivAtom(0, 1): POLE_6395, DerivAtom(1, 4): ONE}, -639.5, PoleProximityError,
         "coefficient of zeta^(0)(s-1) has a pole at s = -639.5+0i"),
        # zeta'(-643.1) is finite and zeta^(6)(-643.1) overflows, both from
        # the jet of shift 2: the coefficient pole of the atom between them
        # is the refusal
        ({DerivAtom(1, 2): ONE, DerivAtom(2, 1): POLE_6411, DerivAtom(6, 2): ONE}, -641.1,
         PoleProximityError, "coefficient of zeta^(2)(s-1) has a pole at s = -641.1+0i"),
    ])
    def test_refusals_equal_atom_by_atom(self, terms, s, error, message):
        lc = LinearCombination(terms)
        got = outcome(lambda: eval_combination(lc, s))
        assert got == (error, message)
        assert got == outcome(lambda: atom_by_atom(lc, s))

    @pytest.mark.parametrize("target", TARGETS, ids=TARGET_IDS, indirect=True)
    @pytest.mark.parametrize("n", [2, 8, 9, 16, 33, MAX_DEGREE])
    def test_one_jet_per_shift(self, monkeypatch, target, n):
        calls = []
        jet = kernels._em_jet

        def counted(*args, **kwargs):
            calls.append(args)
            return jet(*args, **kwargs)

        monkeypatch.setattr(kernels, "_em_jet", counted)
        ms = parity_multiset(n)
        s = -0.7 + 0.2j
        for r in (0, 1):
            calls.clear()
            lc = integral_poly_zeta(ms, r)
            eval_combination(lc, s)
            # one sum about s - k up to order r for each shift k, order 0
            # included, in shift order
            shifts = sorted({atom.shift for atom in lc.atoms()})
            assert shifts and calls == [(s - k, 1.0, r) for k in shifts], r


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
