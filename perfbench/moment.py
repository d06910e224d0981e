"""moment-integrals: the paper's integral end to end.

One operation reduces int_0^1 zeta(-m_1, a)...zeta(-m_k, a) zeta^(r)(s, a) da
with ``integral_poly_zeta(ms, r)`` and evaluates it at one s with
``eval_combination``.

Both halves are checked against a closed form computed here, apart from the
program.  With P(a) = sum_i p_i a^i the product polynomial,

    int_0^1 a^i zeta(s, a) da = sum_{k=1..i} (-1)^(k-1) i!/(i-k+1)!
                                 * zeta(s-k) / prod_{j=1..k} (j - s),

so the coefficient of zeta(s-k) is A_k / Q_k(s) with the rational constant
A_k = sum_i p_i (-1)^(k-1) i!/(i-k+1)! and Q_k(s) = prod_{j<=k} (j - s).  For
r = 1 the zeta'(s-k) atom takes A_k/Q_k and the zeta(s-k) atom its
s-derivative.  Coefficients must agree exactly; the value must lie within
the README's 1e-7 of the same sum taken with mpmath at 40 digits.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction
from math import comb, factorial

VALUE_TOL = 1e-7
EPS = sys.float_info.epsilon

# Round 0 is the same for every seed: the accuracy margins are taken over it.
PANEL_ROUNDS = 1
# A run is this many rounds (105 integrals), about 14 scaled seconds today:
# within --seconds 15, so that every run does the same work.
ROUNDS = 7


def round_slots(j: int) -> list[tuple[int, int]]:
    """The (degree N, r) slots of round j, in order.

    Degrees 2..7 rotate across rounds because few multisets have them; the
    costly r = 1 degrees 10..12 and 13..16 take one slot each per round.
    """
    low, six, mid, top = 2 + j % 6, 6 + j % 2, 10 + j % 3, 13 + j % 4
    return ([(n, 0) for n in (low, six, 8, 9, 10, 11, 12, top)]
            + [(n, 1) for n in (low, six, 8, 9, mid, top)])


ROUND_SIZE = len(round_slots(0)) + 1


def multisets(n: int) -> list[tuple[int, ...]]:
    """Every ms of 1 to 3 indices with sum(m + 1) == n, in a fixed order."""
    out = []

    def rec(rest: int, parts: int, largest: int, acc: tuple) -> None:
        if parts == 0:
            if rest == 0:
                out.append(tuple(p - 1 for p in acc))
            return
        for p in range(min(rest, largest), 0, -1):
            rec(rest - p, parts - 1, p, acc + (p,))

    for parts in (1, 2, 3):
        rec(n, parts, n, ())
    return out


# Every N = 20, r = 0 integral misses the 1e-7 bound today at s = 0.3 and at
# s = 0.55.  One is taken per round, in this order whatever the seed, and
# counted failed.
FAILING = tuple((ms, 0.3 if i % 2 == 0 else 0.55) for i, ms in enumerate(multisets(20)))


def rounds(seed: int):
    """Yield one run's ROUNDS rounds: lists of (ms, r, s, expected_to_fail).

    Which multisets each (N, r) slot uses is fixed: the first ones of a
    shuffle by a fixed generator, one per visit, so no (ms, r) repeats.  The
    median latency falls among integrals whose cost depends on the multiset,
    and a seeded choice moved it by 6 to 13 % from seed to seed.  Round 0,
    over which the margins are taken, is the same for every seed; ``seed``
    orders the other rounds' multisets within each slot and draws their s.
    """
    panel, seeded = random.Random("moment-panel"), random.Random(f"{seed}:moment")
    slots = [round_slots(j) for j in range(ROUNDS)]
    picks = {}
    for key in sorted({key for round_ in slots for key in round_}):
        pool = multisets(key[0])
        panel.shuffle(pool)
        chosen = pool[:sum(round_.count(key) for round_ in slots)]
        first = [chosen.pop(0)] if key in slots[0] else []
        seeded.shuffle(chosen)
        picks[key] = first + chosen
    for j, ((fail_ms, fail_s), round_) in enumerate(zip(FAILING, slots)):
        rng = panel if j < PANEL_ROUNDS else seeded
        ops = [(picks[key].pop(0), key[1], complex(round(rng.uniform(-1.6, 0.55), 4),
                                                   round(rng.uniform(-0.4, 0.4), 4)), False)
               for key in round_]
        ops.append((fail_ms, 0, complex(fail_s), True))
        yield ops


# ---------------------------------------------------------------------------
# Closed form, in exact rationals, independent of zetalab
# ---------------------------------------------------------------------------


def _bernoulli_numbers(n: int) -> list[Fraction]:
    """B_0..B_n with B_1 = -1/2."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return b


def _pmul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def product_poly(ms) -> list[Fraction]:
    """Ascending coefficients of prod_i zeta(-m_i, a) = -B_{m_i+1}(a)/(m_i+1)."""
    b = _bernoulli_numbers(max(ms) + 1)
    poly = [Fraction(1)]
    for m in ms:
        n = m + 1
        # B_n(a) = sum_k C(n, k) B_k a^(n-k)
        bn = [comb(n, n - i) * b[n - i] for i in range(n + 1)]
        poly = _pmul(poly, [Fraction(-c, n) for c in bn])
    return poly


def closed_form(ms, r: int) -> dict[tuple[int, int], tuple[list, list]]:
    """{(deriv_order, shift): (numerator, denominator)} as ascending
    Fraction coefficient lists in s, for every non-zero atom."""
    p = product_poly(ms)
    out = {}
    q = [Fraction(1)]
    for k in range(1, len(p)):
        q = _pmul(q, [Fraction(k), Fraction(-1)])  # Q_k(s) = prod_{j<=k} (j - s)
        a_k = sum(p[i] * (-1) ** (k - 1) * Fraction(factorial(i), factorial(i - k + 1))
                  for i in range(k, len(p)))
        if a_k == 0:
            continue
        if r == 0:
            out[(0, k)] = ([a_k], q)
        else:
            dq = [i * c for i, c in enumerate(q)][1:]
            out[(1, k)] = ([a_k], q)
            out[(0, k)] = ([-a_k * c for c in dq], _pmul(q, q))
    return out


def _trim(p: list) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def coefficients_match(lc, expected: dict) -> bool:
    """Exact check of every atom's coefficient of a reduction result."""
    got = {(atom.deriv_order, atom.shift): coeff for atom, coeff in lc.items()}
    if set(got) != set(expected):
        return False
    for key, (num, den) in expected.items():
        coeff = got[key]
        # coeff.num / coeff.den == num / den  <=>  coeff.num * den == num * coeff.den
        if _trim(_pmul(list(coeff.num.coeffs), den)) != _trim(_pmul(num, list(coeff.den.coeffs))):
            return False
    return True


def reference_value(mp, expected: dict, s: complex) -> complex:
    """Sum of closed-form coefficient times mpmath zeta^(j)(s - k)."""
    with mp.workdps(40):
        z = mp.mpc(s.real, s.imag)
        total = mp.mpc(0)
        for (j, k), (num, den) in expected.items():
            c = (mp.polyval([mp.mpf(x.numerator) / x.denominator for x in reversed(num)], z)
                 / mp.polyval([mp.mpf(x.numerator) / x.denominator for x in reversed(den)], z))
            total += c * mp.zeta(z - k, 1, j)
        return complex(total)


def margin(got: complex, ref: complex) -> float:
    err = max(abs(got - ref), EPS * max(abs(ref), 1.0))
    return math.log10(VALUE_TOL / err)
