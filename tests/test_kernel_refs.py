"""hurwitz_zeta and hurwitz_taylor against stored mpmath references.

The benchmark's corpus ``perfbench/data/kernel_refs.json.gz`` holds mpmath
1.3 values for 36 000 inputs of zeta(s, alpha) (Re s in [-1, 10],
|Im s| <= 40, |s - 1| >= 0.05, alpha in [0.05, 50]), 18 000 of
zeta^(r)(s, alpha) (r in 1..4, Re s in [-2, 6], |Im s| <= 20,
|s - 1| >= 1.5, alpha in [0.05, 50]), 9000 of the Stieltjes constants
(n in 0..5, alpha in [0.05, 50]) and 9000 of zeta(s, alpha) at complex
alpha through hurwitz_taylor(s, alpha, 3) (Re s in [-2.5, 2.5],
|Im s| <= 2, |alpha| in [0.2, 1.6]).  It is only read here, so this check
needs no mpmath.  Bounds as in the README: 1e-11 absolute or 1e-13
relative for zeta, 100 times that for the derivatives and the Stieltjes
constants, 1e-9 for hurwitz_taylor.
"""

import gzip
import json
from pathlib import Path

import pytest

from zetalab import hurwitz_taylor, hurwitz_zeta, hurwitz_zeta_deriv, stieltjes

REFS = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "kernel_refs.json.gz"


@pytest.fixture(scope="module")
def stored():
    with gzip.open(REFS, "rt") as fh:
        return json.load(fh)["classes"]


def zeta_bound(value: complex) -> float:
    return max(1e-11, 1e-13 * abs(value))


def test_zeta_within_bound(stored):
    rows = stored["zeta"]
    misses = []
    for re_s, im_s, alpha, ref_re, ref_im in rows:
        expected = complex(ref_re, ref_im)
        error = abs(hurwitz_zeta(complex(re_s, im_s), alpha) - expected)
        if error > zeta_bound(expected):
            misses.append((re_s, im_s, alpha, error))
    assert len(rows) == 36000
    assert not misses, misses[:10]


def test_deriv_within_bound(stored):
    rows = stored["deriv"]
    misses = []
    for r, re_s, im_s, alpha, ref_re, ref_im in rows:
        expected = complex(ref_re, ref_im)
        error = abs(hurwitz_zeta_deriv(r, complex(re_s, im_s), alpha) - expected)
        if error > 100.0 * zeta_bound(expected):
            misses.append((r, re_s, im_s, alpha, error))
    assert len(rows) == 18000
    assert not misses, misses[:10]


def test_stieltjes_within_bound(stored):
    # stored as stieltjes returns them: the n-th Taylor coefficient of
    # zeta(1+t, alpha) - 1/t, mpmath's stieltjes(n, alpha) (-1)^n / n!
    rows = stored["stieltjes"]
    misses = []
    for n, alpha, ref_re, ref_im in rows:
        expected = complex(ref_re, ref_im)
        error = abs(stieltjes(n, alpha) - expected)
        if error > 100.0 * zeta_bound(expected):
            misses.append((n, alpha, error))
    assert len(rows) == 9000
    assert not misses, misses[:10]


def test_taylor_within_bound(stored):
    rows = stored["taylor"]
    misses = []
    for re_s, im_s, re_a, im_a, ref_re, ref_im in rows:
        got = hurwitz_taylor(complex(re_s, im_s), complex(re_a, im_a), 3)
        error = abs(got - complex(ref_re, ref_im))
        if error > 1e-9:
            misses.append((re_s, im_s, re_a, im_a, error))
    assert len(rows) == 9000
    assert not misses, misses[:10]
