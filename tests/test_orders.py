"""Every public entry point that takes a derivative order takes it as an
integer: a float order raises Python's own TypeError before any work, and
True or a numpy integer act as the int they stand for."""

import numpy as np
import pytest

from zetalab import calculus
from zetalab.calculus import (alpha_derivative, alpha_derivative_at_zero,
                              antiderivative_alpha_derivative_symbolic,
                              antiderivative_eval, antiderivative_terms,
                              integral_1_inf, psi_chain,
                              stieltjes_alpha_derivative)
from zetalab.errors import NumericOverflowError
from zetalab.exact import RatPoly
from zetalab.kernels import hurwitz_zeta_deriv, riemann_zeta_deriv, stieltjes
from zetalab.reduction import (DerivAtom, LinearCombination, RationalFunctionOfS,
                               eval_combination, integral_poly_zeta,
                               reduce_monomial, reduce_poly)

ONE = RationalFunctionOfS.one()

# name -> the entry point as a function of its order alone
ENTRY_POINTS = {
    "hurwitz_zeta_deriv": lambda r: hurwitz_zeta_deriv(r, 0.3, 0.5),
    "riemann_zeta_deriv": lambda r: riemann_zeta_deriv(r, 0.3),
    "stieltjes": lambda r: stieltjes(r, 1.0),
    "antiderivative_terms": antiderivative_terms,
    "antiderivative_eval": lambda r: antiderivative_eval(r, -0.5, 0.3),
    "antiderivative_alpha_derivative_symbolic": antiderivative_alpha_derivative_symbolic,
    "alpha_derivative": lambda r: alpha_derivative(r, 2.0, 0.7),
    "alpha_derivative_at_zero": lambda r: alpha_derivative_at_zero(r, 0.7),
    "stieltjes_alpha_derivative": lambda r: stieltjes_alpha_derivative(r, 1.0),
    "psi_chain": lambda r: psi_chain(r, 1.0),
    "integral_1_inf": lambda r: integral_1_inf(r, 3.0),
    "reduce_monomial": lambda r: reduce_monomial(2, r).serialize(),
    "reduce_poly": lambda r: reduce_poly(RatPoly((1, 2, 3)), r).serialize(),
    "integral_poly_zeta": lambda r: integral_poly_zeta((1,), r).serialize(),
    "eval_combination": lambda r: eval_combination(
        LinearCombination({DerivAtom(0, 2): ONE, DerivAtom(r, 1): ONE}), -0.5),
}
NOT_AN_INT = "'float' object cannot be interpreted as an integer"


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_float_order_is_refused(name):
    with pytest.raises(TypeError, match=NOT_AN_INT):
        ENTRY_POINTS[name](1.0)


@pytest.mark.parametrize("order", [True, np.int64(1)], ids=["True", "int64"])
@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_integer_like_order_acts_as_the_int(name, order):
    assert ENTRY_POINTS[name](order) == ENTRY_POINTS[name](1)


def test_reduction_atoms_carry_int_orders():
    for order in (True, np.int64(1)):
        atoms = integral_poly_zeta((1,), order).atoms()
        assert atoms and all(type(a.deriv_order) is int for a in atoms)


def test_float_monomial_degree_is_refused():
    with pytest.raises(TypeError, match=NOT_AN_INT):
        reduce_monomial(2.0, 0)


def test_psi_chain_refuses_a_large_order_before_its_factorial(monkeypatch):
    real = calculus.factorial

    def factorial(n):
        assert n <= 170, f"factorial({n}) taken for an order that is refused"
        return real(n)

    monkeypatch.setattr(calculus, "factorial", factorial)
    with pytest.raises(NumericOverflowError, match="psi_chain overflow"):
        psi_chain(10 ** 7, 1.0)
    with pytest.raises(NumericOverflowError, match="psi_chain overflow"):
        psi_chain(171, 1.0)
    assert psi_chain(170, 1.0) == -7.257415615307999e306
