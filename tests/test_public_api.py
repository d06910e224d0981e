"""The public surface, pinned: the names ``zetalab`` exports, and the
attributes and methods of its polynomial, quotient and combination types.
A change to the API contract shows up here as a one-line diff."""

import inspect
import types

import pytest

import zetalab

EXPORTS = [
    "AntiderivativeTerm", "CheckResult", "CheckSpec", "ConvergenceError",
    "DerivAtom", "DomainError", "EvaluationError", "LinearCombination",
    "NumericOverflowError", "PoleProximityError", "QuadResult", "RatPoly",
    "RationalFunctionOfS", "alpha_derivative", "alpha_derivative_at_zero",
    "antiderivative_alpha_derivative_symbolic", "antiderivative_eval",
    "antiderivative_terms", "bernoulli_number", "bernoulli_polynomial",
    "bernoulli_product_integral", "build_registry", "digamma",
    "eval_combination", "format_complex", "gamma_complex", "hurwitz_taylor",
    "hurwitz_zeta", "hurwitz_zeta_deriv", "integral_1_inf",
    "integral_poly_zeta", "pair_integral", "pair_limit_weighted",
    "poly_integral_01", "psi_chain", "rational_str",
    "reduce_monomial", "reduce_poly", "render_report", "riemann_zeta",
    "riemann_zeta_deriv", "run_checks", "stieltjes",
    "stieltjes_alpha_derivative", "tanh_sinh_01", "triple_product_integral",
    "zeta_neg_int_poly",
]

MEMBERS = {
    "RatPoly": [
        "__add__", "__eq__", "__hash__", "__init__", "__mul__", "__repr__",
        "__setattr__", "ascending_str", "coeffs", "degree", "derivative",
        "evaluate", "evaluate_complex", "is_zero", "one", "pretty_str",
        "scale",
    ],
    "RationalFunctionOfS": [
        "__add__", "__eq__", "__init__", "__repr__", "__setattr__", "__str__",
        "den", "is_zero", "num",
    ],
    "LinearCombination": [
        "__add__", "__eq__", "__init__", "__len__", "__repr__", "__setattr__",
        "atoms", "is_zero", "items", "max_shift", "serialize",
    ],
}


def test_exports():
    # submodules become attributes of the package once imported, so skip them
    assert sorted(name for name, value in vars(zetalab).items()
                  if not name.startswith("_")
                  and not isinstance(value, types.ModuleType)) == EXPORTS


@pytest.mark.parametrize("cls", sorted(MEMBERS))
def test_members(cls):
    """Public and special methods, properties and slots defined on the class."""
    members = sorted(
        name for name, value in vars(getattr(zetalab, cls)).items()
        if (not name.startswith("_") or name.endswith("__"))
        and (callable(value) or isinstance(value, property)
             or inspect.ismemberdescriptor(value)))
    assert members == MEMBERS[cls]
