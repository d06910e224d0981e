"""zetalab: a Hurwitz zeta toolkit.

Exact Bernoulli/rational arithmetic, Euler-Maclaurin zeta kernels with
Taylor-mode s-derivatives and generalized Stieltjes constants, the
alpha-derivative/antiderivative calculus built on them, an exact
integration-by-parts reduction engine, and a registry that mechanically
verifies every identity the package implements.
"""

from .calculus import (AntiderivativeTerm, alpha_derivative,
                       alpha_derivative_at_zero,
                       antiderivative_alpha_derivative_symbolic,
                       antiderivative_eval, antiderivative_terms,
                       integral_1_inf, psi_chain, stieltjes_alpha_derivative)
from .checks import (CheckResult, CheckSpec, build_registry, render_report,
                     run_checks)
from .errors import (ConvergenceError, DomainError, EvaluationError,
                     NumericOverflowError, PoleProximityError)
from .exact import (RatPoly, bernoulli_number, bernoulli_polynomial,
                    bernoulli_product_integral, poly_integral_01,
                    rational_str, zeta_neg_int_poly)
from .kernels import (digamma, format_complex, gamma_complex, hurwitz_taylor,
                      hurwitz_zeta, hurwitz_zeta_deriv, riemann_zeta,
                      riemann_zeta_deriv, stieltjes)
from .quadrature import QuadResult, tanh_sinh_01
from .reduction import (DerivAtom, LinearCombination, RationalFunctionOfS,
                        eval_combination, integral_poly_zeta, pair_integral,
                        pair_limit_weighted, reduce_monomial, reduce_poly,
                        triple_product_integral)

__version__ = "0.1.0"
