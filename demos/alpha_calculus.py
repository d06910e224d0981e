"""The alpha-calculus: differentiating and integrating zeta^(r)(s, alpha)
in the second argument.
"""

import math

from zetalab import (alpha_derivative, alpha_derivative_at_zero,
                     antiderivative_alpha_derivative_symbolic,
                     antiderivative_terms, digamma, hurwitz_zeta_deriv,
                     integral_1_inf, integral_poly_zeta, psi_chain,
                     riemann_zeta, stieltjes_alpha_derivative)

print("Forward rule d/da zeta^(r)(s,a) = -r zeta^(r-1)(s+1,a) - s zeta^(r)(s+1,a),")
print("checked against a finite difference:")
for r, s, a in ((0, -1.5, 0.6), (1, 2.0, 0.8)):
    rule = alpha_derivative(r, s, a)
    h = 1e-5
    fd = (hurwitz_zeta_deriv(r, s, a + h) - hurwitz_zeta_deriv(r, s, a - h)) / (2 * h)
    print(f"  r={r}, s={s}: rule {rule.real:.10g}, fd {fd.real:.10g}")

print("\nAntiderivative family: coefficients r!/l! against pole powers")
for r in range(4):
    terms = antiderivative_terms(r)
    desc = " + ".join(f"{t.coefficient}*zeta^({t.deriv_order})(s-1,a)/(1-s)^{t.pole_power}"
                      for t in terms)
    print(f"  r={r}: {desc}")

print("\nDifferentiating that family symbolically collapses it back (exact):")
print(f"  r=3 collapse: {antiderivative_alpha_derivative_symbolic(3)}")

print("\nAt s = 0 the alpha-derivative is a Stieltjes constant,")
print("d/da zeta^(r)(0,a) = -r! gamma_{r-1}(a):")
for r in range(3):
    print(f"  r={r}, a=1: {alpha_derivative_at_zero(r, 1.0).real:.12g}")

print("\nStieltjes constants flow too: d/da gamma_0(a) = -zeta(2,a):")
print(f"  at a=1: {stieltjes_alpha_derivative(1, 1.0).real:.12g} "
      f"vs -pi^2/6 = {-math.pi**2/6:.12g}")

print("\npsi chain d^r/da^r psi(a) = (-1)^(r-1) r! zeta(r+1, a):")
print(f"  psi'(1)  = {psi_chain(1, 1.0).real:.12g}  (zeta(2))")
print(f"  psi''(1) = {psi_chain(2, 1.0).real:.12g}  (-2 zeta(3))")
h = 1e-4
print(f"  fd check psi'(0.5): {(digamma(0.5+h) - digamma(0.5-h))/(2*h):.10g} "
      f"vs {psi_chain(1, 0.5).real:.10g}")

print("\nDefinite integrals that follow:")
print(f"  int_0^1 zeta'(s, a) da, Re s < 1, reduces exactly to "
      f"{integral_poly_zeta((), 1).serialize()}")
print(f"  int_1^inf zeta(3, a) da = {integral_1_inf(0, 3.0).real:.12g} "
      f"(zeta(2)/2 = {riemann_zeta(2.0).real/2:.12g})")
print(f"  int_1^inf zeta'(3, a) da = {integral_1_inf(1, 3.0).real:.12g}")
