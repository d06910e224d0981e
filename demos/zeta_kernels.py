"""Numeric kernels: zeta values, s-derivatives, Stieltjes constants, and
zeta(s, alpha) at real and at complex alpha.
"""

import math

from zetalab import (digamma, format_complex, gamma_complex, hurwitz_taylor,
                     hurwitz_zeta, hurwitz_zeta_deriv, riemann_zeta,
                     riemann_zeta_deriv, stieltjes)

print("Classic values:")
print(f"  zeta(2)        = {format_complex(riemann_zeta(2.0))}   (pi^2/6 = {math.pi**2/6:.15g})")
print(f"  zeta(0)        = {format_complex(riemann_zeta(0.0))}")
print(f"  zeta(-1)       = {format_complex(riemann_zeta(-1.0))}")
print(f"  Gamma(1/2)^2   = {format_complex(gamma_complex(0.5)**2)}   (pi = {math.pi:.15g})")
print(f"  zeta'(0)       = {format_complex(riemann_zeta_deriv(1, 0.0))}   (-log(2 pi)/2)")

print("\nHurwitz zeta and the dyadic identity zeta(s, 1/2) = (2^s - 1) zeta(s):")
for s in (2.0, -1.5, 3.0):
    lhs = hurwitz_zeta(s, 0.5)
    rhs = (2.0 ** s - 1.0) * riemann_zeta(s)
    print(f"  s = {s}: {lhs.real:.15g} vs {rhs.real:.15g}")

print("\nTwo routes to zeta(s, alpha): the real-alpha sum, and the complex-alpha")
print("sum at alpha + k plus the head sum_{n<k} (n + alpha)^-s (here k = 3):")
for s, a in ((-2.5, 0.7), (0.75, 1.3), (2.5, 0.4)):
    real = hurwitz_zeta(s, a)
    shifted = hurwitz_taylor(s, a, 3)
    print(f"  (s, a) = ({s}, {a}): |real - shifted| = {abs(real - shifted):.2e}")

print("\nThe complex-alpha route reaches alpha inside the disc |alpha| < k - 1/4:")
value = hurwitz_taylor(-1.5, 0.4 + 0.8j, 3)
print(f"  zeta(-1.5, 0.4+0.8i) = {format_complex(value)}")

print("\ns-derivatives from one Euler-Maclaurin sum taken as a power series in s:")
print(f"  zeta'(0, 1/2) = {hurwitz_zeta_deriv(1, 0.0, 0.5).real:.12g}")
print(f"  log(Gamma(1/2)/sqrt(2 pi)) = {math.lgamma(0.5) - 0.5*math.log(2*math.pi):.12g}")
print(f"  zeta''(2)     = {riemann_zeta_deriv(2, 2.0).real:.12g}")

print("\nGeneralized Stieltjes constants gamma_n(alpha), the Taylor")
print("coefficients of zeta(1+s, alpha) - 1/s at s = 0:")
for n in range(4):
    print(f"  gamma_{n}(1)   = {stieltjes(n, 1.0).real: .15g}")
print(f"  gamma_0(1/2) = {stieltjes(0, 0.5).real: .15g}   (-psi(1/2) = {-digamma(0.5):.15g})")
