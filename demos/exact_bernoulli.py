"""Exact Bernoulli arithmetic: numbers, polynomials, and [0,1] integrals.

Everything printed here is a fraction, not a float.
"""

from fractions import Fraction

from zetalab import (bernoulli_number, bernoulli_polynomial,
                     bernoulli_product_integral, poly_integral_01,
                     zeta_neg_int_poly)

print("Bernoulli numbers (B1 = -1/2 convention):")
for n in (0, 1, 2, 4, 12, 30):
    print(f"  B_{n:<2} = {bernoulli_number(n)}")

print("\nBernoulli polynomials:")
for n in range(5):
    print(f"  B_{n}(alpha) = {bernoulli_polynomial(n).pretty_str()}")

print("\nReflection B_n(1 - alpha) = (-1)^n B_n(alpha), evaluated exactly:")
b3 = bernoulli_polynomial(3)
for x in (Fraction(1, 5), Fraction(1, 3), Fraction(7, 4)):
    print(f"  B_3({1 - x}) = {b3.evaluate(1 - x)},  -B_3({x}) = {-b3.evaluate(x)}")

print("\nzeta at non-positive integers is a polynomial, zeta(-m, .) = -B_{m+1}/(m+1):")
for m in range(3):
    print(f"  zeta(-{m}, alpha) = {zeta_neg_int_poly(m).pretty_str()}")
print(f"  zeta(-2, 1/2) = {zeta_neg_int_poly(2).evaluate(Fraction(1, 2))}")

print("\nProduct integrals over [0,1] are exact rationals,")
print("zero whenever the index sum is odd:")
for ms in ((1,), (1, 1), (2, 2), (1, 2), (1, 2, 3), (2, 2, 4)):
    value = bernoulli_product_integral(ms)
    tag = "  (odd sum)" if sum(ms) % 2 else ""
    print(f"  int prod B_m, m = {ms}: {value}{tag}")

print("\nThe same integral two ways (Bernoulli basis vs antiderivative):")
ms = (2, 2, 2)
prod = bernoulli_polynomial(ms[0])
for m in ms[1:]:
    prod = prod * bernoulli_polynomial(m)
print(f"  basis route:          {bernoulli_product_integral(ms)}")
print(f"  antiderivative route: {poly_integral_01(prod)}")
