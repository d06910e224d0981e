"""Integration-by-parts reduction: moment integrals of zeta(s, alpha) as
exact linear combinations of shifted Riemann zeta values.
"""

from zetalab import (eval_combination, hurwitz_zeta, integral_poly_zeta,
                     pair_integral, pair_limit_weighted, reduce_monomial,
                     tanh_sinh_01, triple_product_integral, zeta_neg_int_poly)

print("int_0^1 a^i zeta(s,a) da reduces to shifted zeta values with exact")
print("rational-function coefficients:")
for i in (1, 2, 3):
    print(f"  i = {i}:")
    for line in reduce_monomial(i, 0).serialize().splitlines():
        print(f"    {line}")

print("\nWith a derivative in the integrand (r = 1) both zeta and zeta' shifts appear:")
for line in reduce_monomial(1, 1).serialize().splitlines():
    print(f"    {line}")

print("\nProduct integrands: int_0^1 zeta(-1,a) zeta(-2,a) zeta(s,a) da")
lc = integral_poly_zeta((1, 2), 0)
for line in lc.serialize().splitlines():
    print(f"    {line}")

print("\nNumeric evaluation vs direct tanh-sinh quadrature at s = -0.7+0.2i:")
s = -0.7 + 0.2j
prod = zeta_neg_int_poly(1) * zeta_neg_int_poly(2)
quad = tanh_sinh_01(
    lambda xs: [prod.evaluate_complex(a) * hurwitz_zeta(s, a) for a in xs.tolist()], 1e-10)
print(f"  reduction:  {eval_combination(lc, s):.12g}")
print(f"  quadrature: {quad.value:.12g}   ({quad.evaluations} samples)")

print("\nClosed-form product integrals:")
print(f"  int zeta(0,a)^2 da        = {pair_integral(0.0, 0.0).real:.15g}   (1/12)")
print(f"  int zeta(-1,a)^2 da       = {pair_integral(-1.0, -1.0).real:.15g} (1/720)")
print(f"  s->1- weighted limit      = {pair_limit_weighted(-1.0, -1.0).real:.15g} (-1/180)")
print(f"  triple product at s=2     = {triple_product_integral(2.0).real:.15g} (-1/360)")
