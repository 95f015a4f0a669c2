"""Three routes to the same triangle polynomials, and how they connect.

1. the monic family from the terminating double hypergeometric sum,
2. a Rodrigues family: high-order derivatives of weighted factor powers,
3. a nested-Jacobi family built by exact substitution.

Explicit invertible matrices connect routes 2 and 3 back to route 1; this
demo evaluates all three and multiplies the connections out.

Run:  python demos/demo_rodrigues_connections.py
"""

from opde import (AppellParams, appell_phi_case, appell_weight, apply_matrix,
                  connection_F, connection_K, functional, koornwinder,
                  koornwinder_vector, monic_appell_series, monic_appell_vector,
                  nonmonic_F, nonmonic_F_vector, rodrigues_eval)

params = AppellParams(1, 1)

print("monic member (1,0):", monic_appell_series(params, 1, 0))
print("monic member (0,1):", monic_appell_series(params, 0, 1))

# Rodrigues route: differentiate x^n y^m (1-x-y)^(n+m) and normalize.
weight = appell_weight(params)
case = appell_phi_case(params)
print("\nraw Rodrigues output (1,0):", rodrigues_eval(weight, case, 1, 0))
print("normalized family member (1,0):", nonmonic_F(params, 1, 0))
print("normalized family member (2,1):", nonmonic_F(params, 2, 1))

# Nested-Jacobi route, exact substitution clearing all denominators.
print("\nnested member (1,0):", koornwinder(params, 1, 0))
print("nested member (0,1):", koornwinder(params, 0, 1))
print("nested member (2,1):", koornwinder(params, 2, 1))

# Connection matrices carry the monic vector onto the other two families.
for n in range(4):
    monic = monic_appell_vector(params, n)
    ok_f = apply_matrix(connection_F(params, n), monic) == nonmonic_F_vector(params, n)
    ok_k = apply_matrix(connection_K(params, n), monic) == koornwinder_vector(params, n)
    print(f"degree {n}: connection to Rodrigues family {ok_f}, "
          f"to nested-Jacobi family {ok_k}")

from opde.serialize import matrix_to_json

print("\nconnection matrix to the Rodrigues family at degree 1:",
      matrix_to_json(connection_F(params, 1)))
print("connection matrix to the nested family at degree 1:",
      matrix_to_json(connection_K(params, 1)))

# The Rodrigues family is biorthogonal to the monic one: cross moments vanish.
f10 = nonmonic_F(params, 1, 0)
print("\nL[F_(1,0) * A_(0,1)] =", functional(params, f10 * monic_appell_series(params, 0, 1)))
print("L[F_(1,0) * A_(1,0)] =", functional(params, f10 * monic_appell_series(params, 1, 0)))
