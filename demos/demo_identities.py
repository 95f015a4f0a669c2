"""The three matrix identities, checked as exact polynomial equalities.

For the monic triangle family this demo evaluates, term by term,

    x_j P_n        = A P_{n+1} + B P_n + C P_{n-1}          (recurrence)
    phi_j dP_n/dx_j = W P_{n+1} + S P_n + T P_{n-1}          (structure)
    P_n            = V dP_{n+1}/dx_j + Y dP_n/dx_j + Z dP_{n-1}/dx_j

and compares the closed-form entry tables against the matrices recovered
from the polynomials themselves.

Run:  python demos/demo_identities.py
"""

from opde import (AppellParams, appell_pde, apply_matrix, build_monic,
                  classify_phi, derivative_representation, general_ttrr,
                  structure_matrices, X)
from opde.vectors import times_shift
from opde.golden import golden_matrix

params = AppellParams(2, 3)
fam = build_monic(appell_pde(params), 6)
case = classify_phi(fam.pde)[0]
print("weight-shift factors:", case.phi10, "|", case.phi01)

n = 4
(a1, b1, c1), _ = general_ttrr(fam, n)
lhs = fam.vector(n).scale(X)
rhs = (apply_matrix(a1, fam.vector(n + 1)) + apply_matrix(b1, fam.vector(n))
       + apply_matrix(c1, fam.vector(n - 1)))
print(f"\nrecurrence identity at degree {n} (x axis):", lhs == rhs)
print("recurrence B matches its entry table:",
      b1 == golden_matrix(params.alpha, params.beta, n, "B1"))
print("recurrence C matches its entry table:",
      c1 == golden_matrix(params.alpha, params.beta, n, "C1"))

_, (w2, s2, t2) = structure_matrices(fam, case.phi10, case.phi01, n)
lhs = fam.vector(n).diff(2).scale(case.phi01)
rhs = (apply_matrix(w2, fam.vector(n + 1)) + apply_matrix(s2, fam.vector(n))
       + apply_matrix(t2, fam.vector(n - 1)))
print(f"\nstructure identity at degree {n} (y axis):", lhs == rhs)
print("structure W matches its entry table:",
      w2 == golden_matrix(params.alpha, params.beta, n, "W2"))
print("structure T matches its entry table:",
      t2 == golden_matrix(params.alpha, params.beta, n, "T2"))

# the compact V, Y, Z act on the Q vectors; composed with the shift they
# act on the raw derivatives
v, y, z = derivative_representation(fam, n, 1)
rhs = (apply_matrix(times_shift(v, 1), fam.vector(n + 1).diff(1))
       + apply_matrix(times_shift(y, 1), fam.vector(n).diff(1))
       + apply_matrix(times_shift(z, 1), fam.vector(n - 1).diff(1)))
print(f"\nderivative representation at degree {n} (x axis):",
      rhs == fam.vector(n))
print("compact V is the diagonal of reciprocals:",
      v == golden_matrix(params.alpha, params.beta, n, "V1"))

# perturbing any single recurrence entry breaks the identity: uniqueness
bad = b1.tolist()
bad[0][0] += 1
from opde import RationalMatrix
rhs_bad = (apply_matrix(a1, fam.vector(n + 1))
           + apply_matrix(RationalMatrix(bad), fam.vector(n))
           + apply_matrix(c1, fam.vector(n - 1)))
print("\nperturbed recurrence fails, as it must:",
      fam.vector(n).scale(X) != rhs_bad)
