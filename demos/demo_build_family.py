"""Build the monic family of an equation and inspect its exact coefficients.

Everything below is exact rational arithmetic; nothing is ever rounded.
Run:  python demos/demo_build_family.py
"""

from fractions import Fraction

from opde import (AppellParams, appell_pde, build_monic, check_admissible,
                  discriminant, is_potentially_self_adjoint, monic_ttrr,
                  pde_residual, solve_monic, subleading_matrices)
from opde.serialize import pde_to_json

# The triangle family with weight x^(alpha-1) y^(beta-1) on x, y > 0, x + y < 1.
params = AppellParams(Fraction(2), Fraction(3))
pde = appell_pde(params)

print("equation coefficients:", pde_to_json(pde))
print("discriminant:", discriminant(pde))
check_admissible(pde)  # raises NotAdmissible if some gap a*k + e vanishes
print("eigenvalue gaps a*k + e, k = 0..8:", [str(pde.varpi(k)) for k in range(9)])
print("potentially self-adjoint:", is_potentially_self_adjoint(pde))

# The family comes out of a closed-form-driven recursion ...
fam = build_monic(pde, 4)
for n in range(3):
    print(f"\nmonic vector of degree {n}:")
    for poly in fam.vector(n):
        print("   ", poly)

# ... and independently out of a linear solve against the operator itself.
oracle = solve_monic(pde, 4)
print("\nrecursion and operator-solve routes agree:",
      all(fam.vector(n) == oracle.vector(n) for n in range(5)))

# Both routes produce exact eigensolutions: the residual is the zero vector.
print("residual of degree-4 vector is zero:",
      all(p.is_zero() for p in pde_residual(fam, 4)))

# Closed-form subleading coefficients, straight from the equation coefficients:
from opde.serialize import matrix_to_json

g1, g2 = subleading_matrices(pde, 3)
print("\nfirst subleading matrix at degree 3:")
print(matrix_to_json(g1))
print("second subleading matrix at degree 3:")
print(matrix_to_json(g2))

# Recurrence matrices in closed form; x * P_2 = A P_3 + B P_2 + C P_1 exactly.
(_, b1, c1), _ = monic_ttrr(pde, 2)
print("\ndegree-2 recurrence matrix B (x axis):")
print(matrix_to_json(b1))
print("degree-2 recurrence matrix C (x axis):")
print(matrix_to_json(c1))
