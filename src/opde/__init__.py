"""opde: exact construction of bivariate orthogonal polynomial solutions of
admissible potentially self-adjoint second-order equations of hypergeometric
type, together with their recurrence, structure, derivative and Rodrigues
representations.  All arithmetic is exact rational."""

from .errors import (DegenerateDiscriminant, DegreeMismatch, DegreeOverflow,
                     DivisionByZeroPoly, InconsistentRecursion,
                     IndexOutOfPrintedRange, NoCaseMatches, NonPolynomialPhi,
                     NotAdmissible, NotDivisible, NotReducible, NotSelfAdjoint,
                     OpdeError, PhiDegreeTooHigh, SingularLeading,
                     SingularMatrix)
from .matrix import RationalMatrix
from .pde import (HypergeometricPDE, apply_operator, check_admissible,
                  discriminant, is_potentially_self_adjoint, pearson_numerators)
from .poly import ONE, X, Y, ZERO, BivariatePoly, pochhammer, rat
from .vectors import (PolyVector, PolyVectorFamily, apply_matrix, combine,
                      derivative_matrix, expansion_matrices,
                      joint_left_inverse, monomial_vector, shift_matrix)
from .monic import (MonicFamily, build_monic, monic_ttrr, pde_residual,
                    solve_monic, subleading_matrices)
from .relations import (DerivativeFamily, Relations, derivative_representation,
                        derivative_ttrr, general_ttrr,
                        monic_derivative_representation,
                        monic_structure_matrices, structure_matrices)
from .weights import (PhiCase, WeightSpec, classify_phi, log_derivative,
                      phi_pair_consistent, shifted_weight, verify_pearson)
from .rodrigues import (WeightedExpr, rodrigues_eval, rodrigues_table,
                        weighted_diff)
from .families import (AppellParams, appell_pde, appell_phi_case,
                       appell_weight, connection_F, connection_K, functional,
                       koornwinder, koornwinder_vector, make_family,
                       moment, moment_table, monic_appell_series, monic_appell_vector,
                       nonmonic_F, nonmonic_F_vector, orthogonality_blocks,
                       pairing, triangle_params)
from .verify import SuiteResult, run_verification

__version__ = "0.1.0"
