"""Exact engine for discriminant strata of crystallographic Coxeter groups
and the determinant of the restricted Saito metric, computed by three
independent routes: combinatorial prediction, classical closed forms, and
direct symbolic restriction."""

from .algebra import (MultiPoly, LinearForm, FactoredDeterminant, UNKNOWN,
                      poly_det, divide_exact, factor_linear,
                      NotDivisible, IncompleteFactorization)
from .roots import (RootSystem, build_root_system, parse_group,
                    span_subsystem, reduce_to_fundamental)
from .strata import (Stratum, make_stratum, restricted_arrangement,
                     predict_determinant, q_polynomial, stratum_json_dict,
                     NegativeFinalExponent, InvariantViolation)
from .lgclassical import (StratumConfigA, StratumConfigBD, kappa_A, kappa_BD,
                          closed_form_det_A, closed_form_det_BD,
                          residue_metric_at, frobenius_check_at,
                          random_generic_point)
from .saitosym import (InvariantBasis, basic_invariants, flat_coordinates,
                       quartic_family_d3, convolution_matrix, covariant_metric,
                       restricted_saito_det, general_formula_det,
                       frame_constant, identity_field_checks,
                       express_in_invariants, DegenerateBasis, SolverFailure)

__version__ = "0.1.0"
