"""Exact toolkit for quadratic forms over Q(X,Y), central simple algebras
with involution, hermitian-square certificates, and positivity of
noncommutative polynomials on matrices."""

from .errors import (CertificateError, DivisionByZeroError, HermsqError,
                     NotMonomialError, ParseError, ResourceLimitError,
                     ShapeError, SingularMatrixError)
from .scalars import (MonomialOrdering, ORDERINGS, Polynomial,
                      RationalFunction, X, Y, as_scalar, format_scalar,
                      monomial_square_class, parse_scalar, sign_at,
                      squarefree_part)
from .qforms import (DiagonalForm, Diagonalization, GramForm, WeakRepresentation,
                     diagonalize, four_squares, hilbert_symbol, is_isotropic_Q,
                     is_weakly_isotropic_Q, springer_residues,
                     weak_isotropy_witness, weakly_represents_one)
from .involutions import (AlgebraWithInvolution, InvolutionSpec, QuatElem,
                          QuaternionAlgebra, apply_involution,
                          entry_33_constraint, hermitian_square, is_symmetric,
                          reduced_norm_quat, reduced_trace, sigma_orderings,
                          symbolic_elements, trace_form)
from .zpoly import ZPolynomial
from .fdalgebra import StructureAlgebra, structure_algebra
from .certificates import (CounterexampleReport, HermSqCertificate,
                           TotalPositivityWitness, WeightedCertificate,
                           counterexample_pipeline, prop41_certificates,
                           psd_symmetric_rational, rewrite_weighted_to_pure,
                           skew_congruence, symplectic_minus_one,
                           tensor_certificates, verify_hermsq, verify_weighted)
from .ncpoly import (GenericMatrixContext, NCPolynomial,
                     PositivstellensatzCertificate, commutator, format_nc,
                     generic_eval, is_central_nonvanishing, is_identity_mod_a,
                     nc_eval, nc_star, parse_nc, psd_falsify,
                     positivstellensatz_conditions, verify_positivstellensatz)
from .scenarios import SCENARIOS, run_scenario

__version__ = "0.1.0"
