"""deformalg: numeric and symbolic toolkit for deformed oscillator algebras.

Five deformation families (plus user spectra) are described by a spectral
function K with a'a = K(N).  The package builds truncated Fock-space
representations as banded operators, verifies the operator identities of the algebra
both numerically and by symbolic normal ordering, and evaluates
generalized uncertainty bounds and Hamiltonian-to-level inversions.
"""

from .fockrep import (
    Band,
    FockRep,
    IdentityReport,
    QuadratureMoments,
    QuadratureSet,
    StateVector,
    build_rep,
    commutator,
    expectation,
    lie_hamilton_rhs,
    number_state,
    quadratures,
    random_state,
    run_verify_checks,
    truncation_safe,
    uncertainty_product,
    verify_window,
)
from .gup import (
    UncertaintyReport,
    case_bound,
    invert_number_geometric,
    invert_number_quadratic,
    invert_number_symmetric,
    kempf_rescale,
    square_sum_bound,
    uncertainty_report,
)
from .spectral import (
    CaseId,
    DefiningRelation,
    SpectralFunction,
    defining_relation,
    eval_K,
    forward_delta,
    hamiltonian_eigenvalue,
    level_table,
    make_case,
    relation_residual,
)
from .symorder import (
    BUILTIN_IDENTITIES,
    CoefficientFunction,
    ExprSyntaxError,
    NormalForm,
    expr_to_matrix,
    nf_equal,
    nf_to_matrix,
    normal_order,
    parse_expr,
    parse_identity,
)

__version__ = "0.1.0"
