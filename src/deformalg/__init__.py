"""deformalg: numeric and symbolic toolkit for deformed oscillator algebras.

Five deformation families (plus user spectra) are described by a spectral
function K with a'a = K(N).  The package builds truncated Fock-space
representations as banded operators, verifies the operator identities of the algebra
both numerically and by symbolic normal ordering, and evaluates
generalized uncertainty bounds and the Hamiltonian-to-level inversion.

The names below are exported lazily (PEP 562): each is imported from its
module on first access, so `import deformalg` loads neither numpy nor any
submodule, and `from deformalg import *` binds every name of __all__.
"""

import importlib

# the exported names of each module, in the order of __all__
_EXPORTS = {
    "fockrep": """Band FockRep IdentityReport QuadratureMoments QuadratureSet StateVector build_rep
        commutator expectation kempf_rescale lie_hamilton_rhs number_state quadratures random_state
        run_verify_checks truncation_safe uncertainty_product verify_window""",
    "gup": "UncertaintyReport case_bound invert_number number_state_reports square_sum_bound uncertainty_report",
    "spectral": """CaseId DefiningRelation SpectralFunction defining_relation eval_K forward_delta
        hamiltonian_eigenvalue level_table make_case relation_residual""",
    "symorder": """BUILTIN_IDENTITIES CoefficientFunction Expr ExprSyntaxError NormalForm check_identity
        expr_to_matrix nf_equal nf_to_matrix normal_order parse_expr parse_identity""",
}
_HOMES = {name: home for home, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOMES)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value
