"""structura: exact structural data of polynomial and rational matrices.

Extraction of invariant factors, infinite structure, and the minimal indices
of all four fundamental subspaces; feasibility checking of prescribed
structural data through majorization conditions; and constructive synthesis
of realizing matrices, verified by independent re-extraction. All arithmetic
is exact over Q.
"""

__version__ = "0.1.0"

from .errors import StructuraError
from .qpoly import (
    NEG_INF,
    FactoredPoly,
    Poly,
    RatFn,
    coprime_basis,
    mobius_tilde,
    poly_gcd,
    split_over_rationals,
)
from .polymat import (
    ColumnReduction,
    PolyMatrix,
    RationalMatrix,
    SmithDecomposition,
    column_reduce,
    det,
    invariant_factors,
    is_minimal_basis,
    mobius_frame,
    rank,
    reversal,
    scale_basis_mobius,
    smith_form,
)
from .extract import (
    PolyStructuralData,
    RatStructuralData,
    VerificationReport,
    clear_denominators,
    extract_poly_structure,
    extract_rational_structure,
    inf_structure,
    partial_multiplicities,
    verify,
)
from .feasibility import (
    FeasibilityReport,
    Prescription,
    check_feasibility,
    g_sequence,
    majorizes,
)
from .synthesis import (
    build_dual_minimal_bases,
    build_minimal_basis,
    distribute_invariant_factors,
    realize_full,
    realize_rational,
    realize_span,
    shape_degrees,
    triangular_realization,
)
from .minors import admissible_pairs, select_nonzero_minor, star_dual

__all__ = [
    "__version__",
    "StructuraError",
    "NEG_INF",
    "Poly",
    "FactoredPoly",
    "RatFn",
    "poly_gcd",
    "split_over_rationals",
    "mobius_tilde",
    "coprime_basis",
    "PolyMatrix",
    "SmithDecomposition",
    "ColumnReduction",
    "smith_form",
    "invariant_factors",
    "column_reduce",
    "reversal",
    "is_minimal_basis",
    "mobius_frame",
    "scale_basis_mobius",
    "det",
    "rank",
    "PolyStructuralData",
    "RationalMatrix",
    "RatStructuralData",
    "VerificationReport",
    "partial_multiplicities",
    "inf_structure",
    "extract_poly_structure",
    "clear_denominators",
    "extract_rational_structure",
    "verify",
    "Prescription",
    "FeasibilityReport",
    "g_sequence",
    "majorizes",
    "check_feasibility",
    "build_minimal_basis",
    "build_dual_minimal_bases",
    "distribute_invariant_factors",
    "triangular_realization",
    "shape_degrees",
    "realize_span",
    "realize_full",
    "realize_rational",
    "select_nonzero_minor",
    "admissible_pairs",
    "star_dual",
]
