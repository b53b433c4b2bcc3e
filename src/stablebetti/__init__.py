"""Betti tables of strongly stable monomial ideals and their corners.

The package computes graded Betti numbers of stable monomial ideals and
finite direct sums of them, locates the extremal (corner) entries, and
solves the inverse problem: given corner positions and values, decide
feasibility and construct a witness ideal or module. An independent
Koszul-homology computation with exact integer arithmetic serves as an
oracle for everything the generator-based formula produces.
"""

from .betti import (
    BettiTable,
    Corner,
    CornerMatrixView,
    corner_matrix,
    corner_sequence,
    ek_betti,
    extremal_from_table,
    module_corner_report,
    render_diagram,
)
from .errors import (
    BadRange,
    BudgetExceeded,
    InfeasibleSpec,
    MonomialSyntaxError,
    NotStable,
    SpecError,
    StableBettiError,
    UncoveredByCharacterization,
    VerificationFailed,
)
from .ideals import (
    MonomialIdeal,
    MonomialSubmodule,
    minimalize,
    parse_module_or_ideal,
)
from .monomials import (
    borel_moves,
    degree,
    format_monomial,
    parse_monomial,
)
from .oracle import enumerate_strongly_stable, koszul_betti
from .realize_ideal import (
    MODE_COUPLED,
    MODE_STRICT,
    MODES,
    BoundReport,
    CornerSpec,
    IdealRealization,
    ValueVerdict,
    check_values,
    compute_bounds,
    construct_ideal,
    coupled_chain,
    validate_positions,
)
from .realize_module import (
    CornerMatrix,
    ModuleRealization,
    construct_module,
    filler_ideal,
    find_corner_matrix,
    realize_module,
    validate_corner_matrix,
    validate_module_spec,
)
from .segments import lex_count, lex_unrank, stratum_size

__version__ = "0.1.0"

__all__ = [
    "BadRange",
    "BettiTable",
    "BoundReport",
    "BudgetExceeded",
    "Corner",
    "CornerMatrix",
    "CornerMatrixView",
    "CornerSpec",
    "IdealRealization",
    "InfeasibleSpec",
    "MODE_COUPLED",
    "MODE_STRICT",
    "MODES",
    "MonomialIdeal",
    "MonomialSubmodule",
    "MonomialSyntaxError",
    "ModuleRealization",
    "NotStable",
    "SpecError",
    "StableBettiError",
    "UncoveredByCharacterization",
    "ValueVerdict",
    "VerificationFailed",
    "borel_moves",
    "check_values",
    "compute_bounds",
    "construct_ideal",
    "construct_module",
    "corner_matrix",
    "corner_sequence",
    "coupled_chain",
    "degree",
    "ek_betti",
    "enumerate_strongly_stable",
    "extremal_from_table",
    "filler_ideal",
    "find_corner_matrix",
    "format_monomial",
    "koszul_betti",
    "lex_count",
    "lex_unrank",
    "minimalize",
    "module_corner_report",
    "parse_module_or_ideal",
    "parse_monomial",
    "realize_module",
    "render_diagram",
    "stratum_size",
    "validate_corner_matrix",
    "validate_module_spec",
    "validate_positions",
]
