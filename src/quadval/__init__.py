"""2-adic valuations of integer quadratics.

The sequence nu2(f(n)) for f(n) = a*n**2 + b*n + c is either eventually
about as tame as possible (constant, or periodic with a power-of-two
period and a closed form per residue class) or unbounded along one or
two 2-adically convergent families of inputs.  This package classifies
a given f, evaluates the closed forms, builds the valuation tree, and
checks everything against plain brute force.
"""

from .arith import (
    INFINITE,
    DiscFactorization,
    Valuation,
    factor_discriminant,
    inverse_mod_pow2,
    nu2,
)
from .classify import Case, Classification, classify, constant_valuation, reduce_even
from .closed_form import (
    PeriodTable,
    closed_form_valuation,
    max_valuation,
    period_table,
)
from .operators import (
    OperatorDescriptor,
    OperatorKind,
    apply_operators,
    canonical_residue_map,
    canonicalize_to_type_ell_1,
    dilate,
    s_backward,
    s_forward,
    table_s_law,
    table_translate_law,
    translate,
)
from .oracle import ValuationSequence, empirical_period, valuation_sequence
from .poly import DomainError, QuadraticPoly
from .tree import (
    NodeStatus,
    TreeNode,
    ValuationTree,
    build_tree,
    flatten_tree,
    infinite_branch_residues,
    is_type_ell_1,
    live_branch_count,
    node_status,
    nodes_by_level,
)

__version__ = "0.1.0"

__all__ = [
    "INFINITE",
    "Valuation",
    "DiscFactorization",
    "nu2",
    "factor_discriminant",
    "inverse_mod_pow2",
    "DomainError",
    "QuadraticPoly",
    "Case",
    "Classification",
    "classify",
    "reduce_even",
    "constant_valuation",
    "PeriodTable",
    "closed_form_valuation",
    "period_table",
    "max_valuation",
    "NodeStatus",
    "TreeNode",
    "ValuationTree",
    "node_status",
    "build_tree",
    "nodes_by_level",
    "infinite_branch_residues",
    "is_type_ell_1",
    "live_branch_count",
    "flatten_tree",
    "OperatorKind",
    "OperatorDescriptor",
    "translate",
    "dilate",
    "s_forward",
    "s_backward",
    "apply_operators",
    "table_translate_law",
    "table_s_law",
    "canonicalize_to_type_ell_1",
    "canonical_residue_map",
    "ValuationSequence",
    "valuation_sequence",
    "empirical_period",
    "__version__",
]
