"""Symbolic workbench for path algebras of finite directed graphs: exact
construction, Lie/Jordan structure under the standard involution, series
computation, and the graph-pattern solvability classifier."""

import importlib.util
import sys

from .algebra import (
    AlgebraError,
    Element,
    LeavittAlgebra,
    forbidden_embedding_units,
    verify_matrix_units,
)
from .classify import CrossReport, Verdict, classify, cross_validate
from .exprs import ExprError, format_element, parse_element
from .graphs import (
    Card,
    ForbiddenWitness,
    Graph,
    GraphError,
    PatternClass,
    decompose_components,
    find_cycle_with_exit,
    find_forbidden_subgraph,
    graph_from_lists,
    is_acyclic,
    match_pattern,
    regular_vertices,
    sinks,
    validate_graph,
)
from .scalars import (
    LaurentRing,
    MatrixLabError,
    PrimeField,
    RationalField,
    ScalarError,
    field_from_spec,
    field_of_characteristic,
)
from .series import (
    ModeUnavailableError,
    SeriesError,
    SeriesReport,
    Subspace,
    product_span,
    solvability_probe,
)

__version__ = "0.1.0"

# The matrix module is registered in sys.modules from the start but compiled
# and run only on its first attribute access (importlib's LazyLoader), so the
# commands other than ``matrix`` compile no matrix code, while code that walks
# sys.modules still finds it.
_spec = importlib.util.find_spec(__name__ + ".matrices")
_spec.loader = importlib.util.LazyLoader(_spec.loader)
matrices = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrices)

# Re-exported from ``matrices`` on first access (PEP 562).
_MATRIX_NAMES = frozenset({
    "MatrixRingCtx",
    "MatrixReport",
    "char2_laurent_index3_check",
    "corollary_field_check",
    "corollary_laurent_check",
    "mat_involution",
    "skew_matrix_basis",
    "witness_laurent_nonsolvable",
    "witness_nge3",
    "witness_nilpotent_char2",
})


def __getattr__(name):
    if name in _MATRIX_NAMES:
        return getattr(matrices, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
