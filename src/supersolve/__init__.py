"""Equation solving over finite supernilpotent algebras by bounded-weight search."""

from .algebra import (
    AlgebraError,
    FiniteAlgebra,
    OperationTable,
    apply_op,
    direct_product,
    load_algebra,
    max_arity,
    render_algebra,
)
from .absorbing import (
    AbsorbingDecomposition,
    TableBudgetError,
    TabulatedFunction,
    absorbing_degree,
    component_moebius,
    decompose,
    is_absorbing_in,
    mask_indices,
    restrict_vector,
)
from .bounds import (
    BoundReport,
    factorize,
    k_factor,
    loose_weight_bound,
    make_bound_report,
)
from .malcev import (
    MalcevNotFound,
    TernaryFunctionTable,
    find_malcev,
    is_malcev,
    ternary_term_clone,
)
from .solver import (
    BenchResult,
    NoSolutionExhaustive,
    NoSolutionInBoundedSet,
    SolutionFound,
    SolveOutcome,
    SolveStats,
    bench,
    bounded_weight_count,
    enumerate_bounded_weight,
    normalize_system,
    solve_bounded,
    solve_brute,
)
from .terms import (
    App,
    Const,
    EquationSystem,
    EvalError,
    ParseError,
    Term,
    Var,
    check_system,
    eval_term,
    format_system,
    format_term,
    max_variable,
    parse_system,
    parse_term,
    substitute,
    term_length,
)
from .witness import (
    HypothesisViolation,
    SubsetFunction,
    TheoremViolation,
    ks_find_u,
    redweight_find_u,
)

__version__ = "0.1.0"
