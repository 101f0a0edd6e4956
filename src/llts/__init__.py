"""Workbench for process terms over logic labelled transition systems."""

from .refinement import (
    Counterexample,
    RefinementVerdict,
    SimRelation,
    alt_refines,
    check_verdict,
    equivalent,
    largest_stable_sim,
    refines,
    stable_refines,
    verdict_to_json,
)
from .semantics import (
    BuildLimits,
    Lts,
    StateBoundExceeded,
    ValidationReport,
    build_combined,
    build_lts,
    compute_inconsistent,
    lts_to_dot,
    lts_to_json,
    lts_to_text,
    step,
    validate_llts,
    weak_visible_step,
)
from .syntax import ParseError, SourceSpan, parse, print_term
from .terms import (
    TAU,
    Bottom,
    Conj,
    Disj,
    ExtChoice,
    GuardednessError,
    Nil,
    Parallel,
    Prefix,
    Rec,
    RecSpec,
    StratRank,
    Term,
    UnboundRecVar,
    Var,
    VarStatus,
    degree,
    folding_number,
    free_vars,
    is_visible,
    normalize,
    plug,
    rank_inconsistent,
    rank_transition,
    substitute,
    unfold_one,
    unguarded_rec_count,
    variable_status,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
