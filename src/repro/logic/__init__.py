"""Ground first-order / propositional logic substrate.

Everything the paper's theories and algorithms need from logic: terms and
atoms, a formula AST with parser and printer, valuations, the sigma
substitution of Step 2, normal forms, an incremental CDCL SAT solver with
(projected) model enumeration, entailment services, and the heuristic simplifier that
Section 4 calls vital.
"""

from repro.logic.terms import (
    AtomLike,
    Constant,
    GroundAtom,
    Predicate,
    PredicateConstant,
    as_constant,
    is_atom,
    sort_atoms,
)
from repro.logic.syntax import (
    FALSE,
    TRUE,
    And,
    Atom,
    Bottom,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    atom,
    conjoin,
    disjoin,
    literal,
)
from repro.logic.parser import parse, parse_atom
from repro.logic.printer import to_text, to_unicode
from repro.logic.valuation import EMPTY_VALUATION, Valuation
from repro.logic.semantics import evaluate, satisfies
from repro.logic.substitution import GroundSubstitution, rename_atoms
from repro.logic.transform import (
    condition,
    eliminate_conditionals,
    fold_constants,
    is_literal,
    literal_of,
    polarities,
    to_nnf,
)
from repro.logic.cnf import to_cnf, tseitin, cnf_to_formula
from repro.logic.dnf import count_satisfying, satisfying_valuations, to_dnf, valuation_set
from repro.logic.sat import (
    Solver,
    SolverStats,
    is_satisfiable as cnf_satisfiable,
    solve,
)
from repro.logic.allsat import (
    count_models,
    iter_models,
    iter_projected_models,
    projected_model_set,
)
from repro.logic.entailment import (
    entails,
    entails_all,
    equivalent,
    is_satisfiable,
    is_valid,
)
from repro.logic.simplify import simplify, total_size

__all__ = [
    "AtomLike",
    "Constant",
    "GroundAtom",
    "Predicate",
    "PredicateConstant",
    "as_constant",
    "is_atom",
    "sort_atoms",
    "FALSE",
    "TRUE",
    "And",
    "Atom",
    "Bottom",
    "Formula",
    "Iff",
    "Implies",
    "Not",
    "Or",
    "Top",
    "atom",
    "conjoin",
    "disjoin",
    "literal",
    "parse",
    "parse_atom",
    "to_text",
    "to_unicode",
    "EMPTY_VALUATION",
    "Valuation",
    "evaluate",
    "satisfies",
    "GroundSubstitution",
    "rename_atoms",
    "condition",
    "eliminate_conditionals",
    "fold_constants",
    "is_literal",
    "literal_of",
    "polarities",
    "to_nnf",
    "to_cnf",
    "tseitin",
    "cnf_to_formula",
    "count_satisfying",
    "satisfying_valuations",
    "to_dnf",
    "valuation_set",
    "Solver",
    "SolverStats",
    "cnf_satisfiable",
    "solve",
    "count_models",
    "iter_models",
    "iter_projected_models",
    "projected_model_set",
    "entails",
    "entails_all",
    "equivalent",
    "is_satisfiable",
    "is_valid",
    "simplify",
    "total_size",
]
