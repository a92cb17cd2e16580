"""repro — a reproduction of Winslett, "A Model-Theoretic Approach to
Updating Logical Databases" (PODS 1986).

The library implements the paper's full stack from scratch:

* **extended relational theories** (:mod:`repro.theory`) — logical databases
  with incomplete information, derived unique-name/completion/type axioms,
  dependency axioms, and the Section 3.6 indexed storage layer;
* **LDML** (:mod:`repro.ldml`) — the logical DML (INSERT / DELETE / MODIFY /
  ASSERT) with its model-theoretic semantics and the Theorem 2-4 update
  equivalence deciders;
* **algorithm GUA** (:mod:`repro.core`) — the ground update algorithm,
  Steps 1-7, wrapped in a staged update pipeline with pluggable backends
  (live GUA theory / log-structured strawman / naive materialized worlds),
  the Section 4 simplifier, transactions, and the
  :class:`~repro.core.engine.Database` façade;
* **query answering** (:mod:`repro.query`) — certain/possible answers;
* a dependency-free ground-logic substrate (:mod:`repro.logic`): formulas,
  parser, CDCL SAT, model enumeration with projection, normal forms.

Quickstart::

    from repro import Database, schema_from_dict

    db = Database(schema=schema_from_dict({"Orders": ["OrderNo", "PartNo", "Quan"]}))
    db.update("INSERT Orders(700,32,9) | Orders(700,33,9) WHERE T")
    db.ask("Orders(700,32,9)").status      # 'possible'
    db.update("ASSERT Orders(700,32,9)")
    db.ask("Orders(700,32,9)").status      # 'certain'
"""

from repro.errors import (
    DependencyViolationError,
    InconsistentTheoryError,
    LanguageError,
    NotGroundError,
    ParseError,
    QueryError,
    ReproError,
    SchemaError,
    TheoryError,
    UpdateError,
)
from repro.logic import (
    Constant,
    Formula,
    GroundAtom,
    Predicate,
    PredicateConstant,
    Valuation,
    parse,
    parse_atom,
)
from repro.theory import (
    AlternativeWorld,
    Attribute,
    DatabaseSchema,
    ExtendedRelationalTheory,
    FunctionalDependency,
    InclusionDependency,
    Language,
    MultivaluedDependency,
    RelationSchema,
    SkolemConstant,
    SkolemTheory,
    TemplateAtom,
    TemplateDependency,
    TheoryBuilder,
    Var,
    schema_from_dict,
    theory_from_worlds,
)
from repro.ldml import (
    Assert_,
    Delete,
    GroundUpdate,
    Insert,
    Modify,
    are_equivalent,
    equivalent_by_enumeration,
    parse_script,
    parse_update,
    theorem2_sufficient,
    theorem3_equivalent,
    theorem4_equivalent,
    translate_sql,
)
from repro.core import (
    Database,
    GuaExecutor,
    GuaResult,
    LogStructuredStore,
    NaiveWorldStore,
    PipelineTracer,
    UpdateBackend,
    UpdatePipeline,
    commutes,
    gua_run_script,
    gua_update,
    simplify_theory,
)
from repro.query import Answer, ask, certain_tuples, possible_tuples, select

__version__ = "1.0.0"

__all__ = [
    # errors
    "DependencyViolationError",
    "InconsistentTheoryError",
    "LanguageError",
    "NotGroundError",
    "ParseError",
    "QueryError",
    "ReproError",
    "SchemaError",
    "TheoryError",
    "UpdateError",
    # logic
    "Constant",
    "Formula",
    "GroundAtom",
    "Predicate",
    "PredicateConstant",
    "Valuation",
    "parse",
    "parse_atom",
    # theory
    "AlternativeWorld",
    "Attribute",
    "DatabaseSchema",
    "ExtendedRelationalTheory",
    "FunctionalDependency",
    "InclusionDependency",
    "Language",
    "MultivaluedDependency",
    "RelationSchema",
    "SkolemConstant",
    "SkolemTheory",
    "TemplateAtom",
    "TemplateDependency",
    "TheoryBuilder",
    "Var",
    "schema_from_dict",
    "theory_from_worlds",
    # ldml
    "Assert_",
    "Delete",
    "GroundUpdate",
    "Insert",
    "Modify",
    "are_equivalent",
    "equivalent_by_enumeration",
    "parse_script",
    "parse_update",
    "theorem2_sufficient",
    "theorem3_equivalent",
    "theorem4_equivalent",
    "translate_sql",
    # core
    "Database",
    "GuaExecutor",
    "GuaResult",
    "LogStructuredStore",
    "NaiveWorldStore",
    "PipelineTracer",
    "UpdateBackend",
    "UpdatePipeline",
    "commutes",
    "gua_run_script",
    "gua_update",
    "simplify_theory",
    # query
    "Answer",
    "ask",
    "certain_tuples",
    "possible_tuples",
    "select",
    "__version__",
]
