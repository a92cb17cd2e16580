"""All-model enumeration, with projection.

Alternative worlds are the models of a theory projected onto its visible
ground atoms (Section 2: predicate constants are "invisible in alternative
worlds").  This module enumerates models of a clause set and — the important
variant — enumerates the *distinct projections* of models onto a chosen atom
set, which is exactly the alternative-world set.

The projected enumerator blocks each found projection with a clause over the
projection atoms only, so the number of SAT calls is proportional to the
number of distinct worlds, not the (potentially much larger) number of models
that differ only on predicate constants.

Both enumerators are **incremental**: they build one
:class:`~repro.logic.sat.Solver` and feed it blocking clauses via
:meth:`~repro.logic.sat.Solver.add_clause`, so atom interning and watch-list
construction happen once per enumeration instead of once per model (the old
per-model rebuild cost O(worlds × clauses) of pure setup).
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Iterator, Optional, Set

from repro.logic.cnf import Clause
from repro.logic.sat import Solver, SolverStats
from repro.logic.terms import AtomLike
from repro.logic.valuation import Valuation
from repro.obs.spans import span


def iter_models(
    clauses: Iterable[Clause],
    *,
    limit: Optional[int] = None,
    stats: Optional[SolverStats] = None,
) -> Iterator[Valuation]:
    """Enumerate total models of the clause set (over its own atoms).

    Each model is blocked by adding the clause negating it, so successive
    solves cannot repeat.  ``limit`` bounds the number of models returned
    (None = all).  Enumeration order is deterministic.  ``stats`` threads a
    shared :class:`SolverStats` into the underlying solver.
    """
    with span("allsat.setup", projected=False):
        solver = Solver(clauses, stats=stats)
    produced = 0
    while limit is None or produced < limit:
        # The span closes before the yield: a generator frame runs in its
        # consumer's context, so a span held open across a yield would
        # adopt the consumer's unrelated spans as children.
        with span("allsat.model", index=produced):
            model = solver.solve()
        if model is None:
            return
        yield model
        produced += 1
        blocking: Clause = frozenset(
            (atom_, not value) for atom_, value in model.items()
        )
        if not blocking:
            return  # zero-atom instance: the single empty model
        solver.add_clause(blocking)


def iter_projected_models(
    clauses: Iterable[Clause],
    onto: Iterable[AtomLike],
    *,
    limit: Optional[int] = None,
    stats: Optional[SolverStats] = None,
) -> Iterator[Valuation]:
    """Enumerate distinct projections of models onto the *onto* atoms.

    Atoms in *onto* that never occur in the clauses are unconstrained; they
    are reported as False in every projection (closed-world default), which
    matches the completion-axiom treatment of never-mentioned atoms.
    """
    onto_set = frozenset(onto)
    with span("allsat.setup", projected=True):
        solver = Solver(clauses, stats=stats)
    produced = 0
    while limit is None or produced < limit:
        with span("allsat.model", index=produced):
            model = solver.solve()
        if model is None:
            return
        projection_items = {
            atom_: model.get(atom_, False) for atom_ in onto_set
        }
        projection = Valuation(projection_items)
        yield projection
        produced += 1
        blocking: Clause = frozenset(
            (atom_, not value)
            for atom_, value in projection_items.items()
            if atom_ in model  # only block on atoms the solver knows
        )
        if not blocking:
            return  # projection is vacuous; only one possible
        solver.add_clause(blocking)


def count_models(clauses: Iterable[Clause], *, cap: Optional[int] = None) -> int:
    """Number of total models (up to *cap* if given)."""
    count = 0
    for _ in iter_models(clauses, limit=cap):
        count += 1
    return count


def projected_model_set(
    clauses: Iterable[Clause], onto: Iterable[AtomLike]
) -> Set[FrozenSet[AtomLike]]:
    """All distinct projections, each as its set of true atoms."""
    return {
        frozenset(model.true_atoms())
        for model in iter_projected_models(clauses, onto)
    }
