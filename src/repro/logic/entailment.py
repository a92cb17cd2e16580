"""Satisfiability, validity, entailment, and logical equivalence.

These are the reasoning services the rest of the library calls:

* the equivalence deciders of Section 3.4 need validity of formulas such as
  ``(w1 -> g) & (phi -> g)`` (Theorem 3, conditions 2-3);
* GUA Step 5 needs the entailment tests ``w |= A_i(c_i)`` and
  ``w |= not A_i(c_i)`` (with the paper's suggested cheap conjunct
  approximation available separately in :mod:`repro.core.gua`);
* theory-consistency checks reduce to satisfiability.

All procedures work on ground formulas.  Small formulas go through the
truth-table path automatically; larger ones through the SAT solver on a
direct CNF.
"""

from __future__ import annotations

from typing import Iterable

from repro.logic.cnf import to_cnf
from repro.logic.sat import is_satisfiable as _cnf_satisfiable
from repro.logic.semantics import evaluate
from repro.logic.syntax import And, Formula, Not, conjoin
from repro.logic.valuation import Valuation

#: Below this many atoms, a truth table beats building CNF + a SAT solver.
_TRUTH_TABLE_LIMIT = 12


def is_satisfiable(formula: Formula) -> bool:
    """True iff some valuation over the formula's atoms satisfies it."""
    atoms = formula.atoms()
    if len(atoms) <= _TRUTH_TABLE_LIMIT:
        return any(
            evaluate(formula, valuation, closed_world=False)
            for valuation in Valuation.all_over(atoms)
        )
    return _cnf_satisfiable(to_cnf(formula))


def is_valid(formula: Formula) -> bool:
    """True iff *formula* holds under every valuation (a tautology)."""
    return not is_satisfiable(Not(formula))


def entails(premise: Formula, conclusion: Formula) -> bool:
    """``premise |= conclusion``: no valuation satisfies premise & ~conclusion."""
    return not is_satisfiable(And((premise, Not(conclusion))))


def entails_all(premises: Iterable[Formula], conclusion: Formula) -> bool:
    """Conjunction of *premises* entails *conclusion*."""
    return entails(conjoin(list(premises)), conclusion)


def equivalent(left: Formula, right: Formula) -> bool:
    """Logical equivalence — *not* the update equivalence of Section 3.4.

    Two logically equivalent update bodies can still induce different
    updates (the paper's ``p`` vs ``p | T`` example); use
    :mod:`repro.ldml.equivalence` for update equivalence.
    """
    return entails(left, right) and entails(right, left)
