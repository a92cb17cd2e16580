"""An incremental CDCL SAT solver over the library's clause form.

Extended relational theories can have exponentially many alternative worlds,
and consistency / entailment questions about them reduce to SAT over the
ground atoms.  This solver is a dependency-free conflict-driven clause
learning (CDCL) core in the MiniSat design (Eén & Sörensson, *An Extensible
SAT-solver*, SAT 2003):

* unit propagation via **two-watched-literal** lists — assigning a variable
  touches only the clauses currently watching its falsified literal, and
  backtracking needs no watch restoration;
* **first-UIP conflict analysis**: every conflict learns a clause (locally
  minimised) and backjumps non-chronologically to the level where that
  clause becomes unit; each variable records its decision level and the
  reason clause that implied it;
* **VSIDS** branching: an activity per variable, bumped for every variable
  met in conflict analysis and decayed by 0.95 per conflict, kept in a
  binary heap; decisions take the saved phase of the variable (phase
  saving), False at first;
* **Luby restarts** with a unit of 100 conflicts, and a learned-clause
  database halved by literal block distance (LBD) whenever it reaches a
  limit (1000 clauses, growing 10% per reduction);
* **assumptions** placed as the first decision levels, so clauses learned
  under one assumption set stay valid for every other;
* **incremental clause addition** via :meth:`Solver.add_clause`.  Learned
  clauses are implied by the clause set, so they stay on the solver across
  ``solve()`` calls, assumption sets and the model enumerators' blocking
  clauses.

Two rules fix what the solver decides.  A tautological clause (such as the
theory's universe-registration clauses ``A | !A``) interns its atoms but
adds no clause.  A variable that occurs in no clause is never decided, and
reads False in the model.

Atoms are interned to dense integer variables internally, in order of
first appearance, with the new atoms of one clause ordered by their arena
id; the public API speaks atoms and
:class:`~repro.logic.valuation.Valuation`.  Work counters (decisions,
propagations, conflicts, learned clauses, restarts) accumulate in a
:class:`SolverStats` that callers may share across solvers — the theory
layer threads one through every reasoning service so
``Database.metrics_snapshot()`` can report them.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.logic.cnf import Clause, Literal
from repro.logic.terms import AtomLike
from repro.logic.valuation import Valuation
from repro.obs.spans import span

# Literal values, indexed by literal (``var << 1 | polarity``).
_FALSE = 0
_TRUE = 1
_UNASSIGNED = 2
_UNASSIGNED_PAIR = (_UNASSIGNED, _UNASSIGNED)  # a new variable's two literals

_VAR_DECAY = 0.95  # VSIDS: activities decay by this factor per conflict
_RESTART_UNIT = 100  # conflicts in one unit of the Luby restart sequence
_RESCALE_LIMIT = 1e100  # activities are rescaled once the increment passes this
_MIN_LEARNTS = 1000  # learned clauses kept before the first reduction
_LEARNTS_GROWTH = 1.1  # the learned-clause limit grows by this per reduction


class SolverStats:
    """Shared work counters for one or more :class:`Solver` instances.

    The counters are cumulative; :meth:`reset` zeroes them.  One stats
    object may be handed to many solvers (the theory layer does exactly
    that), so the totals describe a whole reasoning session.
    """

    __slots__ = (
        "decisions",
        "propagations",
        "conflicts",
        "learned",
        "restarts",
        "solve_calls",
        "clauses_added",
    )

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.decisions = 0
        self.propagations = 0
        self.conflicts = 0
        self.learned = 0
        self.restarts = 0
        self.solve_calls = 0
        self.clauses_added = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "sat_decisions": self.decisions,
            "sat_propagations": self.propagations,
            "sat_conflicts": self.conflicts,
            "sat_learned": self.learned,
            "sat_restarts": self.restarts,
            "sat_solve_calls": self.solve_calls,
            "sat_clauses_added": self.clauses_added,
        }

    def __repr__(self) -> str:
        return (
            f"SolverStats(decisions={self.decisions}, "
            f"propagations={self.propagations}, conflicts={self.conflicts}, "
            f"learned={self.learned}, restarts={self.restarts}, "
            f"solve_calls={self.solve_calls}, clauses_added={self.clauses_added})"
        )


def _luby(index: int) -> int:
    """Element *index* (from 0) of the Luby sequence 1 1 2 1 1 2 4 1 ..."""
    size, exponent = 1, 0
    while size < index + 1:
        exponent += 1
        size = 2 * size + 1
    while size - 1 != index:
        size = (size - 1) >> 1
        exponent -= 1
        index %= size
    return 1 << exponent


class Solver:
    """Incremental CDCL solver; reusable across solve() and add_clause() calls.

    Literal encoding: ``var << 1 | polarity`` with polarity 1 = positive.
    Clauses of length >= 2 are literal lists that keep their two watched
    literals in positions 0 and 1; ``self._watches[lit]`` holds the clauses
    currently watching ``lit``.  A clause that implied a literal holds that
    literal in position 0 while it stays assigned.  Between calls the
    solver sits at decision level 0, whose assignments are implied by the
    clause set and therefore permanent.
    """

    def __init__(
        self,
        clauses: Iterable[Clause] = (),
        *,
        stats: Optional[SolverStats] = None,
    ):
        self.stats = stats if stats is not None else SolverStats()
        self._atom_of: List[AtomLike] = []
        # Keyed by arena id: an int hashes faster than an atom.
        self._var_of: Dict[int, int] = {}
        self._num_clauses = 0  # non-tautological clauses added
        self._learnts: List[List[int]] = []
        self._learnt_lbd: List[int] = []  # LBD of each learned clause
        self._max_learnts = float(_MIN_LEARNTS)
        self._unsat = False  # the clause set itself is unsatisfiable
        # Per literal.
        self._value: List[int] = []
        self._watches: List[List[List[int]]] = []
        # Per variable.
        self._level: List[int] = []
        self._reason: List[Optional[List[int]]] = []
        self._phase: List[int] = []
        self._activity: List[float] = []
        # The activity of a variable's live heap entry, None when it has
        # none.  A variable that occurs in no clause has no entry, but reads
        # as queued (0.0 both), so backtracking never pushes it.
        self._queued: List[Optional[float]] = []
        self._occurs: List[bool] = []  # the variable is in a stored clause
        self._seen: List[bool] = []
        # Search state.
        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._heap: List[Tuple[float, int]] = []
        self._var_inc = 1.0
        self._add_clauses(clauses)

    @property
    def atoms(self) -> Tuple[AtomLike, ...]:
        return tuple(self._atom_of)

    @property
    def num_clauses(self) -> int:
        return self._num_clauses

    def add_clause(self, clause_: Clause) -> None:
        """Conjoin one more clause; cheap, and valid between solve() calls.

        New atoms are interned on the fly.  This is the incremental
        interface the model enumerators use for blocking clauses.
        """
        self._add_clauses((clause_,))

    def _add_clauses(self, clauses: Iterable[Clause]) -> None:
        atom_of = self._atom_of
        var_of = self._var_of
        value = self._value
        occurs = self._occurs
        first_new = len(atom_of)
        stored: List[List[int]] = []  # watched once the variables exist
        units: List[int] = []
        decidable: List[int] = []  # variables in their first clause
        added = kept = 0
        for clause_ in clauses:
            added += 1
            lits = []
            fresh = None
            for atom_, polarity in clause_:
                var = var_of.get(atom_.arena_id)
                if var is None:
                    if fresh is None:
                        fresh = [(atom_, polarity)]
                    else:
                        fresh.append((atom_, polarity))
                else:
                    lits.append(var << 1 | polarity)
            if fresh is not None:
                # New atoms are numbered in arena order, so runs and models
                # are reproducible whatever the clause's iteration order.
                if len(fresh) > 1:
                    fresh.sort(key=_arena_order)
                for atom_, polarity in fresh:
                    var = var_of.get(atom_.arena_id)
                    if var is None:
                        var = len(atom_of)
                        var_of[atom_.arena_id] = var
                        atom_of.append(atom_)
                        value += _UNASSIGNED_PAIR
                        occurs.append(False)
                    lits.append(var << 1 | polarity)
            lits.sort()
            # One pass: spot a tautology (complementary literals sort next
            # to each other) and simplify against the level-0 assignment,
            # which is permanent.
            encoded = []
            satisfied = False
            previous = -2
            for lit in lits:
                if lit == previous ^ 1:
                    break  # a tautology: its atoms are interned, no more
                previous = lit
                val = value[lit]
                if val == _UNASSIGNED:
                    encoded.append(lit)
                elif val == _TRUE:
                    satisfied = True
            else:
                kept += 1
                if satisfied or self._unsat:
                    continue
                for lit in encoded:
                    if not occurs[lit >> 1]:
                        occurs[lit >> 1] = True
                        decidable.append(lit >> 1)
                if len(encoded) > 1:
                    stored.append(encoded)
                elif encoded:
                    units.append(encoded[0])
                else:
                    self._unsat = True
        self.stats.clauses_added += added
        self._num_clauses += kept

        grown = len(atom_of) - first_new
        if grown:
            self._watches.extend([[] for _ in range(2 * grown)])
            self._level.extend([0] * grown)
            self._reason.extend([None] * grown)
            self._phase.extend([0] * grown)
            self._activity.extend([0.0] * grown)
            # Read as queued until the variable occurs in a clause.
            self._queued.extend([0.0] * grown)
            self._seen.extend([False] * grown)
        watches = self._watches
        for encoded in stored:
            watches[encoded[0]].append(encoded)
            watches[encoded[1]].append(encoded)
        activity = self._activity
        heap = self._heap
        for var in decidable:
            heappush(heap, (-activity[var], var))
        for lit in units:
            if value[lit] == _FALSE:
                self._unsat = True
            elif value[lit] == _UNASSIGNED:
                self._assign(lit, None)

    def _assign(self, lit: int, reason: Optional[List[int]]) -> None:
        self._value[lit] = _TRUE
        self._value[lit ^ 1] = _FALSE
        var = lit >> 1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    # -- solving -------------------------------------------------------------

    def solve(self, assumptions: Sequence[Literal] = ()) -> Optional[Valuation]:
        """Find a model extending *assumptions*, or None if unsatisfiable.

        The returned valuation is total over the atoms of the clause set
        (atoms that occur in no clause read False, the closed-world-friendly
        choice that also makes runs deterministic).  Conflicting assumptions
        are rejected up front — including over atoms absent from the clause
        set, which never reach the search at all.
        """
        sp = span("sat.solve")
        if not sp:
            return self._solve(assumptions)
        stats = self.stats
        before = (
            stats.decisions, stats.propagations, stats.conflicts,
            stats.learned, stats.restarts,
        )
        with sp:
            model = self._solve(assumptions)
            sp.attrs.update(
                vars=len(self._atom_of),
                clauses=self.num_clauses,
                sat=model is not None,
                decisions=stats.decisions - before[0],
                propagations=stats.propagations - before[1],
                conflicts=stats.conflicts - before[2],
                learned=stats.learned - before[3],
                restarts=stats.restarts - before[4],
            )
        return model

    def _solve(self, assumptions: Sequence[Literal]) -> Optional[Valuation]:
        self.stats.solve_calls += 1
        if self._unsat:
            return None

        # Pre-check assumptions for internal conflicts before any search.
        assumed: Dict[int, int] = {}
        absent: Dict[AtomLike, bool] = {}
        for atom_, polarity in assumptions:
            var = self._var_of.get(atom_.arena_id)
            if var is None:
                previous = absent.get(atom_)
                if previous is not None and previous != bool(polarity):
                    return None
                absent[atom_] = bool(polarity)
                continue
            want = _TRUE if polarity else _FALSE
            if assumed.setdefault(var, want) != want:
                return None

        if not self._search([var << 1 | want for var, want in assumed.items()]):
            self._cancel_until(0)
            return None
        mapping: Dict[AtomLike, bool] = dict(
            zip(self._atom_of, map(_TRUE.__eq__, self._value[1::2]), strict=True)
        )
        mapping.update(absent)
        self._cancel_until(0)
        return Valuation(mapping)

    # -- core search ---------------------------------------------------------

    def _search(self, assumptions: List[int]) -> bool:
        """Search until every decidable variable is assigned (True: the
        trail holds a model extending *assumptions*) or a conflict shows
        that no model does (False)."""
        stats = self.stats
        trail_lim = self._trail_lim
        value = self._value
        watches = self._watches
        activity = self._activity
        queued = self._queued
        phase = self._phase
        heap = self._heap
        learnts = self._learnts
        restarts = 0
        budget = _RESTART_UNIT
        conflicts = 0
        while True:
            conflict = self._propagate()
            if conflict is not None:
                stats.conflicts += 1
                conflicts += 1
                if not trail_lim:
                    self._unsat = True
                    return False
                learnt, back_level, lbd = self._analyze(conflict)
                self._cancel_until(back_level)
                stats.learned += 1
                if len(learnt) == 1:
                    self._assign(learnt[0], None)  # at level 0: permanent
                else:
                    watches[learnt[0]].append(learnt)
                    watches[learnt[1]].append(learnt)
                    learnts.append(learnt)
                    self._learnt_lbd.append(lbd)
                    self._assign(learnt[0], learnt)
                self._var_inc /= _VAR_DECAY
                if self._var_inc > _RESCALE_LIMIT:
                    # Activities sum a geometric series of increments, so
                    # none exceeds 20 increments: far from overflow.
                    self._rescale()
                continue

            if conflicts >= budget:
                restarts += 1
                stats.restarts += 1
                conflicts = 0
                budget = _luby(restarts) * _RESTART_UNIT
                self._cancel_until(0)
                continue
            if len(learnts) >= self._max_learnts:
                self._reduce_learnts()

            depth = len(trail_lim)
            if depth < len(assumptions):
                # Assumptions are the first decision levels.
                lit = assumptions[depth]
                val = value[lit]
                if val == _FALSE:
                    return False
                trail_lim.append(len(self._trail))
                if val == _UNASSIGNED:
                    self._assign(lit, None)
                continue

            while heap:
                key, var = heappop(heap)
                if key != -activity[var]:
                    continue  # stale: the variable was bumped since
                queued[var] = None
                if value[var << 1] == _UNASSIGNED:
                    break
            else:
                return True  # every variable in a clause is assigned
            stats.decisions += 1
            trail_lim.append(len(self._trail))
            self._assign(var << 1 | phase[var], None)

    def _propagate(self) -> Optional[List[int]]:
        """Unit-propagate the trail from the queue head; the falsified
        clause on conflict, else None."""
        trail = self._trail
        value = self._value
        watches = self._watches
        level = self._level
        reason = self._reason
        depth = len(self._trail_lim)
        qhead = self._qhead
        implied = 0
        conflict = None
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            i = j = 0
            end = len(watchers)
            while i < end:
                cl = watchers[i]
                i += 1
                # Normalize: the falsified watch sits in position 1.
                first = cl[0]
                if first == false_lit:
                    first = cl[1]
                    cl[0] = first
                    cl[1] = false_lit
                if value[first] == _TRUE:
                    watchers[j] = cl  # satisfied by its other watch
                    j += 1
                    continue
                for k in range(2, len(cl)):
                    lit = cl[k]
                    if value[lit] != _FALSE:
                        # Non-false literal found: move the watch there.
                        cl[1] = lit
                        cl[k] = false_lit
                        watches[lit].append(cl)
                        break
                else:
                    watchers[j] = cl
                    j += 1
                    if value[first] == _FALSE:
                        conflict = cl
                        break
                    value[first] = _TRUE
                    value[first ^ 1] = _FALSE
                    var = first >> 1
                    level[var] = depth
                    reason[var] = cl
                    trail.append(first)
                    implied += 1
            del watchers[j:i]
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += implied
        return conflict

    def _analyze(self, conflict: List[int]) -> Tuple[List[int], int, int]:
        """First-UIP analysis of *conflict*: the learned clause (asserting
        literal first, a literal of the backjump level second), the level
        to backjump to, and the clause's literal block distance."""
        seen = self._seen
        level = self._level
        reason = self._reason
        trail = self._trail
        activity = self._activity
        inc = self._var_inc
        depth = len(self._trail_lim)
        learnt = [0]
        pending = 0  # seen literals of the conflict level not yet resolved
        index = len(trail) - 1
        clause_ = conflict
        start = 0
        while True:
            for k in range(start, len(clause_)):
                lit = clause_[k]
                var = lit >> 1
                if not seen[var] and level[var] > 0:
                    seen[var] = True
                    activity[var] += inc
                    if level[var] >= depth:
                        pending += 1
                    else:
                        learnt.append(lit)
            while not seen[trail[index] >> 1]:
                index -= 1
            lit = trail[index]
            index -= 1
            var = lit >> 1
            seen[var] = False
            pending -= 1
            if not pending:
                break
            clause_ = reason[var]
            start = 1  # position 0 holds the literal the clause implied
        learnt[0] = lit ^ 1

        # Local minimisation: drop a literal whose reason's other literals
        # are all in the clause already (or fixed at level 0).
        kept = [learnt[0]]
        for lit in learnt[1:]:
            clause_ = reason[lit >> 1]
            if clause_ is None:
                kept.append(lit)
                continue
            for k in range(1, len(clause_)):
                var = clause_[k] >> 1
                if not seen[var] and level[var] > 0:
                    kept.append(lit)
                    break
        for lit in learnt[1:]:
            seen[lit >> 1] = False

        back_level = 0
        if len(kept) > 1:
            best = 1
            for k in range(2, len(kept)):
                if level[kept[k] >> 1] > level[kept[best] >> 1]:
                    best = k
            kept[1], kept[best] = kept[best], kept[1]
            back_level = level[kept[1] >> 1]
        return kept, back_level, len({level[lit >> 1] for lit in kept})

    def _cancel_until(self, depth: int) -> None:
        """Undo every decision level above *depth*, saving phases and
        re-queueing the freed variables."""
        trail_lim = self._trail_lim
        if len(trail_lim) <= depth:
            return
        trail = self._trail
        value = self._value
        phase = self._phase
        activity = self._activity
        queued = self._queued
        heap = self._heap
        mark = trail_lim[depth]
        for k in range(len(trail) - 1, mark - 1, -1):
            lit = trail[k]
            var = lit >> 1
            value[lit] = value[lit ^ 1] = _UNASSIGNED
            phase[var] = lit & 1
            if queued[var] != activity[var]:
                queued[var] = activity[var]
                heappush(heap, (-activity[var], var))
        del trail[mark:]
        del trail_lim[depth:]
        self._qhead = mark

    def _rescale(self) -> None:
        """Scale every activity down before it overflows; VSIDS order is
        unchanged."""
        scale = 1.0 / _RESCALE_LIMIT
        activity = self._activity
        queued = self._queued
        for var in range(len(activity)):
            activity[var] *= scale
            if queued[var] is not None:
                queued[var] *= scale
        heap = self._heap
        heap[:] = [(key * scale, var) for key, var in heap]
        heapify(heap)
        self._var_inc *= scale

    def _reduce_learnts(self) -> None:
        """Delete the worse half of the learned clauses, ranked by LBD then
        length (newer first on ties), and raise the limit."""
        learnts = self._learnts
        lbds = self._learnt_lbd
        ranked = sorted(
            range(len(learnts)),
            key=lambda index: (lbds[index], len(learnts[index]), -index),
        )
        keep = sorted(ranked[: len(ranked) // 2])
        dead = {id(learnts[index]) for index in ranked[len(ranked) // 2:]}
        # A deleted clause may still be the reason of an assigned literal;
        # analysis reads only its literals, which stay implied.
        for watchers in self._watches:
            if watchers:
                watchers[:] = [cl for cl in watchers if id(cl) not in dead]
        learnts[:] = [learnts[index] for index in keep]
        lbds[:] = [lbds[index] for index in keep]
        self._max_learnts *= _LEARNTS_GROWTH


def _arena_order(literal: Literal) -> int:
    return literal[0].arena_id


def solve(clauses: Iterable[Clause], assumptions: Sequence[Literal] = ()) -> Optional[Valuation]:
    """One-shot convenience wrapper around :class:`Solver`."""
    return Solver(clauses).solve(assumptions)


def is_satisfiable(clauses: Iterable[Clause]) -> bool:
    return solve(clauses) is not None
