"""Oracle tests that drive the CDCL search into learning and restarts.

The small instances of ``test_sat_watched.py`` almost never conflict.  The
instances here do: random 3-CNF near the satisfiability threshold (clause
to variable ratio 4.26), the pigeonhole formula PHP(5,4), incremental
``add_clause`` interleaved with assumption solves on one solver, and
projected enumeration.  Every answer is checked against brute force over
bitmask valuations; PHP(n+1,n) is unsatisfiable by the pigeonhole
principle, and PHP(7,6) runs long enough to restart.
"""

import random

import pytest

from repro.logic import sat
from repro.logic.allsat import iter_projected_models
from repro.logic.sat import Solver, SolverStats
from repro.logic.terms import Predicate

X = Predicate("X", 1)
ATOMS = [X(f"x{i}") for i in range(14)]
RATIO = 4.26


def random_3cnf(rng, ratio=RATIO, atoms=ATOMS):
    """Clauses as (atom, polarity) frozensets over three distinct atoms."""
    count = round(ratio * len(atoms))
    return [
        frozenset((atom, rng.random() < 0.5) for atom in rng.sample(atoms, 3))
        for _ in range(count)
    ]


def brute_force(clauses, candidates=None, atoms=ATOMS):
    """The valuations among *candidates* (default: all over *atoms*, as
    bitmasks) that satisfy every clause."""
    bit = {atom: 1 << index for index, atom in enumerate(atoms)}
    models = range(1 << len(atoms)) if candidates is None else candidates
    for clause_ in clauses:
        pos = sum(bit[atom] for atom, polarity in clause_ if polarity)
        neg = sum(bit[atom] for atom, polarity in clause_ if not polarity)
        models = [mask for mask in models if mask & pos or ~mask & neg]
    return list(models)


def mask_of(model, atoms=ATOMS):
    return sum(1 << index for index, atom in enumerate(atoms) if model.get(atom))


def satisfies(model, clauses):
    return all(
        any(model.get(atom, False) is polarity for atom, polarity in clause_)
        for clause_ in clauses
    )


def pigeonhole(pigeons, holes):
    """PHP(pigeons, holes): each pigeon in some hole, no hole shared."""
    at = Predicate("In", 2)
    var = {(p, h): at(f"p{p}", f"h{h}") for p in range(pigeons) for h in range(holes)}
    clauses = [
        frozenset((var[p, h], True) for h in range(holes)) for p in range(pigeons)
    ]
    for h in range(holes):
        for p in range(pigeons):
            for q in range(p + 1, pigeons):
                clauses.append(frozenset({(var[p, h], False), (var[q, h], False)}))
    return clauses, list(var.values())


def check_solve(solver, clauses, models, assumptions=()):
    """Solve under *assumptions*; check the answer against *models*, the
    brute-force models of *clauses*."""
    bit = {atom: 1 << index for index, atom in enumerate(ATOMS)}
    expected = [
        mask
        for mask in models
        if all(bool(mask & bit[atom]) is polarity for atom, polarity in assumptions)
    ]
    model = solver.solve(assumptions)
    assert (model is not None) is bool(expected)
    if model is not None:
        assert satisfies(model, clauses)
        assert mask_of(model) in expected


def run_random_threshold(seed, stats):
    rng = random.Random(5000 + seed)
    clauses = random_3cnf(rng)
    check_solve(Solver(clauses, stats=stats), clauses, brute_force(clauses))


def run_interleaved(seed, stats):
    """One solver; clauses arrive in chunks, each followed by solves under
    random assumptions, so learned clauses must survive both."""
    rng = random.Random(6000 + seed)
    clauses = random_3cnf(rng)
    solver = Solver(stats=stats)
    models = None
    for start in range(0, len(clauses), 12):
        chunk = clauses[start:start + 12]
        for clause_ in chunk:
            solver.add_clause(clause_)
        models = brute_force(chunk, models)
        added = clauses[:start + 12]
        for _ in range(3):
            assumptions = [
                (atom, rng.random() < 0.5) for atom in rng.sample(ATOMS, 3)
            ]
            check_solve(solver, added, models, assumptions)
        check_solve(solver, added, models)


def run_projection(seed, stats):
    rng = random.Random(7000 + seed)
    clauses = random_3cnf(rng, ratio=3.6)
    onto = rng.sample(ATOMS, 7)
    expected = {
        frozenset(atom for atom in onto if mask >> ATOMS.index(atom) & 1)
        for mask in brute_force(clauses)
    }
    projections = [
        frozenset(atom for atom in onto if projection[atom])
        for projection in iter_projected_models(clauses, onto, stats=stats)
    ]
    assert len(projections) == len(set(projections))
    assert set(projections) == expected


def run_pigeonhole(stats, pigeons=5):
    """PHP(pigeons, pigeons - 1) is unsatisfiable, with or without an
    assumption; PHP(pigeons - 1, pigeons - 1) has a model."""
    clauses, atoms = pigeonhole(pigeons, pigeons - 1)
    solver = Solver(clauses, stats=stats)
    assert solver.solve([(atoms[0], True)]) is None
    assert solver.solve() is None
    fewer, _ = pigeonhole(pigeons - 1, pigeons - 1)
    model = Solver(fewer, stats=stats).solve()
    assert model is not None and satisfies(model, fewer)


@pytest.mark.parametrize("seed", range(20))
def test_random_threshold_3cnf_matches_oracle(seed):
    run_random_threshold(seed, SolverStats())


@pytest.mark.parametrize("seed", range(6))
def test_add_clause_interleaved_with_assumption_solves(seed):
    run_interleaved(seed, SolverStats())


@pytest.mark.parametrize("seed", range(8))
def test_projected_enumeration_on_hard_instances(seed):
    run_projection(seed, SolverStats())


@pytest.mark.parametrize("pigeons", [5, 7])
def test_pigeonhole_unsatisfiable(pigeons):
    run_pigeonhole(SolverStats(), pigeons)


def test_the_set_reaches_learning_and_restarts():
    stats = SolverStats()
    for seed in range(20):
        run_random_threshold(seed, stats)
    for seed in range(6):
        run_interleaved(seed, stats)
    for seed in range(8):
        run_projection(seed, stats)
    run_pigeonhole(stats, 5)
    run_pigeonhole(stats, 7)  # long enough to restart
    assert stats.conflicts > 0
    assert stats.learned > 0
    assert stats.restarts > 0


def test_reduction_and_rescaling_keep_answers(monkeypatch):
    """With a tiny learned-clause limit the database is halved again and
    again mid-search, and with a tiny rescale limit the activities are
    rescaled every few conflicts; the answers must not change."""
    monkeypatch.setattr(sat, "_MIN_LEARNTS", 4)
    monkeypatch.setattr(sat, "_RESCALE_LIMIT", 2.0)
    stats = SolverStats()
    run_pigeonhole(stats, 7)
    for seed in range(6):
        run_interleaved(seed, stats)
    assert stats.learned > 100


class TestDecisionRules:
    def test_tautology_interns_but_adds_no_clause(self):
        a = ATOMS[0]
        stats = SolverStats()
        solver = Solver([frozenset({(a, True), (a, False)})], stats=stats)
        assert solver.num_clauses == 0
        assert solver.atoms == (a,)
        model = solver.solve()
        assert model is not None and model[a] is False
        assert stats.decisions == 0

    def test_variable_in_no_clause_reads_false(self):
        a, b = ATOMS[:2]
        solver = Solver(
            [frozenset({(a, False)}), frozenset({(b, True), (b, False)})]
        )
        model = solver.solve()
        assert model[a] is False and model[b] is False
        # It can still be assumed either way, and later clauses decide it.
        assert solver.solve([(b, True)])[b] is True
        solver.add_clause(frozenset({(a, True), (b, True)}))
        assert solver.solve()[b] is True

    def test_unsatisfiable_stays_unsatisfiable(self):
        clauses, atoms = pigeonhole(4, 3)
        solver = Solver(clauses)
        assert solver.solve() is None
        solver.add_clause(frozenset({(atoms[0], True)}))
        assert solver.solve() is None


def test_luby_sequence():
    assert [sat._luby(index) for index in range(15)] == [
        1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
    ]
