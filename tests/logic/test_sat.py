"""Unit tests for the CDCL solver."""

import itertools

import pytest

from repro.logic.cnf import clause, to_cnf
from repro.logic.parser import parse
from repro.logic.sat import Solver, is_satisfiable, solve
from repro.logic.semantics import evaluate
from repro.logic.terms import Predicate
from repro.logic.valuation import Valuation

P = Predicate("P", 1)
a, b, c, d = P("a"), P("b"), P("c"), P("d")


class TestBasics:
    def test_empty_instance_sat(self):
        assert solve([]) is not None

    def test_empty_clause_unsat(self):
        assert solve([frozenset()]) is None

    def test_unit(self):
        model = solve([clause((a, True))])
        assert model is not None and model[a]

    def test_conflict(self):
        assert solve([clause((a, True)), clause((a, False))]) is None

    def test_model_satisfies_clauses(self):
        clauses = to_cnf(parse("(P(a) | P(b)) & (!P(a) | P(c)) & (!P(c) | P(d))"))
        model = solve(clauses)
        assert model is not None
        for cl in clauses:
            assert any(model[atom] is polarity for atom, polarity in cl)

    def test_total_model(self):
        clauses = to_cnf(parse("P(a) | P(b)"))
        model = solve(clauses)
        assert set(model) == {a, b}

    def test_deterministic(self):
        clauses = to_cnf(parse("(P(a) | P(b)) & (P(c) | P(d))"))
        assert solve(clauses) == solve(clauses)


class TestAssumptions:
    def test_assumption_honoured(self):
        clauses = to_cnf(parse("P(a) | P(b)"))
        model = Solver(clauses).solve(assumptions=[(a, False)])
        assert model is not None
        assert not model[a] and model[b]

    def test_conflicting_assumptions(self):
        clauses = to_cnf(parse("P(a)"))
        assert Solver(clauses).solve(assumptions=[(a, False)]) is None

    def test_assumption_over_unknown_atom(self):
        clauses = to_cnf(parse("P(a)"))
        model = Solver(clauses).solve(assumptions=[(b, True)])
        assert model is not None and model[b]

    def test_both_polarities_explored(self):
        # Regression: the second branch must flip the first sign.
        clauses = [
            clause((a, True), (b, True)),
            clause((a, False), (b, True)),
            clause((a, True), (b, False)),
        ]
        model = solve(clauses)
        assert model is not None


class TestAgainstTruthTable:
    @pytest.mark.parametrize(
        "text",
        [
            "(P(a) -> P(b)) & (P(b) -> P(c)) & P(a) & !P(c)",
            "(P(a) <-> P(b)) & (P(b) <-> !P(a))",
            "(P(a) | P(b) | P(c)) & (!P(a) | !P(b)) & (!P(b) | !P(c)) & (!P(a) | !P(c))",
            "(P(a) | !P(b)) & (P(b) | !P(c)) & (P(c) | !P(a)) & (P(a) | P(b) | P(c))",
            "!(P(a) -> (P(b) -> P(a)))",
        ],
    )
    def test_matches_brute_force(self, text):
        formula = parse(text)
        atoms = sorted(formula.atoms())
        brute = any(
            evaluate(formula, v, closed_world=False)
            for v in Valuation.all_over(atoms)
        )
        assert is_satisfiable(to_cnf(formula)) is brute


class TestPigeonhole:
    def test_php_3_2_unsat(self):
        """3 pigeons, 2 holes: classic small UNSAT instance."""
        hole = Predicate("Hole", 2)
        clauses = []
        for pigeon in range(3):
            clauses.append(
                frozenset((hole(pigeon, h), True) for h in range(2))
            )
        for h in range(2):
            for p1, p2 in itertools.combinations(range(3), 2):
                clauses.append(
                    clause((hole(p1, h), False), (hole(p2, h), False))
                )
        assert solve(clauses) is None

    def test_php_2_2_sat(self):
        hole = Predicate("Hole", 2)
        clauses = []
        for pigeon in range(2):
            clauses.append(
                frozenset((hole(pigeon, h), True) for h in range(2))
            )
        for h in range(2):
            clauses.append(
                clause((hole(0, h), False), (hole(1, h), False))
            )
        assert solve(clauses) is not None


class TestChains:
    def test_long_implication_chain(self):
        """a0 & (a0 -> a1) & ... forces everything true by unit propagation."""
        Q = Predicate("Q", 1)
        n = 60
        clauses = [clause((Q(f"x0"), True))]
        for i in range(n - 1):
            clauses.append(clause((Q(f"x{i}"), False), (Q(f"x{i+1}"), True)))
        model = solve(clauses)
        assert model is not None
        assert all(model[Q(f"x{i}")] for i in range(n))

    def test_chain_with_final_conflict(self):
        Q = Predicate("Q", 1)
        n = 40
        clauses = [clause((Q("x0"), True))]
        for i in range(n - 1):
            clauses.append(clause((Q(f"x{i}"), False), (Q(f"x{i+1}"), True)))
        clauses.append(clause((Q(f"x{n-1}"), False)))
        assert solve(clauses) is None
