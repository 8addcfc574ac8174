import pytest

from helpers import L, atoms_problem, random_problem, truth_models
from tlemma.atoms import Literal
from tlemma.enumeration import (
    Assignment,
    EnumerationMode,
    minimize_assignment,
    project,
    projected_allsmt,
)
from tlemma.oracle import BuiltinOracle
from tlemma.problem import Problem
from tlemma.verifier import classify


def run(problem, mode, proj=None, oracle=None, **kw):
    proj = list(problem.cnf.alpha_indices) if proj is None else proj
    oracle = oracle or BuiltinOracle(problem.table)
    return projected_allsmt(problem.cnf, problem.table, proj, mode, oracle, **kw)


@pytest.fixture
def two_vals():
    return Problem.from_text("(declare-const x Real)(assert (or (= x 0) (= x 1)))")


class TestTotalMode:
    def test_worked_example(self, two_vals):
        out = run(two_vals, EnumerationMode.TOTAL)
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, True), L(1, False)],
            [L(0, False), L(1, True)],
        ]
        assert [l.literals for l in out.lemmas] == [(L(0, False), L(1, False))]
        assert out.stats.n_candidates == 3
        assert out.stats.n_theory_checks == 3
        assert out.stats.n_blocking_clauses == 2
        assert not out.truncated

    def test_vacuous_enumeration(self):
        p = Problem.from_text("(assert true)")
        out = run(p, EnumerationMode.TOTAL)
        assert out.assignments == [Assignment.of([], [])]
        assert out.lemmas == []

    def test_propositionally_unsat(self):
        p = Problem.from_text("(declare-const a Bool)(assert (and a (not a)))")
        out = run(p, EnumerationMode.TOTAL)
        assert out.assignments == [] and out.lemmas == []

    def test_completeness_against_brute_force(self):
        for seed in range(60):
            p = random_problem(depth=4, seed=2000 + seed)
            oracle = BuiltinOracle(p.table)
            out = run(p, EnumerationMode.TOTAL, oracle=oracle)
            cls = classify(p.term, p.table, oracle)
            got = {frozenset(a.literals) for a in out.assignments}
            want = {frozenset(a.literals) for a in cls.ctta}
            assert got == want

    def test_seed_lemmas_are_preblocked(self, two_vals):
        oracle = BuiltinOracle(two_vals.table)
        first = run(two_vals, EnumerationMode.TOTAL, oracle=oracle)
        again = run(
            two_vals, EnumerationMode.TOTAL, oracle=oracle, seed_lemmas=first.lemmas
        )
        assert again.lemmas == []
        assert {frozenset(a.literals) for a in again.assignments} == {
            frozenset(a.literals) for a in first.assignments
        }

    def test_assumptions_restrict_search(self, two_vals):
        out = run(
            two_vals, EnumerationMode.TOTAL, assumptions=[L(1, True)]
        )
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, False), L(1, True)]
        ]

    def test_determinism(self, two_vals):
        a = run(two_vals, EnumerationMode.TOTAL)
        b = run(two_vals, EnumerationMode.TOTAL)
        assert a.assignments == b.assignments
        assert a.lemmas == b.lemmas

    def test_budget_zero_truncates(self):
        p = random_problem(depth=4, seed=9)
        out = run(p, EnumerationMode.TOTAL, deadline=0.0)
        assert out.truncated


class TestPartialMode:
    def test_documented_trace_positive_polarity(self, two_vals):
        out = run(two_vals, EnumerationMode.PARTIAL)
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, True)],
            [L(0, False), L(1, True)],
        ]
        assert len(out.lemmas) == 1

    def test_zero_lemma_trace_negative_polarity(self, two_vals):
        # branching on the negative phase first reproduces the run where the
        # inconsistent assignment is never visited and no lemma is produced
        out = run(two_vals, EnumerationMode.PARTIAL, positive_first=False)
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(1, True)],
            [L(0, True), L(1, False)],
        ]
        assert out.lemmas == []

    def test_coverage_of_all_consistent_assignments(self):
        for seed in range(40):
            p = random_problem(depth=4, seed=3000 + seed)
            oracle = BuiltinOracle(p.table)
            out = run(p, EnumerationMode.PARTIAL, oracle=oracle)
            cls = classify(p.term, p.table, oracle)
            for eta in cls.ctta:
                assert any(eta.extends(mu) for mu in out.assignments)

    def test_blocking_disjointness(self):
        for seed in range(40):
            p = random_problem(depth=4, seed=4000 + seed)
            out = run(p, EnumerationMode.PARTIAL)
            ms = out.assignments
            for i, a in enumerate(ms):
                for b in ms[i + 1 :]:
                    clash = any(l.negated() in b.literals for l in a.literals)
                    assert clash, (a, b)


class TestProjection:
    def test_projected_total_collapses_boolean_variants(self):
        p = Problem.from_text(
            "(declare-const b Bool)(declare-const x Real)"
            "(assert (and (or b (not b)) (or (= x 0) (= x 1))))"
        )
        theory = p.table.theory_indices()
        out = run(p, EnumerationMode.TOTAL, proj=theory)
        assert len(out.assignments) == 2
        assert all(a.scope == frozenset(theory) for a in out.assignments)

    def test_empty_projection_single_empty_cube(self):
        p = Problem.from_text("(declare-const b Bool)(assert b)")
        out = run(p, EnumerationMode.TOTAL, proj=[])
        assert out.assignments == [Assignment.of([], [])]
        assert out.stats.n_theory_checks == 0

    def test_projection_must_be_within_atoms(self, two_vals):
        with pytest.raises(ValueError):
            run(two_vals, EnumerationMode.TOTAL, proj=[7])


class TestHelpers:
    def test_project_restricts_scope(self):
        a = Assignment.of([L(0), L(1, False), L(2)], [0, 1, 2])
        p = project(a, [0, 1])
        assert p.literals == frozenset({L(0), L(1, False)})
        assert p.scope == frozenset({0, 1})

    def test_project_identity_on_full_scope(self):
        a = Assignment.of([L(0), L(1, False)], [0, 1])
        assert project(a, [0, 1]) == a

    def test_project_empty(self):
        a = Assignment.of([], [0])
        assert project(a, []).literals == frozenset()

    def test_minimize_drops_implied_literal(self, two_vals):
        eta = Assignment.of([L(0, False), L(1, True)], [0, 1])
        mu = minimize_assignment(eta, [0, 1], two_vals.abstract)
        assert mu.literals == frozenset({L(1, True)})

    def test_minimize_respects_blocking_clauses(self, two_vals):
        eta = Assignment.of([L(0, True), L(1, False)], [0, 1])
        blocked = minimize_assignment(
            eta, [0, 1], two_vals.abstract, blocking=[[L(1, False)]]
        )
        assert L(1, False) in blocked.literals

    def test_minimize_with_empty_projection_is_identity(self, two_vals):
        eta = Assignment.of([L(0, True), L(1, False)], [0, 1])
        assert minimize_assignment(eta, [], two_vals.abstract) == eta

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            Assignment.of([L(0), L(0, False)], [0])
        with pytest.raises(ValueError):
            Assignment.of([L(3)], [0, 1])


class TestEarlyPruning:
    def test_finds_conflicts_before_leaves(self):
        p = Problem.from_text(
            "(declare-const a Bool)(declare-const b Bool)(declare-const x Real)"
            "(assert (and (= x 0) (= x 1) (or a (not a)) (or b (not b))))"
        )
        oracle = BuiltinOracle(p.table)
        pruned = run(
            p,
            EnumerationMode.TOTAL,
            oracle=oracle,
            early_pruning=True,
            pruning_interval=1,
        )
        assert pruned.assignments == []
        assert len(pruned.lemmas) == 1

    def test_lemma_set_still_rules_out(self):
        for seed in (5, 6, 7):
            p = random_problem(depth=4, seed=5000 + seed)
            oracle = BuiltinOracle(p.table)
            out = run(
                p,
                EnumerationMode.TOTAL,
                oracle=oracle,
                early_pruning=True,
                pruning_interval=2,
            )
            from tlemma.verifier import rules_out

            cls = classify(p.term, p.table, oracle)
            assert rules_out(out.lemmas, cls.itta)
