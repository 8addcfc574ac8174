import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import L, random_problem
from tlemma.atoms import AtomTable
from tlemma.enumeration import Assignment, enumerate_cubes, projected_allsmt
from tlemma.generator import clausal_instance, product_instance
from tlemma.oracle import BuiltinOracle
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.strategies import phase1_prefix
from tlemma.terms import LinearAtom, Relation, TermBank
from tlemma.verifier import classify


def run(problem, proj=None, oracle=None, **kw):
    proj = list(problem.cnf.alpha_indices) if proj is None else proj
    oracle = oracle or BuiltinOracle(problem.table)
    return projected_allsmt(problem.cnf, problem.table, proj, oracle, **kw)


@pytest.fixture
def two_vals():
    return Problem.from_text("(declare-const x Real)(assert (or (= x 0) (= x 1)))")


class TestTotalMode:
    def test_worked_example(self, two_vals):
        out = run(two_vals)
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, True), L(1, False)],
            [L(0, False), L(1, True)],
        ]
        assert [l.literals for l in out.lemmas] == [(L(0, False), L(1, False))]
        assert out.stats.n_candidates == 3
        assert out.stats.n_theory_checks == 3
        assert len(out.cubes) == 2
        assert not out.truncated

    def test_vacuous_enumeration(self):
        p = Problem.from_text("(assert true)")
        out = run(p)
        assert out.assignments == [Assignment.of([], [])]
        assert out.lemmas == []

    def test_propositionally_unsat(self):
        p = Problem.from_text("(declare-const a Bool)(assert (and a (not a)))")
        out = run(p)
        assert out.assignments == [] and out.lemmas == []

    def test_completeness_against_brute_force(self):
        for seed in range(60):
            p = random_problem(depth=4, seed=2000 + seed)
            oracle = BuiltinOracle(p.table)
            out = run(p, oracle=oracle)
            cls = classify(p.term, p.table, oracle)
            got = {frozenset(a.literals) for a in out.assignments}
            want = {frozenset(a.literals) for a in cls.ctta}
            assert got == want

    def test_seed_lemmas_are_preblocked(self, two_vals):
        oracle = BuiltinOracle(two_vals.table)
        first = run(two_vals, oracle=oracle)
        again = run(
            two_vals, oracle=oracle, seed_lemmas=first.lemmas
        )
        assert again.lemmas == []
        assert {frozenset(a.literals) for a in again.assignments} == {
            frozenset(a.literals) for a in first.assignments
        }

    def test_assumptions_restrict_search(self, two_vals):
        out = run(
            two_vals, assumptions=[L(1, True)]
        )
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, False), L(1, True)]
        ]

    def test_determinism(self, two_vals):
        a = run(two_vals)
        b = run(two_vals)
        assert a.assignments == b.assignments
        assert a.lemmas == b.lemmas

    def test_budget_zero_truncates(self):
        p = random_problem(depth=4, seed=9)
        out = run(p, deadline=0.0)
        assert out.truncated

    @pytest.mark.parametrize("assumptions", [[], [L(0, False)]], ids=["free", "contradicts unit"])
    def test_a_run_started_past_its_deadline_is_truncated(self, assumptions):
        # The deadline is checked before the root units are propagated, so
        # a run started too late is truncated even when its assumptions
        # contradict a CNF unit, here the unit a of atom 0.
        p = Problem.from_text(
            "(declare-const a Bool)(declare-const x Real)"
            "(assert a)(assert (or (< x 0) (> x 1)))"
        )
        assert (L(0),) in p.cnf.clauses
        out = run(p, assumptions=assumptions, deadline=0.0)
        assert out.truncated and out.cubes == [] and out.lemmas == []
        outs = enumerate_cubes(
            p.cnf,
            p.table,
            list(p.cnf.alpha_indices),
            BuiltinOracle(p.table),
            (),
            [assumptions, [L(0)], assumptions],
            deadline=0.0,
        )
        assert [o.truncated for o in outs] == [True] * 3

    def test_each_projected_model_recorded_exactly_once(self):
        # The engine adds no blocking clauses: the search order alone must
        # keep it from reaching a recorded projected cube twice.  Over the
        # prefix that divide & conquer splits on, the cubes are then exactly
        # the theory-consistent models restricted to the prefix, which is
        # the coverage and disjointness phase 2 needs.
        problems = [random_problem(depth=4, seed=7000 + k) for k in range(25)]
        problems += [Problem.from_text(product_instance(s, n_groups=3)) for s in range(3)]
        for p in problems:
            oracle = BuiltinOracle(p.table)
            ctta = [a.literals for a in classify(p.term, p.table, oracle).ctta]
            n = len(p.table)
            projections = [list(range(n)), p.table.theory_indices()]
            projections += [
                sorted(c) for c in partition_atoms(p.table).theory_components()
            ]
            projections += [phase1_prefix(proj) for proj in projections]
            for proj in projections:
                for assumptions in ([], [L(0, True)], [L(n - 1, False)]):
                    want = {
                        frozenset(l for l in eta if l.atom_index in proj)
                        for eta in ctta
                        if set(assumptions) <= eta
                    }
                    for early in (False, True):
                        out = run(
                            p,
                            proj=proj,
                            oracle=oracle,
                            assumptions=assumptions,
                            early_pruning=early,
                            pruning_interval=1,
                        )
                        got = [a.literals for a in out.assignments]
                        assert len(set(got)) == len(got), (proj, assumptions, early)
                        assert set(got) == want, (proj, assumptions, early)
                        assert len(out.cubes) == len(got)

    def test_cubes_are_counted_as_recorded(self):
        # One snapshot per recorded cube, and one assignment decoded from
        # each, over the whole projection and over its phase-1 prefix.
        for k in range(25):
            p = random_problem(depth=4, seed=7000 + k)
            proj = list(p.cnf.alpha_indices)
            for split in (proj, phase1_prefix(proj)):
                out = run(p, split)
                assert len(out.cubes) == len(out.assignments)

    def test_one_engine_over_cubes_matches_a_fresh_engine_per_cube(self):
        # enumerate_cubes installs the CNF and the seeds once and re-runs
        # one engine per cube; each cube must see only the CNF, the seeds,
        # its assumptions and its own lemmas, as a fresh engine does.  The
        # cubes come from phase 1 over the whole projection and over the
        # prefix that divide & conquer splits on.
        problems = [random_problem(depth=4, seed=7000 + k) for k in range(25)]
        # The first instance criterion 5 selects.
        problems.append(
            Problem.from_text(
                clausal_instance(2, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
            )
        )
        for p in problems:
            oracle = BuiltinOracle(p.table)
            proj = list(p.cnf.alpha_indices)
            for split, early in itertools.product((proj, phase1_prefix(proj)), (False, True)):
                phase1 = run(p, split, oracle=oracle)
                cubes = [a.sorted_literals() for a in phase1.assignments]
                shared = enumerate_cubes(
                    p.cnf, p.table, proj, oracle, phase1.lemmas, cubes, early_pruning=early
                )
                assert len(shared) == len(cubes)
                for cube, got in zip(cubes, shared):
                    want = run(
                        p,
                        oracle=oracle,
                        seed_lemmas=phase1.lemmas,
                        assumptions=cube,
                        early_pruning=early,
                    )
                    assert got.assignments == want.assignments, (cube, early)
                    assert got.lemmas == want.lemmas, (cube, early)
                    assert replace(got.stats, elapsed_ns=0) == replace(
                        want.stats, elapsed_ns=0
                    ), (cube, early)
                    assert got.truncated == want.truncated


def _unit_lemma_problem() -> Problem:
    """``(or b c t)`` with ``t`` the theory atom ``0 < -1``, inconsistent on
    its own, so its theory check yields the unit lemma ``(not t)``.  The
    parser folds such an atom (``(< (+ x 1) x)``) to false, so it is built
    directly; atom indices are b 0, c 1, t 2."""
    bank = TermBank()
    table = AtomTable(bank)
    atoms = [
        bank.bool_atom("b"),
        bank.bool_atom("c"),
        bank.theory_atom(LinearAtom((), Relation.LT, Fraction(-1))),
    ]
    for atom in atoms:
        table.register(atom)
    return Problem.from_term(bank.or_(atoms), table)


class TestUnitLemmas:
    """A lemma with one literal is a root unit added mid-run: it must hold
    on every branch the run takes after it, and in no later run."""

    def test_unit_lemma_holds_after_backtracks(self):
        # Positive polarity first: the first candidate is b, c, t, which
        # yields (not t); the later branches flip c and b, above t, where
        # only replaying the unit keeps t false.  A second conflict on t
        # would re-add an active lemma and fail the engine's assertion.
        p = _unit_lemma_problem()
        out = run(p)
        assert [l.literals for l in out.lemmas] == [(L(2, False),)]
        assert sorted(sorted(a.literals) for a in out.assignments) == [
            [L(0, False), L(1, True), L(2, False)],
            [L(0, True), L(1, False), L(2, False)],
            [L(0, True), L(1, True), L(2, False)],
        ]
        assert out.stats.n_candidates == 4

    def test_unit_lemma_does_not_leak_into_the_next_cube(self):
        # Each cube meets t again and yields its own (not t).
        p = _unit_lemma_problem()
        oracle = BuiltinOracle(p.table)
        proj = list(p.cnf.alpha_indices)
        cubes = [[L(0)], [L(0, False)], [L(1)], [L(0)]]
        shared = enumerate_cubes(p.cnf, p.table, proj, oracle, (), cubes)
        for cube, got in zip(cubes, shared):
            want = run(p, oracle=oracle, assumptions=cube)
            assert [l.literals for l in got.lemmas] == [(L(2, False),)], cube
            assert got.assignments == want.assignments, cube
            assert got.lemmas == want.lemmas, cube
            assert replace(got.stats, elapsed_ns=0) == replace(want.stats, elapsed_ns=0), cube


class TestProjection:
    def test_projected_total_collapses_boolean_variants(self):
        p = Problem.from_text(
            "(declare-const b Bool)(declare-const x Real)"
            "(assert (and (or b (not b)) (or (= x 0) (= x 1))))"
        )
        theory = p.table.theory_indices()
        out = run(p, proj=theory)
        assert len(out.assignments) == 2
        assert all(a.scope == frozenset(theory) for a in out.assignments)

    def test_empty_projection_single_empty_cube(self):
        p = Problem.from_text("(declare-const b Bool)(assert b)")
        out = run(p, proj=[])
        assert out.assignments == [Assignment.of([], [])]
        assert out.stats.n_theory_checks == 0

    def test_projection_must_be_within_atoms(self, two_vals):
        with pytest.raises(ValueError):
            run(two_vals, proj=[7])


class TestHelpers:
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
                oracle=oracle,
                early_pruning=True,
                pruning_interval=2,
            )
            from tlemma.verifier import rules_out

            cls = classify(p.term, p.table, oracle)
            assert rules_out(out.lemmas, cls.itta)
