from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import L, random_problem, reference_minimize
from tlemma.atoms import AtomTable, eval3
from tlemma.enumeration import (
    Assignment,
    EnumerationMode,
    enumerate_cubes,
    minimize_assignment,
    projected_allsmt,
)
from tlemma.generator import clausal_instance, product_instance
from tlemma.oracle import BuiltinOracle
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.terms import TermBank, TermKind, normalize_linear
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

    def test_each_projected_model_recorded_exactly_once(self):
        # TOTAL mode adds no blocking clauses: the search order alone must
        # keep it from reaching a recorded projected cube twice.
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
                            EnumerationMode.TOTAL,
                            proj=proj,
                            oracle=oracle,
                            assumptions=assumptions,
                            early_pruning=early,
                            pruning_interval=1,
                        )
                        got = [a.literals for a in out.assignments]
                        assert len(set(got)) == len(got), (proj, assumptions, early)
                        assert set(got) == want, (proj, assumptions, early)
                        assert out.stats.n_blocking_clauses == len(got)

    def test_one_engine_over_cubes_matches_a_fresh_engine_per_cube(self):
        # enumerate_cubes installs the CNF and the seeds once and re-runs
        # one engine per cube; each cube must see only the CNF, the seeds,
        # its assumptions and its own lemmas, as a fresh engine does.
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
            phase1 = run(p, EnumerationMode.PARTIAL, oracle=oracle)
            cubes = [a.sorted_literals() for a in phase1.assignments]
            for early in (False, True):
                shared = enumerate_cubes(
                    p.cnf, p.table, proj, oracle, phase1.lemmas, cubes, early_pruning=early
                )
                assert len(shared) == len(cubes)
                for cube, got in zip(cubes, shared):
                    want = run(
                        p,
                        EnumerationMode.TOTAL,
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
                assert any(mu.literals <= eta.literals for mu in out.assignments)

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

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_minimize_matches_reference(self, data):
        n = 6
        concrete = data.draw(st.booleans(), label="concrete")
        spec = data.draw(_FORMULAS, label="formula")
        bank = TermBank()
        table = AtomTable(bank) if concrete else None
        if concrete:
            # Even indices are Boolean atoms, odd ones theory atoms.
            atoms = [
                bank.bool_atom(f"b{i}")
                if i % 2 == 0
                else bank.theory_atom(normalize_linear({"x": 1}, "<=", i))
                for i in range(n)
            ]
            for atom in atoms:
                table.register(atom)
            leaf = atoms.__getitem__
        else:
            leaf = bank.atom_ref
        phi = _build(spec, bank, leaf)
        total = dict(enumerate(data.draw(st.lists(st.booleans(), min_size=n, max_size=n))))
        if eval3(phi, total, table) is False:
            # Mostly start from a model, as the engine does, so drops are tried.
            phi = bank.intern(TermKind.NOT, (phi,), None)
        unset = data.draw(st.sets(st.integers(0, n - 1), max_size=2), label="unset")
        values = {i: v for i, v in total.items() if i not in unset}
        proj = data.draw(st.lists(st.integers(0, n - 1)), label="proj")
        literal = st.builds(L, st.integers(0, n - 1), st.booleans())
        blocking = data.draw(
            st.lists(st.lists(literal, min_size=1, max_size=4), max_size=4),
            label="blocking",
        )
        eta = Assignment.of([L(i, v) for i, v in values.items()], range(n))
        got = minimize_assignment(eta, proj, phi, table, blocking)
        want = reference_minimize(values, sorted(set(proj)), phi, table, blocking)
        assert got.as_map() == want

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


_CONNECTIVES = {
    "not": TermKind.NOT,
    "and": TermKind.AND,
    "or": TermKind.OR,
    "implies": TermKind.IMPLIES,
    "iff": TermKind.IFF,
    "ite": TermKind.ITE,
}

_FORMULAS = st.recursive(
    st.one_of(
        st.tuples(st.just("atom"), st.integers(0, 5)),
        st.tuples(st.just("const"), st.booleans()),
    ),
    lambda sub: st.one_of(
        st.tuples(st.just("not"), sub),
        st.tuples(st.sampled_from(["and", "or"]), st.lists(sub, min_size=1, max_size=4)),
        st.tuples(st.sampled_from(["implies", "iff"]), sub, sub),
        st.tuples(st.just("ite"), sub, sub, sub),
    ),
    max_leaves=14,
)


def _build(spec, bank, leaf):
    """A term for a drawn formula spec.  Nodes are interned directly, past
    the bank's constant folding, so constants reach the evaluators."""
    tag = spec[0]
    if tag == "atom":
        return leaf(spec[1])
    if tag == "const":
        return bank.const(spec[1])
    children = spec[1] if tag in ("and", "or") else spec[1:]
    args = tuple(_build(c, bank, leaf) for c in children)
    return bank.intern(_CONNECTIVES[tag], args, None)
