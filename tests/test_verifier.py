import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import L, brute_force_check, direct_eval, random_problem, truth_models
from tlemma.enumeration import Assignment
from tlemma.generator import clausal_instance, random_instance
from tlemma.oracle import BuiltinOracle, OracleError, TLemma
from tlemma.problem import Problem
from tlemma.strategies import STRATEGY_NAMES, StrategySpec, run_strategy
from tlemma.verifier import (
    CapExceeded,
    check_lemma_set,
    classify,
    rules_out,
    truth_table_bits,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_and_check(problem, name, oracle):
    """One strategy run, then the four assertions on its lemma set, both on
    ``oracle``: ``(result, verdicts)``."""
    result = run_strategy(problem, StrategySpec.from_name(name), oracle=oracle)
    verdicts = check_lemma_set(problem.term, problem.table, oracle, result.lemma_set)
    return result, verdicts[:4]


@pytest.fixture
def worked_pair():
    # same theory-consistent assignments, different inconsistent sets
    phi1 = Problem.from_text(
        "(declare-const x Real)(assert (or (<= x 0) (= x 1)))"
    )
    phi2 = Problem.from_text(
        "(declare-const x Real)(assert (= (not (<= x 0)) (= x 1)))"
    )
    return phi1, phi2


class TestTruthTable:
    def test_matches_direct_evaluation(self):
        for seed in range(25):
            p = random_problem(depth=4, seed=8000 + seed)
            n = len(p.table)
            tt = truth_table_bits(p.abstract, n)
            models = truth_models(p.term, p.table)
            for i in range(1 << n):
                values = frozenset(L(j, bool((i >> j) & 1)) for j in range(n))
                assert bool((tt >> i) & 1) == (values in models)


class TestClassify:
    def test_worked_pair_classification(self, worked_pair):
        phi1, phi2 = worked_pair
        oracle1 = BuiltinOracle(phi1.table)
        cls1 = classify(phi1.term, phi1.table, oracle1)
        expected_ctta = {
            frozenset({L(0, True), L(1, False)}),
            frozenset({L(0, False), L(1, True)}),
        }
        assert {frozenset(a.literals) for a in cls1.ctta} == expected_ctta
        assert [frozenset(a.literals) for a in cls1.itta] == [
            frozenset({L(0, True), L(1, True)})
        ]

        oracle2 = BuiltinOracle(phi2.table)
        cls2 = classify(phi2.term, phi2.table, oracle2)
        assert {frozenset(a.literals) for a in cls2.ctta} == expected_ctta
        assert cls2.itta == []

    def test_false_formula(self):
        p = Problem.from_text("(assert false)")
        cls = classify(p.term, p.table, BuiltinOracle(p.table))
        assert cls.ctta == [] and cls.itta == []
        assert cls.n_total == 1  # the single empty assignment

    def test_partition_of_the_assignment_space(self):
        for seed in range(20):
            p = random_problem(depth=4, seed=8500 + seed)
            cls = classify(p.term, p.table, BuiltinOracle(p.table))
            assert cls.n_total == 1 << len(p.table)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        depth=st.integers(2, 5),
        n_bool=st.integers(0, 3),
        n_real=st.integers(1, 3),
        seed=st.integers(0, 10**6),
    )
    def test_matches_brute_force(self, depth, n_bool, n_real, seed):
        # One oracle query per total assignment, and two-valued evaluation
        # of the formula: neither classify's memo nor its truth table.
        p = Problem.from_text(random_instance(depth, n_bool, n_real, seed, max_atoms=9))
        table = p.table
        theory = table.theory_indices()
        oracle = BuiltinOracle(table)
        ctta, itta, neg_ctta, neg_itta = [], [], 0, 0
        n = len(table)
        for i in range(1 << n):  # classify's order: bit j of i is atom j
            values = {j: bool((i >> j) & 1) for j in range(n)}
            lits = frozenset(L(j, v) for j, v in values.items())
            sat = oracle.is_satisfiable(l for l in lits if l.atom_index in theory)
            if direct_eval(p.term, values, table):
                (ctta if sat else itta).append(lits)
            elif sat:
                neg_ctta += 1
            else:
                neg_itta += 1
        cls = classify(p.term, table, BuiltinOracle(table))
        assert [a.literals for a in cls.ctta] == ctta
        assert [a.literals for a in cls.itta] == itta
        assert (cls.neg_ctta, cls.neg_itta) == (neg_ctta, neg_itta)

    def test_cap_enforced(self):
        p = random_problem(depth=4, seed=1)
        with pytest.raises(CapExceeded):
            classify(p.term, p.table, BuiltinOracle(p.table), cap=1)


class TestRulesOut:
    def rho(self, *lits):
        idx = {l.atom_index for l in lits}
        return Assignment.of(lits, idx)

    def test_single_lemma_rules_out_conflict(self):
        lemmas = [TLemma.of([L(0, False), L(1, False)])]
        assert rules_out(lemmas, [self.rho(L(0), L(1))])

    def test_vacuous(self):
        assert rules_out([], [])

    def test_empty_lemma_set_fails_on_nonempty_target(self):
        assert not rules_out([], [self.rho(L(0))])

    def test_monotone_in_lemma_set(self):
        rhos = [self.rho(L(0), L(1)), self.rho(L(0), L(1, False))]
        small = [TLemma.of([L(0, False), L(1, False)])]
        big = small + [TLemma.of([L(0, False), L(1, True)])]
        assert not rules_out(small, rhos)
        assert rules_out(big, rhos)
        # adding lemmas never flips true -> false
        assert rules_out(big, rhos[:1])

    def test_tautological_lemma_rules_nothing_out(self):
        taut = [TLemma.of([L(0, True), L(0, False)])]
        assert not rules_out(taut, [self.rho(L(0))])


class TestCheckStrategy:
    def test_all_strategies_pass_on_worked_formula(self, worked_pair):
        phi1, _ = worked_pair
        oracle = BuiltinOracle(phi1.table)
        for name in ("baseline", "dnc", "dnc-proj", "dnc-proj-part"):
            _, verdicts = run_and_check(phi1, name, oracle)
            assert all(verdicts), (name, verdicts)

    def test_product_formula_under_partitioning(self):
        p = Problem.from_text(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (or (= x 0) (= x 1)) (or (= y 0) (= y 1))))"
        )
        oracle = BuiltinOracle(p.table)
        result, verdicts = run_and_check(p, "baseline-proj-part", oracle)
        assert all(verdicts)
        assert result.counters.n_partitions == 2

    def test_random_corpus_all_strategies(self):
        for seed in range(15):
            p = random_problem(depth=4, seed=9000 + seed)
            oracle = BuiltinOracle(p.table)
            for name in ("baseline", "dnc", "dnc-proj", "dnc-proj-part"):
                _, verdicts = run_and_check(p, name, oracle)
                assert all(verdicts), (seed, name)

    def test_failures_are_data_not_exceptions(self, worked_pair):
        phi1, _ = worked_pair
        oracle = BuiltinOracle(phi1.table)
        ok_rules, ok_valid, ok_atoms, ok_equiv, _ = check_lemma_set(
            phi1.term, phi1.table, oracle, []
        )
        assert not ok_rules  # nothing rules out the inconsistent assignment
        assert ok_valid and ok_atoms
        assert not ok_equiv


def mutants(lemmas, table):
    """Lemma sets near ``lemmas``: the first or the last lemma dropped, an
    invalid one-literal lemma added, a Boolean literal added to a lemma, and
    a tautological lemma added."""
    theory, boolean = table.theory_indices(), table.boolean_indices()
    out = []
    if lemmas:
        out += [lemmas[1:], lemmas[:-1]]
        if boolean:
            widened = TLemma.of(lemmas[0].literals + (L(boolean[0]),))
            out.append([widened] + lemmas[1:])
    if theory:
        out.append(lemmas + [TLemma.of([L(theory[0])])])
        out.append(lemmas + [TLemma.of([L(theory[-1], False), L(theory[-1])])])
    return out


# Kept to 9 atoms, so that the brute-force walk stays cheap.
_INSTANCES = st.one_of(
    st.builds(
        random_instance,
        depth=st.integers(2, 5),
        n_bool=st.integers(0, 3),
        n_real=st.integers(1, 3),
        seed=st.integers(0, 10**6),
        max_atoms=st.just(9),
    ),
    st.builds(
        clausal_instance,
        seed=st.integers(0, 10**6),
        n_bool=st.integers(0, 3),
        n_real=st.integers(2, 3),
        n_theory=st.integers(3, 6),
        n_clauses=st.integers(3, 10),
    ),
)


class TestDifferential:
    """The mask verifier against ``helpers.brute_force_check``."""

    @seed(2026)
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(text=_INSTANCES)
    def test_verdicts_and_counts_match_brute_force(self, text):
        p = Problem.from_text(text)
        oracle, walked = BuiltinOracle(p.table), BuiltinOracle(p.table)
        cls = classify(p.term, p.table, oracle)
        ctta, itta, neg_ctta, neg_itta, _ = brute_force_check(p, walked)
        # The same queries as a walk over every total assignment.
        assert oracle.export_memo() == walked.export_memo()
        assert oracle.n_raw_checks == walked.n_raw_checks
        assert [a.literals for a in cls.ctta] == ctta
        assert [a.literals for a in cls.itta] == itta
        assert (cls.n_ctta, cls.n_itta) == (len(ctta), len(itta))
        assert (cls.neg_ctta, cls.neg_itta) == (neg_ctta, neg_itta)
        assert cls.n_total == 1 << len(p.table)

        lemma_sets = []
        for name in STRATEGY_NAMES:
            spec = StrategySpec.from_name(name)
            result = run_strategy(p, spec, oracle=BuiltinOracle(p.table))
            lemmas = list(result.lemma_set.lemmas)
            lemma_sets += [lemmas] + mutants(lemmas, p.table)
        *_, want = brute_force_check(p, BuiltinOracle(p.table), lemma_sets)
        got = []
        for lemmas in lemma_sets:
            oracle = BuiltinOracle(p.table)
            try:
                got.append(check_lemma_set(p.term, p.table, oracle, lemmas, cls)[:4])
            except OracleError:
                got.append(OracleError)
        assert got == want


def test_benchmark_gate_checks_lemma_sets(monkeypatch):
    """The benchmark's correctness gate passes each workload's first
    operation and fails it with a required lemma dropped."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, run)  # its dataclasses look it up
    spec.loader.exec_module(run)
    for name, build in run.workloads.WORKLOADS.items():
        op = build().ops[0]
        problem = Problem.from_text(op.text)
        spec = StrategySpec.from_name(op.strategy, workers=op.workers)
        lemmas = list(run_strategy(problem, spec).lemma_set.lemmas)
        assert run.check_lemmas(problem, lemmas), name
        # On each of these operations the first lemma alone rules out some
        # inconsistent model (the brute-force reference agrees).
        assert not run.check_lemmas(problem, lemmas[1:]), name
