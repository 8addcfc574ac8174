import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import L, direct_eval, random_problem, truth_models
from tlemma.enumeration import Assignment
from tlemma.generator import random_instance
from tlemma.oracle import BuiltinOracle, TLemma
from tlemma.problem import Problem
from tlemma.strategies import StrategySpec
from tlemma.verifier import (
    CapExceeded,
    check_strategy,
    classify,
    rules_out,
    truth_table_bits,
)


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
            verdict = check_strategy(
                phi1.term, phi1.table, oracle, StrategySpec.from_name(name)
            )
            assert verdict.all_ok, (name, verdict)

    def test_product_formula_under_partitioning(self):
        p = Problem.from_text(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (or (= x 0) (= x 1)) (or (= y 0) (= y 1))))"
        )
        oracle = BuiltinOracle(p.table)
        verdict = check_strategy(
            p.term, p.table, oracle, StrategySpec.from_name("baseline-proj-part")
        )
        assert verdict.all_ok
        assert verdict.counters.n_partitions == 2

    def test_random_corpus_all_strategies(self):
        for seed in range(15):
            p = random_problem(depth=4, seed=9000 + seed)
            oracle = BuiltinOracle(p.table)
            for name in ("baseline", "dnc", "dnc-proj", "dnc-proj-part"):
                verdict = check_strategy(
                    p.term, p.table, oracle, StrategySpec.from_name(name)
                )
                assert verdict.all_ok, (seed, name)

    def test_failures_are_data_not_exceptions(self, worked_pair):
        phi1, _ = worked_pair
        oracle = BuiltinOracle(phi1.table)
        from tlemma.verifier import check_lemma_set

        ok_rules, ok_valid, ok_atoms, ok_equiv, _ = check_lemma_set(
            phi1.term, phi1.table, oracle, []
        )
        assert not ok_rules  # nothing rules out the inconsistent assignment
        assert ok_valid and ok_atoms
        assert not ok_equiv
