import pytest

from helpers import L, random_problem
from tlemma import strategies
from tlemma.generator import product_instance
from tlemma.oracle import BuiltinOracle, TLemma
from tlemma.problem import Problem
from tlemma.strategies import (
    BudgetExceeded,
    LemmaProvenance,
    RunCounters,
    StrategySpec,
    dedup_lemmas,
    enumerate_baseline,
    enumerate_dnc,
    run_strategy,
    with_partitioning,
    with_projection,
)
from tlemma.verifier import classify, rules_out


@pytest.fixture
def two_vals():
    return Problem.from_text("(declare-const x Real)(assert (or (= x 0) (= x 1)))")


def oracle_for(p):
    return BuiltinOracle(p.table)


class TestSpec:
    def test_names_round_trip(self):
        for name in (
            "baseline",
            "dnc",
            "baseline-proj",
            "dnc-proj",
            "baseline-proj-part",
            "dnc-proj-part",
        ):
            assert StrategySpec.from_name(name).name == name

    def test_unknown_names_rejected(self):
        for bad in ("basel", "dnc-part-proj", "dnc-", "proj"):
            with pytest.raises(ValueError):
                StrategySpec.from_name(bad)

    def test_partitioning_implies_projection(self):
        spec = StrategySpec(base="dnc", partitioning=True)
        assert spec.projection

    def test_workers_validated(self):
        with pytest.raises(ValueError):
            StrategySpec(workers=0)


class TestBaseline:
    def test_worked_example(self, two_vals):
        ls = enumerate_baseline(
            two_vals.abstract, two_vals.table, oracle_for(two_vals), cnf=two_vals.cnf
        )
        assert [l.literals for l in ls.lemmas] == [(L(0, False), L(1, False))]

    def test_theory_equivalent_formula_has_empty_inconsistent_set(self):
        # second worked formula: same consistent assignments, nothing to rule out
        p = Problem.from_text(
            "(declare-const x Real)(assert (= (not (<= x 0)) (= x 1)))"
        )
        oracle = oracle_for(p)
        ls = enumerate_baseline(p.abstract, p.table, oracle, cnf=p.cnf)
        cls = classify(p.term, p.table, oracle)
        assert cls.itta == []
        assert rules_out(ls, cls.itta)

    def test_purely_boolean_formula_yields_nothing(self):
        p = Problem.from_text(
            "(declare-const a Bool)(declare-const b Bool)(assert (or a b))"
        )
        counters = RunCounters()
        ls = enumerate_baseline(
            p.abstract, p.table, oracle_for(p), cnf=p.cnf, counters=counters
        )
        assert len(ls) == 0

    def test_budget_exceeded_carries_partial(self):
        p = random_problem(depth=5, seed=77, max_atoms=12)
        with pytest.raises(BudgetExceeded) as err:
            enumerate_baseline(
                p.abstract,
                p.table,
                oracle_for(p),
                cnf=p.cnf,
                deadline=0.0,
            )
        assert err.value.partial is not None


class TestDnc:
    def test_worked_example_single_lemma(self, two_vals):
        ls = enumerate_dnc(
            two_vals.abstract, two_vals.table, oracle_for(two_vals), cnf=two_vals.cnf
        )
        assert [l.literals for l in ls.lemmas] == [(L(0, False), L(1, False))]

    def test_rules_out_same_set_as_baseline(self):
        for seed in range(25):
            p = random_problem(depth=4, seed=7000 + seed)
            oracle = oracle_for(p)
            cls = classify(p.term, p.table, oracle)
            base = enumerate_baseline(p.abstract, p.table, oracle, cnf=p.cnf)
            dnc = enumerate_dnc(p.abstract, p.table, oracle, cnf=p.cnf)
            assert rules_out(base, cls.itta)
            assert rules_out(dnc, cls.itta)

    def test_propositionally_unsat_formula(self):
        p = Problem.from_text("(declare-const a Bool)(assert (and a (not a)))")
        ls = enumerate_dnc(p.abstract, p.table, oracle_for(p), cnf=p.cnf)
        assert len(ls) == 0

    def test_no_emitted_lemma_duplicates_a_seed(self, two_vals):
        oracle = oracle_for(two_vals)
        first = enumerate_baseline(
            two_vals.abstract, two_vals.table, oracle, cnf=two_vals.cnf
        )
        again = enumerate_dnc(
            two_vals.abstract,
            two_vals.table,
            oracle,
            seed_lemmas=tuple(first.lemmas),
            cnf=two_vals.cnf,
        )
        assert not (again.keys() & first.keys())

    def test_worker_counts_agree(self):
        p = random_problem(depth=5, seed=42, max_atoms=12)
        results = {}
        for workers in (1, 2, 4):
            res = run_strategy(p, StrategySpec.from_name("dnc", workers=workers))
            results[workers] = res.lemma_set.keys()
        oracle = oracle_for(p)
        cls = classify(p.term, p.table, oracle)
        for workers, keys in results.items():
            assert rules_out([TLemma(tuple(sorted(k))) for k in keys], cls.itta)

    def test_phase2_provenance_records_cubes_and_workers(self):
        p = random_problem(depth=4, seed=88)
        res = run_strategy(p, StrategySpec.from_name("dnc", workers=2))
        stages = {prov.stage.split(":")[0] for prov in res.lemma_set.provenance}
        assert stages <= {"dnc-phase1", "dnc-phase2"}


class TestProjection:
    def test_pure_theory_behaves_like_inner(self, two_vals):
        oracle = oracle_for(two_vals)
        plain = enumerate_baseline(
            two_vals.abstract, two_vals.table, oracle, cnf=two_vals.cnf
        )
        projected = with_projection(
            two_vals.abstract,
            two_vals.table,
            oracle,
            enumerate_baseline,
            cnf=two_vals.cnf,
        )
        assert plain.keys() == projected.keys()

    def test_boolean_atoms_not_enumerated_separately(self):
        p = Problem.from_text(
            "(declare-const b1 Bool)(declare-const x Real)"
            "(assert (or b1 (and (= x 0) (= x 1))))"
        )
        oracle = oracle_for(p)
        c_plain, c_proj = RunCounters(), RunCounters()
        plain = enumerate_baseline(
            p.abstract, p.table, oracle, cnf=p.cnf, counters=c_plain
        )
        projected = with_projection(
            p.abstract, p.table, oracle, enumerate_baseline, cnf=p.cnf, counters=c_proj
        )
        assert projected.keys() == plain.keys()
        assert c_proj.n_candidates <= c_plain.n_candidates
        cls = classify(p.term, p.table, oracle)
        assert rules_out(projected, cls.itta)

    def test_purely_boolean_zero_checks(self):
        p = Problem.from_text("(declare-const a Bool)(assert a)")
        counters = RunCounters()
        ls = with_projection(
            p.abstract, p.table, oracle_for(p), enumerate_baseline,
            cnf=p.cnf, counters=counters,
        )
        assert len(ls) == 0
        assert counters.n_theory_checks == 0


class TestPartitioning:
    def test_two_component_product(self):
        p = Problem.from_text(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (or (= x 0) (= x 1)) (or (= y 0) (= y 1))))"
        )
        oracle = oracle_for(p)
        counters = RunCounters()
        ls = with_partitioning(
            p.abstract, p.table, oracle, enumerate_baseline,
            cnf=p.cnf, counters=counters,
        )
        assert counters.n_partitions == 2
        assert {l.literals for l in ls.lemmas} == {
            (L(0, False), L(1, False)),
            (L(2, False), L(3, False)),
        }
        cls = classify(p.term, p.table, oracle)
        assert rules_out(ls, cls.itta)

    def test_single_component_equals_projection(self, two_vals):
        oracle = oracle_for(two_vals)
        part = with_partitioning(
            two_vals.abstract, two_vals.table, oracle, enumerate_baseline,
            cnf=two_vals.cnf,
        )
        proj = with_projection(
            two_vals.abstract, two_vals.table, oracle, enumerate_baseline,
            cnf=two_vals.cnf,
        )
        assert part.keys() == proj.keys()

    def test_later_components_seeded_with_earlier_lemmas(self):
        # Leaf checks see the whole theory assignment, so a component pass can
        # already mint the other component's lemma; later passes are seeded
        # with everything found so far and never re-derive it.
        p = Problem.from_text(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (or (= x 0) (= x 1)) (or (= y 0) (= y 1))))"
        )
        ls = with_partitioning(
            p.abstract, p.table, oracle_for(p), enumerate_baseline, cnf=p.cnf
        )
        assert len(ls) == 2
        stages = {prov.stage for prov in ls.provenance}
        assert stages <= {"part:component0", "part:component1"}
        assert len(ls.lemmas) == len(set(l.key for l in ls.lemmas))


class TestDedup:
    def test_same_literal_set_collapses(self):
        a = TLemma.of([L(0, False), L(1, False)])
        b = TLemma.of([L(1, False), L(0, False)])
        ls = dedup_lemmas([a, b])
        assert len(ls) == 1

    def test_subsumption_optional(self):
        short = TLemma.of([L(0, False), L(1, False)])
        longer = TLemma.of([L(0, False), L(1, False), L(2, False)])
        plain = dedup_lemmas([short, longer])
        assert len(plain) == 2
        subsumed = dedup_lemmas([short, longer], subsume=True)
        assert subsumed.lemmas == [short]

    def test_provenance_first_occurrence_wins(self):
        a = TLemma.of([L(0, False)])
        provs = [LemmaProvenance("x", 0, 0), LemmaProvenance("y", 1, 1)]
        ls = dedup_lemmas([a, a], provs)
        assert ls.provenance == [LemmaProvenance("x", 0, 0)]

    def test_dedup_preserves_rules_out(self):
        p = random_problem(depth=4, seed=55)
        oracle = oracle_for(p)
        raw = enumerate_dnc(p.abstract, p.table, oracle, cnf=p.cnf)
        cls = classify(p.term, p.table, oracle)
        deduped = dedup_lemmas(list(raw.lemmas) * 3, subsume=True)
        assert rules_out(deduped, cls.itta) == rules_out(raw, cls.itta)


class TestRunStrategy:
    def test_all_strategies_on_example(self, two_vals):
        for name in (
            "baseline",
            "dnc",
            "baseline-proj",
            "dnc-proj",
            "baseline-proj-part",
            "dnc-proj-part",
        ):
            res = run_strategy(two_vals, StrategySpec.from_name(name))
            assert [l.literals for l in res.lemma_set.lemmas] == [
                (L(0, False), L(1, False))
            ], name
            assert not res.truncated

    def test_budget_truncation_flagged(self):
        p = random_problem(depth=5, seed=123, max_atoms=12)
        res = run_strategy(p, StrategySpec(budget_secs=0.0))
        assert res.truncated

    def test_budget_in_later_component_keeps_earlier_lemmas(self, monkeypatch):
        # The budget expires as the second component's pass starts; the run
        # must still return what the first component's pass found.
        p = Problem.from_text(product_instance(1, n_groups=3))
        spec = StrategySpec.from_name("baseline-proj-part")
        full = run_strategy(p, spec)
        first = {
            lemma.key
            for lemma, prov in zip(full.lemma_set.lemmas, full.lemma_set.provenance)
            if prov.stage == "baseline:component0"
        }
        assert first
        real = strategies.enumerate_baseline
        stages = []

        def expire_after_first(*args, **kw):
            stages.append(kw["stage"])
            if len(stages) > 1:
                kw["deadline"] = 0.0
            return real(*args, **kw)

        monkeypatch.setattr(strategies, "enumerate_baseline", expire_after_first)
        res = run_strategy(p, spec)
        assert res.truncated
        assert stages == ["baseline:component0", "baseline:component1"]
        assert first <= res.lemma_set.keys()
