from helpers import all_assignments, direct_eval, random_problem, truth_models
from tlemma.atoms import Literal, boolean_abstraction, eval3, refine
from tlemma.parser import parse_smtlib
from tlemma.terms import TermKind


class TestAbstraction:
    def test_atoms_replaced_by_indices(self):
        term, table = parse_smtlib(
            "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
            "(assert (or (<= (- x y) 3) (= x z)))"
        )
        abstract = boolean_abstraction(term, table)
        assert abstract.kind is TermKind.OR
        assert [a.kind for a in abstract.args] == [TermKind.ATOM_REF] * 2
        assert [a.payload for a in abstract.args] == [0, 1]

    def test_constants_fixed(self):
        term, table = parse_smtlib("(assert true)")
        assert boolean_abstraction(term, table) is term

    def test_round_trip_on_random_formulas(self):
        for seed in range(50):
            p = random_problem(depth=4, seed=seed)
            assert refine(boolean_abstraction(p.term, p.table), p.table) is p.term

    def test_refinement_inverse_on_parsed_example(self):
        term, table = parse_smtlib(
            "(declare-const p Bool)(declare-const x Real)"
            "(assert (and (= p (< x 2)) (or p (>= x 5))))"
        )
        abstract = boolean_abstraction(term, table)
        assert refine(abstract, table) is term


class TestEval3:
    def setup_method(self):
        self.term, self.table = parse_smtlib(
            "(declare-const x Real)(assert (or (= x 0) (= x 1)))"
        )

    def test_disjunction_true_from_one_disjunct(self):
        assert eval3(self.term, {1: True}, self.table) is True

    def test_undetermined_conjunct(self):
        term, table = parse_smtlib(
            "(declare-const x Real)(assert (and (= x 0) (= x 1)))"
        )
        assert eval3(term, {0: True}, table) is None

    def test_direct_falsification(self):
        term, table = parse_smtlib("(declare-const x Real)(assert (not (= x 0)))")
        assert eval3(term, {0: True}, table) is False

    def test_empty_assignment_unknown(self):
        assert eval3(self.term, {}, self.table) is None

    def test_exact_on_total_assignments(self):
        for seed in range(30):
            p = random_problem(depth=4, seed=100 + seed)
            n = len(p.table)
            if n > 8:
                continue
            for values in all_assignments(n):
                expected = direct_eval(p.term, values, p.table)
                assert eval3(p.term, values, p.table) is expected
                assert eval3(p.abstract, values) is expected

    def test_true_implies_every_extension_satisfies(self):
        # Kleene-true on a partial assignment is sound for entailment
        for seed in range(20):
            p = random_problem(depth=3, seed=300 + seed)
            n = len(p.table)
            if n > 6:
                continue
            models = truth_models(p.term, p.table)
            for partial_n in range(n):
                for values in all_assignments(partial_n):
                    v = eval3(p.term, values, p.table)
                    if v is not True:
                        continue
                    extensions = {
                        frozenset(Literal(i, b) for i, b in {**full, **values}.items())
                        for full in all_assignments(n)
                    }
                    assert extensions <= models
