from helpers import all_assignments, direct_eval, random_problem
from tlemma.atoms import boolean_abstraction
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

    def test_abstraction_agrees_with_formula_on_total_assignments(self):
        for seed in range(30):
            p = random_problem(depth=4, seed=100 + seed)
            n = len(p.table)
            if n > 8:
                continue
            for values in all_assignments(n):
                assert direct_eval(p.abstract, values) == direct_eval(p.term, values, p.table)
