import itertools

from helpers import n_labels, random_problem, truth_models
from tlemma.atoms import Literal
from tlemma.problem import Problem


def brute_force_projected_models(cnf):
    """All clause-database models, projected onto the atom indices."""
    out = set()
    n = cnf.n_vars
    alpha = list(cnf.alpha_indices)
    for bits in itertools.product([False, True], repeat=n):
        ok = True
        for clause in cnf.clauses:
            if not any(bits[l.atom_index] == l.polarity for l in clause):
                ok = False
                break
        if ok:
            out.add(frozenset(Literal(i, bits[i]) for i in alpha))
    return out


class TestToCnf:
    def test_already_clausal_passthrough(self):
        p = Problem.from_text("(declare-const x Real)(assert (or (= x 0) (= x 1)))")
        assert p.cnf.n_vars == 2
        assert p.cnf.clauses == [(Literal(0, True), Literal(1, True))]

    def test_biconditional_without_labels(self):
        p = Problem.from_text(
            "(declare-const x Real)(assert (= (not (<= x 0)) (= x 1)))"
        )
        assert p.cnf.n_vars == 2  # no labels needed
        assert sorted(p.cnf.clauses) == sorted(
            [
                (Literal(0, True), Literal(1, True)),
                (Literal(0, False), Literal(1, False)),
            ]
        )
        models = brute_force_projected_models(p.cnf)
        assert models == {
            frozenset({Literal(0, True), Literal(1, False)}),
            frozenset({Literal(0, False), Literal(1, True)}),
        }

    def test_projected_models_match_truth_table(self):
        checked = 0
        for seed in range(200):
            if checked >= 50:
                break
            p = random_problem(depth=4, seed=1000 + seed, n_bool=3, n_real=3, max_atoms=6)
            if p.cnf.n_vars > 14:
                continue
            checked += 1
            assert brute_force_projected_models(p.cnf) == truth_models(p.term, p.table)
        assert checked == 50

    def test_unsatisfiable_formula_yields_empty_clause(self):
        p = Problem.from_text("(assert false)")
        assert () in p.cnf.clauses

    def test_true_formula_has_no_clauses(self):
        p = Problem.from_text("(assert true)")
        assert p.cnf.clauses == []
        assert p.cnf.n_vars == 0

    def test_labels_marked_by_position(self):
        p = Problem.from_text(
            "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)"
            "(assert (or (and a b) (and b c)))"
        )
        assert n_labels(p.cnf) > 0
        assert set(p.cnf.alpha_indices) == {0, 1, 2}
        from tlemma.atoms import AtomKind

        assert p.table.kind_of(p.cnf.n_vars - 1) is AtomKind.LABEL
