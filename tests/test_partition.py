import random

from helpers import atoms_problem, random_theory_literals
from tlemma.generator import planning_style_instance
from tlemma.oracle import BuiltinOracle
from tlemma.partition import UnionFind, partition_atoms
from tlemma.problem import Problem


class TestUnionFind:
    def test_basic_merging(self):
        uf = UnionFind(5)
        uf.union(0, 1)
        uf.union(3, 4)
        assert uf.find(0) == uf.find(1)
        assert uf.find(3) == uf.find(4)
        assert uf.find(0) != uf.find(3)
        uf.union(1, 3)
        assert uf.find(0) == uf.find(4)


class TestPartition:
    def test_shared_variable_groups(self):
        p = atoms_problem("(<= x 0)", "(= x 1)", "(<= (- 0 y) (- 2))")
        part = partition_atoms(p.table)
        assert [set(c) for c in part.components] == [{0, 1}, {2}]
        assert part.boolean_component is None

    def test_transitive_chain(self):
        p = atoms_problem("(<= x 0)", "(= (+ x y) 1)", "(<= (- 0 y) (- 2))")
        part = partition_atoms(p.table)
        assert [set(c) for c in part.components] == [{0, 1, 2}]

    def test_boolean_atoms_form_one_component(self):
        p = atoms_problem("(<= x 0)", "(<= y 0)", bools=["p", "q"])
        part = partition_atoms(p.table)
        # atom order: p, q, (x<=0), (y<=0)
        assert part.boolean_component == 0
        assert set(part.components[part.boolean_component]) == {0, 1}
        assert [set(c) for c in part.theory_components()] == [{2}, {3}]

    def test_planning_style_has_five_theory_components(self):
        p = Problem.from_text(planning_style_instance(0))
        part = partition_atoms(p.table)
        assert len(part.theory_components()) == 5
        assert part.boolean_component is not None

    def test_empty_table(self):
        p = Problem.from_text("(assert true)")
        part = partition_atoms(p.table)
        assert part.components == ()
        assert part.boolean_component is None

    def test_symbol_disjointness_invariant(self):
        for seed in range(20):
            from helpers import random_problem

            p = random_problem(depth=4, seed=6000 + seed)
            part = partition_atoms(p.table)
            comps = part.theory_components()
            symbol_sets = [
                {s for i in comp for s in p.table.symbols_of(i)} for comp in comps
            ]
            for i, a in enumerate(symbol_sets):
                for b in symbol_sets[i + 1 :]:
                    assert not (a & b)

    def test_stability_under_atom_reordering(self):
        base = atoms_problem("(<= x 0)", "(= x 1)", "(<= y 2)", "(= y 3)")
        flipped = atoms_problem("(<= y 2)", "(= y 3)", "(<= x 0)", "(= x 1)")
        part_a = partition_atoms(base.table)
        part_b = partition_atoms(flipped.table)

        def shape(p, table):
            return sorted(
                sorted(str(table.atoms[i]) for i in comp) for comp in p.components
            )

        assert shape(part_a, base.table) == shape(part_b, flipped.table)

    def test_consistency_splits_along_components(self):
        # a conjunction is satisfiable iff each component part is
        p = atoms_problem(
            "(<= x 0)", "(= x 1)", "(< x 3)", "(<= y 2)", "(= y 3)", "(< (- 0 y) 0)"
        )
        oracle = BuiltinOracle(p.table)
        part = partition_atoms(p.table)
        comps = part.theory_components()
        rng = random.Random(3)
        for _ in range(80):
            lits = random_theory_literals(rng, p.table, max_len=6)
            whole = oracle.check(lits).satisfiable
            split = all(
                oracle.check([l for l in lits if l.atom_index in comp]).satisfiable
                for comp in comps
            )
            assert whole == split
