import random
from fractions import Fraction

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import L, atoms_problem, random_theory_literals, simplex_satisfiable
from tlemma.atoms import Literal
from tlemma.oracle import (
    BuiltinOracle,
    OracleConfig,
    OracleError,
    OracleTimeoutError,
    TLemma,
    lemma_from_core,
    make_oracle,
)


@pytest.fixture
def xy():
    # atom order: (x <= 0), (x = 1), (y <= 5)
    p = atoms_problem("(<= x 0)", "(= x 1)", "(<= y 5)")
    return p, BuiltinOracle(p.table, OracleConfig(model_production=True))


class TestCheck:
    def test_contradictory_equalities(self):
        p = atoms_problem("(= x 0)", "(= x 1)")
        oracle = BuiltinOracle(p.table)
        v = oracle.check([L(0), L(1)])
        assert not v.satisfiable
        assert set(v.core) == {L(0), L(1)}

    def test_satisfiable_pair(self, xy):
        p, oracle = xy
        v = oracle.check([L(0), L(1, False)])
        assert v.satisfiable
        assert v.model["x"] <= 0 and v.model["x"] != 1

    def test_empty_conjunction_is_sat(self, xy):
        _, oracle = xy
        assert oracle.check([]).satisfiable

    def test_core_minimized_drops_irrelevant(self, xy):
        p, oracle = xy
        v = oracle.check([L(0), L(1), L(2)])
        assert not v.satisfiable
        assert set(v.core) == {L(0), L(1)}

    def test_non_theory_literal_rejected(self):
        p = atoms_problem("(<= x 0)", bools=["b"])
        oracle = BuiltinOracle(p.table)
        with pytest.raises(OracleError):
            oracle.check([L(0)])  # index 0 is the Boolean atom b

    def test_strict_inequality_chain(self):
        p = atoms_problem("(< x 1)", "(< (- 0 x) 0)", "(= (* 2 x) 1)")
        oracle = BuiltinOracle(p.table, OracleConfig(model_production=True))
        v = oracle.check([L(0), L(1), L(2)])  # 0 < x < 1 and x = 1/2
        assert v.satisfiable
        assert v.model["x"] == Fraction(1, 2)

    def test_negated_equality_case_split(self):
        p = atoms_problem("(= x 0)", "(<= x 0)", "(<= (- 0 x) 0)")
        oracle = BuiltinOracle(p.table)
        # x != 0 and 0 <= x <= 0 is unsat
        v = oracle.check([L(0, False), L(1), L(2)])
        assert not v.satisfiable

    def test_timeout_is_an_error_not_a_verdict(self):
        p = atoms_problem("(<= (+ x y) 0)", "(<= (- x y) 1)")
        oracle = BuiltinOracle(p.table, OracleConfig(timeout_secs=1e-12))
        with pytest.raises(OracleTimeoutError):
            oracle.check([L(0), L(1)])


class TestSoundness:
    def test_against_independent_simplex_and_models(self):
        p = atoms_problem(
            "(<= (+ x y) 2)",
            "(< (- x y) 0)",
            "(= x 1)",
            "(<= y 0)",
            "(< (+ (* 2 x) y) 3)",
            "(= (+ x (* 3 y)) 0)",
        )
        oracle = BuiltinOracle(p.table, OracleConfig(model_production=True))
        rng = random.Random(5)
        n_sat = n_unsat = 0
        for _ in range(120):
            lits = random_theory_literals(rng, p.table)
            v = oracle.check(lits)
            assert v.satisfiable == simplex_satisfiable(lits, p.table)
            if v.satisfiable:
                n_sat += 1
                for lit in lits:
                    atom = p.table.linear_atom(lit.atom_index)
                    assert atom.evaluate(v.model) == lit.polarity
            else:
                n_unsat += 1
                assert not simplex_satisfiable(v.core, p.table)
        assert n_sat and n_unsat


def _const(num: int, den: int = 1) -> str:
    text = f"(/ {abs(num)} {den})" if den > 1 else str(abs(num))
    return f"(- {text})" if num < 0 else text


@st.composite
def _atom_text(draw, symbols: str = "xyz") -> str:
    """A linear atom over up to three of ``symbols`` with a rational constant."""
    names = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=3, unique=True))
    terms = []
    for name in names:
        c = draw(st.integers(-3, 3).filter(bool))
        terms.append(name if c == 1 else f"(* {_const(c)} {name})")
    lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
    rel = draw(st.sampled_from(("<=", "<", ">=", ">", "=")))
    return f"({rel} {lhs} {_const(draw(st.integers(-6, 6)), draw(st.integers(1, 4)))})"


class TestDifferentialRational:
    """Random conjunctions against the simplex reference: rational bounds,
    equalities with non-unit coefficients, disequalities (negated
    equalities), strict and non-strict inequalities."""

    @seed(2602)
    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(
        atoms=st.lists(_atom_text(), min_size=1, max_size=6),
        polarities=st.lists(st.booleans(), min_size=6, max_size=6),
    )
    @example(
        atoms=["(<= x (/ 1 2))", "(= (+ (* 2 x) (* 3 y)) (/ 5 3))", "(> y (- (/ 1 3)))"],
        polarities=[True, True, True, True, True, True],
    )
    @example(
        atoms=["(= (+ (* 2 x) (* (- 3) z)) (/ 1 4))", "(< (+ x z) (/ 7 2))",
               "(>= (* 3 z) (- (/ 2 3)))", "(= (+ x (* 2 y)) 1)"],
        polarities=[True, False, True, False, True, True],
    )
    @example(
        # The second equality turns into -y + 2z = -1 once x is substituted.
        atoms=["(= (+ x y) 1)", "(= (+ x (* 2 z)) 0)", "(>= y 2)", "(<= z 0)"],
        polarities=[True, True, True, True, True, True],
    )
    def test_verdicts_models_and_cores(self, atoms, polarities):
        p = atoms_problem(*atoms)
        lits = [Literal(i, pol) for i, pol in zip(p.table.theory_indices(), polarities)]
        oracle = BuiltinOracle(p.table, OracleConfig(model_production=True))
        v = oracle.check(lits)
        assert v.satisfiable == simplex_satisfiable(lits, p.table)
        if v.satisfiable:
            for lit in lits:
                assert p.table.linear_atom(lit.atom_index).evaluate(v.model) == lit.polarity
        else:
            assert not simplex_satisfiable(v.core, p.table)


def _plain_deletion(lits, table):
    """Reference core: deletion in ascending order, one simplex check per
    literal."""
    current = sorted(set(lits))
    for lit in list(current):
        trial = [l for l in current if l != lit]
        if not simplex_satisfiable(trial, table):
            current = trial
    return tuple(current)


def _record_raw_checks(oracle):
    """Wrap the oracle's ``_raw_check``; returns the list of (query, result)."""
    seen = []
    raw = oracle._raw_check

    def spy(lits):
        out = raw(lits)
        seen.append((lits, out))
        return out

    oracle._raw_check = spy
    return seen


_DERANDOMIZED = dict(derandomize=True, database=None, deadline=None)


class TestExplainedConflicts:
    """Origin-mask witnesses, witness-driven deletion and per-component
    queries, against the simplex reference."""

    @seed(3301)
    @settings(max_examples=150, **_DERANDOMIZED)
    @given(
        atoms=st.lists(_atom_text("xy"), min_size=2, max_size=7),
        polarities=st.lists(st.booleans(), min_size=7, max_size=7),
    )
    @example(
        # Two disequalities, each of whose splits needs both branches.
        atoms=["(= x 0)", "(= y 0)", "(<= x 0)", "(>= x 0)", "(<= y 0)", "(>= y 0)"],
        polarities=[False, False, True, True, True, True, True],
    )
    @example(
        # After x is substituted, the disequality reads 0 != 0.
        atoms=["(= (+ x y) 1)", "(= x 1)", "(= y 0)"],
        polarities=[True, True, False, True, True, True, True],
    )
    @example(
        # After x is substituted, the second equality reads 0 = 1.
        atoms=["(<= y 0)", "(= x 1)", "(= (* 3 x) 4)"],
        polarities=[True, True, True, True, True, True, True],
    )
    def test_core_is_plain_deletion_and_witnesses_are_unsat(self, atoms, polarities):
        p = atoms_problem(*atoms)
        lits = [Literal(i, pol) for i, pol in zip(p.table.theory_indices(), polarities)]
        oracle = BuiltinOracle(p.table)
        seen = _record_raw_checks(oracle)
        v = oracle.check(lits)
        assert v.satisfiable == simplex_satisfiable(lits, p.table)
        if v.satisfiable:
            return
        assert v.core == _plain_deletion(lits, p.table)
        for query, (sat, witness) in seen:
            if not sat:
                assert set(witness) <= query
                assert not simplex_satisfiable(sorted(witness), p.table)

    @seed(3302)
    @settings(max_examples=100, **_DERANDOMIZED)
    @given(
        left=st.lists(_atom_text("xy"), min_size=1, max_size=4),
        right=st.lists(_atom_text("uv"), min_size=1, max_size=4),
        polarities=st.lists(st.booleans(), min_size=8, max_size=8),
    )
    def test_split_query_matches_unsplit(self, left, right, polarities):
        p = atoms_problem(*left, *right)
        lits = [Literal(i, pol) for i, pol in zip(p.table.theory_indices(), polarities)]
        config = OracleConfig(model_production=True)
        split = BuiltinOracle(p.table, config)
        whole = BuiltinOracle(p.table, config)
        whole._parts = lambda query: (query,)
        v, w = split.check(lits), whole.check(lits)
        assert v.satisfiable == w.satisfiable == simplex_satisfiable(lits, p.table)
        assert v.core == w.core
        if v.satisfiable:
            for lit in lits:
                assert p.table.linear_atom(lit.atom_index).evaluate(v.model) == lit.polarity

    def test_memo_holds_parts_and_round_trips(self):
        p = atoms_problem("(<= x 0)", "(>= x 1)", "(<= y 0)", "(>= y 1)", "(= z 2)")
        queries = [
            [L(0), L(1, False), L(2), L(3, False), L(4)],
            [L(0, False), L(1, False), L(2), L(3, False), L(4)],
            [L(0), L(1, False), L(2, False), L(3), L(4, False)],
            [L(0), L(1), L(2), L(3), L(4)],
        ]
        first = BuiltinOracle(p.table, OracleConfig(model_production=True))
        verdicts = [first.check(q) for q in queries]
        memo = first.export_memo()
        # Entries are per part: each key lies inside one component.
        components = [{0, 1}, {2, 3}, {4}]
        for key in memo:
            assert any({l.atom_index for l in key} <= c for c in components)
        second = BuiltinOracle(p.table, OracleConfig(model_production=True))
        second.import_memo(memo)
        assert [second.check(q) for q in queries] == verdicts
        assert second.n_raw_checks == 0


class TestMinimizeCore:
    def test_already_minimal(self):
        p = atoms_problem("(= x 0)", "(= x 1)")
        oracle = BuiltinOracle(p.table)
        assert set(oracle.minimize_core([L(0), L(1)])) == {L(0), L(1)}

    def test_drops_redundant_member(self, xy):
        p, oracle = xy
        assert set(oracle.minimize_core([L(0), L(1), L(2)])) == {L(0), L(1)}

    def test_precondition_violation_is_an_error(self, xy):
        _, oracle = xy
        with pytest.raises(OracleError):
            oracle.minimize_core([L(2)])

    def test_minimality_on_random_unsat_conjunctions(self):
        p = atoms_problem(
            "(<= x 0)",
            "(= x 1)",
            "(< x (- 2))",
            "(<= (- 0 x) (- 1))",
            "(= (+ x y) 0)",
            "(<= y (- 3))",
            "(< (- 0 y) 2)",
            "(= y 4)",
        )
        oracle = BuiltinOracle(p.table)
        rng = random.Random(11)
        found = 0
        attempts = 0
        while found < 200 and attempts < 3000:
            attempts += 1
            lits = random_theory_literals(rng, p.table, max_len=8)
            if oracle.check(lits).satisfiable:
                continue
            found += 1
            core = oracle.minimize_core(lits)
            # subset-enumeration oracle: no proper subset may stay unsat
            for k in range(len(core)):
                subset = core[:k] + core[k + 1 :]
                assert oracle.is_satisfiable(subset)
        assert found == 200


class TestLemmas:
    def test_lemma_negates_core(self):
        core = (L(0), L(1))
        lemma = lemma_from_core(core)
        assert lemma.literals == (L(0, False), L(1, False))

    def test_lemma_sorted_by_atom_index(self):
        lemma = lemma_from_core((L(5), L(2, False)))
        assert lemma.literals == (L(2, True), L(5, False))

    def test_valid_lemma(self):
        p = atoms_problem("(= x 0)", "(= x 1)")
        oracle = BuiltinOracle(p.table)
        assert oracle.is_valid_lemma(TLemma.of([L(0, False), L(1, False)]))

    def test_propositional_tautology_is_valid(self):
        p = atoms_problem("(<= x 0)", "(= x 1)")
        oracle = BuiltinOracle(p.table)
        assert oracle.is_valid_lemma(TLemma.of([L(0, True), L(0, False)]))

    def test_invalid_clause_detected(self):
        p = atoms_problem("(= x 0)", "(= x 1)")
        oracle = BuiltinOracle(p.table)
        # (x=0) or (x=1) is falsified by x=2
        assert not oracle.is_valid_lemma(TLemma.of([L(0), L(1)]))


class TestConfig:
    def test_unminimized_core_is_full_set(self, xy):
        p, _ = xy
        oracle = BuiltinOracle(p.table, OracleConfig(minimize_cores=False))
        v = oracle.check([L(0), L(1), L(2)])
        assert set(v.core) == {L(0), L(1), L(2)}

    def test_make_oracle_builtin(self):
        p = atoms_problem("(= x 0)")
        assert isinstance(make_oracle(p.table), BuiltinOracle)

    def test_unknown_backend(self):
        p = atoms_problem("(= x 0)")
        with pytest.raises(ValueError):
            make_oracle(p.table, OracleConfig(backend="magic"))
