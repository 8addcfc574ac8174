import random

import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    SUBSET_CORE_CMD,
    L,
    ReferenceFrontEnd,
    atoms_problem,
    random_theory_literals,
    reference_fm_solve,
    simplex_satisfiable,
)
from tlemma import oracle as oracle_module
from tlemma.atoms import UNASSIGNED, Literal
from tlemma.external import ExternalOracle
from tlemma.generator import clausal_instance
from tlemma.lemma_io import render_lemma_script
from tlemma.oracle import (
    BuiltinOracle,
    OracleConfig,
    OracleError,
    OracleTimeoutError,
    TheoryVerdict,
    TLemma,
    _component,
    lemma_from_core,
    make_oracle,
)
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.strategies import StrategySpec, run_strategy


# Both backends, for tests of the front end they share.
BACKENDS = pytest.mark.parametrize(
    "config",
    [
        OracleConfig(),
        OracleConfig(command=SUBSET_CORE_CMD, timeout_secs=30),
    ],
    ids=["builtin", "external"],
)


@pytest.fixture
def xy():
    # atom order: (x <= 0), (x = 1), (y <= 5)
    p = atoms_problem("(<= x 0)", "(= x 1)", "(<= y 5)")
    return p, BuiltinOracle(p.table)


class TestCheck:
    def test_contradictory_equalities(self):
        p = atoms_problem("(= x 0)", "(= x 1)")
        oracle = BuiltinOracle(p.table)
        v = oracle.check([L(0), L(1)])
        assert not v.satisfiable
        assert set(v.core) == {L(0), L(1)}

    def test_satisfiable_pair(self, xy):
        p, oracle = xy
        lits = [L(0), L(1, False)]
        assert oracle.check(lits).satisfiable
        assert simplex_satisfiable(lits, p.table)

    def test_empty_conjunction_is_sat(self, xy):
        p, oracle = xy
        assert oracle.check([]).satisfiable
        # ... without a solve, a count or a memo entry.
        assert oracle.check(values=bytearray([UNASSIGNED] * len(p.table))).satisfiable
        assert oracle.is_satisfiable([])
        assert oracle.n_raw_checks == 0
        assert all(not memo for memo in oracle.export_memo())

    def test_query_is_literals_or_values_not_both(self, xy):
        p, oracle = xy
        values = bytearray([1] * len(p.table))
        with pytest.raises(TypeError):
            oracle.check()
        with pytest.raises(TypeError):
            oracle.check([L(0)], values=values)
        with pytest.raises(TypeError):
            oracle.check([L(0)], values)  # values is keyword-only
        assert oracle.n_raw_checks == 0

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

    def test_complementary_literals_rejected(self, xy):
        _, oracle = xy
        with pytest.raises(ValueError):
            oracle.check([L(0), L(1), L(0, False)])

    def test_strict_inequality_chain(self):
        p = atoms_problem("(< x 1)", "(< (- 0 x) 0)", "(= (* 2 x) 1)")
        oracle = BuiltinOracle(p.table)
        lits = [L(0), L(1), L(2)]  # 0 < x < 1 and x = 1/2
        assert oracle.check(lits).satisfiable
        assert simplex_satisfiable(lits, p.table)

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
        # The simplex reference checks its own model against every literal.
        p = atoms_problem(
            "(<= (+ x y) 2)",
            "(< (- x y) 0)",
            "(= x 1)",
            "(<= y 0)",
            "(< (+ (* 2 x) y) 3)",
            "(= (+ x (* 3 y)) 0)",
        )
        oracle = BuiltinOracle(p.table)
        rng = random.Random(5)
        n_sat = n_unsat = 0
        for _ in range(120):
            lits = random_theory_literals(rng, p.table)
            v = oracle.check(lits)
            assert v.satisfiable == simplex_satisfiable(lits, p.table)
            if v.satisfiable:
                n_sat += 1
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
        v = BuiltinOracle(p.table).check(lits)
        assert v.satisfiable == simplex_satisfiable(lits, p.table)
        if not v.satisfiable:
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
    """Wrap the oracle's ``_raw_check``; returns the list of (query, result),
    the query as the literal set its value array held at the call."""
    seen = []
    raw = oracle._raw_check

    def spy(values):
        query = frozenset(oracle._literals(values))
        out = raw(values)
        seen.append((query, out))
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
        split = BuiltinOracle(p.table)
        whole = BuiltinOracle(p.table)
        whole._components = [_component(p.table.theory_indices())]
        v, w = split.check(lits), whole.check(lits)
        assert v.satisfiable == w.satisfiable == simplex_satisfiable(lits, p.table)
        assert v.core == w.core

    @BACKENDS
    def test_memo_holds_parts_and_round_trips(self, config):
        p = atoms_problem("(<= x 0)", "(>= x 1)", "(<= y 0)", "(>= y 1)", "(= z 2)")
        queries = [
            [L(0), L(1, False), L(2), L(3, False), L(4)],
            [L(0, False), L(1, False), L(2), L(3, False), L(4)],
            [L(0), L(1, False), L(2, False), L(3), L(4, False)],
            [L(0), L(1), L(2), L(3), L(4)],
        ]
        first = make_oracle(p.table, config)
        second = make_oracle(p.table, config)
        try:
            verdicts = [first.check(q) for q in queries]
            solved = first.n_raw_checks
            # Repeated queries, unsat ones included, are answered by the memo.
            assert [first.check(q) for q in queries] == verdicts
            assert first.n_raw_checks == solved
            memo = first.export_memo()
            # Entries are per part: each key lies inside one component.
            components = [{0, 1}, {2, 3}, {4}]
            for part in _memo_by_part(first):
                assert any({l.atom_index for l in part} <= c for c in components)
            # One memo per component, each key the values of its atoms alone.
            assert len(memo) == len(components)
            for atoms, entries in zip(components, memo):
                assert entries
                for key in entries:
                    assert isinstance(key, tuple) and len(key) == len(atoms)
            second.import_memo(memo)
            assert [second.check(q) for q in queries] == verdicts
            assert second.n_raw_checks == 0
            assert getattr(second, "session", None) is None  # no solver started
        finally:
            first.close()
            second.close()


def _memo_by_part(oracle):
    """The oracle's exported per-component memos as one dict keyed by each
    part's literal set, decoded through the atoms of the oracle's own
    components, so a wrong grouping shows in the literal sets."""
    parts = {}
    for (pairs, _, _, _), memo in zip(oracle._components, oracle.export_memo()):
        for key, hit in memo.items():
            lits = [pair[v] for pair, v in zip(pairs, key) if v != UNASSIGNED]
            parts[frozenset(lits)] = hit
    return parts


@st.composite
def _query_sequences(draw):
    """Atoms over two or three disjoint symbol groups, maybe a Boolean atom,
    a pool of value arrays (partial ones included, as a query by literals
    makes) with two spare entries past the atoms, as an engine's labels, and a
    sequence of (pool index, query kind) steps, which repeats queries."""
    atoms = []
    for symbols in ("xy", "uv", "pq")[: draw(st.integers(2, 3))]:
        atoms += draw(st.lists(_atom_text(symbols), min_size=1, max_size=3))
    bools = draw(st.sampled_from(((), ("b",))))
    n = len(atoms) + len(bools) + 2
    value = st.sampled_from((0, 1, UNASSIGNED))
    pool = draw(st.lists(st.lists(value, min_size=n, max_size=n), min_size=1, max_size=5))
    kinds = st.sampled_from(("values", "literals", "is_satisfiable"))
    steps = draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), kinds), max_size=12))
    return atoms, bools, pool, steps


class TestValueKeyedFrontEnd:
    """The value-keyed front end against the literal-keyed one it replaced
    (``helpers.ReferenceFrontEnd``)."""

    @seed(3303)
    @settings(max_examples=150, **_DERANDOMIZED)
    @given(case=_query_sequences())
    def test_matches_literal_keyed_front_end(self, case):
        atoms, bools, pool, steps = case
        p = atoms_problem(*atoms, bools=bools)
        assume(len(partition_atoms(p.table).theory_components()) >= 2)
        oracle, ref = BuiltinOracle(p.table), ReferenceFrontEnd(p.table)
        theory = p.table.theory_indices()
        for index, kind in steps:
            values = pool[index]
            lits = [Literal(i, values[i] == 1) for i in theory if values[i] != UNASSIGNED]
            # The empty query is sat without a solve; the reference solved it.
            if kind == "is_satisfiable":
                got = oracle.is_satisfiable(lits)
                want = ref.is_satisfiable(lits) if lits else True
            else:
                got = oracle.check(values=bytearray(values)) if kind == "values" else oracle.check(lits)
                want = ref.check(lits) if lits else TheoryVerdict(True)
            assert got == want
            assert oracle.n_raw_checks == ref.n_raw_checks
        assert _memo_by_part(oracle) == ref._ref_raw


def _parts(table, literals):
    """The non-empty parts of a literal set, one per theory component."""
    for component in partition_atoms(table).theory_components():
        part = frozenset(lit for lit in literals if lit.atom_index in component)
        if part:
            yield part


class TestDerivationMemo:
    """The builtin backend's derivation memo, shared by every solve of one
    oracle, against the memo-free solve it replaced
    (``helpers.reference_fm_solve``)."""

    @seed(3304)
    @settings(max_examples=200, **_DERANDOMIZED)
    @given(
        atoms=st.lists(_atom_text("wxyz"), min_size=5, max_size=10),
        queries=st.lists(
            st.lists(st.tuples(st.integers(0, 9), st.booleans()), min_size=4, max_size=10),
            min_size=1,
            max_size=20,
        ),
    )
    @example(
        # The first part eliminates x from the first two rows, the second y:
        # a memo entry that did not name its variable would answer the second
        # combination with the first one's row, and miss the contradiction.
        atoms=["(<= (+ x y) 0)", "(>= (+ x (* 2 y)) 1)", "(>= x 0)", "(<= y 5)", "(>= y (- 5))"],
        queries=[[(0, True), (1, True), (3, True), (4, True)], [(0, True), (1, True), (2, True)]],
    )
    def test_memo_matches_memo_free_solves(self, atoms, queries):
        # One long-lived oracle solves every part of a stream of queries, each
        # followed by its deletion trials as core minimization makes them, so
        # later solves find rows and derivations of earlier ones in the memo.
        p = atoms_problem(*atoms)
        theory = p.table.theory_indices()
        oracle = BuiltinOracle(p.table)
        for query in queries:
            values = {theory[i % len(theory)]: pol for i, pol in query}
            for part in _parts(p.table, [Literal(i, pol) for i, pol in values.items()]):
                for trial in [part] + [part - {lit} for lit in sorted(part)]:
                    assert oracle._solve(trial) == reference_fm_solve(p.table, trial)

    # Three variables, so eliminations take several steps, with an
    # equality and a disequality among the atoms.
    TIMEOUT_ATOMS = (
        "(<= (+ x y) 2)", "(<= (- x y) 1)", "(>= (+ x z) 1)", "(<= (- y z) 0)",
        "(>= (+ x (* 2 y) z) 4)", "(= (- x z) 1)", "(< (+ y z) 3)",
    )

    def test_timeout_mid_elimination_leaves_memo_usable(self, monkeypatch):
        p = atoms_problem(*self.TIMEOUT_ATOMS)
        theory = p.table.theory_indices()
        rng = random.Random(7)
        queries = [
            [Literal(i, rng.random() < 0.6) for i in theory if rng.random() < 0.8]
            for _ in range(40)
        ]
        fresh = BuiltinOracle(p.table)
        want = [[fresh._solve(part) for part in _parts(p.table, q)] for q in queries]
        checked = oracle_module._check_deadline
        timed_out = kept = 0
        for expire_at in range(1, 30):
            oracle = BuiltinOracle(p.table)
            calls = iter(range(expire_at, 0, -1))

            def expiring(deadline):
                if next(calls, 0) == 1:
                    raise OracleTimeoutError("theory query exceeded its time budget")
                checked(deadline)

            monkeypatch.setattr(oracle_module, "_check_deadline", expiring)
            try:
                for q in queries:
                    oracle.check(q)
            except OracleTimeoutError:
                timed_out += 1
                kept += bool(oracle._memo)  # derivations made before the timeout
            monkeypatch.setattr(oracle_module, "_check_deadline", checked)
            got = [[oracle._solve(part) for part in _parts(p.table, q)] for q in queries]
            assert got == want
            assert [oracle.check(q) for q in queries] == [fresh.check(q) for q in queries]
        assert timed_out == 29 and kept > 20

    @pytest.mark.parametrize("gen_seed", [0, 1, 2])
    def test_tiny_cap_keeps_lemmas_and_counts(self, monkeypatch, gen_seed):
        # The theory-heavy benchmark family under baseline-proj; a cap of 3
        # entries flushes the memo many times within one solve.
        problem = Problem.from_text(
            clausal_instance(gen_seed, n_bool=2, n_real=4, n_theory=12, n_clauses=24)
        )
        spec = StrategySpec.from_name("baseline-proj")

        def run():
            oracle = BuiltinOracle(problem.table)
            result = run_strategy(problem, spec, oracle=oracle)
            text = render_lemma_script(result.lemma_set.lemmas, problem.table)
            return text, oracle.n_raw_checks, len(oracle._memo)

        text, raw_checks, entries = run()
        assert entries > 3
        monkeypatch.setattr(oracle_module, "MEMO_CAP", 3)
        capped_text, capped_raw_checks, entries = run()
        assert (capped_text, capped_raw_checks) == (text, raw_checks)
        assert entries <= 3


class TestValueKeyedSolve:
    """The builtin backend's solve of a part given by its component's value
    key against the memo-free solve on the part's literals
    (``helpers.reference_fm_solve``): verdict and witness."""

    @seed(3305)
    @settings(max_examples=200, **_DERANDOMIZED)
    @given(
        atoms=st.lists(_atom_text("xyz"), min_size=1, max_size=7),
        values=st.lists(st.sampled_from((0, 1, UNASSIGNED)), min_size=7, max_size=7),
    )
    @example(
        # x and y both give 2 upper x lower pairs: x goes first, by name,
        # and the witness holds (>= (+ x y) 1); eliminating y first finds
        # one with (not (<= (* 2 x) 3)) instead.
        atoms=["(< (+ (* (- 1) y) x) 1)", "(>= (+ x y) 1)", "(<= (* 2 x) 3)", "(>= y 0)"],
        values=[1, 1, 0, 0, 0, 0, 0],
    )
    def test_matches_reference_on_literals(self, atoms, values):
        p = atoms_problem(*atoms)
        array = bytearray([UNASSIGNED]) * len(p.table)
        for i, v in zip(p.table.theory_indices(), values):
            array[i] = v
        # One oracle solves every part, so later parts meet earlier rows in
        # its derivation memo.
        oracle = BuiltinOracle(p.table)
        for pairs, key_of, empty, _ in oracle._components:
            key = key_of(array)
            if key == empty:
                continue
            part = frozenset(pair[v] for pair, v in zip(pairs, key) if v != UNASSIGNED)
            assert oracle._solve_part(pairs, key) == reference_fm_solve(p.table, part)


class TestVerdictMemo:
    """The whole-query memo in front of the per-part one answers a repeated
    query with the first verdict and no solve."""

    @BACKENDS
    def test_repeated_queries_solve_nothing(self, config):
        p = atoms_problem("(<= x 0)", "(>= x 1)", "(<= y 0)", "(>= y 1)", "(= z 2)")
        sat_query = [L(0), L(1, False), L(2), L(3, False), L(4)]
        unsat_query = [L(0), L(1), L(2, False), L(3), L(4)]
        oracle = make_oracle(p.table, config)
        try:
            sat, unsat = oracle.check(sat_query), oracle.check(unsat_query)
            assert sat.satisfiable and not unsat.satisfiable
            assert unsat.core == (L(0), L(1))
            solved = oracle.n_raw_checks
            assert solved > 0
            for _ in range(2):
                assert oracle.check(reversed(sat_query)) is sat
                assert oracle.check(unsat_query) is unsat
            assert oracle.n_raw_checks == solved
        finally:
            oracle.close()

    @BACKENDS
    def test_non_theory_literal_raises_every_time(self, config):
        p = atoms_problem("(<= x 0)", bools=["b"])
        oracle = make_oracle(p.table, config)
        try:
            for _ in range(2):
                with pytest.raises(OracleError):
                    oracle.check([L(0), L(1)])  # index 0 is the Boolean atom b
            assert oracle.n_raw_checks == 0
        finally:
            oracle.close()


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
    def test_make_oracle_builtin(self):
        p = atoms_problem("(= x 0)")
        assert isinstance(make_oracle(p.table), BuiltinOracle)

    def test_command_builds_the_external_oracle(self):
        p = atoms_problem("(= x 0)", "(= x 1)")
        oracle = make_oracle(p.table, OracleConfig(command=SUBSET_CORE_CMD, timeout_secs=30))
        try:
            assert isinstance(oracle, ExternalOracle)
            assert not oracle.check([L(0), L(1)]).satisfiable
            assert oracle.session is not None  # the solver subprocess answered
        finally:
            oracle.close()

    @pytest.mark.parametrize("secs", [0, -1.0, float("nan")])
    def test_nonpositive_timeout_rejected(self, secs):
        with pytest.raises(ValueError):
            OracleConfig(timeout_secs=secs)
