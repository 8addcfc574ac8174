import hashlib
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from helpers import L, assignment_of, random_problem
from tlemma import enumeration
from tlemma.atoms import AtomTable
from tlemma.enumeration import enumerate_cubes, projected_allsmt
from tlemma.generator import clausal_instance, product_instance
from tlemma.oracle import BuiltinOracle, OracleError
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.strategies import phase1_prefix
from tlemma.terms import LinearAtom, Relation, TermBank
from tlemma.verifier import classify


def run(problem, proj=None, oracle=None, **kw):
    proj = list(problem.cnf.alpha_indices) if proj is None else proj
    oracle = oracle or BuiltinOracle(problem.table)
    return projected_allsmt(problem.cnf, problem.table, proj, oracle, **kw)


@pytest.fixture
def two_vals():
    return Problem.from_text("(declare-const x Real)(assert (or (= x 0) (= x 1)))")


class TestTotalMode:
    def test_worked_example(self, two_vals):
        out = run(two_vals)
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, True), L(1, False)],
            [L(0, False), L(1, True)],
        ]
        assert [l.literals for l in out.lemmas] == [(L(0, False), L(1, False))]
        assert out.stats.n_candidates == 3
        assert out.stats.n_theory_checks == 3
        assert len(out.cubes) == 2
        assert not out.truncated

    def test_vacuous_enumeration(self):
        p = Problem.from_text("(assert true)")
        out = run(p)
        assert out.assignments == [assignment_of([], [])]
        assert out.lemmas == []

    def test_propositionally_unsat(self):
        p = Problem.from_text("(declare-const a Bool)(assert (and a (not a)))")
        out = run(p)
        assert out.assignments == [] and out.lemmas == []

    def test_completeness_against_brute_force(self):
        for seed in range(60):
            p = random_problem(depth=4, seed=2000 + seed)
            oracle = BuiltinOracle(p.table)
            out = run(p, oracle=oracle)
            cls = classify(p.term, p.table, oracle)
            got = {frozenset(a.literals) for a in out.assignments}
            want = {frozenset(a.literals) for a in cls.ctta}
            assert got == want

    def test_seed_lemmas_are_preblocked(self, two_vals):
        oracle = BuiltinOracle(two_vals.table)
        first = run(two_vals, oracle=oracle)
        again = run(
            two_vals, oracle=oracle, seed_lemmas=first.lemmas
        )
        assert again.lemmas == []
        assert {frozenset(a.literals) for a in again.assignments} == {
            frozenset(a.literals) for a in first.assignments
        }

    def test_assumptions_restrict_search(self, two_vals):
        out = run(
            two_vals, assumptions=[L(1, True)]
        )
        assert [sorted(a.literals) for a in out.assignments] == [
            [L(0, False), L(1, True)]
        ]

    def test_determinism(self, two_vals):
        a = run(two_vals)
        b = run(two_vals)
        assert a.assignments == b.assignments
        assert a.lemmas == b.lemmas

    def test_budget_zero_truncates(self):
        p = random_problem(depth=4, seed=9)
        out = run(p, deadline=0.0)
        assert out.truncated

    @pytest.mark.parametrize("assumptions", [[], [L(0, False)]], ids=["free", "contradicts unit"])
    def test_a_run_started_past_its_deadline_is_truncated(self, assumptions):
        # The deadline is checked before the root units are propagated, so
        # a run started too late is truncated even when its assumptions
        # contradict a CNF unit, here the unit a of atom 0.
        p = Problem.from_text(
            "(declare-const a Bool)(declare-const x Real)"
            "(assert a)(assert (or (< x 0) (> x 1)))"
        )
        assert (L(0),) in p.cnf.clauses
        out = run(p, assumptions=assumptions, deadline=0.0)
        assert out.truncated and out.cubes == [] and out.lemmas == []
        outs = enumerate_cubes(
            p.cnf,
            p.table,
            list(p.cnf.alpha_indices),
            BuiltinOracle(p.table),
            (),
            [assumptions, [L(0)], assumptions],
            deadline=0.0,
        )
        assert [o.truncated for o in outs] == [True] * 3

    def test_each_projected_model_recorded_exactly_once(self):
        # The engine adds no blocking clauses: the search order alone must
        # keep it from reaching a recorded projected cube twice.  Over the
        # prefix that divide & conquer splits on, the cubes are then exactly
        # the theory-consistent models restricted to the prefix, which is
        # the coverage and disjointness phase 2 needs.
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
            projections += [phase1_prefix(proj) for proj in projections]
            for proj in projections:
                for assumptions in ([], [L(0, True)], [L(n - 1, False)]):
                    want = {
                        frozenset(l for l in eta if l.atom_index in proj)
                        for eta in ctta
                        if set(assumptions) <= eta
                    }
                    out = run(p, proj=proj, oracle=oracle, assumptions=assumptions)
                    got = [a.literals for a in out.assignments]
                    assert len(set(got)) == len(got), (proj, assumptions)
                    assert set(got) == want, (proj, assumptions)
                    assert len(out.cubes) == len(got)

    def test_cubes_are_counted_as_recorded(self):
        # One snapshot per recorded cube, and one assignment decoded from
        # each, over the whole projection and over its phase-1 prefix.
        for k in range(25):
            p = random_problem(depth=4, seed=7000 + k)
            proj = list(p.cnf.alpha_indices)
            for split in (proj, phase1_prefix(proj)):
                out = run(p, split)
                assert len(out.cubes) == len(out.assignments)

    def test_one_engine_over_cubes_matches_a_fresh_engine_per_cube(self):
        # enumerate_cubes installs the CNF and the seeds once and re-runs
        # one engine per cube; each cube must see only the CNF, the seeds,
        # its assumptions and its own lemmas, as a fresh engine does.  The
        # cubes come from phase 1 over the whole projection and over the
        # prefix that divide & conquer splits on.
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
            for split in (proj, phase1_prefix(proj)):
                phase1 = run(p, split, oracle=oracle)
                cubes = [a.sorted_literals() for a in phase1.assignments]
                shared = enumerate_cubes(p.cnf, p.table, proj, oracle, phase1.lemmas, cubes)
                assert len(shared) == len(cubes)
                for cube, got in zip(cubes, shared):
                    want = run(p, oracle=oracle, seed_lemmas=phase1.lemmas, assumptions=cube)
                    assert got.assignments == want.assignments, cube
                    assert got.lemmas == want.lemmas, cube
                    assert replace(got.stats, elapsed_ns=0) == replace(
                        want.stats, elapsed_ns=0
                    ), cube
                    assert got.truncated == want.truncated


def _unit_lemma_problem() -> Problem:
    """``(or b c t)`` with ``t`` the theory atom ``0 < -1``, inconsistent on
    its own, so its theory check yields the unit lemma ``(not t)``.  The
    parser folds such an atom (``(< (+ x 1) x)``) to false, so it is built
    directly; atom indices are b 0, c 1, t 2."""
    bank = TermBank()
    table = AtomTable(bank)
    atoms = [
        bank.bool_atom("b"),
        bank.bool_atom("c"),
        bank.theory_atom(LinearAtom((), Relation.LT, Fraction(-1))),
    ]
    for atom in atoms:
        table.register(atom)
    return Problem.from_term(bank.or_(atoms), table)


class TestUnitLemmas:
    """A lemma with one literal is a root unit added mid-run: it must hold
    on every branch the run takes after it, and in no later run."""

    def test_unit_lemma_holds_after_backtracks(self):
        # Positive polarity first: the first candidate is b, c, t, which
        # yields (not t); the later branches flip c and b, above t, where
        # only replaying the unit keeps t false.  A second conflict on t
        # would re-add an active lemma and fail the engine's assertion.
        p = _unit_lemma_problem()
        out = run(p)
        assert [l.literals for l in out.lemmas] == [(L(2, False),)]
        assert sorted(sorted(a.literals) for a in out.assignments) == [
            [L(0, False), L(1, True), L(2, False)],
            [L(0, True), L(1, False), L(2, False)],
            [L(0, True), L(1, True), L(2, False)],
        ]
        assert out.stats.n_candidates == 4

    def test_unit_lemma_does_not_leak_into_the_next_cube(self):
        # Each cube meets t again and yields its own (not t).
        p = _unit_lemma_problem()
        oracle = BuiltinOracle(p.table)
        proj = list(p.cnf.alpha_indices)
        cubes = [[L(0)], [L(0, False)], [L(1)], [L(0)]]
        shared = enumerate_cubes(p.cnf, p.table, proj, oracle, (), cubes)
        for cube, got in zip(cubes, shared):
            want = run(p, oracle=oracle, assumptions=cube)
            assert [l.literals for l in got.lemmas] == [(L(2, False),)], cube
            assert got.assignments == want.assignments, cube
            assert got.lemmas == want.lemmas, cube
            assert replace(got.stats, elapsed_ns=0) == replace(want.stats, elapsed_ns=0), cube


class TestProjection:
    def test_projected_total_collapses_boolean_variants(self):
        p = Problem.from_text(
            "(declare-const b Bool)(declare-const x Real)"
            "(assert (and (or b (not b)) (or (= x 0) (= x 1))))"
        )
        theory = p.table.theory_indices()
        out = run(p, proj=theory)
        assert len(out.assignments) == 2
        assert all(a.scope == frozenset(theory) for a in out.assignments)

    def test_empty_projection_single_empty_cube(self):
        p = Problem.from_text("(declare-const b Bool)(assert b)")
        out = run(p, proj=[])
        assert out.assignments == [assignment_of([], [])]
        assert out.stats.n_theory_checks == 0

    def test_projection_must_be_within_atoms(self, two_vals):
        with pytest.raises(ValueError):
            run(two_vals, proj=[7])


class TestHelpers:
    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            assignment_of([L(0), L(0, False)], [0])
        with pytest.raises(ValueError):
            assignment_of([L(3)], [0, 1])


def _golden_problems():
    """The instances :class:`TestGolden` pins, by test id."""
    problems = {
        f"clausal-{s}": lambda s=s: Problem.from_text(
            clausal_instance(s, n_bool=8, n_real=3, n_theory=6, n_clauses=20)
        )
        for s in range(8)
    }
    problems["unit-lemma"] = _unit_lemma_problem
    return problems


def _outcome_record(out) -> str:
    """What an outcome found, in the order found: cube snapshots, lemma
    literals, counters without the elapsed time, and the truncation."""
    return repr((
        [cube.hex() for cube in out.cubes],
        [[(l.atom_index, l.polarity) for l in lemma.literals] for lemma in out.lemmas],
        replace(out.stats, elapsed_ns=0),
        out.truncated,
    ))


def _engine_digest(p: Problem) -> str:
    oracle = BuiltinOracle(p.table)
    everything = list(p.cnf.alpha_indices)
    records = [
        _outcome_record(run(p, proj, oracle=oracle))
        for proj in (everything, p.table.theory_indices())
    ]
    phase1 = run(p, phase1_prefix(everything), oracle=oracle)
    records.append(_outcome_record(phase1))
    cubes = [a.sorted_literals() for a in phase1.assignments]
    for out in enumerate_cubes(p.cnf, p.table, everything, oracle, phase1.lemmas, cubes):
        records.append(_outcome_record(out))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


# Recorded from the engine before early pruning was deleted; any change to
# branching order, polarity, watch order, clause order or backtracking shows
# up here as a different digest.
GOLDEN_DIGESTS = {
    "clausal-0": "ca794d073e668f428dd0882eece6462f8deed304a114d6c2117d78912baa6412",
    "clausal-1": "787e8a105afd5446085a427c1360959d077a69bb56b073a0a168d969827957fd",
    "clausal-2": "9ab89d2e19ce79b44566e96e45b20dd5d62de9676434f0a0e3e38850205e5e2e",
    "clausal-3": "e5d926ec30475669be596bf5045cabba9a783a1ddbe0616d4471b5bae3f08148",
    "clausal-4": "fbd970822c250ea478eda95193bf40540024be7177e77b455e2ee1fbd0ba6202",
    "clausal-5": "6001850a688b7906f4d7ae12db42fdc39bbded2e12b0cc008c28efdc454ce3f9",
    "clausal-6": "a28be98a65981bb1a17efea67dbf796a296fdcf56101cbffa72696be83431b18",
    "clausal-7": "405206e2a9f9051fc6abf8c2b15bf74bd46bd546a0b80bb10cbec68e0642b527",
    "unit-lemma": "20d199ba29217f8c5648e4b462ef8d0ce89ec2791e7b3f6a9391ae4816e15275",
}


class TestGolden:
    """The engine's exact output, pinned: cubes and lemmas in the order
    found and the counters, over whole and theory projections and
    DnC-style cube runs."""

    @pytest.mark.parametrize("name", sorted(_golden_problems()))
    def test_output_is_pinned(self, name):
        assert _engine_digest(_golden_problems()[name]()) == GOLDEN_DIGESTS[name]


class _Clock:
    """Stands in for the engine's ``time`` module: ``monotonic`` reads 0.0
    ``before`` times, then 2.0, past a deadline of 1.0.  The oracle's own
    clock is left alone."""

    monotonic_ns = staticmethod(time.monotonic_ns)

    def __init__(self, before: int):
        self.before = before
        self.reads = 0

    def monotonic(self) -> float:
        self.reads += 1
        return 0.0 if self.reads <= self.before else 2.0


class _FaultyOracle(BuiltinOracle):
    """Raises :class:`OracleError` on its ``fail_at``-th check only."""

    def __init__(self, table, fail_at: int):
        super().__init__(table)
        self.fail_at = fail_at
        self.n_checks = 0

    def check(self, literals=None, *, values=None):
        self.n_checks += 1
        if self.n_checks == self.fail_at:
            raise OracleError("injected fault")
        return super().check(literals, values=values)


def _assert_prefix(got, want):
    """``got`` is truncated, and found what ``want`` found first."""
    assert got.truncated
    assert got.cubes == want.cubes[: len(got.cubes)]
    assert got.lemmas == want.lemmas[: len(got.lemmas)]


def _found(out) -> int:
    return len(out.cubes) + len(out.lemmas)


class TestEarlyExits:
    """A run cut short mid-search by its deadline or by an oracle fault
    returns what it found before the cut, marked truncated."""

    @pytest.fixture
    def problem(self):
        return Problem.from_text(
            clausal_instance(1, n_bool=8, n_real=3, n_theory=6, n_clauses=20)
        )

    def _cubes(self, p):
        phase1 = run(p, phase1_prefix(list(p.cnf.alpha_indices)))
        return phase1.lemmas, [a.sorted_literals() for a in phase1.assignments]

    def test_deadline_mid_run(self, problem, monkeypatch):
        full = run(problem)
        clock = _Clock(before=10**9)
        monkeypatch.setattr(enumeration, "time", clock)
        assert run(problem, deadline=1.0).cubes == full.cubes
        n_reads = clock.reads
        found = []
        for before in range(0, n_reads, max(1, n_reads // 12)):
            monkeypatch.setattr(enumeration, "time", _Clock(before))
            out = run(problem, deadline=1.0)
            _assert_prefix(out, full)
            found.append(_found(out))
        assert found == sorted(found) and found[-1] > 0

    def test_deadline_mid_cube(self, problem, monkeypatch):
        p = problem
        proj = list(p.cnf.alpha_indices)
        seeds, cubes = self._cubes(p)
        full = enumerate_cubes(p.cnf, p.table, proj, BuiltinOracle(p.table), seeds, cubes)
        clock = _Clock(before=10**9)
        monkeypatch.setattr(enumeration, "time", clock)
        enumerate_cubes(p.cnf, p.table, proj, BuiltinOracle(p.table), seeds, cubes, deadline=1.0)
        n_reads = clock.reads
        found = []
        for before in range(1, n_reads, max(1, n_reads // 12)):
            monkeypatch.setattr(enumeration, "time", _Clock(before))
            outs = enumerate_cubes(
                p.cnf, p.table, proj, BuiltinOracle(p.table), seeds, cubes, deadline=1.0
            )
            cut = next(i for i, out in enumerate(outs) if out.truncated)
            assert list(map(_outcome_record, outs[:cut])) == list(map(_outcome_record, full[:cut]))
            _assert_prefix(outs[cut], full[cut])
            assert all(out.truncated and _found(out) == 0 for out in outs[cut + 1 :])
            found.append(_found(outs[cut]))
        assert max(found) > 0

    def test_oracle_fault_mid_run(self, problem):
        full = run(problem)
        n_checks = full.stats.n_theory_checks
        for fail_at in range(1, n_checks + 1, max(1, n_checks // 12)):
            out = run(problem, oracle=_FaultyOracle(problem.table, fail_at))
            _assert_prefix(out, full)
            assert out.oracle_error == "injected fault"
            assert out.stats.n_theory_checks == fail_at
            # Every check before the fault recorded a cube or a lemma.
            assert _found(out) == fail_at - 1

    def test_oracle_fault_mid_cube(self, problem):
        p = problem
        proj = list(p.cnf.alpha_indices)
        seeds, cubes = self._cubes(p)
        full = enumerate_cubes(p.cnf, p.table, proj, BuiltinOracle(p.table), seeds, cubes)
        n_checks = sum(out.stats.n_theory_checks for out in full)
        for fail_at in range(1, n_checks + 1, max(1, n_checks // 12)):
            oracle = _FaultyOracle(p.table, fail_at)
            outs = enumerate_cubes(p.cnf, p.table, proj, oracle, seeds, cubes)
            (cut,) = [i for i, out in enumerate(outs) if out.truncated]
            assert outs[cut].oracle_error == "injected fault"
            _assert_prefix(outs[cut], full[cut])
            checks_before = sum(out.stats.n_theory_checks for out in full[:cut])
            assert _found(outs[cut]) == fail_at - checks_before - 1
            # The fault truncates its own cube only.
            rest = outs[:cut] + outs[cut + 1 :]
            assert list(map(_outcome_record, rest)) == list(
                map(_outcome_record, full[:cut] + full[cut + 1 :])
            )
