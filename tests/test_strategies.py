import errno
import hashlib
import importlib.util
import json
import os
import pickle
import signal
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import (
    SUBSET_CORE_CMD,
    L,
    fork_every_share,
    pin_usable_cpus,
    random_problem,
    truth_models,
)
from tlemma import strategies
from tlemma.enumeration import projected_allsmt
from tlemma.generator import clausal_instance, product_instance, random_instance
from tlemma.lemma_io import render_lemma_script
from tlemma.oracle import BuiltinOracle, OracleConfig, TLemma, make_oracle
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.strategies import (
    STRATEGY_NAMES,
    LemmaProvenance,
    RunCounters,
    StrategySpec,
    dedup_lemmas,
    enumerate_baseline,
    enumerate_dnc,
    phase1_prefix,
    run_strategy,
)
from tlemma.verifier import check_lemma_set, classify, rules_out, truth_table_bits


@pytest.fixture
def two_vals():
    return Problem.from_text("(declare-const x Real)(assert (or (= x 0) (= x 1)))")


def oracle_for(p):
    return BuiltinOracle(p.table)


def every_atom(p):
    """The projection of a plain pass: every atom."""
    return list(p.cnf.alpha_indices)


DNC = StrategySpec(base="dnc")


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

    def test_budget_validated(self):
        for bad in (float("nan"), -1.0):
            with pytest.raises(ValueError, match="budget must be >= 0"):
                StrategySpec(budget_secs=bad)
        assert StrategySpec(budget_secs=0.0).budget_secs == 0.0


class TestBaseline:
    def test_worked_example(self, two_vals):
        ls = enumerate_baseline(
            two_vals, oracle_for(two_vals), every_atom(two_vals), (), counters=RunCounters()
        ).lemma_set
        assert [l.literals for l in ls.lemmas] == [(L(0, False), L(1, False))]

    def test_theory_equivalent_formula_has_empty_inconsistent_set(self):
        # second worked formula: same consistent assignments, nothing to rule out
        p = Problem.from_text(
            "(declare-const x Real)(assert (= (not (<= x 0)) (= x 1)))"
        )
        oracle = oracle_for(p)
        ls = enumerate_baseline(p, oracle, every_atom(p), (), counters=RunCounters()).lemma_set
        cls = classify(p.term, p.table, oracle)
        assert cls.itta == []
        assert rules_out(ls, cls.itta)

    def test_purely_boolean_formula_yields_nothing(self):
        p = Problem.from_text(
            "(declare-const a Bool)(declare-const b Bool)(assert (or a b))"
        )
        result = enumerate_baseline(p, oracle_for(p), every_atom(p), (), counters=RunCounters())
        assert len(result.lemma_set) == 0 and not result.truncated

    def test_budget_exceeded_carries_partial(self):
        # A pass started past its deadline returns, marked truncated, what
        # it found (nothing: the engine reads the deadline before any work),
        # rather than raise.
        p = random_problem(depth=5, seed=77, max_atoms=12)
        counters = RunCounters()
        result = enumerate_baseline(
            p, oracle_for(p), every_atom(p), (), counters=counters, deadline=0.0
        )
        assert result.truncated
        assert result.oracle_error is None and result.worker_error is None
        assert len(result.lemma_set) == 0
        assert counters.n_candidates == counters.n_theory_checks == 0


class TestDnc:
    def test_worked_example_single_lemma(self, two_vals):
        ls = enumerate_dnc(
            two_vals, oracle_for(two_vals), every_atom(two_vals), (),
            spec=DNC, counters=RunCounters(),
        ).lemma_set
        assert [l.literals for l in ls.lemmas] == [(L(0, False), L(1, False))]

    def test_rules_out_same_set_as_baseline(self):
        for seed in range(25):
            p = random_problem(depth=4, seed=7000 + seed)
            oracle = oracle_for(p)
            cls = classify(p.term, p.table, oracle)
            proj = every_atom(p)
            base = enumerate_baseline(p, oracle, proj, (), counters=RunCounters()).lemma_set
            dnc = enumerate_dnc(p, oracle, proj, (), spec=DNC, counters=RunCounters()).lemma_set
            assert rules_out(base, cls.itta)
            assert rules_out(dnc, cls.itta)

    def test_propositionally_unsat_formula(self):
        p = Problem.from_text("(declare-const a Bool)(assert (and a (not a)))")
        ls = enumerate_dnc(
            p, oracle_for(p), every_atom(p), (), spec=DNC, counters=RunCounters()
        ).lemma_set
        assert len(ls) == 0

    def test_no_emitted_lemma_duplicates_a_seed(self, two_vals):
        oracle = oracle_for(two_vals)
        proj = every_atom(two_vals)
        first = enumerate_baseline(
            two_vals, oracle, proj, (), counters=RunCounters()
        ).lemma_set
        again = enumerate_dnc(
            two_vals, oracle, proj, tuple(first.lemmas), spec=DNC, counters=RunCounters()
        ).lemma_set
        assert not (again.keys() & first.keys())

    def test_worker_counts_agree(self, monkeypatch):
        fork_every_share(monkeypatch)
        p = random_problem(depth=5, seed=42, max_atoms=12)
        results = {}
        for workers in (1, 2, 4):
            res = run_strategy(p, StrategySpec.from_name("dnc", workers=workers))
            results[workers] = res.lemma_set.keys()
        oracle = oracle_for(p)
        cls = classify(p.term, p.table, oracle)
        for workers, keys in results.items():
            assert rules_out([TLemma(tuple(sorted(k))) for k in keys], cls.itta)

    def test_phase1_cubes_pairwise_disjoint(self):
        # Phase 2 needs only that the cubes cover the space, so enumerate_dnc
        # does not check disjointness; the engine records each total
        # assignment of the projection once, for every projection set a DnC
        # pass uses and for its prefix, which phase 1 enumerates over.
        problems = [random_problem(depth=4, seed=7000 + k) for k in range(25)]
        # The first instance criterion 5 selects.
        medium = Problem.from_text(
            clausal_instance(2, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
        )
        n = len(medium.table)
        assert 14 <= n <= 18
        assert 8000 <= bin(truth_table_bits(medium.abstract, n)).count("1") <= 20000
        problems.append(medium)
        for p in problems:
            oracle = oracle_for(p)
            projections = [list(p.cnf.alpha_indices), p.table.theory_indices()]
            projections += map(sorted, partition_atoms(p.table).theory_components())
            projections += [phase1_prefix(proj) for proj in projections]
            for proj in projections:
                out = projected_allsmt(p.cnf, p.table, proj, oracle)
                cubes = [c.literals for c in out.assignments]
                for i, a in enumerate(cubes):
                    opposite = {lit.negated() for lit in a}
                    for b in cubes[i + 1 :]:
                        assert not opposite.isdisjoint(b), (proj, a, b)

    def test_phase1_prefix_cubes_cover_every_model(self):
        # Phase 2 is complete because every model of the abstraction either
        # extends exactly one phase-1 cube, which phase 2 enumerates under,
        # or falsifies a seed or phase-1 lemma, which phase 2 is seeded with.
        # Each pass is seeded with the phase-1 lemmas of the earlier ones.
        problems = [random_problem(depth=4, seed=7000 + k) for k in range(25)]
        # 14 atoms, so a 3-atom prefix.
        problems.append(
            Problem.from_text(
                clausal_instance(13, n_bool=4, n_real=3, n_theory=10, n_clauses=20)
            )
        )
        n_cubes = 0
        for p in problems:
            oracle = oracle_for(p)
            models = truth_models(p.abstract, p.table)
            projections = [list(p.cnf.alpha_indices), p.table.theory_indices()]
            projections += map(sorted, partition_atoms(p.table).theory_components())
            seeds = []
            for proj in projections:
                out = projected_allsmt(
                    p.cnf, p.table, phase1_prefix(proj), oracle, seed_lemmas=seeds
                )
                seeds += out.lemmas
                cubes = [c.literals for c in out.assignments]
                n_cubes += len(cubes)
                negations = [{lit.negated() for lit in l.literals} for l in seeds]
                for model in models:
                    extended = sum(cube <= model for cube in cubes)
                    refuted = any(neg <= model for neg in negations)
                    assert extended == 1 or (extended == 0 and refuted), (proj, model)
        assert n_cubes > len(problems)

    def test_assignments_built_only_for_phase1_cubes(self, monkeypatch):
        # Baseline and phase 2 only count their cubes; divide & conquer
        # turns each phase-1 cube into the assumptions of phase 2.
        from tlemma import enumeration

        p = Problem.from_text(
            clausal_instance(2, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
        )
        phase1 = projected_allsmt(
            p.cnf, p.table, phase1_prefix(p.cnf.alpha_indices), oracle_for(p)
        )
        built = []
        real = enumeration.Assignment

        def counting(*args, **kw):
            built.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(enumeration, "Assignment", counting)
        for name, want in (("baseline", 0), ("baseline-proj", 0), ("dnc", len(phase1.cubes))):
            built.clear()
            result = run_strategy(p, StrategySpec.from_name(name, workers=1))
            assert result.counters.n_assignments > len(built) == want, name

    def test_lemma_files_do_not_depend_on_the_worker_count(self, monkeypatch):
        # The phase-1 prefix depends on the projection only, so the cubes,
        # the seeds of phase 2 and the lemma files are those of one worker.
        # The first instance criterion 5 selects.
        p = Problem.from_text(
            clausal_instance(2, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
        )
        phase1 = projected_allsmt(
            p.cnf, p.table, phase1_prefix(p.cnf.alpha_indices), oracle_for(p)
        )
        assert 30 <= len(phase1.assignments) <= 40
        pin_usable_cpus(monkeypatch, 4)
        for name in ("dnc", "dnc-proj", "dnc-proj-part"):
            files = {
                render_lemma_script(
                    run_strategy(p, StrategySpec.from_name(name, workers=workers))
                    .lemma_set.lemmas,
                    p.table,
                )
                for workers in (1, 2, 4)
            }
            assert len(files) == 1, name

    def test_phase2_worker_keeps_the_parents_deadline(self, two_vals):
        # The worker is handed an absolute deadline; one already past when
        # the worker starts must truncate every cube rather than restart
        # the clock.
        cubes = [(0, [L(0)]), (1, [L(0, False)])]
        records, _ = strategies._phase2_worker(
            two_vals.cnf,
            two_vals.table,
            oracle_for(two_vals),
            (),
            cubes,
            list(two_vals.cnf.alpha_indices),
            time.monotonic() - 1.0,
        )
        assert [r[0] for r in records] == [0, 1]
        assert all(r[5] for r in records)  # truncated

    def test_phase2_solves_are_counted_on_the_callers_oracle(self, monkeypatch):
        # A worker's oracle solves what the caller's would have; the caller
        # adds the workers' counts to its own, so more workers never read
        # fewer solves (the workers do not share their memos).
        fork_every_share(monkeypatch)
        p = Problem.from_text(
            clausal_instance(3, n_bool=2, n_real=3, n_theory=8, n_clauses=16)
        )
        counts = {}
        for workers in (1, 2):
            oracle = oracle_for(p)
            run_strategy(p, StrategySpec.from_name("dnc", workers=workers), oracle=oracle)
            counts[workers] = oracle.n_raw_checks
        assert counts[2] >= counts[1] > 0

    @staticmethod
    def _record_forks(monkeypatch):
        """The pids of the children forked from now on."""
        children = []
        real_fork = os.fork

        def recording_fork():
            pid = real_fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording_fork)
        return children

    def test_phase2_forks_a_child_per_share_but_the_first(self, monkeypatch):
        # The caller runs share 0 itself, so w workers over c cubes on at
        # least w CPUs start min(w, c) - 1 children, each joined before the
        # run returns.
        fork_every_share(monkeypatch)
        pin_usable_cpus(monkeypatch, 4)
        children = self._record_forks(monkeypatch)
        p = Problem.from_text(random_instance(3, 4, 4, 7000, 10))
        phase1 = projected_allsmt(
            p.cnf, p.table, phase1_prefix(p.cnf.alpha_indices), oracle_for(p)
        )
        assert len(phase1.assignments) == 3
        res = run_strategy(p, StrategySpec.from_name("dnc", workers=4))
        assert len(children) == 2
        for pid in children:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        serial = run_strategy(p, StrategySpec.from_name("dnc"))
        assert len(children) == 2
        assert res.lemma_set.keys() == serial.lemma_set.keys()

    def test_phase2_processes_are_capped_at_usable_cpus(self, monkeypatch):
        # 4 workers on 2 CPUs run 2 processes, so fork 1 child; lemma bytes
        # and provenance, whose worker is the logical share, are those of 4
        # processes.
        # 4 phase-1 cubes, and a phase-2 lemma in each logical share.
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        spec = StrategySpec.from_name("dnc", workers=4)
        fork_every_share(monkeypatch)
        children = self._record_forks(monkeypatch)
        runs = {}
        for cpus in (8, 2):
            pin_usable_cpus(monkeypatch, cpus)
            del children[:]
            res = run_strategy(p, spec)
            runs[cpus] = (
                len(children),
                render_lemma_script(res.lemma_set.lemmas, p.table),
                res.lemma_set.provenance,
            )
        assert runs[8][0] == 3 and runs[2][0] == 1
        assert runs[2][1:] == runs[8][1:]
        assert {
            prov.worker for prov in runs[2][2] if prov.stage.startswith("dnc-phase2")
        } == {0, 1, 2, 3}

    def test_dead_worker_truncates_the_run(self, monkeypatch):
        # Worker 1, the only child of a 2-worker run, dies before sending
        # its records: the lemmas of phase 1 and of share 0 are kept.
        # Share 1 finds lemmas that neither phase 1 nor share 0 finds.
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        fork_every_share(monkeypatch)
        pin_usable_cpus(monkeypatch, 2)
        spec = StrategySpec.from_name("dnc", workers=2)
        full = run_strategy(p, spec)
        assert not full.truncated and full.worker_error is None
        monkeypatch.setattr(strategies, "_phase2_worker", lambda *args: os._exit(3))
        res = run_strategy(p, spec)
        assert res.truncated
        assert res.worker_error == "phase-2 worker 1 exited with code 3"
        assert 0 < len(res.lemma_set)
        assert res.lemma_set.keys() < full.lemma_set.keys()

    def test_raising_worker_truncates_the_run_and_never_returns(self, monkeypatch):
        # A child whose share raises exits with code 1 rather than unwind
        # into the caller's stack: had it returned here, it would leave
        # through the os._exit(99) below, and the caller read code 99.
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        fork_every_share(monkeypatch)
        pin_usable_cpus(monkeypatch, 2)
        children = self._record_forks(monkeypatch)
        caller = os.getpid()

        def failing(*args):
            raise RuntimeError("share 1 failed")

        monkeypatch.setattr(strategies, "_phase2_worker", failing)
        try:
            res = run_strategy(p, StrategySpec.from_name("dnc", workers=2))
        finally:
            if os.getpid() != caller:
                os._exit(99)
        assert res.truncated
        assert res.worker_error == "phase-2 worker 1 exited with code 1"
        assert 0 < len(res.lemma_set)
        assert len(children) == 1
        for pid in children:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_failing_caller_is_not_held_up_by_blocked_children(self, monkeypatch):
        # Three children each write a reply larger than a pipe's buffer
        # while the caller fails in share 0 and never reads them.  Each
        # child's write must fail once the caller closes its read end: had
        # a later sibling inherited that read end, the children would block
        # one another until the alarm below ends them.
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        fork_every_share(monkeypatch)
        pin_usable_cpus(monkeypatch, 4)
        caller, real = os.getpid(), strategies._share_records

        def big_reply(*args):
            signal.alarm(20)
            return ["x" * (1 << 20)], 0

        def failing(*args, **kw):
            if os.getpid() == caller:
                raise RuntimeError("share 0 failed")
            return real(*args, **kw)

        monkeypatch.setattr(strategies, "_phase2_worker", big_reply)
        monkeypatch.setattr(strategies, "_share_records", failing)
        children = self._record_forks(monkeypatch)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="share 0 failed"):
            run_strategy(p, StrategySpec.from_name("dnc", workers=4))
        assert time.monotonic() - start < 10
        assert len(children) == 3
        for pid in children:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)

    def test_inherited_oracle_counts_what_a_warmed_copy_counts(self):
        # A forked child runs its share on the caller's builtin oracle as
        # the fork copied it, whole-query memo included.  Its records and
        # its solve count must be those of a new oracle warmed with the
        # caller's exported memo, which phase 2 used before, or raw check
        # counts would depend on the worker count.
        problems = [
            Problem.from_text(
                clausal_instance(s, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
            )
            for s in (3, 6, 9)
        ]
        # The first instance criterion 5 selects.
        problems.append(
            Problem.from_text(
                clausal_instance(2, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
            )
        )
        cpus = strategies._usable_cpus() * 2
        n_solved = 0
        for p in problems:
            proj = list(p.cnf.alpha_indices)
            oracle = oracle_for(p)
            phase1 = projected_allsmt(p.cnf, p.table, phase1_prefix(proj), oracle)
            cubes = list(enumerate(a.sorted_literals() for a in phase1.assignments))
            args = (proj, None)
            for share in (cubes[0::2], cubes[1::2]):
                warmed = make_oracle(p.table, oracle.config)
                warmed.import_memo(oracle.export_memo())
                want = strategies._share_records(
                    p.cnf, p.table, warmed, phase1.lemmas, share, *args
                )
                before = oracle.n_raw_checks
                # Share 1 runs in a forked child on the oracle it inherits.
                got, worker_error = strategies._run_shares(
                    p.cnf, p.table, oracle, phase1.lemmas, [[], share], cpus, *args
                )
                assert worker_error is None
                assert got == want
                assert oracle.n_raw_checks - before == warmed.n_raw_checks
                n_solved += warmed.n_raw_checks
        assert n_solved > 0

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
        reason="needs 2 usable CPUs and os.sched_setaffinity",
    )
    def test_each_phase2_process_runs_on_its_own_cpu(self, monkeypatch, tmp_path):
        # The caller runs share 0 pinned to the first usable CPU and the
        # child runs share 1 pinned to the second, so the two CPU-bound
        # processes never share a CPU.  The child inherits the wrapper.
        log = tmp_path / "shares"
        real = strategies._share_records

        def logged(*args, **kw):
            with open(log, "a") as f:
                f.write(json.dumps([os.getpid(), sorted(os.sched_getaffinity(0))]) + "\n")
            return real(*args, **kw)

        monkeypatch.setattr(strategies, "_share_records", logged)
        fork_every_share(monkeypatch)
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        run_strategy(p, StrategySpec.from_name("dnc", workers=2))
        records = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(records) == 2
        (pid0, cpus0), (pid1, cpus1) = records
        assert pid0 != pid1
        assert len(cpus0) == len(cpus1) == 1 and cpus0 != cpus1

    @pytest.mark.skipif(
        not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity"
    )
    @pytest.mark.parametrize(
        "case",
        [
            "complete",
            "dead worker",
            "caller raises",
            "8 faked cpus",
            "caller on one cpu",
            pytest.param(
                "2 faked cpus of more",
                marks=pytest.mark.skipif(
                    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) <= 2,
                    reason="needs more than 2 usable CPUs",
                ),
            ),
        ],
    )
    def test_phase2_restores_the_callers_cpu_affinity(self, monkeypatch, request, case):
        # Phase 2 pins the caller to one CPU while it runs share 0; the
        # caller's own affinity is back when the run returns or raises,
        # also when a worker died or the usable CPUs DnC sees are faked
        # (more than the host has, where the CPUs the host lacks leave a
        # child unpinned, or fewer), or differ from the caller's own.
        original = os.sched_getaffinity(0)
        request.addfinalizer(lambda: os.sched_setaffinity(0, original))
        fork_every_share(monkeypatch)
        if case == "caller on one cpu":
            os.sched_setaffinity(0, {max(original)})
        before = os.sched_getaffinity(0)
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        spec = StrategySpec.from_name("dnc", workers=4)
        if case == "dead worker":
            pin_usable_cpus(monkeypatch, 2)
            monkeypatch.setattr(strategies, "_phase2_worker", lambda *args: os._exit(3))
            assert run_strategy(p, spec).worker_error is not None
        elif case == "caller raises":
            pin_usable_cpus(monkeypatch, 2)
            caller, real = os.getpid(), strategies._share_records

            def failing(*args, **kw):
                if os.getpid() == caller:
                    raise RuntimeError("share 0 failed")
                return real(*args, **kw)

            monkeypatch.setattr(strategies, "_share_records", failing)
            with pytest.raises(RuntimeError, match="share 0 failed"):
                run_strategy(p, spec)
        else:
            if case == "8 faked cpus":
                pin_usable_cpus(monkeypatch, 8)
            elif case != "complete":
                pin_usable_cpus(monkeypatch, 2)
            assert not run_strategy(p, spec).truncated
        assert os.sched_getaffinity(0) == before

    def test_small_phase2_runs_in_the_caller(self, monkeypatch):
        # Fewer than 2 * SHARE_MIN_CUBES cubes cannot pay for a second
        # process, so 2 workers on 2 CPUs fork nothing.  The lemma file is
        # the one 4 workers give, and the provenance, which names the
        # logical worker, the one 2 forked processes give.  A benchmark
        # dnc-pool instance with 14 cubes, its most, and phase-2 lemmas in
        # both logical shares.
        p = Problem.from_text(
            clausal_instance(9, n_bool=9, n_real=3, n_theory=6, n_clauses=20)
        )
        phase1 = projected_allsmt(
            p.cnf, p.table, phase1_prefix(p.cnf.alpha_indices), oracle_for(p)
        )
        assert len(phase1.assignments) == 14 < 2 * strategies.SHARE_MIN_CUBES
        pin_usable_cpus(monkeypatch, 2)
        children = self._record_forks(monkeypatch)
        spec = StrategySpec.from_name("dnc", workers=2)
        res = run_strategy(p, spec)
        four = run_strategy(p, StrategySpec.from_name("dnc", workers=4))
        assert children == []
        fork_every_share(monkeypatch)
        forked = run_strategy(p, spec)
        assert len(children) == 1
        files = {
            render_lemma_script(r.lemma_set.lemmas, p.table) for r in (res, four, forked)
        }
        assert len(files) == 1
        assert res.lemma_set.provenance == forked.lemma_set.provenance
        assert {
            prov.worker for prov in res.lemma_set.provenance if prov.stage.startswith("dnc-phase2")
        } == {0, 1}

    def test_phase2_forks_once_its_cubes_pay_for_a_process(self, monkeypatch):
        # Each share holds at least SHARE_MIN_CUBES cubes: 2 shares from
        # 2 * SHARE_MIN_CUBES cubes on, one process more per SHARE_MIN_CUBES
        # cubes after that, up to the worker and CPU caps.  The first
        # instance criterion 5 selects has 30-40 cubes.
        p = Problem.from_text(
            clausal_instance(2, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
        )
        phase1 = projected_allsmt(
            p.cnf, p.table, phase1_prefix(p.cnf.alpha_indices), oracle_for(p)
        )
        n = len(phase1.assignments)
        assert 30 <= n <= 40
        children = self._record_forks(monkeypatch)
        counts = {}
        for workers in (2, 4):
            pin_usable_cpus(monkeypatch, workers)
            del children[:]
            run_strategy(p, StrategySpec.from_name("dnc", workers=workers))
            counts[workers] = len(children)
        assert counts == {2: 1, 4: min(4, n // strategies.SHARE_MIN_CUBES) - 1}
        assert counts[4] >= 2
        # The boundary: n cubes pay for a second process when shares of
        # n // 2 cubes are enough, not when a share needs one cube more.
        pin_usable_cpus(monkeypatch, 2)
        spec = StrategySpec.from_name("dnc", workers=2)
        for share_min_cubes, want in ((n // 2, 1), (n // 2 + 1, 0)):
            monkeypatch.setattr(strategies, "SHARE_MIN_CUBES", share_min_cubes)
            del children[:]
            run_strategy(p, spec)
            assert len(children) == want, share_min_cubes

    @pytest.mark.parametrize("failing", ["fork", "second fork", "pipe"])
    def test_phase2_share_without_a_process_runs_in_the_caller(self, monkeypatch, failing):
        # When os.fork or os.pipe fails, every share left without a process
        # runs in the caller: the run completes with the bytes and the
        # provenance of one whose forks all succeeded, the children forked
        # before the failure are reaped, and no pipe end is left open.
        p = Problem.from_text(
            clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20)
        )
        fork_every_share(monkeypatch)
        pin_usable_cpus(monkeypatch, 4)
        spec = StrategySpec.from_name("dnc", workers=4)
        want = run_strategy(p, spec)
        children = self._record_forks(monkeypatch)
        name = "pipe" if failing == "pipe" else "fork"
        real, calls = getattr(os, name), []

        def flaky():
            calls.append(name)
            if failing == "second fork" and len(calls) == 1:
                return real()
            if name == "pipe":
                raise OSError(errno.EMFILE, "Too many open files")
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, name, flaky)
        fd_dir = "/proc/self/fd"
        fds = len(os.listdir(fd_dir)) if os.path.isdir(fd_dir) else None
        res = run_strategy(p, spec)
        assert not res.truncated and res.worker_error is None
        assert render_lemma_script(res.lemma_set.lemmas, p.table) == render_lemma_script(
            want.lemma_set.lemmas, p.table
        )
        assert res.lemma_set.provenance == want.lemma_set.provenance
        assert len(children) == (1 if failing == "second fork" else 0)
        for pid in children:  # already reaped
            with pytest.raises(ChildProcessError):
                os.waitpid(pid, os.WNOHANG)
        if fds is not None:
            assert len(os.listdir(fd_dir)) == fds

    def test_phase2_child_records_share_their_literals(self):
        # A child pickles its records as they are.  Its engine builds every
        # lemma from one object per literal, so pickle writes each literal
        # once and the caller loads records equal to the child's, ready to
        # use.  An instance criterion 5 selects, whose share 1 finds 86
        # lemmas.
        p = Problem.from_text(
            clausal_instance(5, n_bool=12, n_real=3, n_theory=6, n_clauses=20)
        )
        proj = list(p.cnf.alpha_indices)
        oracle = oracle_for(p)
        phase1 = projected_allsmt(p.cnf, p.table, phase1_prefix(proj), oracle)
        share = list(enumerate(a.sorted_literals() for a in phase1.assignments))[1::2]
        records = strategies._share_records(
            p.cnf, p.table, oracle, phase1.lemmas, share, proj, None
        )
        lemmas = [lemma for r in records for lemma in r[1]]
        assert len(lemmas) == 86
        assert all(lemma == TLemma.of(lemma.literals) for lemma in lemmas)
        literals = [lit for lemma in lemmas for lit in lemma.literals]
        assert len({id(lit) for lit in literals}) == len(set(literals)) < len(literals)
        assert pickle.loads(pickle.dumps(records, pickle.HIGHEST_PROTOCOL)) == records

    def test_phase2_provenance_records_cubes_and_workers(self, monkeypatch):
        fork_every_share(monkeypatch)
        p = random_problem(depth=4, seed=88)
        res = run_strategy(p, StrategySpec.from_name("dnc", workers=2))
        stages = {prov.stage.split(":")[0] for prov in res.lemma_set.provenance}
        assert stages <= {"dnc-phase1", "dnc-phase2"}


class TestProjection:
    def test_pure_theory_behaves_like_inner(self, two_vals):
        oracle = oracle_for(two_vals)
        plain = enumerate_baseline(
            two_vals, oracle, every_atom(two_vals), (), counters=RunCounters()
        ).lemma_set
        projected = enumerate_baseline(
            two_vals, oracle, two_vals.table.theory_indices(), (), counters=RunCounters()
        ).lemma_set
        assert plain.keys() == projected.keys()

    def test_boolean_atoms_not_enumerated_separately(self):
        p = Problem.from_text(
            "(declare-const b1 Bool)(declare-const x Real)"
            "(assert (or b1 (and (= x 0) (= x 1))))"
        )
        oracle = oracle_for(p)
        c_plain, c_proj = RunCounters(), RunCounters()
        plain = enumerate_baseline(p, oracle, every_atom(p), (), counters=c_plain).lemma_set
        projected = enumerate_baseline(
            p, oracle, p.table.theory_indices(), (), counters=c_proj
        ).lemma_set
        assert projected.keys() == plain.keys()
        assert c_proj.n_candidates <= c_plain.n_candidates
        cls = classify(p.term, p.table, oracle)
        assert rules_out(projected, cls.itta)

    def test_purely_boolean_zero_checks(self):
        p = Problem.from_text("(declare-const a Bool)(assert a)")
        counters = RunCounters()
        ls = enumerate_baseline(
            p, oracle_for(p), p.table.theory_indices(), (), counters=counters
        ).lemma_set
        assert len(ls) == 0
        assert counters.n_theory_checks == 0


class TestPartitioning:
    def test_two_component_product(self):
        p = Problem.from_text(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (or (= x 0) (= x 1)) (or (= y 0) (= y 1))))"
        )
        oracle = oracle_for(p)
        res = run_strategy(p, StrategySpec.from_name("baseline-proj-part"), oracle=oracle)
        ls = res.lemma_set
        assert res.counters.n_partitions == 2
        assert {l.literals for l in ls.lemmas} == {
            (L(0, False), L(1, False)),
            (L(2, False), L(3, False)),
        }
        cls = classify(p.term, p.table, oracle)
        assert rules_out(ls, cls.itta)

    def test_single_component_equals_projection(self, two_vals):
        oracle = oracle_for(two_vals)
        part = run_strategy(
            two_vals, StrategySpec.from_name("baseline-proj-part"), oracle=oracle
        )
        proj = run_strategy(
            two_vals, StrategySpec.from_name("baseline-proj"), oracle=oracle
        )
        assert part.lemma_set.keys() == proj.lemma_set.keys()

    def test_later_components_seeded_with_earlier_lemmas(self):
        # Leaf checks see the whole theory assignment, so a component pass can
        # already mint the other component's lemma; later passes are seeded
        # with everything found so far and never re-derive it.
        p = Problem.from_text(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (and (or (= x 0) (= x 1)) (or (= y 0) (= y 1))))"
        )
        ls = run_strategy(p, StrategySpec.from_name("baseline-proj-part")).lemma_set
        assert len(ls) == 2
        stages = {prov.stage for prov in ls.provenance}
        assert stages <= {"baseline:component0", "baseline:component1"}
        assert len(ls.lemmas) == len(set(l.key for l in ls.lemmas))


class TestDedup:
    def test_same_literal_set_collapses(self):
        a = TLemma.of([L(0, False), L(1, False)])
        b = TLemma.of([L(1, False), L(0, False)])
        provs = [LemmaProvenance("x", 0, 0), LemmaProvenance("x", 0, 1)]
        ls = dedup_lemmas([a, b], provs)
        assert len(ls) == 1

    def test_provenance_first_occurrence_wins(self):
        a = TLemma.of([L(0, False)])
        provs = [LemmaProvenance("x", 0, 0), LemmaProvenance("y", 1, 1)]
        ls = dedup_lemmas([a, a], provs)
        assert ls.provenance == [LemmaProvenance("x", 0, 0)]

    def test_dedup_preserves_rules_out(self):
        p = random_problem(depth=4, seed=55)
        oracle = oracle_for(p)
        raw = enumerate_dnc(
            p, oracle, every_atom(p), (), spec=DNC, counters=RunCounters()
        ).lemma_set
        cls = classify(p.term, p.table, oracle)
        deduped = dedup_lemmas(list(raw.lemmas) * 3, list(raw.provenance) * 3)
        assert rules_out(deduped, cls.itta) == rules_out(raw, cls.itta)


def _subsumed_pairs(lemma_set):
    """The pairs of lemma keys of which the first strictly contains the
    second."""
    keys = [lemma.key for lemma in lemma_set.lemmas]
    return [(a, b) for a in keys for b in keys if b < a]


class TestNoLemmaSubsumesAnother:
    """Every core is irreducible, so no lemma's literal set strictly
    contains another's: a subsumption pass could never drop a lemma."""

    @pytest.mark.parametrize("instance", range(8))
    def test_golden_instances(self, monkeypatch, instance):
        p = Problem.from_text(
            clausal_instance(instance, n_bool=8, n_real=3, n_theory=6, n_clauses=20)
        )
        for name in STRATEGY_NAMES:
            res = run_strategy(p, StrategySpec.from_name(name, workers=1))
            assert len(res.lemma_set) > 0, name
            assert _subsumed_pairs(res.lemma_set) == [], name
        fork_every_share(monkeypatch)
        pin_usable_cpus(monkeypatch, 2)
        for name in ("dnc", "dnc-proj", "dnc-proj-part"):
            res = run_strategy(p, StrategySpec.from_name(name, workers=2))
            assert _subsumed_pairs(res.lemma_set) == [], name

    @pytest.mark.parametrize("name", ["baseline-proj-part", "dnc-proj-part"])
    def test_truncated_partitioned_run(self, monkeypatch, name):
        p = Problem.from_text(product_instance(1, n_groups=3))
        attr = "enumerate_baseline" if name.startswith("baseline") else "enumerate_dnc"
        real = getattr(strategies, attr)
        stages = []

        def expire_after_first(*args, **kw):
            stages.append(kw["stage"])
            if len(stages) > 1:
                kw["deadline"] = 0.0
            return real(*args, **kw)

        monkeypatch.setattr(strategies, attr, expire_after_first)
        res = run_strategy(p, StrategySpec.from_name(name))
        assert res.truncated and len(stages) == 2
        assert len(res.lemma_set) > 0
        assert _subsumed_pairs(res.lemma_set) == []


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

    def test_cubes_are_counted_once(self):
        p = random_problem(depth=4, seed=7003)
        for name in ("baseline", "baseline-proj", "dnc", "baseline-proj-part"):
            counters = run_strategy(p, StrategySpec.from_name(name, workers=1)).counters
            assert counters.n_assignments > 0, name
            assert counters.n_blocking_clauses == counters.n_assignments, name
        assert "n_blocking_clauses" not in {f.name for f in fields(RunCounters)}
        with pytest.raises(AttributeError):
            counters.n_blocking_clauses = 0

    @pytest.mark.parametrize("name", ["baseline", "dnc", "baseline-proj-part"])
    def test_oracle_timeout_truncates_not_errors(self, name):
        p = Problem.from_text(product_instance(1, n_groups=2))
        res = run_strategy(
            p, StrategySpec.from_name(name), oracle_config=OracleConfig(timeout_secs=1e-9)
        )
        assert res.truncated

    def test_budget_truncation_flagged(self):
        p = random_problem(depth=5, seed=123, max_atoms=12)
        res = run_strategy(p, StrategySpec(budget_secs=0.0))
        assert res.truncated

    @pytest.mark.parametrize(
        "name, stop",
        [
            ("baseline-proj-part", "budget"),
            ("dnc-proj-part", "budget in phase 1"),
            ("dnc-proj-part", "budget in phase 2"),
            ("baseline-proj-part", "oracle fault"),
            ("dnc-proj-part", "oracle fault"),
        ],
    )
    def test_budget_in_later_component_keeps_earlier_lemmas(self, monkeypatch, name, stop):
        # A stop ends the run at the pass it cut short: no later pass
        # starts, and the run returns what that pass and every earlier one
        # found.  The budget expires as the second component's pass starts,
        # after its DnC phase 1 recorded its last cube (so no phase 2 may
        # run on those cubes), or as its phase 2 starts; the oracle faults
        # on the first query of component 0's pass.
        p = Problem.from_text(product_instance(1, n_groups=3))
        spec = StrategySpec.from_name(name)
        base = spec.base
        full = run_strategy(p, spec)
        first = {
            lemma.key
            for lemma, prov in zip(full.lemma_set.lemmas, full.lemma_set.provenance)
            if prov.stage.startswith(f"{base}:component0")
        }
        assert first
        real_pass = getattr(strategies, f"enumerate_{base}")
        real_allsmt, real_cubes = strategies.projected_allsmt, strategies.enumerate_cubes
        stages, passes, phase2_stages = [], [], []

        def recorded_pass(*args, **kw):
            stages.append(kw["stage"])
            if len(stages) > 1 and stop == "budget":
                kw["deadline"] = 0.0
            passes.append(real_pass(*args, **kw))
            return passes[-1]

        def phase1(*args, **kw):
            outcome = real_allsmt(*args, **kw)
            if len(stages) > 1 and stop == "budget in phase 1":
                assert outcome.cubes
                outcome.truncated = True
            return outcome

        def phase2(*args, **kw):
            phase2_stages.append(stages[-1])
            if len(stages) > 1 and stop == "budget in phase 2":
                kw["deadline"] = 0.0
            return real_cubes(*args, **kw)

        monkeypatch.setattr(strategies, f"enumerate_{base}", recorded_pass)
        monkeypatch.setattr(strategies, "projected_allsmt", phase1)
        monkeypatch.setattr(strategies, "enumerate_cubes", phase2)
        config = OracleConfig(timeout_secs=1e-9) if stop == "oracle fault" else None
        res = run_strategy(p, spec, oracle_config=config)
        assert res.truncated and res.worker_error is None
        assert [r.truncated for r in passes] == [False] * (len(passes) - 1) + [True]
        assert res.lemma_set.keys() == set().union(*(r.lemma_set.keys() for r in passes))
        if stop == "oracle fault":
            assert stages == [f"{base}:component0"] and phase2_stages == []
            assert res.oracle_error == "theory query exceeded its time budget"
            return
        assert stages == [f"{base}:component0", f"{base}:component1"]
        assert res.oracle_error is None
        assert first <= res.lemma_set.keys()
        if base == "dnc":
            assert phase2_stages == (stages if stop == "budget in phase 2" else stages[:1])


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_tracer_wraps_the_strategies(monkeypatch):
    """The benchmark's tracer patches the strategies by name and reads
    their call shapes: ``projected_allsmt``'s fourth positional argument
    and ``enumerate_dnc``'s ``spec=`` keyword.  Under it, ``dnc`` with a
    forked phase-2 child and a partitioned run record their spans, none
    with an error, and give the lemma bytes of an untraced run."""
    source = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(source)
    monkeypatch.setitem(sys.modules, source.name, tracing)
    source.loader.exec_module(tracing)
    fork_every_share(monkeypatch)
    pin_usable_cpus(monkeypatch, 2)
    runs = [
        (clausal_instance(6, n_bool=3, n_real=3, n_theory=10, n_clauses=20), "dnc"),
        (product_instance(1, n_groups=3), "baseline-proj-part"),
    ]
    problems = [
        (Problem.from_text(text), StrategySpec.from_name(name, workers=2)) for text, name in runs
    ]

    def lemma_files():
        return [
            render_lemma_script(run_strategy(p, spec).lemma_set.lemmas, p.table)
            for p, spec in problems
        ]

    untraced = lemma_files()
    tracer = tracing.Tracer()
    tracer.enable(True, 0)
    try:
        traced = lemma_files()
    finally:
        tracer.enable(False, None)
    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {
        "strategies.enumerate_dnc",
        "strategies.enumerate_baseline",
        "enumeration.projected_allsmt",
    } <= names
    assert [span for span in tracer.spans if "error" in (span[5] or {})] == []


def _strategy_digest(p: Problem) -> str:
    """Every strategy's run on ``p``, the ``dnc`` ones on 1 and 2 workers:
    the lemma file's bytes, the provenance, the counters and, on 1 worker,
    the oracle's solve count, which on 2 depends on how many processes
    ran."""
    records = []
    for name in STRATEGY_NAMES:
        for workers in (1, 2) if name.startswith("dnc") else (1,):
            oracle = oracle_for(p)
            res = run_strategy(p, StrategySpec.from_name(name, workers=workers), oracle=oracle)
            text = render_lemma_script(res.lemma_set.lemmas, p.table)
            records.append(repr((
                name,
                workers,
                hashlib.sha256(text.encode("utf-8")).hexdigest(),
                res.lemma_set.provenance,
                res.counters,
                res.truncated,
                oracle.n_raw_checks if workers == 1 else None,
            )))
    return hashlib.sha256("\n".join(records).encode()).hexdigest()


# Recorded from the engine that still had early pruning, which no strategy
# turned on: the strategies' outputs did not change when it was deleted.
STRATEGY_GOLDEN_DIGESTS = {
    0: "a67b7914488418784cb92dc8907d1d85deb2f1275d08d683eb3c5d7458fe9abe",
    1: "6aa6710188a95dbb880cca53490bb32d1955e3101b8915c3eb1f5dfac92d2b5b",
    2: "faac6545835ebc1f126f771ca993d01a66f277a0a41571c5c66920015d4275c2",
    3: "93fad3bc1cacafeecac5247f49d658d769fa5006dda2bdd996f92c369eb4c8a6",
    4: "b1e59aab837f5f7a862cbf2f43934b4cb8ed58af366b16a663ea178600690349",
    5: "2d33f85fd3c6c724bc048e68375507bc1f716dc13fa7ded24f9d6fd84d070c0e",
    6: "1921d366c5cf666845e86a4a19a6e5da0bb6e1dbe2432d20477235edd2f2cafb",
    7: "b85d3c8efa8eceeb36150d1232d47c7e0c1c6bb39df3ea061c535e57367389c4",
}


class TestGolden:
    """The strategies' exact output on the clausal instances that
    ``test_enumeration.TestGolden`` pins the engine on."""

    @pytest.mark.parametrize("instance", range(8))
    def test_output_is_pinned(self, instance):
        p = Problem.from_text(
            clausal_instance(instance, n_bool=8, n_real=3, n_theory=6, n_clauses=20)
        )
        assert _strategy_digest(p) == STRATEGY_GOLDEN_DIGESTS[instance]


# The three generator families, each kept to 12 atoms or fewer so that the
# verifier can enumerate every total assignment.  The reference solver splits
# every disequality, so a product group, whose atoms are all equalities, keeps
# to 3 of them: groups of 4 took about 10 s alone.
_INSTANCES = st.one_of(
    st.builds(
        random_instance,
        depth=st.integers(3, 6),
        n_bool=st.integers(0, 4),
        n_real=st.integers(2, 4),
        seed=st.integers(0, 10**6),
        max_atoms=st.integers(6, 12),
    ),
    st.builds(
        clausal_instance,
        seed=st.integers(0, 10**6),
        n_bool=st.integers(0, 4),
        n_real=st.integers(2, 3),
        n_theory=st.integers(4, 6),
        n_clauses=st.integers(4, 12),
    ),
    st.builds(
        product_instance,
        seed=st.integers(0, 10**6),
        n_groups=st.integers(1, 3),
        per_group=st.integers(2, 3),
    ),
)


class TestDifferential:
    """One lemma file whatever the backend or the worker count.

    The engine reads only verdicts and cores, and the oracle front end
    minimizes a core by deletion in ascending order over the whole query,
    so a core is a function of the verdicts alone, not of the core the
    backend returns.  The external backend here is the simplex reference
    with cores found by deletion in descending order (``SUBSET_CORE_CMD``).
    It and the builtin Fourier-Motzkin oracle must give the same lemma
    bytes, and so must one and two phase-2 workers on either backend, the
    second in a forked child.
    """

    @pytest.fixture(autouse=True, scope="class")
    def _fork_every_share(self):
        with pytest.MonkeyPatch.context() as monkeypatch:
            fork_every_share(monkeypatch)
            yield

    @seed(2026)
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(text=_INSTANCES)
    # An equality substituted into another leaves a negative leading
    # coefficient; random draws rarely reach it.
    @example(text=clausal_instance(23, n_bool=0, n_real=3, n_theory=6, n_clauses=10))
    # Two strict bounds meet in the contradiction 0 < 0.
    @example(text=clausal_instance(4, n_bool=2, n_real=2, n_theory=6, n_clauses=10))
    def test_lemma_bytes_agree(self, text):
        p = Problem.from_text(text)
        cls = classify(p.term, p.table, oracle_for(p), cap=12)
        external = make_oracle(
            p.table,
            OracleConfig(command=SUBSET_CORE_CMD, timeout_secs=30),
        )
        try:
            for name in STRATEGY_NAMES:
                one, two = StrategySpec.from_name(name), StrategySpec.from_name(name, workers=2)
                runs = [
                    run_strategy(p, one, oracle=oracle_for(p)),
                    run_strategy(p, one, oracle=external),
                    run_strategy(p, two),
                ]
                if two.base == "dnc":
                    runs.append(run_strategy(p, two, oracle=external))
                assert not any(r.truncated for r in runs), name
                builtin, *others = (
                    render_lemma_script(r.lemma_set.lemmas, p.table) for r in runs
                )
                assert others == [builtin] * len(others), name
                verdicts = check_lemma_set(
                    p.term, p.table, oracle_for(p), runs[0].lemma_set.lemmas, cls, cap=12
                )
                assert verdicts[:4] == (True, True, True, True), name
        finally:
            external.close()
