import os
import random
import shlex
import sys

import pytest

from helpers import L, atoms_problem, random_theory_literals
from tlemma.external import ExternalOracle, ExternalSolverError, SolverSession
from tlemma.oracle import BuiltinOracle, OracleConfig, TLemma, make_oracle


REF_CMD = f"{shlex.quote(sys.executable)} -m tlemma.ref_solver"


def ext_oracle(table, **kw):
    cfg = OracleConfig(backend="external", command=REF_CMD, timeout_secs=30, **kw)
    return make_oracle(table, cfg)


@pytest.fixture
def xy():
    return atoms_problem("(<= x 0)", "(= x 1)", "(<= y 5)")


class TestProtocol:
    def test_unsat_with_core(self, xy):
        oracle = ext_oracle(xy.table)
        try:
            v = oracle.check([L(0), L(1)])
            assert not v.satisfiable
            assert set(v.core) == {L(0), L(1)}
        finally:
            oracle.close()

    def test_sat(self, xy):
        oracle = ext_oracle(xy.table)
        try:
            assert oracle.check([L(0), L(1, False)]).satisfiable
        finally:
            oracle.close()

    def test_empty_conjunction(self, xy):
        oracle = ext_oracle(xy.table)
        try:
            assert oracle.check([]).satisfiable
        finally:
            oracle.close()

    def test_minimized_core(self, xy):
        oracle = ext_oracle(xy.table)
        try:
            v = oracle.check([L(0), L(1), L(2)])
            assert set(v.core) == {L(0), L(1)}
        finally:
            oracle.close()

    def test_model_production(self, xy):
        oracle = ext_oracle(xy.table, model_production=True)
        try:
            v = oracle.check([L(0), L(2)])
            assert v.satisfiable
            assert v.model["x"] <= 0 and v.model["y"] <= 5
        finally:
            oracle.close()

    def test_is_valid_lemma(self, xy):
        oracle = ext_oracle(xy.table)
        try:
            assert oracle.is_valid_lemma(TLemma.of([L(0, False), L(1, False)]))
            assert not oracle.is_valid_lemma(TLemma.of([L(0), L(1)]))
        finally:
            oracle.close()

    def test_session_reused_across_queries(self, xy):
        oracle = ext_oracle(xy.table)
        try:
            oracle.check([L(0)])
            first = oracle.session.proc.pid
            oracle.check([L(1)])
            assert oracle.session.proc.pid == first
        finally:
            oracle.close()


class TestMisbehavior:
    def test_unknown_reply(self, xy, monkeypatch):
        monkeypatch.setenv("TLEMMA_REF_MODE", "unknown")
        oracle = ext_oracle(xy.table)
        try:
            with pytest.raises(ExternalSolverError) as err:
                oracle.check([L(0)])
            assert "unknown" in str(err.value)
        finally:
            oracle.close()

    def test_solver_death_is_eof(self, xy, monkeypatch):
        monkeypatch.setenv("TLEMMA_REF_MODE", "die")
        oracle = ext_oracle(xy.table)
        try:
            with pytest.raises(ExternalSolverError) as err:
                oracle.check([L(0)])
            assert "eof" in str(err.value) or "exited" in str(err.value)
        finally:
            oracle.close()

    def test_missing_command(self, xy):
        cfg = OracleConfig(backend="external", command="/nonexistent/solver-xyz")
        with pytest.raises(ExternalSolverError):
            make_oracle(xy.table, cfg).check([L(0)])

    def test_garbage_reply(self, xy, tmp_path):
        script = tmp_path / "garbage.py"
        script.write_text(
            "import sys\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line:\n"
            "        print('maybe-so', flush=True)\n"
        )
        cfg = OracleConfig(
            backend="external", command=f"{shlex.quote(sys.executable)} {script}"
        )
        oracle = make_oracle(xy.table, cfg)
        try:
            with pytest.raises(ExternalSolverError):
                oracle.check([L(0)])
        finally:
            oracle.close()


    def test_late_reply_does_not_answer_the_next_query(self, xy, tmp_path):
        # The first session answers its check-sat only after the read has
        # timed out; later sessions are the reference solver.  Had the late
        # "sat" stayed in the pipe, the unsat second query would read it.
        marker = tmp_path / "started"
        script = tmp_path / "late.py"
        script.write_text(
            "import os, sys, time\n"
            f"marker = {str(marker)!r}\n"
            "if os.path.exists(marker):\n"
            "    os.execv(sys.executable, [sys.executable, '-m', 'tlemma.ref_solver'])\n"
            "open(marker, 'w').close()\n"
            "for line in sys.stdin:\n"
            "    if 'check-sat' in line:\n"
            "        time.sleep(1.5)\n"
            "        print('sat', flush=True)\n"
        )
        cfg = OracleConfig(
            backend="external",
            command=f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
            timeout_secs=1.0,
        )
        oracle = make_oracle(xy.table, cfg)
        try:
            with pytest.raises(ExternalSolverError):
                oracle.check([L(0)])
            assert oracle.session is None
            v = oracle.check([L(0), L(1)])
            assert not v.satisfiable
            assert set(v.core) == {L(0), L(1)}
        finally:
            oracle.close()


class TestCrossValidation:
    def test_verdicts_agree_with_builtin(self):
        p = atoms_problem(
            "(<= (+ x y) 2)",
            "(< (- x y) 0)",
            "(= x 1)",
            "(<= y 0)",
            "(= (+ x (* 3 y)) 0)",
            "(< y 4)",
        )
        builtin = BuiltinOracle(p.table)
        external = ext_oracle(p.table)
        rng = random.Random(17)
        try:
            for _ in range(60):
                lits = random_theory_literals(rng, p.table)
                assert (
                    builtin.check(lits).satisfiable
                    == external.check(lits).satisfiable
                )
        finally:
            external.close()
