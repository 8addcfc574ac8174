import random
import shlex
import sys

import pytest

from helpers import REF_CMD, L, atoms_problem, random_theory_literals
from tlemma.cli import EXIT_TRUNCATED, main
from tlemma.external import ExternalSolverError
from tlemma.generator import product_instance
from tlemma.oracle import BuiltinOracle, OracleConfig, TLemma, make_oracle
from tlemma.problem import Problem
from tlemma.strategies import StrategySpec, run_strategy


def ext_oracle(table):
    cfg = OracleConfig(command=REF_CMD, timeout_secs=30)
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

    def test_closed_session_closes_its_pipes(self, xy):
        oracle = ext_oracle(xy.table)
        oracle.check([L(0)])
        proc = oracle.session.proc
        oracle.close()
        assert proc.returncode is not None
        assert proc.stdin.closed and proc.stdout.closed


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
        cfg = OracleConfig(command="/nonexistent/solver-xyz")
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
        cfg = OracleConfig(command=f"{shlex.quote(sys.executable)} {script}")
        oracle = make_oracle(xy.table, cfg)
        try:
            with pytest.raises(ExternalSolverError):
                oracle.check([L(0)])
        finally:
            oracle.close()

    def test_satisfiable_core(self, xy, tmp_path):
        # The reference solver, naming only the first assertion as the core.
        script = tmp_path / "first_core.py"
        script.write_text(
            "from tlemma import ref_solver\n"
            "solver = ref_solver._Solver()\n"
            "read_sexpr = ref_solver._read_sexpr\n"
            "def read_command(stream):\n"
            "    node = read_sexpr(stream)\n"
            "    if node != ['get-unsat-core']:\n"
            "        return node\n"
            "    print('(' + solver.stack[-1][0][0] + ')', flush=True)\n"
            "    return ['set-info']\n"
            "ref_solver._read_sexpr = read_command\n"
            "solver.run()\n"
        )
        cfg = OracleConfig(command=f"{shlex.quote(sys.executable)} {script}")
        oracle = make_oracle(xy.table, cfg)
        try:
            with pytest.raises(ExternalSolverError, match="satisfiable unsat core"):
                oracle.check([L(0), L(1)])
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


def exiting_solver(tmp_path, replies: int) -> str:
    """Command for the reference solver, made to exit after ``replies``
    replies, mid-run."""
    script = tmp_path / "exits.py"
    script.write_text(
        "import builtins, sys\n"
        "from tlemma import ref_solver\n"
        f"left = [{replies}]\n"
        "def reply(*args, **kw):\n"
        "    if left[0] == 0:\n"
        "        sys.exit(0)\n"
        "    left[0] -= 1\n"
        "    builtins.print(*args, **kw)\n"
        "ref_solver.print = reply\n"
        "ref_solver.main()\n"
    )
    return f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"


class TestSolverFault:
    """A solver that dies mid-run truncates the run; the lemmas found before
    the fault are kept."""

    # 20 replies end the session mid-run: 2 of the 6 lemmas of the product
    # instance under baseline.  The memo answers repeated queries, so 40
    # replies reach all 6.
    REPLIES = 20

    @pytest.mark.parametrize("name", ["baseline", "dnc", "baseline-proj-part"])
    def test_run_strategy_keeps_lemmas(self, tmp_path, name):
        p = Problem.from_text(product_instance(1, n_groups=2))
        cfg = OracleConfig(command=exiting_solver(tmp_path, self.REPLIES), timeout_secs=30)
        res = run_strategy(p, StrategySpec.from_name(name), oracle_config=cfg)
        assert res.truncated
        assert "eof" in res.oracle_error or "exited" in res.oracle_error
        full = run_strategy(p, StrategySpec.from_name(name))
        assert not full.truncated and full.oracle_error is None
        assert 0 < len(res.lemma_set) < len(full.lemma_set)
        assert res.lemma_set.keys() <= full.lemma_set.keys()

    def test_cli_exits_truncated_with_lemma_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("TLEMMA_ORACLE_CMD", raising=False)
        instance = tmp_path / "product.smt2"
        instance.write_text(product_instance(1, n_groups=2))
        out = tmp_path / "product.lemmas"
        rc = main(
            ["enumerate", "-i", str(instance), "-o", str(out), "--workers", "1",
             "--oracle-cmd", exiting_solver(tmp_path, self.REPLIES)]
        )
        assert rc == EXIT_TRUNCATED
        assert "(assert" in out.read_text()
        assert "oracle error:" in capsys.readouterr().err


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
