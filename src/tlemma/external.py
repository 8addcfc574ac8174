"""External SMT-LIB2 solver backend over a persistent subprocess.

One subprocess per oracle instance (hence per worker).  Each query is a
``(push 1) (assert (! lit :named ...)) ... (check-sat) [(get-unsat-core)]
(pop 1)`` exchange; the named core is mapped back to literals.  The session
asks only for verdicts and unsat cores: nothing reads a theory model.  Solver
misbehavior (``unknown``, protocol violations, early exit, timeouts) raises
:class:`ExternalSolverError` and is never silently treated as a verdict; the
session it happened in is killed, so a late reply cannot answer the next
query, which starts a fresh session.
"""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import time
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

from .atoms import Literal
from .oracle import OracleConfig, OracleError, TheoryOracle, TheoryVerdict
from .terms import linear_atom_sexpr


class ExternalSolverError(OracleError):
    pass


def _lit_name(lit: Literal) -> str:
    return f"k{lit.atom_index}{'p' if lit.polarity else 'n'}"


def _name_to_lit(name: str) -> Literal:
    if not name.startswith("k") or name[-1] not in "pn":
        raise ExternalSolverError(f"unknown core label '{name}'")
    try:
        idx = int(name[1:-1])
    except ValueError:
        raise ExternalSolverError(f"unknown core label '{name}'") from None
    return Literal(idx, name[-1] == "p")


class SolverSession:
    """Line-oriented SMT-LIB2 conversation with a solver subprocess."""

    def __init__(self, command: str, timeout_secs: float = 10.0):
        self.command = command
        self.timeout_secs = timeout_secs
        try:
            self.proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
            )
        except OSError as exc:
            raise ExternalSolverError(f"cannot start solver: {exc}") from exc
        self._buf = b""

    def send(self, line: str) -> None:
        if self.proc.poll() is not None:
            raise ExternalSolverError("solver process has exited")
        try:
            self.proc.stdin.write(line.encode() + b"\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ExternalSolverError("eof") from exc

    def _read_byte(self, deadline: float) -> bytes:
        if self._buf:
            b, self._buf = self._buf[:1], self._buf[1:]
            return b
        fd = self.proc.stdout.fileno()
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ExternalSolverError("timeout waiting for solver reply")
            ready, _, _ = select.select([fd], [], [], min(remaining, 0.25))
            if not ready:
                if self.proc.poll() is not None:
                    raise ExternalSolverError("eof")
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise ExternalSolverError("eof")
            self._buf = chunk[1:]
            return chunk[:1]

    def read_sexpr(self) -> str:
        """One reply: a bare word or a balanced parenthesized expression."""
        deadline = time.monotonic() + self.timeout_secs
        out: List[str] = []
        depth = 0
        in_string = False
        while True:
            ch = self._read_byte(deadline).decode("utf-8", "replace")
            if not out and ch in " \t\r\n":
                continue
            if in_string:
                out.append(ch)
                if ch == '"':
                    in_string = False
                continue
            if ch == '"':
                in_string = True
                out.append(ch)
            elif ch == "(":
                depth += 1
                out.append(ch)
            elif ch == ")":
                depth -= 1
                out.append(ch)
                if depth == 0:
                    return "".join(out)
                if depth < 0:
                    raise ExternalSolverError("unbalanced solver reply")
            elif ch in " \t\r\n":
                if depth == 0:
                    return "".join(out)
                out.append(ch)
            else:
                out.append(ch)

    def kill(self) -> None:
        """End the process at once, without the ``(exit)`` handshake."""
        self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:  # unsent input for a process that is gone
                pass

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.send("(exit)")
            except ExternalSolverError:
                pass
            try:
                self.proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self.proc.kill()


class ExternalOracle(TheoryOracle):
    """Theory oracle speaking SMT-LIB2 to a user-supplied solver command."""

    def __init__(self, table, config: OracleConfig):
        if not config.command:
            raise ExternalSolverError("external backend requires a solver command")
        self.table = table
        self.config = config
        self.session: Optional[SolverSession] = None
        self.n_raw_checks = 0
        self._sat_memo: Set[FrozenSet[Literal]] = set()

    def _ensure_session(self) -> SolverSession:
        if self.session is None:
            s = SolverSession(self.config.command, self.config.timeout_secs)
            s.send("(set-option :print-success false)")
            s.send("(set-option :produce-unsat-cores true)")
            s.send("(set-logic QF_LRA)")
            for name in self.table.variables():
                s.send(f"(declare-const {name} Real)")
            self.session = s
        return self.session

    def _literal_sexpr(self, lit: Literal) -> str:
        atom = linear_atom_sexpr(self.table.linear_atom(lit.atom_index))
        return atom if lit.polarity else f"(not {atom})"

    def _raw_check(self, lits: FrozenSet[Literal]) -> Tuple[bool, Optional[Tuple[Literal, ...]]]:
        """``(True, None)``, or ``(False, core)`` with the solver's core."""
        if lits in self._sat_memo:
            return True, None
        s = self._ensure_session()
        self.n_raw_checks += 1
        try:
            s.send("(push 1)")
            for lit in sorted(lits):
                s.send(f"(assert (! {self._literal_sexpr(lit)} :named {_lit_name(lit)}))")
            s.send("(check-sat)")
            reply = s.read_sexpr()
            if reply == "sat":
                result = (True, None)
            elif reply == "unsat":
                s.send("(get-unsat-core)")
                result = (False, self._parse_core(s.read_sexpr(), lits))
            else:
                raise ExternalSolverError(f"unexpected solver reply: {reply}")
            s.send("(pop 1)")
        except ExternalSolverError:
            self._drop_session()
            raise
        if result[0]:
            self._sat_memo.add(lits)
        return result

    def _drop_session(self) -> None:
        """Kill a session whose replies can no longer be matched to queries
        (a late, missing or garbled reply may still be in flight); the next
        query starts a fresh one."""
        self.session.kill()
        self.session = None

    @staticmethod
    def _parse_core(reply: str, asked: FrozenSet[Literal]) -> Tuple[Literal, ...]:
        reply = reply.strip()
        if not (reply.startswith("(") and reply.endswith(")")):
            raise ExternalSolverError(f"malformed unsat core: {reply}")
        names = reply[1:-1].split()
        core = []
        for name in names:
            lit = _name_to_lit(name)
            if lit not in asked:
                raise ExternalSolverError(f"core names unasserted literal {name}")
            core.append(lit)
        return tuple(sorted(core))

    def check(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = frozenset(literals)
        sat, core = self._raw_check(lits)
        if sat:
            return TheoryVerdict(True)
        if self.config.minimize_cores:
            core = self.minimize_core(core)
        return TheoryVerdict(False, core=core)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def __del__(self):  # best effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass
