"""External SMT-LIB2 solver backend over a persistent subprocess.

The backend supplies only ``_solve``: the memo, the component split and
core minimization are :class:`~tlemma.oracle.TheoryOracle`'s.  One
subprocess per oracle instance (hence per worker).  Each part of a query is
a ``(push 1) (assert (! lit :named ...)) ... (check-sat) [(get-unsat-core)]
(pop 1)`` exchange; the named core, mapped back to literals, is the witness.
Minimization trusts it, so a core smaller than the part is checked by one
more exchange.  Nothing reads a theory model.  Solver misbehavior
(``unknown``, protocol violations, a satisfiable core, early exit, timeouts)
raises :class:`ExternalSolverError` and is never silently treated as a
verdict; a failed exchange kills its session, so a late reply cannot answer
the next query, which starts a fresh session.
"""

from __future__ import annotations

import os
import select
import shlex
import subprocess
import time
from typing import FrozenSet, List, Optional

from .atoms import Literal
from .oracle import OracleConfig, OracleError, TheoryOracle
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
        super().__init__(table, config)
        self.session: Optional[SolverSession] = None

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

    def for_forked_child(self) -> "ExternalOracle":
        """A new instance with this one's memos: a forked child must not
        speak to this instance's solver session, whose pipes it shares."""
        child = ExternalOracle(self.table, self.config)
        child.import_memo(self.export_memo())
        return child

    def _literal_sexpr(self, lit: Literal) -> str:
        atom = linear_atom_sexpr(self.table.linear_atom(lit.atom_index))
        return atom if lit.polarity else f"(not {atom})"

    def _solve(self, part: FrozenSet[Literal]):
        """``(True, None)``, or ``(False, core)`` with the solver's core,
        checked on its own when smaller than the part."""
        sat, core = self._exchange(part)
        if not sat and core != part and self._exchange(core)[0]:
            raise ExternalSolverError("solver returned a satisfiable unsat core")
        return sat, core

    def _exchange(self, lits: FrozenSet[Literal]):
        """One check-sat of ``lits``, with the core if unsat."""
        s = self._ensure_session()
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
        return result

    def _drop_session(self) -> None:
        """Kill a session whose replies can no longer be matched to queries
        (a late, missing or garbled reply may still be in flight); the next
        query starts a fresh one."""
        self.session.kill()
        self.session = None

    @staticmethod
    def _parse_core(reply: str, asked: FrozenSet[Literal]) -> FrozenSet[Literal]:
        reply = reply.strip()
        if not (reply.startswith("(") and reply.endswith(")")):
            raise ExternalSolverError(f"malformed unsat core: {reply}")
        core = set()
        for name in reply[1:-1].split():
            lit = _name_to_lit(name)
            if lit not in asked:
                raise ExternalSolverError(f"core names unasserted literal {name}")
            core.add(lit)
        return frozenset(core)

    def close(self) -> None:
        if self.session is not None:
            self.session.close()
            self.session = None

    def __del__(self):  # best effort; close() is the supported path
        try:
            self.close()
        except Exception:
            pass
