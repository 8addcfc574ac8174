"""Shared test helpers: independent reference oracles and small builders.

The evaluators here deliberately avoid the library's own evaluation paths
(three-valued eval, truth-table bitmasks) so tests compare two independent
routes to the same answer.  ``ReferenceFrontEnd`` is the exception: it is
the literal-keyed oracle front end that the value-keyed one replaced.
"""

from __future__ import annotations

import itertools
import os
import random
import shlex
import sys
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from tlemma.atoms import AtomTable, Literal
from tlemma.oracle import BuiltinOracle, OracleError, TheoryVerdict
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.terms import Term, TermKind

# The reference simplex solver, run as an external SMT-LIB2 backend.
REF_CMD = f"{shlex.quote(sys.executable)} -m tlemma.ref_solver"

# The reference solver answering ``(get-unsat-core)`` with a minimal core
# found by deletion in descending assertion order, rather than with every
# named assertion.  Assertions arrive in ascending atom order, so its cores
# differ from the ascending deletion of core minimization: lemmas that
# depended on the solver's core would differ from the builtin backend's.
_SUBSET_CORE_SOLVER = """
from tlemma import ref_solver

solver = ref_solver._Solver()
read_sexpr = ref_solver._read_sexpr

def subset_core():
    asserted = [a for frame in solver.stack for a in frame]
    for named in reversed([a for a in asserted if a[0]]):
        trial = [a for a in asserted if a is not named]
        if ref_solver.satisfiable([c for _, c in trial]) is None:
            asserted = trial
    return [name for name, _ in asserted if name]

def read_command(stream):
    node = read_sexpr(stream)
    if node == ["get-unsat-core"]:
        print("(" + " ".join(subset_core()) + ")", flush=True)
        return ["set-info"]  # a command the solver ignores
    return node

ref_solver._read_sexpr = read_command
solver.run()
"""
SUBSET_CORE_CMD = f"{shlex.quote(sys.executable)} -c {shlex.quote(_SUBSET_CORE_SOLVER)}"


def L(i: int, polarity: bool = True) -> Literal:
    return Literal(i, polarity)


def direct_eval(term: Term, values: Dict[int, bool], table: Optional[AtomTable] = None) -> bool:
    """Plain two-valued evaluation under a total assignment."""
    k = term.kind
    if k is TermKind.CONST:
        return term.payload
    if k is TermKind.ATOM_REF:
        return values[term.payload]
    if k in (TermKind.BOOL_ATOM, TermKind.THEORY_ATOM):
        return values[table.index_of[term.id]]
    if k is TermKind.NOT:
        return not direct_eval(term.args[0], values, table)
    if k is TermKind.AND:
        return all(direct_eval(a, values, table) for a in term.args)
    if k is TermKind.OR:
        return any(direct_eval(a, values, table) for a in term.args)
    if k is TermKind.IMPLIES:
        return (not direct_eval(term.args[0], values, table)) or direct_eval(
            term.args[1], values, table
        )
    if k is TermKind.IFF:
        return direct_eval(term.args[0], values, table) == direct_eval(
            term.args[1], values, table
        )
    if k is TermKind.ITE:
        if direct_eval(term.args[0], values, table):
            return direct_eval(term.args[1], values, table)
        return direct_eval(term.args[2], values, table)
    raise AssertionError(k)


def all_assignments(n: int) -> Iterable[Dict[int, bool]]:
    for bits in itertools.product([False, True], repeat=n):
        yield dict(enumerate(bits))


def truth_models(term: Term, table: AtomTable) -> Set[FrozenSet[Literal]]:
    """All total assignments over the atom table satisfying the formula."""
    out = set()
    for values in all_assignments(len(table)):
        if direct_eval(term, values, table):
            out.add(frozenset(Literal(i, v) for i, v in values.items()))
    return out


class ReferenceFrontEnd(BuiltinOracle):
    """The literal-keyed oracle front end: every memo keyed by a literal
    ``frozenset``, a query split by grouping its literals by component.

    It solves with the builtin backend, so its verdicts, cores and
    ``n_raw_checks`` must equal :class:`BuiltinOracle`'s on every query
    sequence.  Only literal queries: ``check``, ``is_satisfiable`` and
    ``minimize_core``.
    """

    def __init__(self, table, config=None):
        super().__init__(table, config)
        self._ref_verdicts: Dict[FrozenSet[Literal], TheoryVerdict] = {}
        self._ref_raw: Dict[FrozenSet[Literal], tuple] = {}
        self._component_of = [0] * len(table)
        for ci, component in enumerate(partition_atoms(table).components):
            for i in component:
                self._component_of[i] = ci

    def _parts(self, lits: FrozenSet[Literal]):
        groups: Dict[int, List[Literal]] = {}
        for lit in lits:
            groups.setdefault(self._component_of[lit.atom_index], []).append(lit)
        if len(groups) <= 1:
            return (lits,)
        return [frozenset(groups[c]) for c in sorted(groups)]

    def _ref_raw_check(self, lits: FrozenSet[Literal]):
        for part in self._parts(lits):
            hit = self._ref_raw.get(part)
            if hit is None:
                self.n_raw_checks += 1
                hit = self._ref_raw[part] = self._solve(part)
            if not hit[0]:
                return hit
        return True, None

    def check(self, literals):
        lits = frozenset(literals)
        verdict = self._ref_verdicts.get(lits)
        if verdict is not None:
            return verdict
        for lit in lits:
            if lit.atom_index not in self._theory:
                raise OracleError(f"literal on non-theory atom {lit.atom_index}")
        if self._ref_raw_check(lits)[0]:
            verdict = TheoryVerdict(True)
        elif self.config.minimize_cores:
            verdict = TheoryVerdict(False, core=self.minimize_core(lits))
        else:
            verdict = TheoryVerdict(False, core=tuple(sorted(lits)))
        self._ref_verdicts[lits] = verdict
        return verdict

    def is_satisfiable(self, literals) -> bool:
        return self._ref_raw_check(frozenset(literals))[0]

    def minimize_core(self, literals):
        current = sorted(set(literals))
        sat, witness = self._ref_raw_check(frozenset(current))
        if sat:
            raise OracleError("minimize_core requires an unsatisfiable literal set")
        for lit in list(current):
            trial = [l for l in current if l != lit]
            if lit in witness:
                sat, found = self._ref_raw_check(frozenset(trial))
                if sat:
                    continue
                witness = found
            current = trial
        return tuple(current)


def pin_usable_cpus(monkeypatch, n: int) -> None:
    """Make this process see ``n`` usable CPUs, which cap the number of
    DnC phase-2 processes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def random_problem(depth: int, seed: int, n_bool: int = 4, n_real: int = 4,
                   max_atoms: int = 10) -> Problem:
    from tlemma.generator import random_instance

    return Problem.from_text(random_instance(depth, n_bool, n_real, seed, max_atoms))


def simplex_satisfiable(literals: Iterable[Literal], table: AtomTable) -> bool:
    """Independent satisfiability check via the exact-simplex reference
    solver (an entirely different decision procedure from the builtin
    Fourier-Motzkin backend)."""
    from tlemma.oracle import refine_literal
    from tlemma.ref_solver import satisfiable

    rows = []
    for lit in literals:
        kind, payload = refine_literal(lit, table.linear_atom(lit.atom_index))
        if kind == "ineq":
            coeffs, bound, strict = payload
            rows.append((coeffs, bound, "lt" if strict else "le"))
        elif kind == "eq":
            rows.append(payload + ("eq",))
        else:
            rows.append(payload + ("ne",))
    model = satisfiable(rows)
    if model is None:
        return False
    for lit in literals:
        atom = table.linear_atom(lit.atom_index)
        point = {name: model.get(name, Fraction(0)) for name in atom.variables}
        assert atom.evaluate(point) == lit.polarity, (lit, model)
    return True


def random_theory_literals(rng: random.Random, table: AtomTable,
                           max_len: int = 6) -> List[Literal]:
    theory = table.theory_indices()
    chosen = rng.sample(theory, min(len(theory), rng.randint(1, max_len)))
    return [Literal(i, rng.random() < 0.5) for i in chosen]


def atoms_problem(*atom_texts: str, bools: Iterable[str] = ()) -> Problem:
    """Problem asserting the disjunction of the given atoms (a convenient way
    to register a known atom list in a known order)."""
    reals = set()
    for text in atom_texts:
        for tok in text.replace("(", " ").replace(")", " ").split():
            if tok and tok[0].isalpha() and tok not in ("not",):
                reals.add(tok)
    lines = ["(set-logic QF_LRA)"]
    for b in bools:
        lines.append(f"(declare-const {b} Bool)")
        reals.discard(b)
    for r in sorted(reals):
        lines.append(f"(declare-const {r} Real)")
    disjuncts = list(bools) + list(atom_texts)
    if len(disjuncts) == 1:
        lines.append(f"(assert {disjuncts[0]})")
    else:
        lines.append("(assert (or " + " ".join(disjuncts) + "))")
    return Problem.from_text("\n".join(lines))
