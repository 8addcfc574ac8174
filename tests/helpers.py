"""Shared test helpers: independent reference oracles and small builders.

The evaluators here deliberately avoid the library's own evaluation paths
(three-valued eval, truth-table bitmasks) so tests compare two independent
routes to the same answer.  ``brute_force_check`` is the verifier by brute
force: one oracle query per total assignment, two-valued evaluation of the
formula, and an explicit search for a falsified lemma, where the verifier
asks once per theory pattern and works on truth-table masks.
``ReferenceFrontEnd`` is the exception: it is the literal-keyed oracle front
end that the value-keyed one replaced, and ``reference_fm_solve`` is the
memo-free Fourier-Motzkin solve that the builtin backend's derivation memo
replaced.
"""

from __future__ import annotations

import itertools
import random
import shlex
import sys
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set

from tlemma import strategies
from tlemma.atoms import AtomTable, Literal
from tlemma.cnf import CnfProblem
from tlemma.oracle import (
    BuiltinOracle,
    OracleError,
    TheoryVerdict,
    TLemma,
    _integral,
    _reduced,
    _row_conflict,
    refine_literal,
)
from tlemma.partition import partition_atoms
from tlemma.problem import Problem
from tlemma.terms import LinearAtom, Relation, Term, TermKind

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


def iter_dag(root: Term) -> Iterator[Term]:
    """Post-order traversal of the DAG below ``root``, each node once."""
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if node.id in seen:
            continue
        if expanded:
            seen.add(node.id)
            yield node
        else:
            stack.append((node, True))
            for child in node.args:
                if child.id not in seen:
                    stack.append((child, False))


def symbols_of(table: AtomTable, index: int) -> FrozenSet[str]:
    """The real variables of atom ``index``: none for a Boolean atom."""
    atom = table.atoms[index]
    if atom.kind is TermKind.THEORY_ATOM:
        return frozenset(atom.payload.variables)
    return frozenset()


def n_labels(cnf: CnfProblem) -> int:
    """The CNF's Tseitin label variables: those past the atoms."""
    return cnf.n_vars - len(cnf.alpha_indices)


def evaluate_atom(atom: LinearAtom, model: Mapping[str, Fraction]) -> bool:
    """Exact truth value of the constraint at a rational point."""
    lhs = sum((c * Fraction(model[name]) for name, c in atom.coeffs), Fraction(0))
    if atom.relation is Relation.LE:
        return lhs <= atom.bound
    if atom.relation is Relation.LT:
        return lhs < atom.bound
    return lhs == atom.bound


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


def brute_force_check(problem: Problem, oracle, lemma_sets: Iterable[Iterable[TLemma]] = ()):
    """``verifier.classify`` and ``verifier.check_lemma_set`` by brute force.

    Walks the total assignments in the verifier's index order (bit ``j`` of
    ``i`` is atom ``j``), asks ``oracle`` about each one's theory literals
    and evaluates the formula directly.  Returns the satisfying consistent
    and inconsistent literal sets in index order, the two counts of
    non-satisfying assignments, and one tuple of the four assertions per
    lemma set, or ``OracleError`` where the oracle refuses a lemma's
    validity query, as it does in the verifier.  The validity queries come
    after the walk, so with no lemma sets ``oracle`` sees the verifier's
    classification queries only.
    """
    table = problem.table
    theory = table.theory_indices()
    lemma_sets = [list(lemmas) for lemmas in lemma_sets]
    ctta, itta, neg_ctta, neg_itta = [], [], 0, 0
    rules_ok = [True] * len(lemma_sets)
    equiv_ok = [True] * len(lemma_sets)
    n = len(table)
    for i in range(1 << n):
        values = {j: bool((i >> j) & 1) for j in range(n)}
        lits = frozenset(L(j, v) for j, v in values.items())
        sat = oracle.is_satisfiable(l for l in lits if l.atom_index in theory)
        if not direct_eval(problem.term, values, table):
            if sat:
                neg_ctta += 1
            else:
                neg_itta += 1
            continue
        (ctta if sat else itta).append(lits)
        for k, lemmas in enumerate(lemma_sets):
            falsified = any(
                all(values[lit.atom_index] != lit.polarity for lit in lemma.literals)
                for lemma in lemmas
            )
            if not sat and not falsified:
                rules_ok[k] = False
            # The lemmas must keep exactly the consistent models.
            if sat == falsified:
                equiv_ok[k] = False
    verdicts = []
    for k, lemmas in enumerate(lemma_sets):
        try:
            valid = all(oracle.is_valid_lemma(lemma) for lemma in lemmas)
        except OracleError:  # a literal on a Boolean atom
            verdicts.append(OracleError)
            continue
        atoms = all(lit.atom_index in theory for lemma in lemmas for lit in lemma.literals)
        verdicts.append((rules_ok[k], valid, atoms, equiv_ok[k]))
    return ctta, itta, neg_ctta, neg_itta, verdicts


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
        else:
            verdict = TheoryVerdict(False, core=self.minimize_core(lits))
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


# -- The memo-free Fourier-Motzkin solve ------------------------------------
#
# An inequality row is (coeffs, bound, mask, strict); equalities and
# disequalities are (coeffs, bound, mask) triples, a disequality with its own
# literal's bit appended.  Bit i of a mask stands for the i-th literal of the
# part in ascending order.


def _ref_eliminate_eq(coeffs, bound, mask, var, eq):
    r = coeffs.get(var)
    if r is None:
        return coeffs, bound, mask
    eq_coeffs, eq_bound, eq_mask = eq
    k = eq_coeffs[var]
    m, f = (k, r) if k > 0 else (-k, -r)
    out = {n: m * c for n, c in coeffs.items() if n != var}
    for n, c in eq_coeffs.items():
        if n == var:
            continue
        nc = out.get(n, 0) - f * c
        if nc == 0:
            out.pop(n, None)
        else:
            out[n] = nc
    return _reduced(out, m * bound - f * eq_bound) + (mask | eq_mask,)


def _ref_eliminate_var(rows, var):
    upper = [r for r in rows if r[0].get(var, 0) > 0]
    lower = [r for r in rows if r[0].get(var, 0) < 0]
    new_rows = [r for r in rows if var not in r[0]]
    for uc, ub, um, us in upper:
        a = uc[var]
        for lc, lb, lm, ls in lower:
            d = -lc[var]
            coeffs = {n: d * c for n, c in uc.items() if n != var}
            for n, c in lc.items():
                if n == var:
                    continue
                nc = coeffs.get(n, 0) + a * c
                if nc == 0:
                    coeffs.pop(n, None)
                else:
                    coeffs[n] = nc
            bound = d * ub + a * lb
            strict = us or ls
            if not coeffs:
                if _row_conflict(bound, strict):
                    return um | lm
            else:
                new_rows.append(_reduced(coeffs, bound) + (um | lm, strict))
    return new_rows


def _ref_pick_var(rows):
    occurrence = {}
    for coeffs, _, _, _ in rows:
        for name, c in coeffs.items():
            pos, neg = occurrence.get(name, (0, 0))
            occurrence[name] = (pos + 1, neg) if c > 0 else (pos, neg + 1)
    if not occurrence:
        return None
    return min(occurrence, key=lambda n: (occurrence[n][0] * occurrence[n][1], n))


def _ref_fm_eliminate(rows):
    for coeffs, bound, mask, strict in rows:
        if not coeffs and _row_conflict(bound, strict):
            return mask
    work = [r for r in rows if r[0]]
    while True:
        var = _ref_pick_var(work)
        if var is None:
            return None
        work = _ref_eliminate_var(work, var)
        if isinstance(work, int):
            return work


def _ref_solve_system(ineqs, eqs, diseqs):
    eqs = list(eqs)
    while eqs:
        eq = eqs.pop(0)
        coeffs, bound, mask = eq
        if not coeffs:
            if bound != 0:
                return mask
            continue
        var = min(coeffs)
        eqs = [_ref_eliminate_eq(c, b, m, var, eq) for c, b, m in eqs]
        ineqs = [_ref_eliminate_eq(c, b, m, var, eq) + (s,) for c, b, m, s in ineqs]
        diseqs = [_ref_eliminate_eq(c, b, m, var, eq) + (bit,) for c, b, m, bit in diseqs]
    for coeffs, bound, mask, _ in diseqs:
        if not coeffs and bound == 0:
            return mask
    diseqs = [d for d in diseqs if d[0]]
    if not diseqs:
        return _ref_fm_eliminate(ineqs)
    (coeffs, bound, mask, bit), rest = diseqs[0], diseqs[1:]
    conflict = 0
    for branch in (
        (coeffs, bound, mask, True),
        ({n: -c for n, c in coeffs.items()}, -bound, mask, True),
    ):
        found = _ref_solve_system(ineqs + [branch], [], rest)
        if found is None:
            return None
        if not found & bit:
            return found
        conflict |= found
    return conflict


def reference_fm_solve(table: AtomTable, part: FrozenSet[Literal]):
    """The builtin backend's answer on one part, by the Fourier-Motzkin
    solve without a derivation memo: ``(True, None)`` or ``(False,
    witness)``.  Same row order, variable choice and early exits, so the
    witness must be the backend's too."""
    order = sorted(part)
    ineqs, eqs, diseqs = [], [], []
    for i, lit in enumerate(order):
        kind, payload = refine_literal(lit, table.linear_atom(lit.atom_index))
        coeffs, bound = _integral(*payload[:2])
        bit = 1 << i
        if kind == "ineq":
            ineqs.append((coeffs, bound, bit, payload[2]))
        elif kind == "eq":
            eqs.append((coeffs, bound, bit))
        else:
            diseqs.append((coeffs, bound, bit, bit))
    mask = _ref_solve_system(ineqs, eqs, diseqs)
    if mask is None:
        return True, None
    return False, frozenset(lit for i, lit in enumerate(order) if mask >> i & 1)


def pin_usable_cpus(monkeypatch, n: int) -> None:
    """Make DnC see ``n`` usable CPUs, ids ``0`` to ``n - 1``, which cap the
    number of its phase-2 processes.  The real affinity is not faked, so
    phase 2 restores the one this process had.  The kernel refuses to pin a process
    to an id the host does not have, so a phase-2 child given one runs
    unpinned."""
    monkeypatch.setattr(strategies, "_usable_cpus", lambda: list(range(n)))


def fork_every_share(monkeypatch) -> None:
    """Make DnC phase 2 give a process to every cube it can, up to the
    worker and CPU caps, as if a cube paid for one: small instances then
    run the fork machinery that only larger phase 2s reach by default."""
    monkeypatch.setattr(strategies, "SHARE_MIN_CUBES", 1)


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
        assert evaluate_atom(atom, point) == lit.polarity, (lit, model)
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
