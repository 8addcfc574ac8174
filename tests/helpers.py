"""Shared test helpers: independent reference oracles and small builders.

The evaluators here deliberately avoid the library's own evaluation paths
(three-valued eval, truth-table bitmasks) so tests compare two independent
routes to the same answer.  ``reference_minimize`` is the exception: it is
the plain ``eval3``-based loop that the incremental cube minimizer replaced.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Set

from tlemma.atoms import AtomTable, Literal, eval3
from tlemma.problem import Problem
from tlemma.terms import Term, TermKind


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


def reference_minimize(values: Dict[int, bool], proj_sorted: Iterable[int], phi: Term,
                       table: Optional[AtomTable] = None,
                       blocking: Iterable[Iterable[Literal]] = ()) -> Dict[int, bool]:
    """The greedy cube minimization loop, one whole-DAG ``eval3`` walk and
    one scan of every blocking clause per trial drop: the reference that
    ``minimize_assignment`` must agree with."""
    blocking = [list(clause) for clause in blocking]
    current = dict(values)
    for idx in proj_sorted:
        if idx not in current:
            continue
        trial = dict(current)
        del trial[idx]
        if eval3(phi, trial, table) is not True:
            continue
        if all(any(trial.get(l.atom_index) == l.polarity for l in c) for c in blocking):
            current = trial
    return current


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
