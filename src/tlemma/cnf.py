"""Clausal form with Tseitin labels, keeping labels out of the atom set.

Variables ``0 .. len(table)-1`` are the atoms; label variables for internal
formula nodes are appended above that range.  Top-level structure that is
already clausal is emitted directly (no labels); everything else gets a label
defined by full biconditional clauses, so for any total assignment of the
atoms the label values are forced by unit propagation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .atoms import AtomTable, Literal
from .terms import Term, TermKind


@dataclass
class CnfProblem:
    """Clauses over atom + label variables.

    Total models restricted to ``alpha_indices`` are exactly the total
    assignments of the atom set that propositionally satisfy the source
    formula.
    """

    clauses: List[Tuple[Literal, ...]]
    n_vars: int
    alpha_indices: Tuple[int, ...]

    @property
    def n_labels(self) -> int:
        return self.n_vars - len(self.alpha_indices)


class _Builder:
    def __init__(self, n_atoms: int):
        self.n_vars = n_atoms
        self.clauses: List[Tuple[Literal, ...]] = []
        self.labels: Dict[int, Literal] = {}  # term id -> label/leaf literal
        self.has_empty = False

    def add_clause(self, lits: Sequence[Literal]) -> None:
        seen: Dict[int, bool] = {}
        out: List[Literal] = []
        for lit in lits:
            prev = seen.get(lit.atom_index)
            if prev is None:
                seen[lit.atom_index] = lit.polarity
                out.append(lit)
            elif prev != lit.polarity:
                return  # tautological clause
        if not out:
            self.has_empty = True
        self.clauses.append(tuple(out))

    def fresh_label(self) -> int:
        v = self.n_vars
        self.n_vars += 1
        return v

    # Literal (possibly via label) standing for an arbitrary subformula.
    def encode(self, t: Term) -> Literal:
        hit = self.labels.get(t.id)
        if hit is not None:
            return hit
        k = t.kind
        if k is TermKind.ATOM_REF:
            lit = Literal(t.payload, True)
        elif k is TermKind.NOT:
            lit = self.encode(t.args[0]).negated()
        else:
            lit = self._define(t)
        self.labels[t.id] = lit
        return lit

    def _define(self, t: Term) -> Literal:
        k = t.kind
        label = Literal(self.fresh_label(), True)
        nlabel = label.negated()
        if k is TermKind.AND:
            lits = [self.encode(a) for a in t.args]
            for l in lits:
                self.add_clause((nlabel, l))
            self.add_clause([label] + [l.negated() for l in lits])
        elif k is TermKind.OR:
            lits = [self.encode(a) for a in t.args]
            self.add_clause([nlabel] + lits)
            for l in lits:
                self.add_clause((label, l.negated()))
        elif k is TermKind.IMPLIES:
            a, b = self.encode(t.args[0]), self.encode(t.args[1])
            self.add_clause((nlabel, a.negated(), b))
            self.add_clause((label, a))
            self.add_clause((label, b.negated()))
        elif k is TermKind.IFF:
            a, b = self.encode(t.args[0]), self.encode(t.args[1])
            self.add_clause((nlabel, a.negated(), b))
            self.add_clause((nlabel, a, b.negated()))
            self.add_clause((label, a, b))
            self.add_clause((label, a.negated(), b.negated()))
        elif k is TermKind.ITE:
            c, x, y = (self.encode(a) for a in t.args)
            self.add_clause((nlabel, c.negated(), x))
            self.add_clause((nlabel, c, y))
            self.add_clause((label, c.negated(), x.negated()))
            self.add_clause((label, c, y.negated()))
        else:
            raise AssertionError(f"cannot label {k}")
        return label

    # Flat clause extraction: returns literal list, True (tautology/satisfied
    # constant), or None when the subformula is not clause-shaped.
    def try_clause(self, t: Term, positive: bool):
        k = t.kind
        if k is TermKind.CONST:
            return True if t.payload == positive else []
        if k is TermKind.ATOM_REF:
            return [Literal(t.payload, positive)]
        if k is TermKind.NOT:
            return self.try_clause(t.args[0], not positive)
        if (k is TermKind.OR and positive) or (k is TermKind.AND and not positive):
            out: List[Literal] = []
            for a in t.args:
                sub = self.try_clause(a, positive)
                if sub is None:
                    return None
                if sub is True:
                    return True
                out.extend(sub)
            return out
        if k is TermKind.IMPLIES and positive:
            left = self.try_clause(t.args[0], False)
            right = self.try_clause(t.args[1], True)
            if left is None or right is None:
                return None
            if left is True or right is True:
                return True
            return left + right
        return None

    def try_literal(self, t: Term, positive: bool) -> Optional[Literal]:
        if t.kind is TermKind.ATOM_REF:
            return Literal(t.payload, positive)
        if t.kind is TermKind.NOT:
            return self.try_literal(t.args[0], not positive)
        return None

    def assert_term(self, t: Term, positive: bool) -> None:
        k = t.kind
        if k is TermKind.NOT:
            self.assert_term(t.args[0], not positive)
            return
        if (k is TermKind.AND and positive) or (k is TermKind.OR and not positive):
            for a in t.args:
                self.assert_term(a, positive)
            return
        clause = self.try_clause(t, positive)
        if clause is True:
            return
        if clause is not None:
            self.add_clause(clause)
            return
        if k in (TermKind.IFF, TermKind.ITE):
            lits = [self.try_literal(a, True) for a in t.args]
            if all(l is not None for l in lits):
                if k is TermKind.IFF:
                    a, b = lits
                    if positive:
                        self.add_clause((a.negated(), b))
                        self.add_clause((a, b.negated()))
                    else:
                        self.add_clause((a, b))
                        self.add_clause((a.negated(), b.negated()))
                else:
                    c, x, y = lits
                    if positive:
                        self.add_clause((c.negated(), x))
                        self.add_clause((c, y))
                    else:
                        self.add_clause((c.negated(), x.negated()))
                        self.add_clause((c, y.negated()))
                return
        root = self.encode(t)
        self.add_clause((root if positive else root.negated(),))


def to_cnf(phi: Term, table: AtomTable) -> CnfProblem:
    """Convert an abstracted formula (ATOM_REF leaves) to clausal form."""
    builder = _Builder(len(table))
    builder.assert_term(phi, True)
    clauses = builder.clauses
    if builder.has_empty:
        clauses = [c for c in clauses if c] + [()]
    return CnfProblem(
        clauses=clauses,
        n_vars=builder.n_vars,
        alpha_indices=tuple(range(len(table))),
    )
