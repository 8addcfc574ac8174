"""Atom table: the ordered atom set and the Boolean abstraction.

The table assigns each distinct atom (Boolean or theory) a dense index in
registration order.  The Boolean abstraction replaces atom leaves with
``ATOM_REF`` leaves carrying those indices.  Tseitin
label variables introduced by CNF conversion live *above* the table's index
range and are never part of the atom set.
"""

from __future__ import annotations

import enum
from typing import Dict, List, NamedTuple

from .terms import LinearAtom, Term, TermBank, TermKind


class AtomKind(enum.Enum):
    THEORY = "theory"
    BOOLEAN = "boolean"
    LABEL = "label"


class Literal(NamedTuple):
    atom_index: int
    polarity: bool

    def negated(self) -> "Literal":
        return Literal(self.atom_index, not self.polarity)


# A value array, indexed by atom (or variable), holds 1 for true, 0 for
# false and ``UNASSIGNED`` for an atom the assignment leaves open.
UNASSIGNED = 2


class AtomTable:
    """Ordered atom set with the atom <-> index bijection.

    Shared read-only across workers once the formula is built.
    """

    def __init__(self, bank: TermBank) -> None:
        self.bank = bank
        self.atoms: List[Term] = []
        self.index_of: Dict[int, int] = {}  # term id -> index
        self._kinds: List[AtomKind] = []

    def __len__(self) -> int:
        return len(self.atoms)

    def register(self, atom: Term) -> int:
        idx = self.index_of.get(atom.id)
        if idx is not None:
            return idx
        if atom.kind is TermKind.BOOL_ATOM:
            kind = AtomKind.BOOLEAN
        elif atom.kind is TermKind.THEORY_ATOM:
            kind = AtomKind.THEORY
        else:
            raise ValueError(f"not an atom: {atom!r}")
        idx = len(self.atoms)
        self.atoms.append(atom)
        self.index_of[atom.id] = idx
        self._kinds.append(kind)
        return idx

    def kind_of(self, index: int) -> AtomKind:
        if index >= len(self.atoms):
            return AtomKind.LABEL
        return self._kinds[index]

    def linear_atom(self, index: int) -> LinearAtom:
        atom = self.atoms[index]
        if atom.kind is not TermKind.THEORY_ATOM:
            raise ValueError(f"atom {index} is not a theory atom")
        return atom.payload

    def theory_indices(self) -> List[int]:
        return [i for i, k in enumerate(self._kinds) if k is AtomKind.THEORY]

    def boolean_indices(self) -> List[int]:
        return [i for i, k in enumerate(self._kinds) if k is AtomKind.BOOLEAN]

    def variables(self) -> List[str]:
        """All real variable names, in first-appearance order."""
        seen: Dict[str, None] = {}
        for atom, kind in zip(self.atoms, self._kinds):
            if kind is AtomKind.THEORY:
                for name in atom.payload.variables:
                    seen.setdefault(name)
        return list(seen)

    def bool_names(self) -> List[str]:
        return [a.payload for a, k in zip(self.atoms, self._kinds) if k is AtomKind.BOOLEAN]


def boolean_abstraction(term: Term, table: AtomTable) -> Term:
    """Replace every atom leaf by its abstraction index, homomorphically."""
    bank = table.bank
    memo: Dict[int, Term] = {}

    def walk(t: Term) -> Term:
        hit = memo.get(t.id)
        if hit is not None:
            return hit
        if t.is_atom():
            out = bank.atom_ref(table.index_of[t.id])
        elif t.kind in (TermKind.CONST, TermKind.ATOM_REF):
            out = t
        else:
            args = tuple(walk(a) for a in t.args)
            out = bank.intern(t.kind, args, t.payload)
        memo[t.id] = out
        return out

    return walk(term)
