"""Atom table: the ordered atom set, abstraction indices, and 3-valued eval.

The table assigns each distinct atom (Boolean or theory) a dense index in
registration order.  The Boolean abstraction replaces atom leaves with
``ATOM_REF`` leaves carrying those indices; refinement inverts it.  Tseitin
label variables introduced by CNF conversion live *above* the table's index
range and are never part of the atom set.
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Union

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


class AtomTable:
    """Ordered atom set with the atom <-> index bijection.

    Shared read-only across workers once the formula is built.
    """

    def __init__(self, bank: TermBank) -> None:
        self.bank = bank
        self.atoms: List[Term] = []
        self.index_of: Dict[int, int] = {}  # term id -> index
        self._kinds: List[AtomKind] = []
        self._symbols: List[FrozenSet[str]] = []

    def __len__(self) -> int:
        return len(self.atoms)

    def register(self, atom: Term) -> int:
        idx = self.index_of.get(atom.id)
        if idx is not None:
            return idx
        if atom.kind is TermKind.BOOL_ATOM:
            kind, syms = AtomKind.BOOLEAN, frozenset()
        elif atom.kind is TermKind.THEORY_ATOM:
            kind = AtomKind.THEORY
            syms = frozenset(atom.payload.variables)
        else:
            raise ValueError(f"not an atom: {atom!r}")
        idx = len(self.atoms)
        self.atoms.append(atom)
        self.index_of[atom.id] = idx
        self._kinds.append(kind)
        self._symbols.append(syms)
        return idx

    def kind_of(self, index: int) -> AtomKind:
        if index >= len(self.atoms):
            return AtomKind.LABEL
        return self._kinds[index]

    def symbols_of(self, index: int) -> FrozenSet[str]:
        return self._symbols[index]

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


def refine(term: Term, table: AtomTable) -> Term:
    """Inverse of :func:`boolean_abstraction`: indices back to atoms."""
    bank = table.bank
    memo: Dict[int, Term] = {}

    def walk(t: Term) -> Term:
        hit = memo.get(t.id)
        if hit is not None:
            return hit
        if t.kind is TermKind.ATOM_REF:
            out = table.atoms[t.payload]
        elif t.kind is TermKind.CONST or t.is_atom():
            out = t
        else:
            args = tuple(walk(a) for a in t.args)
            out = bank.intern(t.kind, args, t.payload)
        memo[t.id] = out
        return out

    return walk(term)


AssignmentLike = Union[Mapping[int, bool], Iterable[Literal]]


def _as_map(assignment: AssignmentLike) -> Mapping[int, bool]:
    if hasattr(assignment, "as_map"):
        return assignment.as_map()  # type: ignore[union-attr]
    if isinstance(assignment, Mapping):
        return assignment
    return {lit.atom_index: lit.polarity for lit in assignment}


def eval3(
    term: Term, assignment: AssignmentLike, table: Optional[AtomTable] = None
) -> Optional[bool]:
    """Kleene three-valued evaluation; ``None`` means undetermined.

    Sound for propositional entailment (a True result means every total
    extension of the assignment satisfies the formula) but incomplete on
    partial assignments.  Exact on total assignments.
    """
    values = _as_map(assignment)
    memo: Dict[int, Optional[bool]] = {}

    def get(t: Term) -> Optional[bool]:
        if t.id in memo:
            return memo[t.id]
        v = walk(t)
        memo[t.id] = v
        return v

    def walk(t: Term) -> Optional[bool]:
        k = t.kind
        if k is TermKind.CONST:
            return t.payload
        if k is TermKind.ATOM_REF:
            return values.get(t.payload)
        if k in (TermKind.BOOL_ATOM, TermKind.THEORY_ATOM):
            if table is None:
                raise ValueError("eval3 on a concrete term requires the atom table")
            return values.get(table.index_of[t.id])
        if k is TermKind.NOT:
            v = get(t.args[0])
            return None if v is None else not v
        if k is TermKind.AND:
            saw_unknown = False
            for a in t.args:
                v = get(a)
                if v is False:
                    return False
                if v is None:
                    saw_unknown = True
            return None if saw_unknown else True
        if k is TermKind.OR:
            saw_unknown = False
            for a in t.args:
                v = get(a)
                if v is True:
                    return True
                if v is None:
                    saw_unknown = True
            return None if saw_unknown else False
        if k is TermKind.IMPLIES:
            a, b = get(t.args[0]), get(t.args[1])
            if a is False or b is True:
                return True
            if a is True and b is False:
                return False
            return None
        if k is TermKind.IFF:
            a, b = get(t.args[0]), get(t.args[1])
            if a is None or b is None:
                return None
            return a == b
        if k is TermKind.ITE:
            c, x, y = get(t.args[0]), get(t.args[1]), get(t.args[2])
            if c is True:
                return x
            if c is False:
                return y
            # (c and x) or (not c and y) under Kleene
            if x is True and y is True:
                return True
            if x is False and y is False:
                return False
            return None
        raise AssertionError(f"unknown term kind {k}")

    return get(term)
