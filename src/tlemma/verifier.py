"""Ground-truth classification of total assignments and rules-out checking.

Brute force by design, with every set of total assignments held as one
big-integer mask: bit ``i`` is the assignment making atom ``j`` true iff bit
``j`` of ``i`` is set.  The propositional side is the formula's truth table.
The theory side asks the oracle once per theory-literal pattern (2^T queries
for T theory atoms), as a verdict depends on nothing else, and spreads the
verdicts over the Boolean atoms with O(n * 2^n) bit work, no loop over single
assignments.  The four completeness assertions are then mask equalities.
The masks have 2^n bits, so ``cap`` still bounds all n atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .atoms import AtomKind, AtomTable, Literal, boolean_abstraction
from .enumeration import Assignment
from .oracle import TLemma
from .terms import Term, TermKind


class CapExceeded(Exception):
    pass


DEFAULT_CAP = 20


def _atom_mask(j: int, n_atoms: int) -> int:
    """Truth table of atom ``j`` over atoms ``0..n_atoms-1``: bit ``i`` is
    set iff bit ``j`` of ``i`` is."""
    size = 1 << n_atoms
    mask = ((1 << (1 << j)) - 1) << (1 << j)
    width = 1 << (j + 1)
    while width < size:
        mask |= mask << width
        width *= 2
    return mask


def truth_table_bits(term: Term, n_atoms: int, table: Optional[AtomTable] = None) -> int:
    """Truth table of a formula over atoms ``0..n_atoms-1`` as a bitmask.

    Bit ``i`` is the value under the assignment where atom ``j`` is true iff
    bit ``j`` of ``i`` is set.  Terms may use ATOM_REF leaves or concrete
    atoms (then the table maps them to indices).
    """
    full = (1 << (1 << n_atoms)) - 1
    atom_mask = [_atom_mask(j, n_atoms) for j in range(n_atoms)]
    memo: Dict[int, int] = {}

    def walk(t: Term) -> int:
        hit = memo.get(t.id)
        if hit is not None:
            return hit
        k = t.kind
        if k is TermKind.CONST:
            out = full if t.payload else 0
        elif k is TermKind.ATOM_REF:
            out = atom_mask[t.payload]
        elif k in (TermKind.BOOL_ATOM, TermKind.THEORY_ATOM):
            if table is None:
                raise ValueError("concrete atoms need the table")
            out = atom_mask[table.index_of[t.id]]
        elif k is TermKind.NOT:
            out = walk(t.args[0]) ^ full
        elif k is TermKind.AND:
            out = full
            for a in t.args:
                out &= walk(a)
        elif k is TermKind.OR:
            out = 0
            for a in t.args:
                out |= walk(a)
        elif k is TermKind.IMPLIES:
            out = (walk(t.args[0]) ^ full) | walk(t.args[1])
        elif k is TermKind.IFF:
            out = (walk(t.args[0]) ^ walk(t.args[1])) ^ full
        elif k is TermKind.ITE:
            c = walk(t.args[0])
            out = (c & walk(t.args[1])) | ((c ^ full) & walk(t.args[2]))
        else:
            raise AssertionError(f"unknown kind {k}")
        memo[t.id] = out
        return out

    return walk(term)


def clause_bits(literals: Iterable[Literal], n_atoms: int) -> int:
    full = (1 << (1 << n_atoms)) - 1
    out = 0
    for lit in literals:
        mask = _atom_mask(lit.atom_index, n_atoms)
        out |= mask if lit.polarity else mask ^ full
    return out


def _decode(mask: int, n_atoms: int) -> List[Assignment]:
    """The total assignments of ``mask``'s set bits, in ascending index
    order, read off its binary digits: linear in the mask's length."""
    pairs = [(Literal(j, False), Literal(j, True)) for j in range(n_atoms)]
    scope = frozenset(range(n_atoms))
    digits = bin(mask)[:1:-1]  # least significant first
    out: List[Assignment] = []
    i = digits.find("1")
    while i >= 0:
        lits = frozenset([pair[(i >> j) & 1] for j, pair in enumerate(pairs)])
        out.append(Assignment(lits, scope))
        i = digits.find("1", i + 1)
    return out


@dataclass(frozen=True)
class Classification:
    """Total assignments over the atom set, split four ways, as two masks.

    ``models`` is the formula's truth table; bit ``i`` of ``inconsistent``
    is set iff assignment ``i`` is theory-inconsistent.  The counts are
    popcounts.  ``itta`` (satisfying, inconsistent) and ``ctta``
    (satisfying, consistent) are decoded on every read, in ascending index
    order, and never cached, so a classification stays three ints.
    """

    n_atoms: int
    models: int
    inconsistent: int

    @property
    def n_total(self) -> int:
        return 1 << self.n_atoms

    @property
    def n_itta(self) -> int:
        return (self.models & self.inconsistent).bit_count()

    @property
    def n_ctta(self) -> int:
        return (self.models & ~self.inconsistent).bit_count()

    @property
    def neg_itta(self) -> int:
        return (self.inconsistent & ~self.models).bit_count()

    @property
    def neg_ctta(self) -> int:
        return self.n_total - (self.models | self.inconsistent).bit_count()

    @property
    def itta(self) -> List[Assignment]:
        return _decode(self.models & self.inconsistent, self.n_atoms)

    @property
    def ctta(self) -> List[Assignment]:
        return _decode(self.models & ~self.inconsistent, self.n_atoms)


def classify(phi: Term, table: AtomTable, oracle, cap: int = DEFAULT_CAP) -> Classification:
    """Split all total assignments by propositional satisfaction and theory
    consistency, asking the oracle once per theory-literal pattern."""
    n = len(table)
    if n > cap:
        raise CapExceeded(f"{n} atoms exceed the verification cap of {cap}")
    models = truth_table_bits(boolean_abstraction(phi, table), n)
    theory = table.theory_indices()
    # Pattern k gives the t-th theory atom bit t of k.  With the atoms in
    # descending order, ``product`` yields the patterns by ascending k: the
    # order in which ascending assignment indices first meet them.
    patterns = product(*[(Literal(j, False), Literal(j, True)) for j in reversed(theory)])
    # One inconsistency table per pattern of the theory atoms not yet
    # spread, over the atoms below the next one.
    tables = [0 if not theory or oracle.is_satisfiable(lits) else 1 for lits in patterns]
    for j in range(n):
        width = 1 << j
        if table.kind_of(j) is AtomKind.THEORY:
            # Atom j is the lowest theory atom left: its false and its true
            # pattern are neighbours.
            tables = [lo | hi << width for lo, hi in zip(tables[::2], tables[1::2])]
        else:
            tables = [t | t << width for t in tables]
    return Classification(n, models, tables[0])


def rules_out(lemmas, rhos: Sequence[Assignment]) -> bool:
    """True iff every given total assignment falsifies some lemma clause."""
    lemma_list = list(lemmas)
    negations = [frozenset(l.negated() for l in lemma.literals) for lemma in lemma_list]
    for rho in rhos:
        lits = rho.literals
        if not any(neg <= lits for neg in negations):
            return False
    return True


def check_lemma_set(
    phi: Term,
    table: AtomTable,
    oracle,
    lemmas: Iterable[TLemma],
    classification: Optional[Classification] = None,
    cap: int = DEFAULT_CAP,
) -> Tuple[bool, bool, bool, bool, Classification]:
    """The four completeness assertions for a lemma set against a formula:
    (1) the lemmas rule out every theory-inconsistent satisfying assignment,
    (2) every lemma is theory-valid, (3) lemma atoms are theory atoms, (4)
    the models of the formula and the lemmas are exactly the
    theory-consistent satisfying assignments."""
    lemma_list = list(lemmas)
    cls = classification or classify(phi, table, oracle, cap)
    kept = cls.models
    for lemma in lemma_list:
        kept &= clause_bits(lemma.literals, cls.n_atoms)
    ok_rules = kept & cls.inconsistent == 0
    ok_valid = all(oracle.is_valid_lemma(l) for l in lemma_list)
    theory = set(table.theory_indices())
    ok_atoms = all(
        lit.atom_index in theory for l in lemma_list for lit in l.literals
    )
    ok_equiv = kept == cls.models & ~cls.inconsistent
    return ok_rules, ok_valid, ok_atoms, ok_equiv, cls
