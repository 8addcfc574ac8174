"""Ground-truth classification of total assignments and rules-out checking.

Everything here is brute force by design: the propositional side is computed
as a full truth table (held as one big-integer bitmask, one bit per total
assignment), the theory side asks the oracle once per distinct theory-literal
set.  Memoizing theory verdicts by literal set is sound because verdicts
depend on nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .atoms import AtomKind, AtomTable, Literal, boolean_abstraction
from .enumeration import Assignment
from .oracle import TLemma
from .problem import Problem
from .strategies import RunCounters, StrategySpec, run_strategy
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


def _assignment_from_index(
    i: int, pairs: Sequence[Tuple[Literal, Literal]], scope: FrozenSet[int]
) -> Assignment:
    """The total assignment that makes atom j true iff bit j of ``i`` is set.

    ``pairs[j]`` holds atom j's negative and positive literal, and ``scope``
    every atom: all the assignments of one classification share them, and
    one read off an index needs no validating.
    """
    return Assignment(frozenset([pair[(i >> j) & 1] for j, pair in enumerate(pairs)]), scope)


@dataclass
class Classification:
    """Total assignments over the atom set, split four ways."""

    ctta: List[Assignment]
    itta: List[Assignment]
    neg_ctta: int
    neg_itta: int

    @property
    def n_total(self) -> int:
        return len(self.ctta) + len(self.itta) + self.neg_ctta + self.neg_itta


def classify(phi: Term, table: AtomTable, oracle, cap: int = DEFAULT_CAP) -> Classification:
    """Split all total assignments by propositional satisfaction and theory
    consistency, asking the oracle once per distinct theory-literal set."""
    n = len(table)
    if n > cap:
        raise CapExceeded(f"{n} atoms exceed the verification cap of {cap}")
    abstract = boolean_abstraction(phi, table)
    tt = truth_table_bits(abstract, n)
    theory_idx = [i for i in range(n) if table.kind_of(i) is AtomKind.THEORY]
    # Keyed by the theory atoms' bits of the assignment's index, which name
    # its theory-literal set.
    theory_mask = sum(1 << j for j in theory_idx)
    memo: Dict[int, bool] = {}
    ctta: List[Assignment] = []
    itta: List[Assignment] = []
    pairs = [(Literal(j, False), Literal(j, True)) for j in range(n)]
    scope = frozenset(range(n))
    neg_ctta = neg_itta = 0
    for i in range(1 << n):
        key = i & theory_mask
        sat = memo.get(key)
        if sat is None:
            lits = frozenset(Literal(j, bool((i >> j) & 1)) for j in theory_idx)
            sat = oracle.is_satisfiable(lits) if lits else True
            memo[key] = sat
        prop = bool((tt >> i) & 1)
        if prop and sat:
            ctta.append(_assignment_from_index(i, pairs, scope))
        elif prop:
            itta.append(_assignment_from_index(i, pairs, scope))
        elif sat:
            neg_ctta += 1
        else:
            neg_itta += 1
    return Classification(ctta, itta, neg_ctta, neg_itta)


def rules_out(lemmas, rhos: Sequence[Assignment]) -> bool:
    """True iff every given total assignment falsifies some lemma clause."""
    lemma_list = list(lemmas)
    negations = [frozenset(l.negated() for l in lemma.literals) for lemma in lemma_list]
    for rho in rhos:
        lits = rho.literals
        if not any(neg <= lits for neg in negations):
            return False
    return True


@dataclass
class StrategyVerdict:
    """Per-assertion outcome of one strategy run; failures are data."""

    strategy: str
    rules_out_ok: bool
    lemmas_valid_ok: bool
    atoms_theory_ok: bool
    abstraction_equiv_ok: bool
    n_lemmas: int
    n_itta: int
    n_ctta: int
    counters: RunCounters
    truncated: bool

    @property
    def all_ok(self) -> bool:
        return (
            self.rules_out_ok
            and self.lemmas_valid_ok
            and self.atoms_theory_ok
            and self.abstraction_equiv_ok
        )


def check_lemma_set(
    phi: Term,
    table: AtomTable,
    oracle,
    lemmas: Iterable[TLemma],
    classification: Optional[Classification] = None,
    cap: int = DEFAULT_CAP,
) -> Tuple[bool, bool, bool, bool, Classification]:
    """The four completeness assertions for a lemma set against a formula."""
    lemma_list = list(lemmas)
    cls = classification or classify(phi, table, oracle, cap)
    ok_rules = rules_out(lemma_list, cls.itta)
    ok_valid = all(oracle.is_valid_lemma(l) for l in lemma_list)
    theory = set(table.theory_indices())
    ok_atoms = all(
        lit.atom_index in theory for l in lemma_list for lit in l.literals
    )
    n = len(table)
    abstract = boolean_abstraction(phi, table)
    mask = truth_table_bits(abstract, n)
    for lemma in lemma_list:
        mask &= clause_bits(lemma.literals, n)
    ctta_mask = 0
    for a in cls.ctta:
        i = 0
        for lit in a.literals:
            if lit.polarity:
                i |= 1 << lit.atom_index
        ctta_mask |= 1 << i
    ok_equiv = mask == ctta_mask
    return ok_rules, ok_valid, ok_atoms, ok_equiv, cls


def check_strategy(
    phi: Term,
    table: AtomTable,
    oracle,
    spec: StrategySpec,
    cap: int = DEFAULT_CAP,
    classification: Optional[Classification] = None,
) -> StrategyVerdict:
    """Run a strategy and verify its lemma set against brute-force truth.

    Asserts, as data: (1) the lemmas rule out every theory-inconsistent
    satisfying assignment, (2) every lemma is theory-valid, (3) lemma atoms
    are theory atoms, (4) the propositional models of the formula conjoined
    with the lemmas are exactly the theory-consistent satisfying assignments.
    """
    if len(table) > cap:
        raise CapExceeded(f"{len(table)} atoms exceed the verification cap of {cap}")
    problem = Problem.from_term(phi, table)
    result = run_strategy(problem, spec, oracle=oracle)
    ok_rules, ok_valid, ok_atoms, ok_equiv, cls = check_lemma_set(
        phi, table, oracle, result.lemma_set, classification, cap
    )
    return StrategyVerdict(
        strategy=spec.name,
        rules_out_ok=ok_rules,
        lemmas_valid_ok=ok_valid,
        atoms_theory_ok=ok_atoms,
        abstraction_equiv_ok=ok_equiv,
        n_lemmas=len(result.lemma_set),
        n_itta=len(cls.itta),
        n_ctta=len(cls.ctta),
        counters=result.counters,
        truncated=result.truncated,
    )
