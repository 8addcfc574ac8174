"""Projected AllSMT enumeration with blocking clauses over the abstraction.

The engine is a deterministic DPLL search: two-watched-literal propagation,
chronological backtracking (no clause learning), branching on the lowest
unassigned projection atom first, then the remaining atoms, then Tseitin
labels, positive polarity first.  Every total candidate is checked against
the theory oracle; conflicts turn into lemma clauses, satisfiable candidates
are (optionally minimized,) projected, recorded, and blocked.  Two runs with
identical inputs produce identical outcomes, literal for literal.

Blocking clauses are added verbatim rather than being fed through conflict
analysis, which keeps runs reproducible; CDCL is an upgrade path, not a
requirement at desk scale.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .atoms import AtomKind, AtomTable, Literal, eval3
from .cnf import CnfProblem
from .oracle import OracleTimeoutError, TheoryVerdict, TLemma, lemma_from_core
from .terms import Term

UNASSIGNED = 2


class EnumerationMode(enum.Enum):
    TOTAL = "total"
    PARTIAL = "partial"


@dataclass(frozen=True)
class Assignment:
    """A set of literals over a designated scope of atom indices."""

    literals: FrozenSet[Literal]
    scope: FrozenSet[int]

    def __post_init__(self):
        by_atom: Dict[int, bool] = {}
        for lit in self.literals:
            if lit.atom_index not in self.scope:
                raise ValueError(f"literal {lit} outside scope")
            if by_atom.setdefault(lit.atom_index, lit.polarity) != lit.polarity:
                raise ValueError(f"conflicting polarities for atom {lit.atom_index}")

    @classmethod
    def of(cls, literals: Iterable[Literal], scope: Iterable[int]) -> "Assignment":
        return cls(frozenset(literals), frozenset(scope))

    def as_map(self) -> Dict[int, bool]:
        return {lit.atom_index: lit.polarity for lit in self.literals}

    def sorted_literals(self) -> List[Literal]:
        return sorted(self.literals)

    def extends(self, smaller: "Assignment") -> bool:
        return smaller.literals <= self.literals

    def is_total(self) -> bool:
        return len(self.literals) == len(self.scope)

    def __len__(self) -> int:
        return len(self.literals)


def project(assignment: Assignment, proj: Iterable[int]) -> Assignment:
    """Restrict the literals to the projection atoms; scope becomes proj."""
    proj_set = frozenset(proj)
    return Assignment(
        frozenset(l for l in assignment.literals if l.atom_index in proj_set),
        proj_set,
    )


def minimize_assignment(
    assignment: Assignment,
    proj: Iterable[int],
    phi: Term,
    table: Optional[AtomTable] = None,
    blocking: Sequence[Sequence[Literal]] = (),
) -> Assignment:
    """Greedily drop projection-atom literals while the formula and all
    blocking clauses stay satisfied under three-valued evaluation.

    Literals outside the projection set are always retained.  Drops are
    attempted in ascending atom-index order, so the result is deterministic.
    """
    kept = _greedy_minimize(assignment.as_map(), sorted(set(proj)), phi, table, blocking)
    return Assignment(
        frozenset(Literal(i, v) for i, v in kept.items()), assignment.scope
    )


def _clause_satisfied(clause: Sequence[Literal], values: Mapping[int, bool]) -> bool:
    for lit in clause:
        if values.get(lit.atom_index) == lit.polarity:
            return True
    return False


def _greedy_minimize(
    values: Dict[int, bool],
    proj_sorted: Sequence[int],
    phi: Term,
    table: Optional[AtomTable],
    blocking: Sequence[Sequence[Literal]],
) -> Dict[int, bool]:
    current = dict(values)
    for idx in proj_sorted:
        if idx not in current:
            continue
        trial = dict(current)
        del trial[idx]
        if eval3(phi, trial, table) is not True:
            continue
        if all(_clause_satisfied(c, trial) for c in blocking):
            current = trial
    return current


@dataclass
class EnumerationStats:
    n_candidates: int = 0
    n_theory_checks: int = 0
    n_lemmas: int = 0
    n_blocking_clauses: int = 0
    elapsed_ns: int = 0


@dataclass
class EnumerationOutcome:
    assignments: List[Assignment]
    lemmas: List[TLemma]
    stats: EnumerationStats
    truncated: bool = False


def _code(lit: Literal) -> int:
    return lit.atom_index * 2 + (0 if lit.polarity else 1)


def _literal(code: int) -> Literal:
    return Literal(code >> 1, not (code & 1))


class _Engine:
    def __init__(
        self,
        cnf: CnfProblem,
        table,
        proj: Sequence[int],
        mode: EnumerationMode,
        oracle,
        seed_lemmas: Sequence[TLemma],
        assumptions: Sequence[Literal],
        deadline: Optional[float],
        early_pruning: bool,
        pruning_interval: int,
        positive_first: bool,
    ):
        self.table = table
        self.mode = mode
        self.oracle = oracle
        self.deadline = deadline
        self.early_pruning = early_pruning
        self.pruning_interval = max(1, pruning_interval)
        self.positive_first = positive_first

        self.n_atoms = len(cnf.alpha_indices)
        self.n_vars = cnf.n_vars
        self.proj_sorted = sorted(set(proj))
        self.phi_abs = cnf.source
        if mode is EnumerationMode.PARTIAL and self.phi_abs is None:
            raise ValueError("partial mode needs the source formula for minimization")

        self.theory_vars = [
            i for i in range(self.n_atoms) if table.kind_of(i) is AtomKind.THEORY
        ]

        proj_set = set(self.proj_sorted)
        rest = [i for i in range(self.n_atoms) if i not in proj_set]
        labels = list(range(self.n_atoms, self.n_vars))
        self.branch_order: List[int] = self.proj_sorted + rest + labels

        self.values = bytearray([UNASSIGNED] * self.n_vars)
        self.pos_in_trail = [0] * self.n_vars
        self.trail: List[int] = []
        self.qhead = 0
        self.decisions: List[List[int]] = []  # [trail_pos, flipped]
        self.watches: List[List[int]] = [[] for _ in range(2 * self.n_vars)]
        self.clauses: List[List[int]] = []
        self.root_units: List[int] = []
        self.has_empty = False

        for clause in cnf.clauses:
            self._install(sorted(_code(l) for l in clause))
        self.seed_keys = set()
        for lemma in seed_lemmas:
            self.seed_keys.add(lemma.key)
            self._install([_code(l) for l in lemma.literals])
        for lit in assumptions:
            self.root_units.append(_code(lit))

        self.blocking_literals: List[List[Literal]] = []
        self.out_assignments: List[Assignment] = []
        self.out_lemmas: List[TLemma] = []
        self.lemma_keys = set()
        self.stats = EnumerationStats()
        self.truncated = False
        self.since_prune = 0

    # -- clause installation ------------------------------------------------

    def _install(self, codes: List[int]) -> None:
        """Add an initial (pre-search) clause."""
        seen: Dict[int, int] = {}
        out: List[int] = []
        for c in codes:
            prior = seen.get(c >> 1)
            if prior is None:
                seen[c >> 1] = c
                out.append(c)
            elif prior != c:
                return  # tautological
        if not out:
            self.has_empty = True
            return
        if len(out) == 1:
            self.root_units.append(out[0])
            return
        idx = len(self.clauses)
        self.clauses.append(out)
        self.watches[out[0]].append(idx)
        self.watches[out[1]].append(idx)

    def _add_dynamic(self, codes: List[int]) -> None:
        """Add a clause mid-search; all its literals are currently false."""
        if not codes:
            return
        if len(codes) == 1:
            self.root_units.append(codes[0])
            return
        # Watch the two most recently falsified literals so the watch
        # invariant is restored as soon as the search backtracks past them.
        pos = {c: self.pos_in_trail[c >> 1] for c in codes}
        ordered = sorted(codes, key=lambda c: -pos[c])
        idx = len(self.clauses)
        self.clauses.append(ordered)
        self.watches[ordered[0]].append(idx)
        self.watches[ordered[1]].append(idx)

    # -- assignment / propagation -------------------------------------------

    def _lit_value(self, code: int) -> int:
        v = self.values[code >> 1]
        if v == UNASSIGNED:
            return UNASSIGNED
        return v ^ (code & 1)

    def _assign(self, code: int) -> None:
        var = code >> 1
        self.values[var] = (code & 1) ^ 1
        self.pos_in_trail[var] = len(self.trail)
        self.trail.append(code)

    def _propagate(self) -> bool:
        """Closure under unit propagation; True iff a conflict was found."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            fal = lit ^ 1
            ws = self.watches[fal]
            kept: List[int] = []
            i = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                clause = self.clauses[ci]
                if clause[0] == fal:
                    clause[0], clause[1] = clause[1], clause[0]
                first = clause[0]
                fv = self._lit_value(first)
                if fv == 1:
                    kept.append(ci)
                    continue
                moved = False
                for k in range(2, len(clause)):
                    if self._lit_value(clause[k]) != 0:
                        clause[1], clause[k] = clause[k], clause[1]
                        self.watches[clause[1]].append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if fv == 0:
                    kept.extend(ws[i:])
                    self.watches[fal] = kept
                    return True
                self._assign(first)
            self.watches[fal] = kept
        return False

    def _replay_root_units(self) -> bool:
        """Re-enqueue permanent unit facts; False on immediate conflict."""
        for code in self.root_units:
            v = self._lit_value(code)
            if v == 0:
                return False
            if v == UNASSIGNED:
                self._assign(code)
        return True

    def _unwind_to(self, pos: int) -> None:
        for code in self.trail[pos:]:
            self.values[code >> 1] = UNASSIGNED
        del self.trail[pos:]
        self.qhead = pos

    def _backtrack_flip(self) -> bool:
        """Chronological backtracking; take the untried branch of the
        deepest open decision.  False when the search space is exhausted."""
        while self.decisions:
            pos, flipped = self.decisions.pop()
            lit = self.trail[pos]
            self._unwind_to(pos)
            if flipped:
                continue
            self.decisions.append([len(self.trail), 1])
            self._assign(lit ^ 1)
            if self._replay_root_units():
                return True
            # a permanent unit contradicts this branch; keep unwinding
        return False

    def _backtrack_clause(self, codes: List[int]) -> bool:
        """Backtrack after adding a clause whose literals are all false.

        Every branch below the deepest falsifying assignment extends the
        assignments that falsify the clause, so those subtrees are dead and
        are discarded without exploring their other halves; then the search
        flips the deepest surviving decision as usual.
        """
        deepest = max(self.pos_in_trail[c >> 1] for c in codes)
        while self.decisions and self.decisions[-1][0] > deepest:
            pos, _ = self.decisions.pop()
            self._unwind_to(pos)
        return self._backtrack_flip()

    def _next_branch_var(self) -> Optional[int]:
        for var in self.branch_order:
            if self.values[var] == UNASSIGNED:
                return var
        return None

    # -- theory interaction ---------------------------------------------------

    def _assigned_theory_literals(self, total: bool) -> List[Literal]:
        lits = []
        for i in self.theory_vars:
            v = self.values[i]
            if v == UNASSIGNED:
                if total:
                    raise AssertionError("candidate is not total on the atoms")
                continue
            lits.append(Literal(i, v == 1))
        return lits

    def _emit_lemma(self, verdict: TheoryVerdict) -> List[int]:
        lemma = lemma_from_core(verdict.core)
        assert lemma.key not in self.seed_keys, "seed lemma rediscovered"
        assert lemma.key not in self.lemma_keys, "lemma clause was already active"
        self.lemma_keys.add(lemma.key)
        self.out_lemmas.append(lemma)
        self.stats.n_lemmas += 1
        codes = [_code(l) for l in lemma.literals]
        assert all(self._lit_value(c) == 0 for c in codes)
        self._add_dynamic(codes)
        return codes

    def _handle_candidate(self) -> Optional[List[int]]:
        """Process a total candidate.  Returns the codes of the clause that
        now blocks it, or None when the search is finished or truncated."""
        self.stats.n_candidates += 1
        theory_lits = self._assigned_theory_literals(total=True)
        verdict = self._theory_check(theory_lits) if theory_lits else TheoryVerdict(True)
        if verdict is None:
            return None
        if not verdict.satisfiable:
            return self._emit_lemma(verdict)
        alpha_map = {i: self.values[i] == 1 for i in range(self.n_atoms)}
        if self.mode is EnumerationMode.PARTIAL:
            kept = _greedy_minimize(
                alpha_map,
                self.proj_sorted,
                self.phi_abs,
                None,
                self.blocking_literals,
            )
        else:
            kept = alpha_map
        mu_lits = [Literal(i, kept[i]) for i in self.proj_sorted if i in kept]
        self.out_assignments.append(Assignment.of(mu_lits, self.proj_sorted))
        self.stats.n_blocking_clauses += 1
        if not mu_lits:
            return None  # empty blocking clause: nothing left to enumerate
        self.blocking_literals.append([l.negated() for l in mu_lits])
        codes = [_code(l.negated()) for l in mu_lits]
        assert all(self._lit_value(c) == 0 for c in codes)
        self._add_dynamic(codes)
        return codes

    def _early_prune(self) -> Optional[List[int]]:
        """Theory-check the current partial assignment; lemma codes on
        conflict, None otherwise."""
        lits = self._assigned_theory_literals(total=False)
        if not lits:
            return None
        verdict = self._theory_check(lits)
        if verdict is None or verdict.satisfiable:
            return None
        return self._emit_lemma(verdict)

    def _theory_check(self, lits: List[Literal]) -> Optional[TheoryVerdict]:
        """The oracle's verdict, or None after it timed out, which truncates
        the run: what was found so far is returned."""
        self.stats.n_theory_checks += 1
        try:
            return self.oracle.check(lits)
        except OracleTimeoutError:
            self.truncated = True
            return None

    # -- main loop --------------------------------------------------------------

    def run(self) -> EnumerationOutcome:
        start = time.monotonic_ns()
        alive = not self.has_empty and self._replay_root_units()
        while alive:
            if self.deadline is not None and time.monotonic() > self.deadline:
                self.truncated = True
                break
            if self._propagate():
                alive = self._backtrack_flip()
                continue
            if self.early_pruning and self.since_prune >= self.pruning_interval:
                self.since_prune = 0
                lemma_codes = self._early_prune()
                if self.truncated:
                    break
                if lemma_codes is not None:
                    alive = self._backtrack_clause(lemma_codes)
                    continue
            var = self._next_branch_var()
            if var is None:
                blocking_codes = self._handle_candidate()
                if blocking_codes is None:
                    break
                alive = self._backtrack_clause(blocking_codes)
                continue
            self.decisions.append([len(self.trail), 0])
            self._assign(var * 2 if self.positive_first else var * 2 + 1)
            self.since_prune += 1
        self.stats.elapsed_ns = time.monotonic_ns() - start
        return EnumerationOutcome(
            assignments=self.out_assignments,
            lemmas=self.out_lemmas,
            stats=self.stats,
            truncated=self.truncated,
        )


def projected_allsmt(
    cnf: CnfProblem,
    table,
    proj: Iterable[int],
    mode: EnumerationMode,
    oracle,
    seed_lemmas: Sequence[TLemma] = (),
    *,
    assumptions: Sequence[Literal] = (),
    deadline: Optional[float] = None,
    early_pruning: bool = False,
    pruning_interval: int = 8,
    positive_first: bool = True,
) -> EnumerationOutcome:
    """Enumerate theory-satisfiable assignments projected on ``proj``.

    Returns the projected assignments, the lemmas minted from every theory
    conflict hit during the search, and run counters.  When ``deadline`` (an
    absolute ``time.monotonic()`` value) passes or an oracle check times out,
    partial results are returned with ``truncated`` set.
    """
    proj = sorted(set(proj))
    alpha = set(cnf.alpha_indices)
    if not set(proj) <= alpha:
        raise ValueError("projection atoms must belong to the atom set")
    engine = _Engine(
        cnf,
        table,
        proj,
        mode,
        oracle,
        seed_lemmas,
        assumptions,
        deadline,
        early_pruning,
        pruning_interval,
        positive_first,
    )
    return engine.run()
