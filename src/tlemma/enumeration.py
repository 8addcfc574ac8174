"""Projected AllSMT enumeration over the Boolean abstraction.

The engine is a deterministic DPLL search: two-watched-literal propagation,
chronological backtracking (no clause learning), branching on the lowest
unassigned projection atom first, then the remaining atoms, then Tseitin
labels, positive polarity first.  Every total candidate is checked against
the theory oracle; conflicts turn into lemma clauses, satisfiable candidates
are (optionally minimized,) projected and recorded.  Two runs with identical
inputs produce identical outcomes, literal for literal.

After recording a cube the search backtracks below the cube's deepest
literal on the trail and takes the untried branch of the deepest open
decision left.  In TOTAL mode the cube holds every projection atom, and that
is all it takes to never reach it again, so no blocking clause is added:
projection atoms are decided before any other variable, so every decision
on the trail up to the cube's deepest literal is on a projection atom, and
chronological backtracking keeps every later path on the other side of one
of them.  A TOTAL-mode blocking clause would never be unit and never
falsified.

The candidate path builds no literal objects of its own: the engine
interns one :class:`Literal` per literal code (``2*i`` for atom ``i`` true,
``2*i + 1`` for false) when it is built, and a theory query or a recorded
cube indexes that table.  A TOTAL-mode cube's blocking codes, the negations
of its literals, are read straight off the value array (``2*i + values[i]``),
and every recorded :class:`Assignment` shares the engine's one scope set.

In PARTIAL mode the recorded cube is minimized, so later paths may still
extend it; it is blocked by a clause, added verbatim rather than fed through
conflict analysis, which keeps runs reproducible.  Minimization checks each
trial drop incrementally against the formula and the blocking clauses so
far (:class:`_CubeMinimizer`), which also keeps the cubes pairwise disjoint.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from .atoms import AtomKind, AtomTable, Literal
from .cnf import CnfProblem
from .oracle import OracleError, TheoryVerdict, TLemma, lemma_from_core
from .terms import Term, TermKind, iter_dag

UNASSIGNED = 2


class EnumerationMode(enum.Enum):
    TOTAL = "total"
    PARTIAL = "partial"


@dataclass(frozen=True)
class Assignment:
    """A set of literals over a designated scope of atom indices.

    :meth:`of` is the validating constructor: it rejects a literal outside
    the scope and two literals of opposite polarity on one atom.  The engine
    builds assignments directly, from literals it read off a consistent
    trail, so the constructor itself checks nothing.
    """

    literals: FrozenSet[Literal]
    scope: FrozenSet[int]

    @classmethod
    def of(cls, literals: Iterable[Literal], scope: Iterable[int]) -> "Assignment":
        literals, scope = frozenset(literals), frozenset(scope)
        by_atom: Dict[int, bool] = {}
        for lit in literals:
            if lit.atom_index not in scope:
                raise ValueError(f"literal {lit} outside scope")
            if by_atom.setdefault(lit.atom_index, lit.polarity) != lit.polarity:
                raise ValueError(f"conflicting polarities for atom {lit.atom_index}")
        return cls(literals, scope)

    def as_map(self) -> Dict[int, bool]:
        return {lit.atom_index: lit.polarity for lit in self.literals}

    def sorted_literals(self) -> List[Literal]:
        return sorted(self.literals)

    def __len__(self) -> int:
        return len(self.literals)


def _code(lit: Literal) -> int:
    return lit.atom_index * 2 + (0 if lit.polarity else 1)


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
    Concrete atoms of ``phi`` are looked up through ``table``.
    """
    minimizer = _CubeMinimizer(phi, table)
    for clause in blocking:
        minimizer.add_blocking(_code(l) for l in clause)
    kept = minimizer.minimize(assignment.as_map(), sorted(set(proj)))
    return Assignment(
        frozenset(Literal(i, v) for i, v in kept.items()), assignment.scope
    )


_UNKNOWN = 2


class _CubeMinimizer:
    """Greedy cube minimization against one formula and a growing set of
    blocking clauses.

    The formula's DAG is flattened once into node arrays in topological
    order (children first).  Each :meth:`minimize` call evaluates every node
    once under the full assignment, with values 0, 1 and ``_UNKNOWN``.  A
    trial drop sets the atom's leaves to unknown and re-evaluates only the
    ancestors (the atom's cone) whose inputs changed; the values are rolled
    back when the drop is rejected.  Kleene evaluation is monotone, so a drop
    can only turn known values into unknown ones and each node changes at
    most once per trial.

    Blocking clauses are sets of literal codes, indexed by code.  Each call
    counts every clause's satisfied literals once; a drop is allowed iff
    every clause holding the dropped literal has another satisfied literal.
    """

    def __init__(self, phi: Term, table: Optional[AtomTable] = None):
        position: Dict[int, int] = {}
        self._kind: List[TermKind] = []
        self._args: List[Tuple[int, ...]] = []
        self._val: List[int] = []
        self._leaves: Dict[int, List[int]] = {}
        self._inner: List[int] = []
        for t in iter_dag(phi):
            node = len(self._kind)
            position[t.id] = node
            self._kind.append(t.kind)
            self._args.append(tuple(position[a.id] for a in t.args))
            self._val.append(int(t.payload) if t.kind is TermKind.CONST else _UNKNOWN)
            if t.kind is TermKind.ATOM_REF:
                self._leaves.setdefault(t.payload, []).append(node)
            elif t.is_atom():
                if table is None:
                    raise ValueError("minimizing over concrete atoms requires the atom table")
                self._leaves.setdefault(table.index_of[t.id], []).append(node)
            elif t.kind is not TermKind.CONST:
                self._inner.append(node)
        self._root = position[phi.id]
        self._parents: List[List[int]] = [[] for _ in self._kind]
        for node in self._inner:
            for child in set(self._args[node]):
                self._parents[child].append(node)
        self._blocking: List[FrozenSet[int]] = []
        self._holding: Dict[int, List[int]] = {}  # literal code -> clause ids

    def add_blocking(self, codes: Iterable[int]) -> None:
        clause = frozenset(codes)
        cid = len(self._blocking)
        self._blocking.append(clause)
        for code in clause:
            self._holding.setdefault(code, []).append(cid)

    def minimize(self, values: Mapping[int, bool], proj_sorted: Sequence[int]) -> Dict[int, bool]:
        """The greedy drop loop over ``proj_sorted``: a literal is dropped
        when the formula stays true and every blocking clause stays
        satisfied without it.  Returns the kept ``{atom: value}`` map."""
        current = dict(values)
        val = self._val
        for atom, leaves in self._leaves.items():
            v = current.get(atom)
            for leaf in leaves:
                val[leaf] = _UNKNOWN if v is None else int(v)
        for node in self._inner:
            val[node] = self._eval(node)
        if val[self._root] != 1:
            return current
        true_codes = {i * 2 + (0 if v else 1) for i, v in current.items()}
        counts = [len(clause & true_codes) for clause in self._blocking]
        if 0 in counts:
            return current
        for idx in proj_sorted:
            v = current.get(idx)
            if v is None:
                continue
            holding = self._holding.get(idx * 2 + (0 if v else 1), ())
            if any(counts[cid] < 2 for cid in holding) or not self._drop(idx):
                continue
            del current[idx]
            for cid in holding:
                counts[cid] -= 1
        return current

    def _drop(self, atom: int) -> bool:
        """Make ``atom`` unknown; keep the change iff the formula stays true."""
        val = self._val
        parents = self._parents
        changed: List[Tuple[int, int]] = []
        stack = list(self._leaves.get(atom, ()))
        for leaf in stack:
            changed.append((leaf, val[leaf]))
            val[leaf] = _UNKNOWN
        while stack:
            for parent in parents[stack.pop()]:
                old = val[parent]
                if old == _UNKNOWN:
                    continue
                new = self._eval(parent)
                if new != old:
                    changed.append((parent, old))
                    val[parent] = new
                    stack.append(parent)
        if val[self._root] == 1:
            return True
        for node, old in changed:
            val[node] = old
        return False

    def _eval(self, node: int) -> int:
        """Kleene value of an inner node from its children's values."""
        kind = self._kind[node]
        args = self._args[node]
        val = self._val
        if kind is TermKind.AND or kind is TermKind.OR:
            absorbing = 0 if kind is TermKind.AND else 1
            result = 1 - absorbing
            for child in args:
                v = val[child]
                if v == absorbing:
                    return absorbing
                if v == _UNKNOWN:
                    result = _UNKNOWN
            return result
        if kind is TermKind.NOT:
            v = val[args[0]]
            return v if v == _UNKNOWN else 1 - v
        if kind is TermKind.IMPLIES:
            a, b = val[args[0]], val[args[1]]
            if a == 0 or b == 1:
                return 1
            return 0 if a == 1 and b == 0 else _UNKNOWN
        if kind is TermKind.IFF:
            a, b = val[args[0]], val[args[1]]
            return _UNKNOWN if _UNKNOWN in (a, b) else int(a == b)
        if kind is TermKind.ITE:
            c, a, b = val[args[0]], val[args[1]], val[args[2]]
            if c != _UNKNOWN:
                return a if c == 1 else b
            return a if a == b else _UNKNOWN
        raise AssertionError(f"unknown term kind {kind}")


@dataclass
class EnumerationStats:
    n_candidates: int = 0
    n_theory_checks: int = 0
    n_lemmas: int = 0
    n_blocking_clauses: int = 0  # one per recorded cube, in either mode
    elapsed_ns: int = 0


@dataclass
class EnumerationOutcome:
    assignments: List[Assignment]
    lemmas: List[TLemma]
    stats: EnumerationStats
    truncated: bool = False
    oracle_error: Optional[str] = None  # the oracle fault that truncated the run


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
        self.oracle = oracle
        self.deadline = deadline
        self.early_pruning = early_pruning
        self.pruning_interval = max(1, pruning_interval)
        self.positive_first = positive_first

        self.n_atoms = len(cnf.alpha_indices)
        self.n_vars = cnf.n_vars
        self.proj_sorted = sorted(set(proj))
        self.scope = frozenset(self.proj_sorted)  # shared by every recorded cube
        # Interned literals by code: 2*i is atom i true, 2*i + 1 false.
        self.literal_of = [Literal(c >> 1, not c & 1) for c in range(2 * self.n_atoms)]
        self.minimizer: Optional[_CubeMinimizer] = None
        if mode is EnumerationMode.PARTIAL:
            if cnf.source is None:
                raise ValueError("partial mode needs the source formula for minimization")
            self.minimizer = _CubeMinimizer(cnf.source)

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

        self.out_assignments: List[Assignment] = []
        self.out_lemmas: List[TLemma] = []
        self.lemma_keys = set()
        self.stats = EnumerationStats()
        self.truncated = False
        self.oracle_error: Optional[str] = None
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

    def _assigned_theory_literals(self) -> List[Literal]:
        values = self.values
        literal_of = self.literal_of
        return [
            literal_of[2 * i + 1 - values[i]]
            for i in self.theory_vars
            if values[i] != UNASSIGNED
        ]

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
        rules it out (a lemma, or the negation of the recorded cube), or
        None when the search is finished or truncated."""
        self.stats.n_candidates += 1
        theory_lits = self._assigned_theory_literals()
        verdict = self._theory_check(theory_lits) if theory_lits else TheoryVerdict(True)
        if verdict is None:
            return None
        if not verdict.satisfiable:
            return self._emit_lemma(verdict)
        values = self.values
        if self.minimizer is None:
            kept = self.proj_sorted
        else:
            alpha_map = {i: values[i] == 1 for i in range(self.n_atoms)}
            in_cube = self.minimizer.minimize(alpha_map, self.proj_sorted)
            kept = [i for i in self.proj_sorted if i in in_cube]
        literal_of = self.literal_of
        cube = frozenset([literal_of[2 * i + 1 - values[i]] for i in kept])
        self.out_assignments.append(Assignment(cube, self.scope))
        self.stats.n_blocking_clauses += 1
        if not kept:
            return None  # empty blocking clause: nothing left to enumerate
        codes = [2 * i + values[i] for i in kept]  # the cube's negation
        if self.minimizer is not None:
            assert all(self._lit_value(c) == 0 for c in codes)
            self._add_dynamic(codes)
            self.minimizer.add_blocking(codes)
        return codes

    def _early_prune(self) -> Optional[List[int]]:
        """Theory-check the current partial assignment; lemma codes on
        conflict, None otherwise."""
        lits = self._assigned_theory_literals()
        if not lits:
            return None
        verdict = self._theory_check(lits)
        if verdict is None or verdict.satisfiable:
            return None
        return self._emit_lemma(verdict)

    def _theory_check(self, lits: List[Literal]) -> Optional[TheoryVerdict]:
        """The oracle's verdict, or None after it failed (a timeout or a
        solver fault), which truncates the run: what was found so far is
        returned."""
        self.stats.n_theory_checks += 1
        try:
            return self.oracle.check(lits)
        except OracleError as exc:
            self.truncated = True
            self.oracle_error = str(exc)
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
            oracle_error=self.oracle_error,
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
    absolute ``time.monotonic()`` value) passes or an oracle check fails,
    partial results are returned with ``truncated`` set, and an oracle
    failure's message in ``oracle_error``.
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
