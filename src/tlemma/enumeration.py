"""Projected AllSMT enumeration over the Boolean abstraction.

The engine is a deterministic DPLL search: two-watched-literal propagation,
chronological backtracking (no clause learning), branching on the lowest
unassigned projection atom first, then the remaining atoms, then Tseitin
labels, positive polarity first.  The theory is consulted on total
candidates only, each checked once against the theory oracle: a conflict
turns into a lemma clause, a consistent candidate is projected and recorded.
Two runs with identical inputs produce identical outcomes, literal for
literal.

The search is one loop, :meth:`_Engine.run`, that holds the engine's state
in local variables.  The deadline is read once before the first
propagation; then each iteration reads it again, propagates, and either
decides the next branch variable, or checks the total candidate it reached
and emits a lemma or records a cube.  Every path that does not decide ends
in the same backtracking code: pop the decisions the propagation conflict,
the lemma or the cube closed, unwind the trail once, flip the deepest open
decision, and replay the unit lemmas the run added, if any.  Propagation
stays a method, :meth:`_Engine._propagate`: its time goes to its own loop
over the watch lists, not to the one call per iteration.  So do the rare
events: a lemma, and a replay of the unit lemmas.

After recording a cube the search backtracks below the cube's deepest
literal on the trail and takes the untried branch of the deepest open
decision left.  The cube holds every projection atom, and that is all it
takes to never reach it again, so no blocking clause is added: projection
atoms are decided before any other variable, so every decision on the trail
up to the cube's deepest literal is on a projection atom, and chronological
backtracking keeps every later path on the other side of one of them.  A
blocking clause would never be unit and never falsified.

So the cubes are distinct total assignments of the same projection atoms,
which makes them pairwise disjoint, and each is recorded once.  A total
assignment of the projection that no cube holds had every extension that
satisfies the CNF and the assumptions refuted by a seed lemma or by a lemma
of the run: the search reaches every other such extension as a candidate,
which is either recorded or refuted by the lemma it yields.  Divide &
conquer relies on both when it enumerates over a prefix of its projection
(:func:`strategies.phase1_prefix`): the remaining projection atoms are then
branched on after the prefix like any other atom.

The candidate path builds no literal objects: a theory query hands the
oracle the engine's value array itself (``TheoryOracle.check(values=...)``),
whose memos are keyed by tuples of atom values, so a query the oracle has
seen costs a tuple read and a dict lookup.  A recorded cube is a snapshot
of the value array, ``bytes(values)``; :class:`EnumerationOutcome` turns the
snapshots into :class:`Assignment` objects only when its ``assignments``
are read, so a run whose caller only counts its cubes builds none.

An engine installs its CNF and seed lemmas once.  :func:`projected_allsmt`
runs it once; :func:`enumerate_cubes` re-runs it under each of a list of
cubes, dropping what the previous run added, so that each outcome equals a
fresh engine's.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence

from .atoms import UNASSIGNED, AtomKind, Literal
from .cnf import CnfProblem
from .oracle import OracleError, TheoryVerdict, TLemma


class EnumerationMode(enum.Enum):
    """Unused by the engine, which has one mode: the benchmark's tracer
    imports this class to label enumeration spans, and it goes with the
    tracer's next change."""

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


@dataclass
class EnumerationStats:
    n_candidates: int = 0
    n_theory_checks: int = 0
    n_lemmas: int = 0
    elapsed_ns: int = 0


@dataclass
class EnumerationOutcome:
    """What one enumeration run found.

    ``cubes`` holds one snapshot per recorded cube, in the order recorded:
    ``bytes`` of the engine's value array at the candidate, indexed by
    variable, with 1 for true and 0 for false: a candidate assigns every
    variable.  Only the entries of the sorted projection ``proj`` belong to
    the cube.  :attr:`assignments` decodes the snapshots, once, on first
    read.
    """

    cubes: List[bytes]
    proj: List[int]
    lemmas: List[TLemma]
    stats: EnumerationStats
    truncated: bool = False
    oracle_error: Optional[str] = None  # the oracle fault that truncated the run

    @cached_property
    def assignments(self) -> List[Assignment]:
        """The cubes as assignments over the scope ``proj``, which they all
        share."""
        proj = self.proj
        scope = frozenset(proj)
        return [
            Assignment(
                frozenset([Literal(i, cube[i] == 1) for i in proj]),
                scope,
            )
            for cube in self.cubes
        ]


class _Engine:
    """The search over one CNF and one set of seed lemmas.

    The CNF and the seeds are installed once; :meth:`run` searches under a
    set of assumptions and can be called again for another set.  Each run
    starts from what a freshly built engine holds: the installed clauses,
    with the clauses, root units and outputs of the last run dropped.  Only
    the order of the watch lists and of the literals inside the installed
    clauses may differ, and neither changes a run's outcome: the closure of
    unit propagation, whether it conflicts, and the decision level of a
    clause's deepest literal do not depend on them.

    :meth:`run` is the whole search, one loop over locals.  Decisions,
    candidates and backtracking happen inline in it; so does the one theory
    check per candidate, through the oracle's public ``check(values=...)``,
    whose :class:`OracleError` ends the loop.
    :meth:`_propagate` stays a method: it is called once per iteration, and
    its own loop over the watch lists, not the call, is where its time goes;
    inlined, its return on a conflict would need a flag in the loop.
    The deadline is read before the root units are first propagated, so a
    run started past it does no work, and then once per iteration.

    A decision is ``[trail position, flipped, rank in branch_order]``.
    The ranks on the stack increase from bottom to top, so the decisions on
    projection atoms lie below all others.
    """

    def __init__(
        self,
        cnf: CnfProblem,
        table,
        proj: Sequence[int],
        oracle,
        seed_lemmas: Sequence[TLemma],
        deadline: Optional[float],
    ):
        self.oracle = oracle
        self.deadline = deadline

        self.n_atoms = len(cnf.alpha_indices)
        self.n_vars = cnf.n_vars
        self.proj_sorted = sorted(set(proj))

        self.has_theory = any(
            table.kind_of(i) is AtomKind.THEORY for i in range(self.n_atoms)
        )

        proj_set = set(self.proj_sorted)
        rest = [i for i in range(self.n_atoms) if i not in proj_set]
        labels = list(range(self.n_atoms, self.n_vars))
        self.branch_order: List[int] = self.proj_sorted + rest + labels

        self.values = bytearray([UNASSIGNED] * self.n_vars)
        self.pos_in_trail = [0] * self.n_vars
        self.trail: List[int] = []
        self.qhead = 0
        self.decisions: List[List[int]] = []
        self.watches: List[List[int]] = [[] for _ in range(2 * self.n_vars)]
        self.clauses: List[List[int]] = []
        self.root_units: List[int] = []
        self.has_empty = False

        for clause in cnf.clauses:
            self._install(sorted(_code(l) for l in clause))
        self.literals: Dict[int, Literal] = {}  # by code, see _literal
        self.seed_keys = set()
        for lemma in seed_lemmas:
            self.seed_keys.add(lemma.key)
            self._install([_code(l) for l in lemma.literals])
        # What every run starts from; a run appends past these marks.
        self.n_installed = len(self.clauses)
        self.n_installed_units = len(self.root_units)

    def _reset(self, assumptions: Sequence[Literal]) -> None:
        """Drop the last run's search state, clauses, root units and
        outputs, and take ``assumptions`` as root units."""
        for code in self.trail:
            self.values[code >> 1] = UNASSIGNED
        self.trail.clear()
        self.qhead = 0
        self.decisions.clear()
        for ci in range(self.n_installed, len(self.clauses)):
            clause = self.clauses[ci]
            self.watches[clause[0]].remove(ci)
            self.watches[clause[1]].remove(ci)
        del self.clauses[self.n_installed :]
        del self.root_units[self.n_installed_units :]
        self.root_units.extend(_code(lit) for lit in assumptions)
        self.n_fixed = 0  # the root units not to replay after a backtrack
        self.out_cubes: List[bytes] = []
        self.out_lemmas: List[TLemma] = []
        self.lemma_keys = set()
        self.stats = EnumerationStats()

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
        """Closure under unit propagation; True iff a conflict was found.

        Literal values are read and implied literals assigned inline, as
        :meth:`_assign` does: code ``c`` is false iff ``values[c >> 1] ==
        c & 1``, and true iff it equals ``(c & 1) ^ 1``.
        """
        values = self.values
        pos_in_trail = self.pos_in_trail
        trail = self.trail
        watches = self.watches
        clauses = self.clauses
        while self.qhead < len(trail):
            fal = trail[self.qhead] ^ 1
            self.qhead += 1
            ws = watches[fal]
            kept: List[int] = []
            i = 0
            n = len(ws)
            while i < n:
                ci = ws[i]
                i += 1
                clause = clauses[ci]
                if clause[0] == fal:
                    clause[0], clause[1] = clause[1], fal
                first = clause[0]
                fv = values[first >> 1]
                if fv == (first & 1) ^ 1:
                    kept.append(ci)
                    continue
                for k in range(2, len(clause)):
                    c = clause[k]
                    if values[c >> 1] != c & 1:
                        clause[1], clause[k] = c, fal
                        watches[c].append(ci)
                        break
                else:
                    kept.append(ci)
                    if fv == first & 1:
                        kept.extend(ws[i:])
                        watches[fal] = kept
                        return True
                    values[first >> 1] = (first & 1) ^ 1
                    pos_in_trail[first >> 1] = len(trail)
                    trail.append(first)
            watches[fal] = kept
        return False

    def _replay_root_units(self) -> bool:
        """Enqueue the root units from ``n_fixed`` on; False on immediate
        conflict.

        The units before ``n_fixed`` were assigned and propagated before
        the first decision, and backtracking never unwinds that far, so only
        the units added during the run (unit lemmas) need replaying after a
        backtrack.
        """
        for code in self.root_units[self.n_fixed :]:
            v = self._lit_value(code)
            if v == 0:
                return False
            if v == UNASSIGNED:
                self._assign(code)
        return True

    # -- theory interaction ---------------------------------------------------

    def _emit_lemma(self, verdict: TheoryVerdict) -> int:
        """Record the core's lemma and add its clause; returns the trail
        position of the clause's deepest literal.

        The lemma is :func:`lemma_from_core`'s: a core holds one literal per
        atom, so its negations sort by code as by literal.  It is built from
        this engine's one object per literal, so that pickle writes each
        literal once when a phase-2 child sends its lemmas back."""
        codes = sorted({_code(lit) ^ 1 for lit in verdict.core})
        lemma = TLemma(tuple([self._literal(c) for c in codes]))
        assert lemma.key not in self.seed_keys, "seed lemma rediscovered"
        assert lemma.key not in self.lemma_keys, "lemma clause was already active"
        self.lemma_keys.add(lemma.key)
        self.out_lemmas.append(lemma)
        self.stats.n_lemmas += 1
        assert all(self._lit_value(c) == 0 for c in codes)
        self._add_dynamic(codes)
        return max(self.pos_in_trail[c >> 1] for c in codes)

    def _literal(self, code: int) -> Literal:
        lit = self.literals.get(code)
        if lit is None:
            lit = self.literals[code] = Literal(code >> 1, not code & 1)
        return lit

    # -- main loop --------------------------------------------------------------

    def run(self, assumptions: Sequence[Literal] = ()) -> EnumerationOutcome:
        """Search under ``assumptions``, from the installed clauses alone."""
        self._reset(assumptions)
        start = time.monotonic_ns()
        deadline = self.deadline
        truncated = False
        oracle_error: Optional[str] = None
        if deadline is not None and time.monotonic() > deadline:
            truncated = True
            alive = False
        else:
            # The root units and their consequences, assigned before the
            # first decision, stay on the trail until the run ends.
            alive = not self.has_empty and self._replay_root_units() and not self._propagate()
        self.n_fixed = n_fixed = len(self.root_units)

        values = self.values
        pos_in_trail = self.pos_in_trail
        trail = self.trail
        decisions = self.decisions
        root_units = self.root_units
        order = self.branch_order
        n_order = len(order)
        n_proj = len(self.proj_sorted)
        out_cubes = self.out_cubes
        stats = self.stats
        propagate = self._propagate
        check = self.oracle.check
        try:
            while alive:
                if deadline is not None and time.monotonic() > deadline:
                    truncated = True
                    break
                # Every path below either decides a variable and goes round
                # again, or sets ``deepest`` and falls through to
                # backtracking, which pops every decision made after trail
                # position ``deepest``.  A propagation conflict sets it past
                # the end of the trail: no decision is closed but the flipped
                # ones.
                if propagate():
                    deepest = len(trail)
                else:
                    # Decide the first unassigned variable in branch order,
                    # positive first.  The scan resumes after the last
                    # decision's variable: every variable before it was
                    # assigned when it was decided, on a lower level, and
                    # chronological backtracking unwinds no lower level
                    # without popping that decision.
                    rank = decisions[-1][2] + 1 if decisions else 0
                    while rank < n_order and values[order[rank]] != UNASSIGNED:
                        rank += 1
                    if rank < n_order:
                        var = order[rank]
                        decisions.append([len(trail), 0, rank])
                        values[var] = 1
                        pos_in_trail[var] = len(trail)
                        trail.append(var * 2)
                        continue
                    # A total candidate: a theory conflict becomes a lemma,
                    # a consistent candidate a cube.
                    stats.n_candidates += 1
                    verdict = check(values=values)
                    if not verdict.satisfiable:
                        deepest = self._emit_lemma(verdict)
                    else:
                        out_cubes.append(bytes(values))
                        if not n_proj:
                            break  # the empty cube holds every model
                        # Back to the deepest projection decision: every
                        # branch of a later decision extends the cube.
                        while decisions and decisions[-1][2] >= n_proj:
                            decisions.pop()
                        deepest = len(trail)
                # Chronological backtracking: drop the decisions above
                # ``deepest``, whose subtrees all falsify the new clause, and
                # those whose both branches are done; unwind the trail once,
                # to the deepest decision left, and take its untried branch.
                # Unit lemmas of this run are replayed on it; one that
                # contradicts it sends the search on to the next decision
                # down.
                while decisions and decisions[-1][0] > deepest:
                    decisions.pop()
                while True:
                    while decisions and decisions[-1][1]:
                        decisions.pop()
                    if not decisions:
                        alive = False  # the search space is exhausted
                        break
                    decision = decisions[-1]
                    decision[1] = 1
                    pos = decision[0]
                    flipped = trail[pos] ^ 1
                    for code in trail[pos:]:
                        values[code >> 1] = UNASSIGNED
                    del trail[pos:]
                    self.qhead = pos
                    values[flipped >> 1] = (flipped & 1) ^ 1
                    pos_in_trail[flipped >> 1] = pos
                    trail.append(flipped)
                    if len(root_units) == n_fixed or self._replay_root_units():
                        break
        except OracleError as exc:
            # A timeout or a solver fault truncates the run: what was found
            # so far is returned.
            truncated = True
            oracle_error = str(exc)
        # A candidate assigns every variable, so it has a theory query iff
        # there are theory atoms: one per candidate, the one an oracle fault
        # cut short included.  Without them the query is empty, and the
        # oracle calls it consistent without a solve.
        stats.n_theory_checks = stats.n_candidates if self.has_theory else 0
        stats.elapsed_ns = time.monotonic_ns() - start
        return EnumerationOutcome(
            cubes=out_cubes,
            proj=self.proj_sorted,
            lemmas=self.out_lemmas,
            stats=stats,
            truncated=truncated,
            oracle_error=oracle_error,
        )


def _checked_projection(cnf: CnfProblem, proj: Iterable[int]) -> List[int]:
    proj = sorted(set(proj))
    if not set(proj) <= set(cnf.alpha_indices):
        raise ValueError("projection atoms must belong to the atom set")
    return proj


def projected_allsmt(
    cnf: CnfProblem,
    table,
    proj: Iterable[int],
    oracle,
    seed_lemmas: Sequence[TLemma] = (),
    *,
    assumptions: Sequence[Literal] = (),
    deadline: Optional[float] = None,
) -> EnumerationOutcome:
    """Enumerate theory-satisfiable assignments projected on ``proj``.

    Returns the projected assignments, the lemmas minted from every theory
    conflict hit during the search, and run counters.  When ``deadline`` (an
    absolute ``time.monotonic()`` value) passes or an oracle check fails,
    partial results are returned with ``truncated`` set, and an oracle
    failure's message in ``oracle_error``.
    """
    engine = _Engine(
        cnf, table, _checked_projection(cnf, proj), oracle, seed_lemmas, deadline
    )
    return engine.run(assumptions)


def enumerate_cubes(
    cnf: CnfProblem,
    table,
    proj: Iterable[int],
    oracle,
    seed_lemmas: Sequence[TLemma],
    cubes: Iterable[Sequence[Literal]],
    *,
    deadline: Optional[float] = None,
) -> List[EnumerationOutcome]:
    """One enumeration per cube, each under the cube's literals as
    assumptions; one outcome per cube, in order.

    Each outcome is the one :func:`projected_allsmt` returns for the cube,
    but the CNF and the seeds are installed once, into one engine that is
    re-run per cube.  Every cube runs, even after an earlier one truncated.
    """
    engine = _Engine(
        cnf, table, _checked_projection(cnf, proj), oracle, seed_lemmas, deadline
    )
    return [engine.run(cube) for cube in cubes]
