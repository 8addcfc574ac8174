"""Theory consistency of conjunctions of linear-rational literals.

An oracle answers a query with a verdict and, if it is unsatisfiable, a
core; it builds no model, since the enumerator reads none.
:class:`TheoryOracle` is the front end of every backend: a backend only
solves one part of a query, answering a verdict and, if unsat, a witness,
an unsatisfiable subset of the part.  It gets the part as its theory
component's literal pairs and value key (below); by default these are
turned into the part's literal ``frozenset``, which is all the external
backend reads, while the builtin backend builds its rows straight from the
key.  Backends are a documented hot-swap point: the builtin one is below,
the external SMT-LIB2 one in ``external.py``.

A query is an assignment to theory atoms held in a value array indexed by
atom: 1 for true, 0 for false and ``UNASSIGNED`` for an atom outside the
query.  The enumeration engine hands :meth:`TheoryOracle.check` its own
value array; a list of literals (tests, the verifier) is first written into
a fresh value array, so both take one path through one set of memos.

A conjunction is consistent iff each of its restrictions to the
symbol-disjoint theory components of ``partition_atoms`` is, since those
share no variable.  The front end therefore solves and memoizes each part of
a query on its own: k components with m consistent parts each take k*m memo
entries rather than m**k.  A query is satisfiable iff every part is, and its
witness is the first unsatisfiable part's.  Each component has a memo of its
own, keyed by the tuple of its atoms' values, which one precomputed
``operator.itemgetter`` reads off the value array; a component whose atoms
are all unassigned has no part.  A part's literal ``frozenset`` is built
only when a backend that reads one must solve it.

In front of the per-part memos sits a whole-query memo: a verdict, core
included, keyed by the tuple of every theory atom's value and consulted
before the split and minimization.  It changes no count and no core: a
repeated query would find each of its parts, and each of the minimization
trials it made the first time, in the per-part memos, and deletion is
deterministic, so it would solve nothing and rebuild the same core.  A query
that raised (a non-theory literal, a timeout) is not stored.  The empty
query is satisfiable; it takes no solve and no memo entry.

Cores are minimized by deletion in ascending atom-index order over the whole
query, so a core depends only on verdicts, not on the witnesses a backend
returns, and identical queries yield identical lemmas on every backend.
Deletion skips the check for a literal outside the last witness: the trial
set still contains the witness, so it is unsatisfiable, and the core is
exactly the one plain deletion returns.

The builtin backend runs Fourier-Motzkin elimination with strictness
tracking over integer rows.  A literal's row ``sum(c_i * x_i) REL b`` is
scaled by the bound's denominator and divided by the gcd of its entries, so
``c_i`` and ``b`` are coprime integers; each literal's row is built once per
oracle, in a per-component table indexed by the literal's origin bit (below),
so a solve reads its rows straight off the part's value key, in ascending
atom order.  Equalities are eliminated first and variables are then
eliminated pairwise, both by integer cross-multiplication; disequalities
(negated equalities) are case-split.  Each pairwise step eliminates the
variable with the fewest upper x lower row pairs, ties broken by name, and
takes one sweep over its rows: the loop that counts every variable's rows by
the sign of its coefficient also collects them, so the chosen variable's
upper and lower rows come out of the choice, and only the rows without it
take one more filter.  A derived constant constraint ``0 <= b`` /
``0 < b`` is contradictory iff ``b < 0``, or ``b = 0`` with the strict flag
set.  Every scaling is by a positive factor, so a row keeps its solution set,
the signs of its coefficients and its strictness.

Every row carries an origin mask, an ``int`` of the literals the row was
derived from (Imbert's history sets).  A literal's origin bit is fixed per
oracle: bit ``2 * rank + polarity``, ``rank`` being its atom's position in
its theory component, and a part never spans two components.  So a mask
means the same literals in every solve of the oracle.  Combining two
rows joins their masks, so a derived contradiction names an unsatisfiable
subset of the part, its witness, read off the mask through the value key:
bit ``2 * rank + value`` stands for the literal giving the component's
``rank``-th atom that value.  A disequality's split ends after the first
branch when that branch's contradiction does not use the branch row: it
refutes the other branch as well.

The solves of one oracle share a derivation memo.  Every row has an id that
no other row made in the process has.  The memo, keyed by ``(row id, row id,
variable)``, holds each pair combination of an elimination step (the derived
row, or the verdict of a constant row) and each equality substitution; keyed
by a disequality's id alone, it holds the disequality's two branch rows.  A
hit returns the row object made the first time, so its id, and the
derivations from it, hit as well.  Consecutive candidates and core
minimization trials share most of their literals, so most combinations
recur.  The memo changes which rows are built, never their content or
order: the variable choice, the row order and the return on the first
contradiction are those of a solve without it, so every witness, core,
``n_raw_checks`` count and lemma is unchanged.  An entry is stored only once
complete, so a solve that times out leaves the memo usable.  ``MEMO_CAP``
bounds the memo: it is emptied whole when an insertion would pass the cap.
Ids are never reused, so an emptied memo cannot answer for an older row.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import itemgetter
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .atoms import UNASSIGNED, Literal
from .partition import partition_atoms
from .terms import LinearAtom, Relation


class OracleError(Exception):
    pass


class OracleTimeoutError(OracleError):
    pass


@dataclass(frozen=True)
class TLemma:
    """A theory-valid clause: literals over theory atoms, sorted by index."""

    literals: Tuple[Literal, ...]

    @classmethod
    def of(cls, literals: Iterable[Literal]) -> "TLemma":
        lits = sorted(set(literals))
        return cls(tuple(lits))

    @property
    def key(self) -> FrozenSet[Literal]:
        return frozenset(self.literals)

    def __len__(self) -> int:
        return len(self.literals)


@dataclass(frozen=True)
class TheoryVerdict:
    satisfiable: bool
    core: Optional[Tuple[Literal, ...]] = None  # unsat subset, present iff unsat


@dataclass(frozen=True)
class OracleConfig:
    """How to build an oracle: the external backend iff ``command`` is set.

    There is no core policy to choose: every oracle minimizes each unsat
    core by deletion, so every core is irreducible (no proper subset is
    unsatisfiable) and no lemma's literal set strictly contains another's.
    """

    command: Optional[str] = None  # solver command line of the external backend
    timeout_secs: float = 10.0  # per solve; must be > 0

    def __post_init__(self):
        if not self.timeout_secs > 0:
            raise ValueError(f"oracle timeout must be > 0 seconds, got {self.timeout_secs}")


# -- Fourier-Motzkin core ---------------------------------------------------

# A row ``(coeffs, bound, mask, flag, id)`` means sum(coeffs) REL bound over
# integers, derived from the query literals whose origin bits are set in
# ``mask``.  ``flag`` is an inequality's strict flag, a disequality's own
# origin bit (which only rows derived from it carry), and ``None`` for an
# equality.  ``id`` names the row in the derivation memo: no two rows made in
# one process share an id, so a memo entry keyed by ids never goes stale.
Row = Tuple[Dict[str, int], int, int, object, int]

# The most entries an oracle's derivation memo holds: it is emptied whole
# before an insertion would pass this cap.  An entry takes about 150-250
# bytes, so the memo stays under about 16 MB.
MEMO_CAP = 1 << 16

_next_id = itertools.count(1).__next__


def _check_deadline(deadline: float) -> None:
    if time.monotonic() > deadline:
        raise OracleTimeoutError("theory query exceeded its time budget")


def _row_conflict(bound, strict: bool) -> bool:
    return bound < 0 or (bound == 0 and strict)


def _reduced(coeffs: Dict[str, int], bound: int) -> Tuple[Dict[str, int], int]:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(bound, *coeffs.values())
    if g > 1:
        return {n: c // g for n, c in coeffs.items()}, bound // g
    return coeffs, bound


def _integral(coeffs: Dict[str, int], bound: Fraction) -> Tuple[Dict[str, int], int]:
    """Integer row for integer-valued ``coeffs`` and a rational ``bound``:
    scale by the bound's denominator, then reduce."""
    q = bound.denominator
    return _reduced({n: int(c) * q for n, c in coeffs.items()}, bound.numerator)


def _store(memo: dict, key: tuple, value) -> None:
    if len(memo) >= MEMO_CAP:
        memo.clear()
    memo[key] = value


def _substitute(row: Row, var: str, eq: Row, memo: dict) -> Row:
    """Cancel ``var`` from a row with the equality ``sum(eq_coeffs) = eq_bound``.

    The row is scaled by ``|k|``, k being the equality's coefficient of
    ``var``, before a multiple of the equality is subtracted; the result's
    origin mask joins both masks and it keeps the row's flag.  A row without
    ``var`` is returned as is.
    """
    coeffs, bound, mask, flag, rid = row
    r = coeffs.get(var)
    if r is None:
        return row
    key = (rid, eq[4], var)
    hit = memo.get(key)
    if hit is not None:
        return hit
    eq_coeffs, eq_bound, eq_mask, _, _ = eq
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
    hit = _reduced(out, m * bound - f * eq_bound) + (mask | eq_mask, flag, _next_id())
    _store(memo, key, hit)
    return hit


def _combine(upper: Row, lower: Row, var: str):
    """The row ``upper`` and ``lower`` give with ``var`` cancelled; for a
    constant row, its origin mask (an ``int``) if it is a contradiction,
    else ``()``."""
    uc, ub, um, us, _ = upper
    lc, lb, lm, ls, _ = lower
    a = uc[var]
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
        return um | lm if _row_conflict(bound, strict) else ()
    return _reduced(coeffs, bound) + (um | lm, strict, _next_id())


def _eliminate_var(
    rows: List[Row], var: str, upper: List[Row], lower: List[Row], memo: dict, deadline: float
):
    """One Fourier-Motzkin step on ``var``, whose ``upper`` and ``lower``
    rows :func:`_pick_var` collected: the rows without ``var``, or the origin
    mask (an ``int``) of a derived contradiction."""
    new_rows = [r for r in rows if var not in r[0]]
    get = memo.get
    for u in upper:
        _check_deadline(deadline)
        uid = u[4]
        for low in lower:
            key = (uid, low[4], var)
            hit = get(key)
            if hit is None:
                hit = _combine(u, low, var)
                _store(memo, key, hit)
            if type(hit) is int:
                return hit
            if hit:
                new_rows.append(hit)
    return new_rows


def _pick_var(rows: List[Row]) -> Optional[Tuple[str, List[Row], List[Row]]]:
    """The variable with the fewest upper x lower row pairs, ties broken by
    name, with its upper (positive) and lower (negative) rows in row order;
    ``None`` if no row has a variable.  The one sweep that counts each
    variable's rows by sign also collects them, so the step that follows
    needs no sweep of its own to find them."""
    signs: Dict[str, Tuple[List[Row], List[Row]]] = {}
    for row in rows:
        for name, c in row[0].items():
            lists = signs.get(name)
            if lists is None:
                lists = signs[name] = ([], [])
            lists[c < 0].append(row)
    best = None
    for name, (upper, lower) in signs.items():
        cost = len(upper) * len(lower)
        if best is None or cost < best_cost or (cost == best_cost and name < best):
            best, best_cost = name, cost
    if best is None:
        return None
    return (best, *signs[best])


def _fm_eliminate(rows: List[Row], memo: dict, deadline: float) -> Optional[int]:
    """``None`` if the row system is satisfiable, else the origin mask of a
    contradiction."""
    for coeffs, bound, mask, strict, _ in rows:
        if not coeffs and _row_conflict(bound, strict):
            return mask
    work = [r for r in rows if r[0]]
    while True:
        _check_deadline(deadline)
        picked = _pick_var(work)
        if picked is None:
            return None
        work = _eliminate_var(work, *picked, memo, deadline)
        if isinstance(work, int):
            return work


def _branches(diseq: Row, memo: dict) -> Tuple[Row, Row]:
    """The strict inequalities ``sum(coeffs) < bound`` and ``> bound`` of a
    disequality, each with its origin mask."""
    key = (diseq[4],)
    hit = memo.get(key)
    if hit is None:
        coeffs, bound, mask, _, _ = diseq
        hit = (
            (coeffs, bound, mask, True, _next_id()),
            ({n: -c for n, c in coeffs.items()}, -bound, mask, True, _next_id()),
        )
        _store(memo, key, hit)
    return hit


def _solve_system(
    ineqs: List[Row],
    eqs: List[Row],
    diseqs: List[Row],
    memo: dict,
    deadline: float,
) -> Optional[int]:
    """Satisfiability of ineqs & eqs & diseqs: ``None`` if satisfiable, else
    the origin mask (an ``int``) of a contradiction.

    ``memo`` holds derivations made by earlier calls over rows of the same
    ids, each keyed by the ids of the rows it combines and the variable it
    cancels: it changes which rows are built, never their content or order.
    """
    _check_deadline(deadline)
    eqs = list(eqs)
    while eqs:
        eq = eqs.pop(0)
        coeffs, bound, mask, _, _ = eq
        if not coeffs:
            if bound != 0:
                return mask
            continue
        var = min(coeffs)
        eqs = [_substitute(r, var, eq, memo) for r in eqs]
        ineqs = [_substitute(r, var, eq, memo) for r in ineqs]
        diseqs = [_substitute(r, var, eq, memo) for r in diseqs]
    for coeffs, bound, mask, _, _ in diseqs:
        if not coeffs and bound == 0:
            return mask
    diseqs = [d for d in diseqs if d[0]]
    if not diseqs:
        return _fm_eliminate(ineqs, memo, deadline)
    diseq, rest = diseqs[0], diseqs[1:]
    bit = diseq[3]
    conflict = 0
    for branch in _branches(diseq, memo):
        found = _solve_system(ineqs + [branch], [], rest, memo, deadline)
        if found is None:
            return None
        if not found & bit:
            return found  # refutes the other branch too
        conflict |= found
    return conflict


def refine_literal(lit: Literal, atom: LinearAtom):
    """Literal -> ('ineq', Row) | ('eq', (coeffs, b)) | ('diseq', (coeffs, b)),
    with the atom's ``Fraction`` coefficients and bound."""
    coeffs = atom.coeff_map()
    bound = atom.bound
    rel = atom.relation
    if lit.polarity:
        if rel is Relation.LE:
            return ("ineq", (coeffs, bound, False))
        if rel is Relation.LT:
            return ("ineq", (coeffs, bound, True))
        return ("eq", (coeffs, bound))
    neg = {n: -c for n, c in coeffs.items()}
    if rel is Relation.LE:
        return ("ineq", (neg, -bound, True))
    if rel is Relation.LT:
        return ("ineq", (neg, -bound, False))
    return ("diseq", (coeffs, bound))


def value_reader(indices: Sequence[int]) -> Callable[[Sequence[int]], tuple]:
    """A function that reads the entries at ``indices`` of a value array as
    a tuple, through one ``operator.itemgetter`` when there are several."""
    if len(indices) == 1:
        (i,) = indices
        return lambda values: (values[i],)
    if not indices:
        return lambda values: ()
    return itemgetter(*indices)


_SAT = TheoryVerdict(True)


class TheoryOracle:
    """The front end every backend shares: the theory-atom check, the
    component split, the verdict memos and core minimization.

    A backend supplies ``_solve(part)``, ``part`` being a ``frozenset`` of
    literals: ``(True, None)``, or ``(False, witness)`` with ``witness`` an
    unsatisfiable ``frozenset`` subset of ``part``.  The front end hands a
    part to :meth:`_solve_part` as its component's literal pairs and value
    key; the default builds the literal ``frozenset`` and calls ``_solve``,
    and a backend that reads the key itself (the builtin one) overrides it.
    ``n_raw_checks`` counts the ``_solve_part`` calls.

    :meth:`check` is the one entry point for a query, given either as a
    value array (``values``, the engine's) or as literals, which are written
    into a value array first.  Every memo is keyed by tuples of atom values,
    each read by one precomputed ``operator.itemgetter``: the whole-query
    memo of verdicts by the theory atoms' values, and the per-component
    memos in ``_components``, which hold every part and minimization trial
    a query needed, by the values of one component's atoms.  A repeated
    query is answered by the whole-query memo before any other work: it
    would have solved nothing and found the same core.  Only the
    per-component memos are exported to other instances.
    """

    def __init__(self, table, config: Optional[OracleConfig] = None):
        self.table = table
        self.config = config or OracleConfig()
        self._n_atoms = len(table)
        theory_atoms = table.theory_indices()
        self._theory = frozenset(theory_atoms)
        self._query_key = value_reader(theory_atoms)
        self._empty_query = (UNASSIGNED,) * len(theory_atoms)
        # Each theory atom's literals, indexed by value: false, then true.
        self._theory_literals = _literal_pairs(theory_atoms)
        self._verdicts: Dict[tuple, TheoryVerdict] = {}
        # Per theory component, in component order: its atoms' literal
        # pairs, ascending, the reader of its memo key, the key of an empty
        # part, the memo.
        self._components: List[Tuple[list, Callable, tuple, Dict[tuple, tuple]]] = [
            _component(sorted(atoms)) for atoms in partition_atoms(table).theory_components()
        ]
        self.n_raw_checks = 0

    def _value_array(self, literals: Iterable[Literal]) -> bytearray:
        """The value array of a literal list over theory atoms."""
        values = bytearray([UNASSIGNED]) * self._n_atoms
        theory = self._theory
        for i, polarity in literals:
            if i not in theory:
                raise OracleError(f"literal on non-theory atom {i}")
            if values[i] == (not polarity):
                raise ValueError(f"complementary literals on atom {i}")
            values[i] = polarity
        return values

    def _literals(self, values: Sequence[int]) -> Tuple[Literal, ...]:
        """The theory literals a value array assigns, ascending."""
        return tuple(
            pair[v]
            for pair, v in zip(self._theory_literals, self._query_key(values))
            if v != UNASSIGNED
        )

    def _raw_check(self, values: Sequence[int]):
        """Sat iff every part is; else the witness of the first unsat part."""
        for pairs, key_of, empty, memo in self._components:
            key = key_of(values)
            if key == empty:
                continue
            hit = memo.get(key)
            if hit is None:
                self.n_raw_checks += 1
                hit = memo[key] = self._solve_part(pairs, key)
            if not hit[0]:
                return hit
        return True, None

    def _solve_part(self, pairs: list, key: tuple):
        """Solve the part that value key ``key`` assigns to the component
        whose literal pairs are ``pairs``.  By default through
        ``_solve(part)`` on the part's literal ``frozenset``; a backend that
        reads the key itself overrides this."""
        return self._solve(frozenset([pair[v] for pair, v in zip(pairs, key) if v != UNASSIGNED]))

    def check(
        self,
        literals: Optional[Iterable[Literal]] = None,
        *,
        values: Optional[Sequence[int]] = None,
    ) -> TheoryVerdict:
        """The verdict on ``literals``, which assign each atom at most once,
        or on the theory atoms of the value array ``values`` (its other
        entries are ignored).  Exactly one of the two must be given."""
        if values is None:
            if literals is None:
                raise TypeError("check() takes literals or values")
            values = self._value_array(literals)
        elif literals is not None:
            raise TypeError("check() takes literals or values, not both")
        key = self._query_key(values)
        verdict = self._verdicts.get(key)
        if verdict is not None:
            return verdict
        if key == self._empty_query:
            return _SAT
        if self._raw_check(values)[0]:
            verdict = _SAT
        else:
            verdict = TheoryVerdict(False, core=self.minimize_core(self._literals(values)))
        self._verdicts[key] = verdict
        return verdict

    def is_satisfiable(self, literals: Iterable[Literal]) -> bool:
        return self._raw_check(self._value_array(literals))[0]

    def minimize_core(self, literals: Iterable[Literal]) -> Tuple[Literal, ...]:
        """Deletion-based minimal unsat subset, scanning ascending atom index.

        A literal outside the last witness is dropped without a check: the
        trial set still contains that witness, so it is unsatisfiable and
        plain deletion would drop the literal too.  The core is therefore
        exactly the one plain deletion returns.
        """
        current = self._value_array(literals)
        sat, witness = self._raw_check(current)
        if sat:
            raise OracleError("minimize_core requires an unsatisfiable literal set")
        for lit in self._literals(current):
            i = lit.atom_index
            current[i] = UNASSIGNED
            if lit in witness:
                sat, found = self._raw_check(current)
                if sat:
                    current[i] = lit.polarity
                    continue
                witness = found
        return self._literals(current)

    def is_valid_lemma(self, lemma: TLemma) -> bool:
        negated = [lit.negated() for lit in lemma.literals]
        # Complementary literals make the negation trivially inconsistent.
        by_atom: Dict[int, bool] = {}
        for lit in negated:
            if by_atom.setdefault(lit.atom_index, lit.polarity) != lit.polarity:
                return True
        return not self.is_satisfiable(negated)

    def export_memo(self) -> List[Dict[tuple, tuple]]:
        """Verdicts another instance over the same atoms may import: one
        memo per theory component, in component order."""
        return [dict(memo) for _, _, _, memo in self._components]

    def import_memo(self, memo: List[Dict[tuple, tuple]]) -> None:
        """Adopt verdicts exported by another instance over the same atoms."""
        for (_, _, _, mine), theirs in zip(self._components, memo):
            mine.update(theirs)

    def for_forked_child(self) -> "TheoryOracle":
        """The oracle a child process forked from this one queries: this
        instance itself, which the fork made the child's private copy,
        memos and ``n_raw_checks`` included.  A backend whose solver
        session must not be shared returns a new instance warmed with this
        one's memos.  The child closes the result only if it is new."""
        return self

    def close(self) -> None:
        pass


class BuiltinOracle(TheoryOracle):
    """Exact LRA consistency checks by Fourier-Motzkin elimination.

    One instance per worker; ``n_raw_checks`` counts per-component
    Fourier-Motzkin solves, and ``timeout_secs`` bounds each of them.  The
    instance keeps each component's literal rows and the derivation memo its
    solves share.
    """

    def __init__(self, table, config: Optional[OracleConfig] = None):
        super().__init__(table, config)
        # Per component, by ``id`` of its literal pairs: the pairs (which
        # keeps the id from being reused) and the component's rows.
        self._row_tables: Dict[int, Tuple[list, list]] = {}
        self._memo: Dict[tuple, object] = {}

    def _row_table(self, pairs: list) -> list:
        """The component's rows, built on first use: entry ``2 * rank +
        value`` is the literal ``pairs[rank][value]``'s kind
        (``refine_literal``'s) and row, whose origin bit is the entry's index.

        Every solve shares the table's rows, so the solver never mutates rows.
        """
        hit = self._row_tables.get(id(pairs))
        if hit is None:
            rows = []
            for rank, pair in enumerate(pairs):
                for lit in pair:
                    kind, payload = refine_literal(lit, self.table.linear_atom(lit.atom_index))
                    coeffs, bound = _integral(*payload[:2])
                    bit = 1 << (2 * rank + lit.polarity)
                    flag = payload[2] if kind == "ineq" else bit if kind == "diseq" else None
                    rows.append((kind, (coeffs, bound, bit, flag, _next_id())))
            hit = self._row_tables[id(pairs)] = (pairs, rows)
        return hit[1]

    def _solve_part(self, pairs: list, key: tuple):
        """Fourier-Motzkin on one part, its rows in ascending atom order; the
        witness is read off the contradiction's origin bits."""
        table = self._row_table(pairs)
        rows: Dict[str, List[Row]] = {"ineq": [], "eq": [], "diseq": []}
        for rank, v in enumerate(key):
            if v != UNASSIGNED:
                kind, row = table[2 * rank + v]
                rows[kind].append(row)
        deadline = time.monotonic() + self.config.timeout_secs
        mask = _solve_system(rows["ineq"], rows["eq"], rows["diseq"], self._memo, deadline)
        if mask is None:
            return True, None
        return False, frozenset(
            pair[v]
            for rank, (pair, v) in enumerate(zip(pairs, key))
            if v != UNASSIGNED and mask >> (2 * rank + v) & 1
        )

    def _solve(self, part: FrozenSet[Literal]):
        """:meth:`_solve_part` on a part given as literals, all of one
        theory component."""
        if not part:
            return True, None
        polarity = {lit.atom_index: int(lit.polarity) for lit in part}
        for pairs, _, empty, _ in self._components:
            key = tuple(polarity.get(pair[0].atom_index, UNASSIGNED) for pair in pairs)
            if key != empty:
                if len(key) - key.count(UNASSIGNED) == len(polarity):
                    return self._solve_part(pairs, key)
                break
        raise OracleError("a part must hold theory literals of one component")


def _literal_pairs(atoms: Sequence[int]) -> List[Tuple[Literal, Literal]]:
    return [(Literal(i, False), Literal(i, True)) for i in atoms]


def _component(atoms: List[int]):
    """A theory component's entry in :attr:`TheoryOracle._components`."""
    return _literal_pairs(atoms), value_reader(atoms), (UNASSIGNED,) * len(atoms), {}


def lemma_from_core(core: Iterable[Literal]) -> TLemma:
    """Clause negating every core literal, canonically ordered."""
    return TLemma.of(lit.negated() for lit in core)


def make_oracle(table, config: Optional[OracleConfig] = None):
    """The external oracle if ``config.command`` is set, else the builtin one."""
    config = config or OracleConfig()
    if config.command:
        from .external import ExternalOracle

        return ExternalOracle(table, config)
    return BuiltinOracle(table, config)
