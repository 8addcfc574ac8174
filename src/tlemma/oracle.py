"""Theory consistency of conjunctions of linear-rational literals.

The builtin backend runs Fourier-Motzkin elimination with strictness
tracking over integer rows.  A literal's row ``sum(c_i * x_i) REL b`` is
scaled by the bound's denominator and divided by the gcd of its entries, so
``c_i`` and ``b`` are coprime integers; each literal's row is built once per
oracle.  Equalities are eliminated first and variables are then eliminated
pairwise, both by integer cross-multiplication; disequalities (negated
equalities) are case-split.  A derived constant constraint ``0 <= b`` /
``0 < b`` is contradictory iff ``b < 0``, or ``b = 0`` with the strict flag
set.  Every scaling is by a positive factor, so a row keeps its solution set,
the signs of its coefficients and its strictness.  ``Fraction``s appear only
where a model is built.  The backend is a documented hot-swap point.

Every row carries an origin mask, an ``int`` with one bit per query literal:
the literals the row was derived from (Imbert's history sets).  Combining
two rows joins their masks, so a derived contradiction names an
unsatisfiable subset of the query, its witness.  A disequality's split ends
after the first branch when that branch's contradiction does not use the
branch row: it refutes the other branch as well.

Cores are minimized by deletion in ascending atom-index order, so identical
queries always yield identical cores and therefore identical lemmas.
Deletion skips the check for a literal outside the last witness: the trial
set still contains the witness, so it is unsatisfiable, and the core is
exactly the one plain deletion returns.

A conjunction is consistent iff each of its restrictions to the
symbol-disjoint components of ``partition_atoms`` is, since those share no
variable.  The builtin backend therefore solves and memoizes each part of a
query on its own: k components with m consistent parts each take k*m memo
entries rather than m**k.  A query's witness is the first unsatisfiable
part's, and its model the union of the parts' models.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from .atoms import Literal
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


@dataclass
class TheoryVerdict:
    satisfiable: bool
    core: Optional[Tuple[Literal, ...]] = None  # unsat subset, present iff unsat
    model: Optional[Dict[str, Fraction]] = None  # present iff sat and requested


@dataclass(frozen=True)
class OracleConfig:
    backend: str = "builtin"  # "builtin" or "external"
    command: Optional[str] = None  # solver command line for the external backend
    minimize_cores: bool = True
    model_production: bool = False
    timeout_secs: float = 10.0


# -- Fourier-Motzkin core ---------------------------------------------------

# An inequality row: (coeffs, bound, mask, strict) meaning
# sum(coeffs) {<,<=} bound over integers, derived from the query literals
# whose bits are set in the origin mask.  Equalities and disequalities are
# (coeffs, bound, mask) triples.
Row = Tuple[Dict[str, int], int, int, bool]
EqRow = Tuple[Dict[str, int], int, int]


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
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


def _eliminate_eq(coeffs: Dict[str, int], bound: int, mask: int, var: str,
                  eq: EqRow) -> EqRow:
    """Cancel ``var`` from a row with the equality ``sum(eq_coeffs) = eq_bound``.

    The row is scaled by ``|k|``, k being the equality's coefficient of
    ``var``, before a multiple of the equality is subtracted; the result's
    origin mask joins both masks.  A row without ``var`` is returned as is.
    """
    r = coeffs.get(var)
    if r is None:
        return coeffs, bound, mask
    eq_coeffs, eq_bound, eq_mask = eq
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
    return _reduced(out, m * bound - f * eq_bound) + (mask | eq_mask,)


def _eliminate_var(rows: List[Row], var: str, deadline: Optional[float]):
    """One Fourier-Motzkin step: the rows without ``var``, or the origin
    mask (an ``int``) of a derived contradiction."""
    upper = [r for r in rows if r[0].get(var, 0) > 0]
    lower = [r for r in rows if r[0].get(var, 0) < 0]
    new_rows = [r for r in rows if var not in r[0]]
    for uc, ub, um, us in upper:
        _check_deadline(deadline)
        a = uc[var]
        for lc, lb, lm, ls in lower:
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
                if _row_conflict(bound, strict):
                    return um | lm
            else:
                new_rows.append(_reduced(coeffs, bound) + (um | lm, strict))
    return new_rows


def _pick_var(rows: List[Row]) -> Optional[str]:
    occurrence: Dict[str, Tuple[int, int]] = {}
    for coeffs, _, _, _ in rows:
        for name, c in coeffs.items():
            pos, neg = occurrence.get(name, (0, 0))
            occurrence[name] = (pos + 1, neg) if c > 0 else (pos, neg + 1)
    if not occurrence:
        return None
    return min(occurrence, key=lambda n: (occurrence[n][0] * occurrence[n][1], n))


def _fm_eliminate(rows: List[Row], deadline: Optional[float], want_model: bool):
    """A model dict for the row system (empty unless ``want_model``), or the
    origin mask of a contradiction."""
    for coeffs, bound, mask, strict in rows:
        if not coeffs and _row_conflict(bound, strict):
            return mask
    work = [r for r in rows if r[0]]
    original = work
    while True:
        _check_deadline(deadline)
        var = _pick_var(work)
        if var is None:
            break
        work = _eliminate_var(work, var, deadline)
        if isinstance(work, int):
            return work
    if not want_model:
        return {}
    return _fm_model(original, deadline)


def _var_interval(rows: List[Row], var: str, deadline: Optional[float]):
    """Exact feasible interval of ``var`` after projecting the others away."""
    work = list(rows)
    while True:
        other = None
        for coeffs, _, _, _ in work:
            for name in coeffs:
                if name != var:
                    other = name
                    break
            if other:
                break
        if other is None:
            break
        work = _eliminate_var(work, other, deadline)
        assert not isinstance(work, int), "projection of a satisfiable system failed"
    low = high = None
    low_strict = high_strict = False
    for coeffs, bound, _, strict in work:
        k = coeffs.get(var)
        if not k:
            continue
        limit = Fraction(bound, k)
        if k > 0:
            if high is None or limit < high or (limit == high and strict):
                high, high_strict = limit, strict
        else:
            if low is None or limit > low or (limit == low and strict):
                low, low_strict = limit, strict
    return low, low_strict, high, high_strict


def _fm_model(rows: List[Row], deadline: Optional[float]) -> Dict[str, Fraction]:
    """A rational point satisfying a system already known to be consistent.

    Variables are fixed one at a time (in name order) to a point of their
    exactly-projected interval, then substituted out, which keeps the
    remaining system consistent at every step.
    """
    model: Dict[str, Fraction] = {}
    work = [r for r in rows if r[0]]
    for var in sorted({n for r in rows for n in r[0]}):
        _check_deadline(deadline)
        if not any(var in r[0] for r in work):
            model[var] = Fraction(0)
            continue
        low, low_strict, high, high_strict = _var_interval(work, var, deadline)
        if low is None and high is None:
            value = Fraction(0)
        elif low is None:
            value = high - 1 if high_strict else high
        elif high is None:
            value = low + 1 if low_strict else low
        elif low == high:
            value = low  # both bounds non-strict, else FM had found 0 < 0
        else:
            value = (low + high) / 2
        model[var] = value
        next_work: List[Row] = []
        for row in work:
            coeffs, bound, mask, strict = row
            k = coeffs.get(var)
            if not k:
                next_work.append(row)
                continue
            rest = {n: c for n, c in coeffs.items() if n != var}
            new_bound = bound - k * value
            if rest:
                next_work.append(_integral(rest, new_bound) + (mask, strict))
            else:
                assert not _row_conflict(new_bound, strict)
        work = next_work
    return model


def _solve_system(
    ineqs: List[Row],
    eqs: List[EqRow],
    diseqs: List[Tuple[Dict[str, int], int, int, int]],
    deadline: Optional[float],
    want_model: bool,
):
    """Satisfiability of ineqs & eqs & diseqs: a model dict (empty unless
    ``want_model``), or the origin mask (an ``int``) of a contradiction.

    A disequality is ``(coeffs, bound, mask, bit)``, ``bit`` being its own
    literal's bit, which only rows derived from it carry.
    """
    _check_deadline(deadline)
    substitutions: List[Tuple[str, Dict[str, int], int]] = []
    eqs = list(eqs)
    while eqs:
        eq = eqs.pop(0)
        coeffs, bound, mask = eq
        if not coeffs:
            if bound != 0:
                return mask
            continue
        var = min(coeffs)
        substitutions.append((var, coeffs, bound))
        eqs = [_eliminate_eq(c, b, m, var, eq) for c, b, m in eqs]
        ineqs = [_eliminate_eq(c, b, m, var, eq) + (s,) for c, b, m, s in ineqs]
        diseqs = [_eliminate_eq(c, b, m, var, eq) + (bit,) for c, b, m, bit in diseqs]
    for coeffs, bound, mask, _ in diseqs:
        if not coeffs and bound == 0:
            return mask
    diseqs = [d for d in diseqs if d[0]]
    if diseqs:
        (coeffs, bound, mask, bit), rest = diseqs[0], diseqs[1:]
        conflict = 0
        for branch in (
            (coeffs, bound, mask, True),
            ({n: -c for n, c in coeffs.items()}, -bound, mask, True),
        ):
            model = _solve_system(ineqs + [branch], [], rest, deadline, want_model)
            if not isinstance(model, int):
                break
            if not model & bit:
                return model  # refutes the other branch too
            conflict |= model
        else:
            return conflict
    else:
        model = _fm_eliminate(ineqs, deadline, want_model)
        if isinstance(model, int):
            return model
    if want_model:
        for var, coeffs, bound in reversed(substitutions):
            value = Fraction(bound)
            for n, c in coeffs.items():
                if n != var:
                    value -= c * model.setdefault(n, Fraction(0))
            model[var] = value / coeffs[var]
    return model


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


class TheoryOracle:
    """Behaviour shared by the backends.

    A backend supplies ``_raw_check(lits)``: ``(True, model)``, or
    ``(False, witness)`` with ``witness`` an unsatisfiable subset of
    ``lits``.  Satisfiability, core minimization and lemma validity follow
    from it.  By default a backend shares no verdict memo.
    """

    def is_satisfiable(self, literals: Iterable[Literal]) -> bool:
        return self._raw_check(frozenset(literals))[0]

    def minimize_core(self, literals: Iterable[Literal]) -> Tuple[Literal, ...]:
        """Deletion-based minimal unsat subset, scanning ascending atom index.

        A literal outside the last witness is dropped without a check: the
        trial set still contains that witness, so it is unsatisfiable and
        plain deletion would drop the literal too.  The core is therefore
        exactly the one plain deletion returns.
        """
        current = sorted(set(literals))
        sat, witness = self._raw_check(frozenset(current))
        if sat:
            raise OracleError("minimize_core requires an unsatisfiable literal set")
        for lit in list(current):
            trial = [l for l in current if l != lit]
            if lit in witness:
                sat, found = self._raw_check(frozenset(trial))
                if sat:
                    continue
                witness = found
            current = trial
        return tuple(current)

    def is_valid_lemma(self, lemma: TLemma) -> bool:
        negated = [lit.negated() for lit in lemma.literals]
        # Complementary literals make the negation trivially inconsistent.
        by_atom: Dict[int, bool] = {}
        for lit in negated:
            if by_atom.setdefault(lit.atom_index, lit.polarity) != lit.polarity:
                return True
        return not self.is_satisfiable(negated)

    def export_memo(self) -> Dict[FrozenSet[Literal], tuple]:
        """Verdicts another instance over the same atoms may import."""
        return {}

    def import_memo(self, memo: Dict[FrozenSet[Literal], tuple]) -> None:
        """Adopt verdicts exported by another instance over the same atoms."""

    def close(self) -> None:
        pass


class BuiltinOracle(TheoryOracle):
    """Exact LRA consistency checks with memoized verdicts.

    One instance per worker; verdicts depend only on the literal set, so
    memoization is sound.  A query is split by the symbol-disjoint atom
    partition and each part is solved and memoized on its own, so
    ``n_raw_checks`` counts per-component Fourier-Motzkin solves, and
    ``timeout_secs`` bounds each of them.
    """

    def __init__(self, table, config: Optional[OracleConfig] = None):
        self.table = table
        self.config = config or OracleConfig()
        self._raw: Dict[FrozenSet[Literal], tuple] = {}
        self._rows: Dict[Literal, tuple] = {}
        self._component = [0] * len(table)
        for ci, component in enumerate(partition_atoms(table).components):
            for i in component:
                self._component[i] = ci
        self.n_raw_checks = 0

    def _row(self, lit: Literal) -> tuple:
        """The literal's kind, integer coefficients, bound and strict flag,
        built on first use.

        Every check shares the cached row, so the solver never mutates rows.
        """
        hit = self._rows.get(lit)
        if hit is None:
            kind, payload = refine_literal(lit, self.table.linear_atom(lit.atom_index))
            strict = payload[2] if kind == "ineq" else None
            hit = self._rows[lit] = (kind,) + _integral(*payload[:2]) + (strict,)
        return hit

    def _parts(self, lits: FrozenSet[Literal]):
        """The query's restrictions to the components it touches, in
        component order."""
        groups: Dict[int, List[Literal]] = {}
        for lit in lits:
            groups.setdefault(self._component[lit.atom_index], []).append(lit)
        if len(groups) <= 1:
            return (lits,)
        return [frozenset(groups[c]) for c in sorted(groups)]

    def _raw_check(self, lits: FrozenSet[Literal]):
        """Sat iff every part is; the witness of the first unsat part, else
        the parts' models merged (``None`` without model production)."""
        want_model = self.config.model_production
        model: Optional[Dict[str, Fraction]] = {} if want_model else None
        for part in self._parts(lits):
            hit = self._raw.get(part)
            if hit is None or (want_model and hit[1] is None):
                hit = self._solve(part)
            if not hit[0]:
                return hit
            if want_model:
                model.update(hit[1])
        return True, model

    def _solve(self, lits: FrozenSet[Literal]):
        """Fourier-Motzkin on one part; bit i of an origin mask stands for
        the i-th literal in ascending order."""
        self.n_raw_checks += 1
        order = sorted(lits)
        ineqs: List[Row] = []
        eqs: List[EqRow] = []
        diseqs: List[tuple] = []
        for i, lit in enumerate(order):
            kind, coeffs, bound, strict = self._row(lit)
            bit = 1 << i
            if kind == "ineq":
                ineqs.append((coeffs, bound, bit, strict))
            elif kind == "eq":
                eqs.append((coeffs, bound, bit))
            else:
                diseqs.append((coeffs, bound, bit, bit))
        deadline = (
            time.monotonic() + self.config.timeout_secs
            if self.config.timeout_secs
            else None
        )
        want_model = self.config.model_production
        out = _solve_system(ineqs, eqs, diseqs, deadline, want_model)
        if isinstance(out, int):
            result = (False, frozenset(l for i, l in enumerate(order) if out >> i & 1))
        else:
            result = (True, out if want_model else None)
        self._raw[lits] = result
        return result

    def check(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = frozenset(literals)
        for lit in lits:
            if self.table.kind_of(lit.atom_index).value != "theory":
                raise OracleError(f"literal on non-theory atom {lit.atom_index}")
        sat, model = self._raw_check(lits)
        if sat:
            if model is not None:
                full = dict(model)
                for lit in lits:
                    for name in self.table.linear_atom(lit.atom_index).variables:
                        full.setdefault(name, Fraction(0))
                return TheoryVerdict(True, model=full)
            return TheoryVerdict(True)
        if self.config.minimize_cores:
            core = self.minimize_core(lits)
        else:
            core = tuple(sorted(lits))
        return TheoryVerdict(False, core=core)

    def export_memo(self) -> Dict[FrozenSet[Literal], tuple]:
        return dict(self._raw)

    def import_memo(self, memo: Dict[FrozenSet[Literal], tuple]) -> None:
        self._raw.update(memo)


def lemma_from_core(core: Iterable[Literal]) -> TLemma:
    """Clause negating every core literal, canonically ordered."""
    return TLemma.of(lit.negated() for lit in core)


def make_oracle(table, config: Optional[OracleConfig] = None):
    config = config or OracleConfig()
    if config.backend == "builtin":
        return BuiltinOracle(table, config)
    if config.backend == "external":
        from .external import ExternalOracle

        return ExternalOracle(table, config)
    raise ValueError(f"unknown oracle backend '{config.backend}'")
