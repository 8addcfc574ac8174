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
where a model is built.  Chosen over simplex for simplicity and
certificate-free core search via deletion; adequate at desk scale.  The
backend is a documented hot-swap point.

Cores are minimized by deletion in ascending atom-index order, so identical
queries always yield identical cores and therefore identical lemmas.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .atoms import AtomTable, Literal
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

# An inequality row: (coeffs, bound, strict) meaning sum(coeffs) {<,<=} bound,
# over integers.  Equalities and disequalities are (coeffs, bound) pairs.
Row = Tuple[Dict[str, int], int, bool]
EqRow = Tuple[Dict[str, int], int]


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise OracleTimeoutError("theory query exceeded its time budget")


def _row_conflict(bound, strict: bool) -> bool:
    return bound < 0 or (bound == 0 and strict)


def _reduced(coeffs: Dict[str, int], bound: int) -> EqRow:
    """Divide an integer row by the gcd of its entries."""
    g = gcd(bound, *coeffs.values())
    if g > 1:
        return {n: c // g for n, c in coeffs.items()}, bound // g
    return coeffs, bound


def _integral(coeffs: Dict[str, int], bound: Fraction) -> EqRow:
    """Integer row for integer-valued ``coeffs`` and a rational ``bound``:
    scale by the bound's denominator, then reduce."""
    q = bound.denominator
    return _reduced({n: int(c) * q for n, c in coeffs.items()}, bound.numerator)


def _eliminate_eq(coeffs: Dict[str, int], bound: int, var: str,
                  eq_coeffs: Dict[str, int], eq_bound: int) -> EqRow:
    """Cancel ``var`` from a row with the equality ``sum(eq_coeffs) = eq_bound``.

    The row is scaled by ``|k|``, k being the equality's coefficient of
    ``var``, before a multiple of the equality is subtracted.
    """
    r = coeffs.get(var)
    if r is None:
        return coeffs, bound
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
    return _reduced(out, m * bound - f * eq_bound)


def _eliminate_var(rows: List[Row], var: str, deadline: Optional[float]):
    """One Fourier-Motzkin step; None when a contradiction is derived."""
    upper = [r for r in rows if r[0].get(var, 0) > 0]
    lower = [r for r in rows if r[0].get(var, 0) < 0]
    new_rows = [r for r in rows if var not in r[0]]
    for uc, ub, us in upper:
        a = uc[var]
        for lc, lb, ls in lower:
            _check_deadline(deadline)
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
                    return None
            else:
                new_rows.append(_reduced(coeffs, bound) + (strict,))
    return new_rows


def _pick_var(rows: List[Row]) -> Optional[str]:
    occurrence: Dict[str, Tuple[int, int]] = {}
    for coeffs, _, _ in rows:
        for name, c in coeffs.items():
            pos, neg = occurrence.get(name, (0, 0))
            occurrence[name] = (pos + 1, neg) if c > 0 else (pos, neg + 1)
    if not occurrence:
        return None
    return min(occurrence, key=lambda n: (occurrence[n][0] * occurrence[n][1], n))


def _fm_eliminate(rows: List[Row], deadline: Optional[float], want_model: bool):
    """Returns a model dict for the row system, or None if inconsistent."""
    for coeffs, bound, strict in rows:
        if not coeffs and _row_conflict(bound, strict):
            return None
    work = [r for r in rows if r[0]]
    original = list(work)
    while True:
        _check_deadline(deadline)
        var = _pick_var(work)
        if var is None:
            break
        work = _eliminate_var(work, var, deadline)
        if work is None:
            return None
    if not want_model:
        return {}
    return _fm_model(original, deadline)


def _var_interval(rows: List[Row], var: str, deadline: Optional[float]):
    """Exact feasible interval of ``var`` after projecting the others away."""
    work = list(rows)
    while True:
        other = None
        for coeffs, _, _ in work:
            for name in coeffs:
                if name != var:
                    other = name
                    break
            if other:
                break
        if other is None:
            break
        work = _eliminate_var(work, other, deadline)
        assert work is not None, "projection of a satisfiable system failed"
    low = high = None
    low_strict = high_strict = False
    for coeffs, bound, strict in work:
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
        for coeffs, bound, strict in work:
            k = coeffs.get(var)
            if not k:
                next_work.append((coeffs, bound, strict))
                continue
            rest = {n: c for n, c in coeffs.items() if n != var}
            new_bound = bound - k * value
            if rest:
                next_work.append(_integral(rest, new_bound) + (strict,))
            else:
                assert not _row_conflict(new_bound, strict)
        work = next_work
    return model


def _solve_system(
    ineqs: List[Row],
    eqs: List[EqRow],
    diseqs: List[EqRow],
    deadline: Optional[float],
    want_model: bool,
):
    """Satisfiability of ineqs & eqs & diseqs; model dict or None."""
    _check_deadline(deadline)
    substitutions: List[Tuple[str, Dict[str, int], int]] = []
    eqs = list(eqs)
    while eqs:
        coeffs, bound = eqs.pop(0)
        if not coeffs:
            if bound != 0:
                return None
            continue
        var = min(coeffs)
        substitutions.append((var, coeffs, bound))
        eqs = [_eliminate_eq(c, b, var, coeffs, bound) for c, b in eqs]
        ineqs = [
            _eliminate_eq(c, b, var, coeffs, bound) + (s,) for c, b, s in ineqs
        ]
        diseqs = [_eliminate_eq(c, b, var, coeffs, bound) for c, b in diseqs]
    for coeffs, bound in diseqs:
        if not coeffs and bound == 0:
            return None
    diseqs = [(c, b) for c, b in diseqs if c]
    if diseqs:
        coeffs, bound = diseqs[0]
        rest = diseqs[1:]
        model = None
        for branch in (
            (coeffs, bound, True),
            ({n: -c for n, c in coeffs.items()}, -bound, True),
        ):
            model = _solve_system(ineqs + [branch], [], rest, deadline, want_model)
            if model is not None:
                break
    else:
        model = _fm_eliminate(ineqs, deadline, want_model)
    if model is None:
        return None
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

    A backend supplies ``_raw_check(lits)``, a tuple whose first item is
    the verdict; satisfiability, deletion-based core minimization and lemma
    validity follow from it.  By default a backend shares no verdict memo.
    """

    def is_satisfiable(self, literals: Iterable[Literal]) -> bool:
        return self._raw_check(frozenset(literals))[0]

    def minimize_core(self, literals: Iterable[Literal]) -> Tuple[Literal, ...]:
        """Deletion-based minimal unsat subset, scanning ascending atom index."""
        current = sorted(set(literals))
        if self._raw_check(frozenset(current))[0]:
            raise OracleError("minimize_core requires an unsatisfiable literal set")
        for lit in list(current):
            trial = [l for l in current if l != lit]
            if not self._raw_check(frozenset(trial))[0]:
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
    memoization is sound.
    """

    def __init__(self, table, config: Optional[OracleConfig] = None):
        self.table = table
        self.config = config or OracleConfig()
        self._raw: Dict[FrozenSet[Literal], Tuple[bool, Optional[Dict[str, Fraction]]]] = {}
        self._rows: Dict[Literal, Tuple[str, tuple]] = {}
        self.n_raw_checks = 0

    def _row(self, lit: Literal) -> Tuple[str, tuple]:
        """The literal's kind and integer row, built on first use.

        Every check shares the cached row, so the solver never mutates rows.
        """
        hit = self._rows.get(lit)
        if hit is None:
            kind, payload = refine_literal(lit, self.table.linear_atom(lit.atom_index))
            hit = self._rows[lit] = (kind, _integral(*payload[:2]) + payload[2:])
        return hit

    def _raw_check(self, lits: FrozenSet[Literal]):
        hit = self._raw.get(lits)
        if hit is not None and (
            not hit[0] or hit[1] is not None or not self.config.model_production
        ):
            return hit
        self.n_raw_checks += 1
        ineqs: List[Row] = []
        eqs: List[EqRow] = []
        diseqs: List[EqRow] = []
        for lit in sorted(lits):
            kind, row = self._row(lit)
            if kind == "ineq":
                ineqs.append(row)
            elif kind == "eq":
                eqs.append(row)
            else:
                diseqs.append(row)
        deadline = (
            time.monotonic() + self.config.timeout_secs
            if self.config.timeout_secs
            else None
        )
        model = _solve_system(ineqs, eqs, diseqs, deadline, self.config.model_production)
        result = (model is not None, model)
        self._raw[lits] = result
        return result

    def check(self, literals: Iterable[Literal]) -> TheoryVerdict:
        lits = frozenset(literals)
        for lit in lits:
            if self.table.kind_of(lit.atom_index).value != "theory":
                raise OracleError(f"literal on non-theory atom {lit.atom_index}")
        sat, model = self._raw_check(lits)
        if sat:
            if self.config.model_production and model is not None:
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


def minimize_core(literals: Iterable[Literal], oracle) -> Tuple[Literal, ...]:
    return oracle.minimize_core(literals)


def is_valid_lemma(lemma: TLemma, oracle) -> bool:
    return oracle.is_valid_lemma(lemma)


def make_oracle(table, config: Optional[OracleConfig] = None):
    config = config or OracleConfig()
    if config.backend == "builtin":
        return BuiltinOracle(table, config)
    if config.backend == "external":
        from .external import ExternalOracle

        return ExternalOracle(table, config)
    raise ValueError(f"unknown oracle backend '{config.backend}'")
