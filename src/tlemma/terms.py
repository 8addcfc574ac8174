"""Hash-consed formula DAG over Boolean connectives and linear rational atoms.

Terms are created through a :class:`TermBank`, which interns structurally
identical nodes so that equality reduces to identity (``t1 is t2``) and each
node carries a dense integer id.  Constructors perform light constant folding
only (Boolean constants, double negation, single-child collapse); they never
reorder or flatten children.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Dict, Mapping, Sequence, Tuple, Union


class Relation(enum.Enum):
    LE = "<="
    LT = "<"
    EQ = "="


# Surface relations accepted by the normalizer; GE/GT are rewritten away.
_FLIP = {">=": "<=", ">": "<"}


@dataclass(frozen=True)
class LinearAtom:
    """A normalized linear constraint ``sum(c_i * x_i) rel bound``.

    Normal form: coefficients are coprime integers (as reduced Fractions with
    denominator 1), the constant sits on the right-hand side, GE/GT have been
    rewritten into LE/LT by negating both sides, and equalities are scaled so
    the lexicographically smallest variable has a positive coefficient.
    """

    coeffs: Tuple[Tuple[str, Fraction], ...]  # sorted by variable name, all nonzero
    relation: Relation
    bound: Fraction

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def coeff_map(self) -> Dict[str, Fraction]:
        return dict(self.coeffs)

    def __str__(self) -> str:
        parts = []
        for name, c in self.coeffs:
            if c == 1:
                parts.append(name)
            else:
                parts.append(f"{c}*{name}")
        return f"({' + '.join(parts)} {self.relation.value} {self.bound})"


def normalize_linear(
    coeffs: Mapping[str, Fraction], op: str, bound: Fraction
) -> Union[LinearAtom, bool]:
    """Canonicalize ``sum(coeffs) op bound`` with op in {<=,<,>=,>,=}.

    Returns a :class:`LinearAtom`, or a plain bool when every coefficient
    cancels (e.g. ``x < x`` folds to False).
    """
    items = {name: Fraction(c) for name, c in coeffs.items() if c != 0}
    bound = Fraction(bound)
    if op in _FLIP:
        items = {name: -c for name, c in items.items()}
        bound = -bound
        op = _FLIP[op]
    if not items:
        zero = Fraction(0)
        if op == "<=":
            return zero <= bound
        if op == "<":
            return zero < bound
        return zero == bound
    # Unique positive scale making the coefficients coprime integers.
    denom_lcm = 1
    for c in items.values():
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    numer_gcd = 0
    for c in items.values():
        numer_gcd = gcd(numer_gcd, abs(c.numerator * (denom_lcm // c.denominator)))
    scale = Fraction(denom_lcm, numer_gcd)
    if op == "=" and items[min(items)] < 0:
        scale = -scale
    normalized = tuple(sorted((name, c * scale) for name, c in items.items()))
    return LinearAtom(normalized, Relation(op), bound * scale)


class TermKind(enum.Enum):
    CONST = "const"
    BOOL_ATOM = "bool-atom"
    THEORY_ATOM = "theory-atom"
    ATOM_REF = "atom-ref"  # leaf of an abstracted formula: payload = atom index
    NOT = "not"
    AND = "and"
    OR = "or"
    IMPLIES = "implies"
    IFF = "iff"
    ITE = "ite"


class Term:
    """A node of the hash-consed DAG.  Never construct directly; use a bank."""

    __slots__ = ("kind", "args", "payload", "id")

    def __init__(self, kind: TermKind, args: Tuple["Term", ...], payload, tid: int):
        self.kind = kind
        self.args = args
        self.payload = payload
        self.id = tid

    def __repr__(self) -> str:
        if self.kind is TermKind.CONST:
            return "true" if self.payload else "false"
        if self.kind is TermKind.BOOL_ATOM:
            return str(self.payload)
        if self.kind is TermKind.THEORY_ATOM:
            return str(self.payload)
        if self.kind is TermKind.ATOM_REF:
            return f"@{self.payload}"
        inner = " ".join(repr(a) for a in self.args)
        return f"({self.kind.value} {inner})"

    def is_atom(self) -> bool:
        return self.kind in (TermKind.BOOL_ATOM, TermKind.THEORY_ATOM)


class TermBank:
    """Interning factory for :class:`Term` nodes."""

    def __init__(self) -> None:
        self._table: Dict[tuple, Term] = {}
        self._next_id = 0
        self._true = self.intern(TermKind.CONST, (), True)
        self._false = self.intern(TermKind.CONST, (), False)

    def intern(self, kind: TermKind, args: Tuple[Term, ...], payload) -> Term:
        """The unique node of ``kind`` over ``args`` with ``payload``, built
        as given: the connectives below simplify, this does not."""
        key = (kind, payload, tuple(a.id for a in args))
        hit = self._table.get(key)
        if hit is not None:
            return hit
        term = Term(kind, args, payload, self._next_id)
        self._next_id += 1
        self._table[key] = term
        return term

    # -- leaves ----------------------------------------------------------

    def const(self, value: bool) -> Term:
        return self._true if value else self._false

    def bool_atom(self, name: str) -> Term:
        return self.intern(TermKind.BOOL_ATOM, (), name)

    def theory_atom(self, atom: LinearAtom) -> Term:
        return self.intern(TermKind.THEORY_ATOM, (), atom)

    def atom_ref(self, index: int) -> Term:
        return self.intern(TermKind.ATOM_REF, (), index)

    # -- connectives -----------------------------------------------------

    def not_(self, t: Term) -> Term:
        if t.kind is TermKind.CONST:
            return self.const(not t.payload)
        if t.kind is TermKind.NOT:
            return t.args[0]
        return self.intern(TermKind.NOT, (t,), None)

    def and_(self, children: Sequence[Term]) -> Term:
        kept = []
        for c in children:
            if c.kind is TermKind.CONST:
                if not c.payload:
                    return self._false
                continue
            kept.append(c)
        if not kept:
            return self._true
        if len(kept) == 1:
            return kept[0]
        return self.intern(TermKind.AND, tuple(kept), None)

    def or_(self, children: Sequence[Term]) -> Term:
        kept = []
        for c in children:
            if c.kind is TermKind.CONST:
                if c.payload:
                    return self._true
                continue
            kept.append(c)
        if not kept:
            return self._false
        if len(kept) == 1:
            return kept[0]
        return self.intern(TermKind.OR, tuple(kept), None)

    def implies(self, a: Term, b: Term) -> Term:
        if a.kind is TermKind.CONST:
            return b if a.payload else self._true
        if b.kind is TermKind.CONST:
            return self._true if b.payload else self.not_(a)
        return self.intern(TermKind.IMPLIES, (a, b), None)

    def iff(self, a: Term, b: Term) -> Term:
        if a.kind is TermKind.CONST:
            return b if a.payload else self.not_(b)
        if b.kind is TermKind.CONST:
            return a if b.payload else self.not_(a)
        if a is b:
            return self._true
        return self.intern(TermKind.IFF, (a, b), None)

    def ite(self, cond: Term, then: Term, other: Term) -> Term:
        if cond.kind is TermKind.CONST:
            return then if cond.payload else other
        if then is other:
            return then
        return self.intern(TermKind.ITE, (cond, then, other), None)


# -- SMT-LIB serialization helpers ---------------------------------------


def fraction_sexpr(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        n = q.numerator
        return str(n) if n >= 0 else f"(- {-n})"
    if q >= 0:
        return f"(/ {q.numerator} {q.denominator})"
    return f"(- (/ {-q.numerator} {q.denominator}))"


def linear_atom_sexpr(atom: LinearAtom) -> str:
    terms = []
    for name, c in atom.coeffs:
        if c == 1:
            terms.append(name)
        else:
            terms.append(f"(* {fraction_sexpr(c)} {name})")
    lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
    return f"({atom.relation.value} {lhs} {fraction_sexpr(atom.bound)})"
