"""Hash-consed formula DAG over Boolean connectives and linear rational atoms.

Terms are created through a :class:`TermBank`, which interns structurally
identical nodes so that equality reduces to identity (``t1 is t2``) and each
node carries a dense integer id.  Constructors perform light constant folding
only (Boolean constants, double negation, single-child collapse); they never
reorder or flatten children.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Mapping, NamedTuple, Sequence, Tuple, Union

# An exact rational: an ``int`` when integral, else a ``Fraction``.  The two
# compare and hash equal at equal values, so mixing them changes no result.
Rational = Union[int, Fraction]


def quotient(a: Rational, b: Rational) -> Rational:
    """Exact ``a / b`` for a nonzero ``b``: an ``int`` when integral."""
    num = a.numerator * b.denominator
    den = a.denominator * b.numerator
    return Fraction(num, den) if num % den else num // den


class Relation(enum.Enum):
    LE = "<="
    LT = "<"
    EQ = "="

    # Identity hash, a C slot: ``Enum.__hash__`` hashes the name in Python,
    # and every interned theory atom hashes its relation.
    __hash__ = object.__hash__


# Surface relations accepted by the normalizer; GE/GT are rewritten away.
_FLIP = {">=": "<=", ">": "<"}
_RELATIONS = {r.value: r for r in Relation}


class LinearAtom(NamedTuple):
    """A normalized linear constraint ``sum(c_i * x_i) rel bound``.

    Normal form: coefficients are coprime ``int``s, the constant sits on the
    right-hand side as a :data:`Rational` (an ``int`` when integral), GE/GT
    have been rewritten into LE/LT by negating both sides, and equalities are
    scaled so the lexicographically smallest variable has a positive
    coefficient.  A named tuple, so that interning hashes it in C.
    """

    coeffs: Tuple[Tuple[str, int], ...]  # sorted by variable name, all nonzero
    relation: Relation
    bound: Rational

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.coeffs)

    def coeff_map(self) -> Dict[str, int]:
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
    coeffs: Mapping[str, Rational], op: str, bound: Rational
) -> Union[LinearAtom, bool]:
    """Canonicalize ``sum(coeffs) op bound`` with op in {<=,<,>=,>,=}.

    Coefficients and bound are ``int``s or ``Fraction``s, read through their
    ``numerator`` and ``denominator``.  Returns a :class:`LinearAtom`, or a
    plain bool when every coefficient cancels (e.g. ``x < x`` folds to False).
    """
    items = {name: c for name, c in coeffs.items() if c}
    if op in _FLIP:
        items = {name: -c for name, c in items.items()}
        bound = -bound
        op = _FLIP[op]
    if not items:
        if op == "<=":
            return 0 <= bound
        if op == "<":
            return 0 < bound
        return bound == 0
    # Unique scale denom / numer making the coefficients coprime integers,
    # positive unless an equality's smallest variable would turn negative.
    denom = lcm(*[c.denominator for c in items.values()])
    scaled = {name: c.numerator * (denom // c.denominator) for name, c in items.items()}
    numer = gcd(*scaled.values())
    if op == "=" and scaled[min(scaled)] < 0:
        numer = -numer
    normalized = tuple(sorted((name, c // numer) for name, c in scaled.items()))
    return LinearAtom(normalized, _RELATIONS[op], quotient(bound * denom, numer))


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

    # Identity hash, as for :class:`Relation`: every interning hashes a kind.
    __hash__ = object.__hash__


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
        key = (kind, payload, tuple([a.id for a in args]))
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


def fraction_sexpr(q: Rational) -> str:
    n, d = q.numerator, q.denominator
    if d == 1:
        return str(n) if n >= 0 else f"(- {-n})"
    if n >= 0:
        return f"(/ {n} {d})"
    return f"(- (/ {-n} {d}))"


def linear_atom_sexpr(atom: LinearAtom) -> str:
    terms = []
    for name, c in atom.coeffs:
        if c == 1:
            terms.append(name)
        else:
            terms.append(f"(* {fraction_sexpr(c)} {name})")
    lhs = terms[0] if len(terms) == 1 else "(+ " + " ".join(terms) + ")"
    return f"({atom.relation.value} {lhs} {fraction_sexpr(atom.bound)})"
