"""Parser for the SMT-LIB2 subset: QF_LRA scripts with 0-ary declarations.

Accepted commands: ``set-logic`` (QF_LRA only), ``set-option``, ``set-info``,
``declare-const``, ``declare-fun`` (arity 0), ``assert``, ``check-sat``,
``get-model``, ``exit``.  Multiple asserts are conjoined.  Real-valued ``ite``
is lifted into Boolean structure by case splitting, so theory atoms stay
purely linear.  Chainable comparisons ``(<= a b c)`` read as the conjunction
of adjacent pairs, ``*`` and ``/`` associate to the left, and an annotation
``(! t :named n)``, or any whose first attribute is a keyword, reads as ``t``.

Reading is one pass of one compiled regular expression over the script.  It
builds only what conversion needs: an atom is a plain ``str``, a list is a
``list`` that also holds the source offsets of its ``(`` and past its ``)``.
An offset becomes ``line:col`` only when a :class:`ParseError` is raised; an
atom's offset is found then by reading its parent list again.

Conversion is memoized per script, keyed by a node's source text (an atom's
is the atom itself), whenever the ``let`` environment is empty.  Under an
empty environment a subterm's value depends only on its text and on the
declarations, and a declaration cannot change a symbol already converted, so
equal text gives an equal value.  The first occurrence does all the term
interning and atom registration, so term ids and atom order do not depend on
the memo.  Call sites share memoized values: no code may mutate a returned
linear form.  A linear form's coefficients and constant are exact rationals:
``int``s, and a :class:`~fractions.Fraction` only for a value that division
or a decimal literal made non-integral.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from .atoms import AtomTable
from .terms import Rational, Term, TermBank, normalize_linear, quotient


class ParseError(Exception):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class UnsupportedConstructError(ParseError):
    def __init__(self, construct: str, line: int = 0, col: int = 0):
        super().__init__(f"unsupported construct: {construct}", line, col)
        self.construct = construct


# -- s-expression reader ---------------------------------------------------

# One token after any whitespace and comments.  Group 1 is '(', group 2 ')',
# group 3 an atom (quoted symbol, string with "" escapes, or plain symbol),
# group 4 the opening '|' or '"' of an unterminated quoted symbol or string.
# A string ends at a '"' that no second '"' follows, so an unterminated one
# falls through to group 4.  No group matches only at the end of the text.
_TOKEN = re.compile(
    r'[ \t\r\n]*(?:;[^\n]*[ \t\r\n]*)*'
    r'(?:(\()|(\))|(\|[^|]*\||"[^"]*(?:""[^"]*)*"(?!")|[^ \t\r\n();|"][^ \t\r\n();]*)|([|"]))?'
)


class SList(list):
    """A list node: its items, atoms as ``str``, and the offsets of its ``(``
    and one past its ``)``.  The script itself is a list whose ``(`` would
    sit at offset -1."""

    __slots__ = ("start", "end")


def _line_col(text: str, offset: int) -> Tuple[int, int]:
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def read_script(text: str) -> SList:
    """Read all top-level s-expressions into one list node."""
    top = SList()
    top.start = -1
    stack: List[SList] = []
    items = top
    for m in _TOKEN.finditer(text):
        kind = m.lastindex
        if kind == 3:
            items.append(m[3])
        elif kind == 1:
            stack.append(items)
            items = SList()
            items.start = m.start(1)
        elif kind == 2:
            if not stack:
                raise ParseError("unbalanced ')'", *_line_col(text, m.start(2)))
            items.end = m.end()
            done, items = items, stack.pop()
            items.append(done)
        elif kind == 4:
            what = "quoted symbol" if m[4] == "|" else "string"
            raise ParseError(f"unterminated {what}", *_line_col(text, m.start(4)))
        else:
            break
    if stack:
        raise ParseError("unbalanced '('", *_line_col(text, items.start))
    return top


def _item_offset(text: str, node: SList, index: int) -> int:
    """Offset of ``node[index]``, read again from the source: error path only."""
    pos = node.start + 1
    for item in node[: index + 1]:
        m = _TOKEN.match(text, pos)
        pos = item.end if type(item) is SList else m.end()
    return m.start(m.lastindex)


class _AtomError(Exception):
    """A parse error at an atom.  Atoms carry no offset, so the list holding
    the atom catches this and raises the located :class:`ParseError`."""

    def __init__(self, atom: str, message: str):
        super().__init__(message)
        self.atom = atom
        self.message = message


# -- expression conversion -------------------------------------------------

# A real-valued expression is a linear form, or a decision tree over linear
# forms produced by lifting real-valued ite nodes.
LinExpr = Tuple[Dict[str, Rational], Rational]


@dataclass
class RealBranch:
    cond: Term
    then: "RealValue"
    other: "RealValue"


RealValue = Union[LinExpr, RealBranch]

Node = Union[str, SList]

_CHAINABLE = ("<=", "<", ">=", ">")


def _is_numeral(s: str) -> bool:
    return s.isascii() and s.isdigit()


def _is_decimal(s: str) -> bool:
    a, dot, b = s.partition(".")
    return bool(dot) and _is_numeral(a) and _is_numeral(b)


class _Converter:
    def __init__(self, bank: TermBank, table: AtomTable, text: str):
        self.bank = bank
        self.table = table
        self.text = text
        self.sorts: Dict[str, str] = {}  # declared 0-ary symbols -> "Bool" | "Real"
        self.memo: Dict[str, tuple] = {}  # node source text -> value, empty env only

    # tagged value: ("bool", Term) or ("real", RealValue)
    def convert(self, node: Node, env: Dict[str, tuple]) -> tuple:
        if env:
            return self._convert(node, env)
        key = node if type(node) is str else self.text[node.start : node.end]
        value = self.memo.get(key)
        if value is None:
            value = self.memo[key] = self._convert(node, env)
        return value

    def _convert(self, node: Node, env: Dict[str, tuple]) -> tuple:
        if type(node) is str:
            return self._atom_token(node, env)
        try:
            return self._apply(node, env)
        except _AtomError as err:
            raise self.error_at_item(node, node.index(err.atom, 1), err.message) from None

    def _apply(self, node: SList, env: Dict[str, tuple]) -> tuple:
        if not node or type(node[0]) is not str:
            raise ParseError("expected operator", *self.pos(node))
        op = node[0]
        args = node[1:]
        if op in ("and", "or"):
            terms = [self._bool(a, env) for a in self._at_least(node, args, 1)]
            return ("bool", self.bank.and_(terms) if op == "and" else self.bank.or_(terms))
        if op == "not":
            (a,) = self._exactly(node, args, 1)
            return ("bool", self.bank.not_(self._bool(a, env)))
        if op in _CHAINABLE:
            vals = [self._real(a, env) for a in self._at_least_two(node, args)]
            parts = [self._relation(op, a, b) for a, b in zip(vals, vals[1:])]
            return ("bool", self.bank.and_(parts))
        if op == "=":
            return self._equality(node, args, env)
        if op == "+":
            vals = [self._real(a, env) for a in self._at_least(node, args, 1)]
            out = vals[0]
            for v in vals[1:]:
                out = self._combine(out, v, self._add)
            return ("real", out)
        if op == "-":
            vals = [self._real(a, env) for a in self._at_least(node, args, 1)]
            if len(vals) == 1:
                return ("real", self._map_linear(vals[0], self._neg_lin))
            out = vals[0]
            for v in vals[1:]:
                out = self._combine(out, self._map_linear(v, self._neg_lin), self._add)
            return ("real", out)
        if op == "*" or op == "/":
            vals = [self._real(a, env) for a in self._at_least_two(node, args)]
            combine = self._multiply if op == "*" else self._divide
            out = vals[0]
            for v in vals[1:]:
                out = combine(node, out, v)
            return ("real", out)
        if op == "let":
            return self._let(node, args, env)
        if op == "=>":
            terms = [self._bool(a, env) for a in self._at_least(node, args, 2)]
            out = terms[-1]
            for t in reversed(terms[:-1]):
                out = self.bank.implies(t, out)
            return ("bool", out)
        if op == "xor":
            terms = [self._bool(a, env) for a in self._at_least(node, args, 2)]
            out = terms[0]
            for t in terms[1:]:
                out = self.bank.not_(self.bank.iff(out, t))
            return ("bool", out)
        if op == "distinct":
            return self._distinct(node, args, env)
        if op == "ite":
            return self._ite(node, args, env)
        if op == "!" and len(args) >= 2 and type(args[1]) is str and args[1].startswith(":"):
            return self.convert(args[0], env)
        raise UnsupportedConstructError(op, *self.pos(node))

    # -- helpers ----------------------------------------------------------

    def pos(self, node: SList) -> Tuple[int, int]:
        return _line_col(self.text, node.start)

    def error_at_item(self, node: SList, index: int, message: str) -> ParseError:
        return ParseError(message, *_line_col(self.text, _item_offset(self.text, node, index)))

    def _fail(self, node: Node, message: str):
        if type(node) is str:
            raise _AtomError(node, message)
        raise ParseError(message, *self.pos(node))

    def _at_least(self, node: SList, args: List[Node], k: int) -> List[Node]:
        if len(args) < k:
            raise ParseError("too few arguments", *self.pos(node))
        return args

    def _exactly(self, node: SList, args: List[Node], k: int) -> List[Node]:
        if len(args) != k:
            raise ParseError(f"expected {k} arguments", *self.pos(node))
        return args

    def _at_least_two(self, node: SList, args: List[Node]) -> List[Node]:
        # The message of the binary forms these n-ary ones generalize.
        if len(args) < 2:
            raise ParseError("expected 2 arguments", *self.pos(node))
        return args

    def _atom_token(self, s: str, env: Dict[str, tuple]) -> tuple:
        if s == "true":
            return ("bool", self.bank.const(True))
        if s == "false":
            return ("bool", self.bank.const(False))
        if _is_numeral(s):
            return ("real", ({}, int(s)))
        if _is_decimal(s):
            a, _, b = s.partition(".")
            return ("real", ({}, quotient(int(a + b), 10 ** len(b))))
        name = s[1:-1] if s.startswith("|") and s.endswith("|") else s
        if name in env:
            return env[name]
        sort = self.sorts.get(name)
        if sort == "Bool":
            atom = self.bank.bool_atom(name)
            self.table.register(atom)
            return ("bool", atom)
        if sort == "Real":
            return ("real", ({name: 1}, 0))
        raise _AtomError(s, f"undeclared symbol '{name}'")

    def _bool(self, node: Node, env: Dict[str, tuple]) -> Term:
        tag, val = self.convert(node, env)
        if tag != "bool":
            self._fail(node, "expected a Bool expression")
        return val

    def _real(self, node: Node, env: Dict[str, tuple]) -> RealValue:
        tag, val = self.convert(node, env)
        if tag != "real":
            self._fail(node, "expected a Real expression")
        return val

    def _let(self, node: SList, args: List[Node], env: Dict[str, tuple]) -> tuple:
        if len(args) != 2 or type(args[0]) is str:
            raise ParseError("malformed let", *self.pos(node))
        bindings = args[0]
        new_env = dict(env)
        for i, binding in enumerate(bindings):
            if type(binding) is str or len(binding) != 2 or type(binding[0]) is not str:
                raise self.error_at_item(bindings, i, "malformed let binding")
            try:
                new_env[binding[0]] = self.convert(binding[1], env)
            except _AtomError as err:
                raise self.error_at_item(binding, 1, err.message) from None
        return self.convert(args[1], new_env)

    # linear arithmetic on (coeffs, const) pairs

    @staticmethod
    def _add(a: LinExpr, b: LinExpr) -> LinExpr:
        coeffs = dict(a[0])
        for name, c in b[0].items():
            coeffs[name] = coeffs[name] + c if name in coeffs else c
        return coeffs, a[1] + b[1]

    @staticmethod
    def _neg_lin(a: LinExpr) -> LinExpr:
        return {n: -c for n, c in a[0].items()}, -a[1]

    def _map_linear(self, v: RealValue, f) -> RealValue:
        if isinstance(v, RealBranch):
            return RealBranch(v.cond, self._map_linear(v.then, f), self._map_linear(v.other, f))
        return f(v)

    def _combine(self, a: RealValue, b: RealValue, f) -> RealValue:
        if isinstance(a, RealBranch):
            return RealBranch(a.cond, self._combine(a.then, b, f), self._combine(a.other, b, f))
        if isinstance(b, RealBranch):
            return RealBranch(b.cond, self._combine(a, b.then, f), self._combine(a, b.other, f))
        return f(a, b)

    def _multiply(self, node: SList, a: RealValue, b: RealValue) -> RealValue:
        def mul(x: LinExpr, y: LinExpr) -> LinExpr:
            if x[0] and y[0]:
                raise UnsupportedConstructError("nonlinear multiplication", *self.pos(node))
            if y[0]:
                x, y = y, x
            k = y[1]
            if not k:
                return {}, x[1] * k
            return {n: c * k for n, c in x[0].items() if c}, x[1] * k

        return self._combine(a, b, mul)

    def _divide(self, node: SList, a: RealValue, b: RealValue) -> RealValue:
        def div(x: LinExpr, y: LinExpr) -> LinExpr:
            if y[0]:
                raise UnsupportedConstructError("division by a non-constant", *self.pos(node))
            if y[1] == 0:
                raise ParseError("division by zero", *self.pos(node))
            k = y[1]
            return {n: quotient(c, k) for n, c in x[0].items()}, quotient(x[1], k)

        return self._combine(a, b, div)

    def _relation(self, op: str, lhs: RealValue, rhs: RealValue) -> Term:
        if isinstance(lhs, RealBranch):
            return self.bank.ite(
                lhs.cond,
                self._relation(op, lhs.then, rhs),
                self._relation(op, lhs.other, rhs),
            )
        if isinstance(rhs, RealBranch):
            return self.bank.ite(
                rhs.cond,
                self._relation(op, lhs, rhs.then),
                self._relation(op, lhs, rhs.other),
            )
        coeffs, const = self._add(lhs, self._neg_lin(rhs))
        atom = normalize_linear(coeffs, op, -const)
        if isinstance(atom, bool):
            return self.bank.const(atom)
        term = self.bank.theory_atom(atom)
        self.table.register(term)
        return term

    def _same_sort(self, node: SList, args: List[Node], env: Dict[str, tuple]):
        """The sort tag and the values of ``args``, at least two of one sort."""
        vals = [self.convert(a, env) for a in self._at_least(node, args, 2)]
        tags = {tag for tag, _ in vals}
        if len(tags) != 1:
            raise ParseError(f"'{node[0]}' arguments must share a sort", *self.pos(node))
        return tags.pop(), [val for _, val in vals]

    def _equality(self, node: SList, args: List[Node], env: Dict[str, tuple]) -> tuple:
        tag, vals = self._same_sort(node, args, env)
        pairs = zip(vals, vals[1:])
        if tag == "bool":
            return ("bool", self.bank.and_([self.bank.iff(a, b) for a, b in pairs]))
        return ("bool", self.bank.and_([self._relation("=", a, b) for a, b in pairs]))

    def _distinct(self, node: SList, args: List[Node], env: Dict[str, tuple]) -> tuple:
        tag, vals = self._same_sort(node, args, env)
        if tag == "bool":
            if len(vals) > 2:
                return ("bool", self.bank.const(False))
            return ("bool", self.bank.not_(self.bank.iff(vals[0], vals[1])))
        parts = []
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                parts.append(self.bank.not_(self._relation("=", vals[i], vals[j])))
        return ("bool", self.bank.and_(parts))

    def _ite(self, node: SList, args: List[Node], env: Dict[str, tuple]) -> tuple:
        c_node, t_node, e_node = self._exactly(node, args, 3)
        cond = self._bool(c_node, env)
        t_tag, t_val = self.convert(t_node, env)
        e_tag, e_val = self.convert(e_node, env)
        if t_tag != e_tag:
            raise ParseError("ite branches must share a sort", *self.pos(node))
        if t_tag == "bool":
            return ("bool", self.bank.ite(cond, t_val, e_val))
        return ("real", RealBranch(cond, t_val, e_val))


_IGNORED_COMMANDS = {"set-option", "set-info", "check-sat", "get-model", "exit", "echo"}


def parse_smtlib(
    text: str,
    bank: Optional[TermBank] = None,
    table: Optional[AtomTable] = None,
) -> Tuple[Term, AtomTable]:
    """Parse an SMT-LIB2 script; return the conjoined assertion and atom table.

    Passing an existing bank/table pair makes atoms of the new script intern
    into the same index space (used to read lemma files against an instance).
    """
    bank = bank or TermBank()
    table = table or AtomTable(bank)
    conv = _Converter(bank, table, text)
    assertions: List[Term] = []
    script = read_script(text)
    for i, cmd in enumerate(script):
        if type(cmd) is str:
            raise conv.error_at_item(script, i, f"stray token '{cmd}'")
        if not cmd or type(cmd[0]) is not str:
            raise ParseError("malformed command", *conv.pos(cmd))
        head = cmd[0]
        if head == "set-logic":
            if len(cmd) != 2 or type(cmd[1]) is not str:
                raise ParseError("malformed set-logic", *conv.pos(cmd))
            if cmd[1] != "QF_LRA":
                raise UnsupportedConstructError(f"logic {cmd[1]}", *conv.pos(cmd))
        elif head == "declare-const":
            if len(cmd) != 3 or type(cmd[1]) is not str or type(cmd[2]) is not str:
                raise ParseError("malformed declare-const", *conv.pos(cmd))
            _declare(conv, cmd[1], cmd[2], cmd)
        elif head == "declare-fun":
            if (len(cmd) != 4 or type(cmd[1]) is not str or type(cmd[2]) is str
                    or type(cmd[3]) is not str):
                raise ParseError("malformed declare-fun", *conv.pos(cmd))
            if cmd[2]:
                raise UnsupportedConstructError(
                    "uninterpreted function of arity > 0", *conv.pos(cmd)
                )
            _declare(conv, cmd[1], cmd[3], cmd)
        elif head == "assert":
            if len(cmd) != 2:
                raise ParseError("malformed assert", *conv.pos(cmd))
            try:
                assertions.append(conv._bool(cmd[1], {}))
            except _AtomError as err:
                raise conv.error_at_item(cmd, 1, err.message) from None
        elif head in _IGNORED_COMMANDS:
            continue
        elif head in ("push", "pop", "define-fun", "declare-sort", "define-sort"):
            raise UnsupportedConstructError(head, *conv.pos(cmd))
        else:
            raise ParseError(f"unknown command '{head}'", *conv.pos(cmd))
    return bank.and_(assertions), table


def _declare(conv: _Converter, name: str, sort: str, cmd: SList) -> None:
    if name.startswith("|") and name.endswith("|"):
        name = name[1:-1]
    if sort not in ("Bool", "Real"):
        raise UnsupportedConstructError(f"sort {sort}", *conv.pos(cmd))
    previous = conv.sorts.get(name)
    if previous is not None and previous != sort:
        raise ParseError(f"symbol '{name}' redeclared with a different sort", *conv.pos(cmd))
    conv.sorts[name] = sort

