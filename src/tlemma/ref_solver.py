"""A minimal SMT-LIB2 solver over stdin/stdout for QF_LRA conjunctions.

Understands exactly the dialect the external oracle speaks.  It takes
options, one logic, 0-ary Real declarations, push/pop and named asserts of
linear-arithmetic literals without a reply, and answers two commands:
check-sat (``sat`` or ``unsat``) and get-unsat-core.  Any other command gets an
``(error ...)`` reply.  Satisfiability is decided by an exact rational
bounded simplex (Dutertre & de Moura, CAV 2006) with Bland's rule,
disequalities by case split, so it shares no decision code with the
library's Fourier-Motzkin backend and can serve as a cross-check:

    tlemma enumerate --oracle-cmd "python3 -m tlemma.ref_solver" ...

``get-unsat-core`` returns all asserted names (a valid, not necessarily
minimal, core).  Intentionally bad behavior for protocol tests: set
TLEMMA_REF_MODE=unknown (answers unknown) or =die (exits before answering).
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Tuple


def _read_sexpr(stream) -> Optional[list]:
    """Next s-expression from the stream as nested lists of strings."""
    depth = 0
    tokens: List[str] = []
    buf = []

    def flush():
        if buf:
            tokens.append("".join(buf))
            buf.clear()

    while True:
        ch = stream.read(1)
        if ch == "":
            return None
        if ch == ";":
            while ch not in ("", "\n"):
                ch = stream.read(1)
            continue
        if ch in " \t\r\n":
            flush()
            if depth == 0 and tokens:
                break
            continue
        if ch == "(":
            flush()
            tokens.append("(")
            depth += 1
        elif ch == ")":
            flush()
            tokens.append(")")
            depth -= 1
            if depth == 0:
                break
        else:
            buf.append(ch)
    flush()

    pos = 0

    def parse():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        items = []
        while tokens[pos] != ")":
            items.append(parse())
        pos += 1
        return items

    return parse() if tokens else None


Linear = Tuple[Dict[str, Fraction], Fraction]  # coeffs, constant


def _linear(node) -> Linear:
    if isinstance(node, str):
        try:
            return {}, Fraction(node)
        except ValueError:
            return {node: Fraction(1)}, Fraction(0)
    op, args = node[0], node[1:]
    if op == "+":
        coeffs: Dict[str, Fraction] = {}
        const = Fraction(0)
        for a in args:
            c, k = _linear(a)
            const += k
            for n, v in c.items():
                coeffs[n] = coeffs.get(n, Fraction(0)) + v
        return coeffs, const
    if op == "-":
        if len(args) == 1:
            c, k = _linear(args[0])
            return {n: -v for n, v in c.items()}, -k
        coeffs, const = _linear(args[0])
        coeffs = dict(coeffs)
        for a in args[1:]:
            c, k = _linear(a)
            const -= k
            for n, v in c.items():
                coeffs[n] = coeffs.get(n, Fraction(0)) - v
        return coeffs, const
    if op == "*":
        (c1, k1), (c2, k2) = _linear(args[0]), _linear(args[1])
        if c1 and c2:
            raise ValueError("nonlinear")
        if c1:
            return {n: v * k2 for n, v in c1.items()}, k1 * k2
        return {n: v * k1 for n, v in c2.items()}, k1 * k2
    if op == "/":
        (c1, k1), (c2, k2) = _linear(args[0]), _linear(args[1])
        if c2:
            raise ValueError("nonlinear")
        return {n: v / k2 for n, v in c1.items()}, k1 / k2
    raise ValueError(f"bad arithmetic operator {op}")


# A constraint: (coeffs, bound, kind) with kind in le/lt/eq/ne.
Constraint = Tuple[Dict[str, Fraction], Fraction, str]

_NEGATE = {"<=": ">", "<": ">=", ">=": "<", ">": "<=", "=": "ne"}
_KIND = {"<=": "le", "<": "lt", ">=": "ge", ">": "gt", "=": "eq", "ne": "ne"}


def _constraint(node, negated: bool = False) -> Constraint:
    if node[0] == "not":
        return _constraint(node[1], not negated)
    op = node[0]
    if negated:
        op = _NEGATE[op]
    lhs_c, lhs_k = _linear(node[1])
    rhs_c, rhs_k = _linear(node[2])
    coeffs = dict(lhs_c)
    for n, v in rhs_c.items():
        coeffs[n] = coeffs.get(n, Fraction(0)) - v
    bound = rhs_k - lhs_k
    kind = _KIND[op]
    if kind == "ge":
        coeffs, bound, kind = {n: -v for n, v in coeffs.items()}, -bound, "le"
    elif kind == "gt":
        coeffs, bound, kind = {n: -v for n, v in coeffs.items()}, -bound, "lt"
    coeffs = {n: v for n, v in coeffs.items() if v != 0}
    return coeffs, bound, kind


# -- bounded simplex --------------------------------------------------------
#
# The general simplex of Dutertre & de Moura (CAV 2006).  Variable j < n is
# the j-th free rational; variable n + i is the slack of row i, which starts
# basic and carries the row's bound.  Values and bounds are delta-rationals
# (c, k), read as c + k * delta for an infinitesimal delta > 0 and compared
# as tuples, so a strict bound s < b is the bound s <= (b, -1).

DeltaRational = Tuple[Fraction, Fraction]


def _pick_delta(pairs) -> Fraction:
    """A concrete delta in (0, 1] that keeps every ``lo <= hi`` pair."""
    delta = Fraction(1)
    for (lc, lk), (hc, hk) in pairs:
        if lc < hc and lk > hk:
            delta = min(delta, (hc - lc) / (lk - hk))
    return delta


def lp_feasible(rows: List[Constraint]) -> Optional[Dict[str, Fraction]]:
    """Exact feasibility of le/lt/eq rows over free rational variables.

    Repairs the lowest-numbered basic variable out of its bounds with the
    lowest-numbered nonbasic variable that can move it (Bland's rule, so it
    terminates); a row with no such variable is a conflict.  Returns a model
    dict or None.
    """
    names = sorted({n for coeffs, _, _ in rows for n in coeffs})
    n = len(names)
    col = {name: j for j, name in enumerate(names)}
    zero = Fraction(0)
    tableau: Dict[int, Dict[int, Fraction]] = {}
    lower: Dict[int, DeltaRational] = {}
    upper: Dict[int, DeltaRational] = {}
    for i, (coeffs, bound, kind) in enumerate(rows):
        tableau[n + i] = {col[name]: Fraction(v) for name, v in coeffs.items()}
        upper[n + i] = (Fraction(bound), Fraction(-1 if kind == "lt" else 0))
        if kind == "eq":
            lower[n + i] = upper[n + i]
    value: Dict[int, DeltaRational] = {v: (zero, zero) for v in range(n + len(rows))}

    while True:
        for x in sorted(tableau):
            if x in lower and value[x] < lower[x]:
                target, sign = lower[x], 1
                break
            if x in upper and value[x] > upper[x]:
                target, sign = upper[x], -1
                break
        else:
            break
        row = tableau[x]
        for y in sorted(row):
            a = row[y]
            if (sign * a > 0 and (y not in upper or value[y] < upper[y])) or (
                sign * a < 0 and (y not in lower or value[y] > lower[y])
            ):
                break
        else:
            return None
        # Move y so that x lands on its bound, then swap their roles.
        theta = ((target[0] - value[x][0]) / a, (target[1] - value[x][1]) / a)
        del tableau[x]
        y_row = {w: -c / a for w, c in row.items() if w != y}
        y_row[x] = 1 / a
        for z, z_row in tableau.items():
            c = z_row.pop(y, None)
            if c is None:
                continue
            vz = value[z]
            value[z] = (vz[0] + c * theta[0], vz[1] + c * theta[1])
            for w, d in y_row.items():
                e = z_row.get(w, zero) + c * d
                if e:
                    z_row[w] = e
                else:
                    z_row.pop(w, None)
        tableau[y] = y_row
        vy = value[y]
        value[y] = (vy[0] + theta[0], vy[1] + theta[1])
        value[x] = target

    delta = _pick_delta(
        [(lower[v], value[v]) for v in lower] + [(value[v], upper[v]) for v in upper]
    )
    return {name: value[j][0] + value[j][1] * delta for name, j in col.items()}


def satisfiable(rows: List[Constraint]):
    """Case-split disequalities, fold constant rows, then run the simplex."""
    for i, (coeffs, bound, kind) in enumerate(rows):
        if kind == "ne" and coeffs:
            rest = rows[:i] + rows[i + 1 :]
            neg = {n: -v for n, v in coeffs.items()}
            for branch in ((coeffs, bound, "lt"), (neg, -bound, "lt")):
                model = satisfiable(rest + [branch])
                if model is not None:
                    return model
            return None
    pending = []
    for coeffs, bound, kind in rows:
        if coeffs:
            pending.append((coeffs, bound, kind))
            continue
        zero = Fraction(0)
        ok = (
            zero <= bound
            if kind == "le"
            else zero < bound
            if kind == "lt"
            else zero == bound
            if kind == "eq"
            else zero != bound
        )
        if not ok:
            return None
    return lp_feasible(pending)


class _Solver:
    def __init__(self) -> None:
        self.stack: List[List[Tuple[str, Constraint]]] = [[]]

    def run(self) -> None:
        mode = os.environ.get("TLEMMA_REF_MODE", "")
        out = sys.stdout
        while True:
            node = _read_sexpr(sys.stdin)
            if node is None:
                return
            if not isinstance(node, list) or not node:
                continue
            head = node[0]
            if head == "exit":
                return
            if head in ("set-option", "set-logic", "set-info", "declare-const",
                        "declare-fun"):
                continue
            if head == "push":
                self.stack.append([])
            elif head == "pop":
                if len(self.stack) > 1:
                    self.stack.pop()
            elif head == "assert":
                body = node[1]
                name = ""
                if isinstance(body, list) and body and body[0] == "!":
                    name = body[3] if len(body) > 3 else ""
                    body = body[1]
                self.stack[-1].append((name, _constraint(body)))
            elif head == "check-sat":
                if mode == "die":
                    sys.exit(1)
                if mode == "unknown":
                    print("unknown", file=out, flush=True)
                    continue
                rows = [c for frame in self.stack for _, c in frame]
                sat = satisfiable(rows) is not None
                print("sat" if sat else "unsat", file=out, flush=True)
            elif head == "get-unsat-core":
                names = [n for frame in self.stack for n, _ in frame if n]
                print("(" + " ".join(names) + ")", file=out, flush=True)
            else:
                print(f'(error "unknown command {head}")', file=out, flush=True)


def main() -> None:
    _Solver().run()


if __name__ == "__main__":
    main()
