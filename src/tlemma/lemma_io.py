"""Lemma files: SMT-LIB2 scripts any solver can audit, plus provenance JSON.

A lemma file re-declares the instance's symbols and asserts each lemma
clause.  Reading one back reuses the instance's term bank and atom table, so
syntactically equal atoms land on the same indices and the clauses can be
checked against the original formula.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional

from .atoms import AtomKind, AtomTable, Literal
from .oracle import TLemma
from .parser import parse_smtlib
from .strategies import LemmaSet
from .terms import Term, TermKind, linear_atom_sexpr


class LemmaFormatError(Exception):
    pass


def literal_sexpr(lit: Literal, table: AtomTable) -> str:
    atom = table.atoms[lit.atom_index]
    if atom.kind is TermKind.THEORY_ATOM:
        body = linear_atom_sexpr(atom.payload)
    else:
        body = atom.payload
    return body if lit.polarity else f"(not {body})"


def lemma_sexpr(lemma: TLemma, table: AtomTable) -> str:
    parts = [literal_sexpr(l, table) for l in lemma.literals]
    if len(parts) == 1:
        return parts[0]
    return "(or " + " ".join(parts) + ")"


def render_lemma_script(lemmas, table: AtomTable) -> str:
    lines = ["(set-logic QF_LRA)"]
    for name in table.bool_names():
        lines.append(f"(declare-const {name} Bool)")
    for name in table.variables():
        lines.append(f"(declare-const {name} Real)")
    for lemma in lemmas:
        lines.append(f"(assert {lemma_sexpr(lemma, table)})")
    return "\n".join(lines) + "\n"


def write_lemma_file(
    path,
    lemma_set: LemmaSet,
    table: AtomTable,
    meta: Optional[dict] = None,
) -> Path:
    """Write the lemma script and a ``<path>.json`` provenance sidecar."""
    path = Path(path)
    path.write_text(render_lemma_script(lemma_set.lemmas, table), encoding="utf-8")
    sidecar = {
        "lemmas": [
            {
                "literals": [
                    {"atom": lit.atom_index, "polarity": lit.polarity}
                    for lit in lemma.literals
                ],
                "stage": prov.stage,
                "worker": prov.worker,
                "conflict_ordinal": prov.ordinal,
            }
            for lemma, prov in zip(lemma_set.lemmas, lemma_set.provenance)
        ],
    }
    if meta:
        sidecar["run"] = meta
    Path(str(path) + ".json").write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path


def _clause_literals(term: Term, table: AtomTable) -> List[Literal]:
    def literal_of(t: Term, polarity: bool) -> Literal:
        if t.kind is TermKind.NOT:
            return literal_of(t.args[0], not polarity)
        if t.is_atom():
            return Literal(table.index_of[t.id], polarity)
        raise LemmaFormatError(f"assert is not a clause of literals: {term!r}")

    if term.kind is TermKind.OR:
        return [literal_of(a, True) for a in term.args]
    return [literal_of(term, True)]


def read_lemma_file(path, table: AtomTable) -> List[TLemma]:
    """Parse a lemma script against an existing instance table.

    Raises :class:`LemmaFormatError` when an assert is not a clause, or when
    a clause mentions an atom the instance does not have (including any
    non-theory atom, which can never occur in a theory-valid clause minted
    from a conflict core).
    """
    known = len(table)
    text = Path(path).read_text(encoding="utf-8")
    term, _ = parse_smtlib(text, bank=table.bank, table=table)
    if term.kind is TermKind.CONST:
        if term.payload:
            return []
        raise LemmaFormatError("lemma file asserts a contradiction")
    clauses = term.args if term.kind is TermKind.AND else (term,)
    lemmas = []
    for clause in clauses:
        lits = _clause_literals(clause, table)
        for lit in lits:
            if lit.atom_index >= known:
                raise LemmaFormatError(
                    f"lemma mentions an atom absent from the instance: "
                    f"{table.atoms[lit.atom_index]!r}"
                )
            if table.kind_of(lit.atom_index) is not AtomKind.THEORY:
                raise LemmaFormatError(
                    f"lemma literal on a non-theory atom: "
                    f"{table.atoms[lit.atom_index]!r}"
                )
        lemmas.append(TLemma.of(lits))
    return lemmas
