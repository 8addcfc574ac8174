import re
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import assert_exact_types, iter_dag, symbols_of
from tlemma.atoms import AtomKind
from tlemma.generator import (
    clausal_instance,
    planning_style_instance,
    product_instance,
    random_instance,
)
from tlemma.parser import ParseError, UnsupportedConstructError, parse_smtlib
from tlemma.terms import Relation, TermKind


def parse(text):
    return parse_smtlib(text)


def snapshot(text):
    """Everything a parse produces: the term DAG with ids, and the atom table."""
    term, table = parse(text)
    dag = [(t.id, t.kind, t.payload, tuple(a.id for a in t.args)) for t in iter_dag(term)]
    atoms = [
        (a.id, table.kind_of(i), a.payload, symbols_of(table, i))
        for i, a in enumerate(table.atoms)
    ]
    return term.id, dag, atoms


class TestBasics:
    def test_disjunction_of_equalities(self):
        term, table = parse("(declare-const x Real)(assert (or (= x 0) (= x 1)))")
        assert term.kind is TermKind.OR
        assert len(table) == 2
        assert all(table.kind_of(i) is AtomKind.THEORY for i in (0, 1))

    def test_constant_assertion(self):
        term, table = parse("(assert true)")
        assert term.kind is TermKind.CONST and term.payload is True
        assert len(table) == 0

    def test_ge_normalized_to_le_with_flipped_sign(self):
        term, table = parse("(declare-const y Real)(assert (>= y 2))")
        atom = table.linear_atom(0)
        assert atom.relation is Relation.LE
        assert atom.coeff_map() == {"y": Fraction(-1)}
        assert atom.bound == Fraction(-2)

    def test_multiple_asserts_conjoin(self):
        term, table = parse(
            "(declare-const x Real)(assert (<= x 1))(assert (< x 0))"
        )
        assert term.kind is TermKind.AND
        assert len(term.args) == 2

    def test_equal_atoms_share_an_index(self):
        # one atom written three syntactically different ways
        term, table = parse(
            "(declare-const x Real)(declare-const y Real)"
            "(assert (or (<= (+ x y) 1) (>= 1 (+ y x)) (<= (* 2 y) (- 2 (* 2 x)))))"
        )
        assert len(table) == 1

    def test_set_logic_accepted(self):
        parse("(set-logic QF_LRA)(assert true)")

    def test_bool_atoms(self):
        term, table = parse("(declare-const p Bool)(declare-const q Bool)(assert (and p q))")
        assert table.kind_of(0) is AtomKind.BOOLEAN
        assert symbols_of(table, 0) == frozenset()

    def test_declare_fun_zero_ary(self):
        term, table = parse("(declare-fun x () Real)(assert (< x 1))")
        assert len(table) == 1

    def test_let_binding(self):
        term, table = parse(
            "(declare-const x Real)(assert (let ((a (<= x 0)) (b 2)) (or a (< x b))))"
        )
        assert len(table) == 2

    def test_benign_commands_ignored(self):
        parse("(set-info :status sat)(set-option :produce-models true)"
              "(assert true)(check-sat)(get-model)(exit)")


class TestArithmetic:
    def test_rational_constants(self):
        term, table = parse("(declare-const x Real)(assert (<= x (/ 1 3)))")
        atom = table.linear_atom(0)
        assert atom.bound == Fraction(1, 3)
        assert_exact_types(atom)

    def test_decimals(self):
        term, table = parse(
            "(declare-const x Real)(assert (<= x 2.5))(assert (<= (* 0.5 x) 1.5))"
        )
        atom = table.linear_atom(0)
        assert atom.bound == Fraction(5, 2)
        assert_exact_types(atom)
        halved = table.linear_atom(1)
        assert halved.coeff_map() == {"x": 1} and halved.bound == 3
        assert_exact_types(halved)

    def test_negation_and_subtraction(self):
        term, table = parse(
            "(declare-const x Real)(declare-const y Real)(assert (<= (- x y 1) (- 2)))"
        )
        atom = table.linear_atom(0)
        assert atom.coeff_map() == {"x": Fraction(1), "y": Fraction(-1)}
        assert atom.bound == Fraction(-1)
        assert_exact_types(atom)

    def test_trivial_atom_folds_to_constant(self):
        term, table = parse("(declare-const x Real)(assert (< x x))")
        assert term.kind is TermKind.CONST and term.payload is False
        assert len(table) == 0

    def test_distinct_rewrites_to_negated_equality(self):
        term, table = parse(
            "(declare-const x Real)(declare-const y Real)(assert (distinct x y))"
        )
        assert term.kind is TermKind.NOT
        assert table.linear_atom(0).relation is Relation.EQ

    def test_distinct_three_booleans_is_false(self):
        term, _ = parse(
            "(declare-const a Bool)(declare-const b Bool)(declare-const c Bool)"
            "(assert (distinct a b c))"
        )
        assert term.kind is TermKind.CONST and term.payload is False

    def test_chained_equality_over_reals(self):
        term, table = parse(
            "(declare-const x Real)(declare-const y Real)(declare-const z Real)"
            "(assert (= x y z))"
        )
        assert term.kind is TermKind.AND
        assert len(table) == 2

    def test_real_ite_lifted_by_case_split(self):
        term, table = parse(
            "(declare-const p Bool)(declare-const x Real)"
            "(assert (<= (ite p x (- x)) 1))"
        )
        assert term.kind is TermKind.ITE
        assert len(table) == 3  # p, x<=1, -x<=1

    def test_nested_real_ite(self):
        term, table = parse(
            "(declare-const p Bool)(declare-const q Bool)(declare-const x Real)"
            "(assert (< (+ (ite p x 0) (ite q 1 0)) 2))"
        )
        assert term.kind is TermKind.ITE
        # four leaf atoms: x+1<2, x<2, 1<2 (folds true), 0<2 (folds true)
        assert len(table) == 4


class TestErrors:
    def test_parse_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse("(assert\n  (or unknown_symbol))")
        assert err.value.line == 2
        assert err.value.col > 0

    def test_unbalanced(self):
        with pytest.raises(ParseError):
            parse("(assert (or a b)")

    def test_unknown_logic_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(set-logic QF_UFLRA)(assert true)")

    def test_quantifiers_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(declare-const x Real)(assert (forall ((y Real)) (<= x y)))")

    def test_nonlinear_rejected(self):
        with pytest.raises(UnsupportedConstructError) as err:
            parse("(declare-const x Real)(declare-const y Real)(assert (<= (* x y) 1))")
        assert "nonlinear" in str(err.value)

    def test_unsupported_sort(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(declare-const v Int)(assert true)")

    def test_uf_positive_arity_rejected(self):
        with pytest.raises(UnsupportedConstructError):
            parse("(declare-fun f (Real) Real)(assert true)")

    def test_division_by_zero(self):
        with pytest.raises(ParseError):
            parse("(declare-const x Real)(assert (<= (/ x 0) 1))")

    def test_sort_mismatch(self):
        with pytest.raises(ParseError):
            parse("(declare-const p Bool)(declare-const x Real)(assert (= p x))")

    def test_redeclaration_conflict(self):
        with pytest.raises(ParseError):
            parse("(declare-const x Real)(declare-const x Bool)(assert true)")

    def test_error_after_multiline_string_has_its_own_line(self):
        with pytest.raises(ParseError) as err:
            parse('(set-info :a "x\ny")(assert zz)')
        assert (err.value.line, err.value.col) == (2, 12)


XY = "(declare-const x Real)(declare-const y Real)(declare-const z Real)"


class TestStandardForms:
    @pytest.mark.parametrize("op", ["<=", "<", ">=", ">"])
    def test_chainable_comparison_is_the_conjunction_of_pairs(self, op):
        chained = snapshot(f"{XY}(assert ({op} x y (+ z 1) 3))")
        pairs = snapshot(f"{XY}(assert (and ({op} x y) ({op} y (+ z 1)) ({op} (+ z 1) 3)))")
        assert chained == pairs
        assert len(chained[2]) == 3

    def test_multiplication_is_nary(self):
        term, table = parse(f"{XY}(assert (<= (* 2 3 x) (* y 1 2)))")
        atom = table.linear_atom(0)
        assert atom.coeff_map() == {"x": Fraction(3), "y": Fraction(-1)}
        assert atom.bound == 0
        assert_exact_types(atom)

    def test_division_associates_to_the_left(self):
        term, table = parse(f"{XY}(assert (<= (/ x 2 3) (/ 12 2 3)))")
        atom = table.linear_atom(0)
        assert atom.coeff_map() == {"x": Fraction(1)}
        assert atom.bound == Fraction(12)  # x/6 <= 2, not 12/(2/3) = 18
        assert_exact_types(atom)

    def test_named_annotation_reads_as_its_term(self):
        named = snapshot(f"{XY}(assert (! (or (< x 1) (! (> y 2) :named b)) :named a))")
        assert named == snapshot(f"{XY}(assert (or (< x 1) (> y 2)))")

    @pytest.mark.parametrize("annotation", ["(! x)", "(! x foo)", "(! x 3)", "(! x (:named))"])
    def test_annotation_needs_a_keyword_attribute(self, annotation):
        with pytest.raises(UnsupportedConstructError) as err:
            parse(f"{XY}(assert (< {annotation} 1))")
        err = err.value
        assert (err.line, err.col, err.message) == (1, 78, "unsupported construct: !")


class TestReaderPositions:
    """The reader's error positions, and the tokens that hide ';' and '('."""

    @pytest.mark.parametrize(
        "text, line, col, message",
        [
            ("(declare-const x Real)\n(assert (<= |x 1))", 2, 13, "unterminated quoted symbol"),
            ('(set-info :a "abc)\n(assert true)', 1, 14, "unterminated string"),
            ('(set-info :a "ab"")\n(assert true)', 1, 14, "unterminated string"),
            ("(assert true))", 1, 14, "unbalanced ')'"),
            ("(assert (or true\n  false)", 1, 1, "unbalanced '('"),
            ("foo (assert true)", 1, 1, "stray token 'foo'"),
            ("(declare-const x Real)\n\n   (assert (< y 1))", 3, 15, "undeclared symbol 'y'"),
        ],
    )
    def test_error_position(self, text, line, col, message):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col, err.value.message) == (line, col, message)

    @pytest.mark.parametrize(
        "text, line, col",
        [
            ("(declare-const p Bool)\n(assert (and p 1 p))", 2, 16),
            ("(declare-const x Real)\n(assert (let ((a 1) (b zz)) (< x a)))", 2, 24),
            ("(declare-const x Real)\n(assert (let ((a 1) b) (< x a)))", 2, 21),
            ("(declare-const x Real)\n(assert x)", 2, 9),
        ],
    )
    def test_atom_error_position(self, text, line, col):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert (err.value.line, err.value.col) == (line, col)

    def test_semicolon_and_paren_inside_tokens(self):
        term, table = parse(
            '(set-info :source "a;b ( "" ) ;")\n'
            "(declare-const |a;b(| Real) ; a comment (\n"
            '(set-info :x """(""")\n'
            "(assert (< |a;b(| 1)) ; )"
        )
        assert table.variables() == ["a;b("]
        assert table.linear_atom(0).bound == 1


def _spread(text):
    """``text`` with a different run of spaces after every '(': no two list
    nodes share their source text, so the conversion memo never hits."""
    count = iter(range(1, 1 << 30))
    return re.sub(r"\(", lambda m: "(" + " " * next(count), text)


def _shadowed(text):
    """``text`` plus its first assertion again, under a ``let`` that binds
    the first Real variable to 5; and ``text`` plus that assertion with the
    variable replaced by 5."""
    var = re.search(r"\(declare-const (\S+) Real\)", text)
    body = re.search(r"\(assert (.*)\)\n", text)
    if var is None or body is None:
        return text, text
    name, body = var.group(1), body.group(1)
    substituted = re.sub(rf"(?<![^ ()]){re.escape(name)}(?![^ ()])", "5", body)
    return (
        text + f"(assert (let (({name} 5)) {body}))\n",
        text + f"(assert {substituted})\n",
    )


_FAMILIES = st.one_of(
    st.builds(random_instance, st.integers(2, 6), st.integers(0, 4), st.integers(1, 4),
              st.integers(0, 10**6), st.just(12)),
    st.builds(clausal_instance, st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 4),
              st.integers(2, 10), st.integers(1, 24)),
    st.builds(product_instance, st.integers(0, 10**6), st.integers(1, 6), st.integers(1, 5)),
    st.builds(planning_style_instance, st.integers(0, 10**6), st.integers(1, 3)),
)


class TestConversionMemo:
    @seed(1402)
    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(text=_FAMILIES)
    def test_memo_changes_no_term_id_or_atom(self, text):
        assert snapshot(text) == snapshot(_spread(text))
        let, substituted = _shadowed(text)
        assert snapshot(let) == snapshot(_spread(substituted))

    def test_let_shadowing_is_not_memoized(self):
        term, table = parse("(declare-const x Real)(assert (and (< x 1) (let ((x 5)) (< x 1))))")
        assert term.kind is TermKind.CONST and term.payload is False
        assert len(table) == 1
