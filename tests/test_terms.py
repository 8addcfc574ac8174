import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import evaluate_atom
from tlemma.terms import (
    Relation,
    TermBank,
    TermKind,
    fraction_sexpr,
    linear_atom_sexpr,
    normalize_linear,
)


def evaluate_raw(coeffs, op, bound, point):
    lhs = sum(Fraction(c) * point[n] for n, c in coeffs.items())
    return {
        "<=": lhs <= bound,
        "<": lhs < bound,
        ">=": lhs >= bound,
        ">": lhs > bound,
        "=": lhs == bound,
    }[op]


class TestNormalization:
    def test_ge_flips_into_le(self):
        atom = normalize_linear({"y": Fraction(1)}, ">=", Fraction(2))
        assert atom.relation is Relation.LE
        assert atom.coeff_map() == {"y": Fraction(-1)}
        assert atom.bound == Fraction(-2)

    def test_flip_preserves_truth_on_random_points(self):
        rng = random.Random(7)
        atom = normalize_linear({"y": Fraction(1)}, ">=", Fraction(2))
        for _ in range(10):
            y = Fraction(rng.randint(-50, 50), rng.randint(1, 9))
            assert evaluate_atom(atom, {"y": y}) == (y >= 2)

    def test_coefficients_made_coprime(self):
        atom = normalize_linear({"x": Fraction(4), "y": Fraction(-6)}, "<=", Fraction(10))
        assert atom.coeff_map() == {"x": Fraction(2), "y": Fraction(-3)}
        assert atom.bound == Fraction(5)

    def test_fractional_coefficients_cleared(self):
        atom = normalize_linear({"x": Fraction(1, 2)}, "<", Fraction(1, 3))
        assert atom.coeff_map() == {"x": Fraction(1)}
        assert atom.bound == Fraction(2, 3)

    def test_equality_sign_canonical(self):
        a = normalize_linear({"x": Fraction(-1)}, "=", Fraction(-1))
        b = normalize_linear({"x": Fraction(1)}, "=", Fraction(1))
        assert a == b
        assert a.coeff_map()["x"] > 0

    def test_inequality_sign_not_flipped(self):
        # LE cannot flip sign without changing meaning
        atom = normalize_linear({"x": Fraction(-2)}, "<=", Fraction(0))
        assert atom.coeff_map() == {"x": Fraction(-1)}

    def test_constant_rows_fold(self):
        assert normalize_linear({}, "<", Fraction(0)) is False
        assert normalize_linear({}, "<=", Fraction(0)) is True
        assert normalize_linear({"x": Fraction(0)}, "=", Fraction(0)) is True

    @given(
        st.dictionaries(
            st.sampled_from(["x", "y", "z"]),
            st.fractions(min_value=-9, max_value=9),
            min_size=1,
            max_size=3,
        ),
        st.sampled_from(["<=", "<", ">=", ">", "="]),
        st.fractions(min_value=-9, max_value=9),
    )
    @settings(max_examples=150, deadline=None)
    def test_idempotent_and_truth_preserving(self, coeffs, op, bound):
        atom = normalize_linear(coeffs, op, bound)
        if isinstance(atom, bool):
            zero = {n: Fraction(0) for n in coeffs}
            if all(c == 0 for c in coeffs.values()):
                assert atom == evaluate_raw(coeffs, op, bound, zero)
            return
        again = normalize_linear(atom.coeff_map(), atom.relation.value, atom.bound)
        assert again == atom
        rng = random.Random(42)
        for _ in range(5):
            point = {n: Fraction(rng.randint(-40, 40), rng.randint(1, 7)) for n in coeffs}
            assert evaluate_atom(atom, point) == evaluate_raw(coeffs, op, bound, point)


class TestBank:
    def test_hash_consing_shares_ids(self):
        bank = TermBank()
        x = bank.bool_atom("p")
        a = bank.and_([x, bank.not_(x)])
        b = bank.and_([x, bank.not_(x)])
        assert a is b

    def test_constant_folding(self):
        bank = TermBank()
        p = bank.bool_atom("p")
        assert bank.and_([p, bank.const(False)]) is bank.const(False)
        assert bank.or_([p, bank.const(True)]) is bank.const(True)
        assert bank.and_([bank.const(True)]) is bank.const(True)
        assert bank.not_(bank.not_(p)) is p
        assert bank.and_([p]) is p
        assert bank.iff(bank.const(True), p) is p
        assert bank.ite(bank.const(False), p, bank.not_(p)).kind is TermKind.NOT

    def test_empty_connectives(self):
        bank = TermBank()
        assert bank.and_([]) is bank.const(True)
        assert bank.or_([]) is bank.const(False)


class TestSexpr:
    def test_fraction_forms(self):
        assert fraction_sexpr(Fraction(3)) == "3"
        assert fraction_sexpr(Fraction(-3)) == "(- 3)"
        assert fraction_sexpr(Fraction(1, 2)) == "(/ 1 2)"
        assert fraction_sexpr(Fraction(-1, 2)) == "(- (/ 1 2))"

    def test_atom_rendering_round_trips(self):
        atom = normalize_linear(
            {"x": Fraction(2), "y": Fraction(-1)}, "<", Fraction(3)
        )
        assert linear_atom_sexpr(atom) == "(< (+ (* 2 x) (* (- 1) y)) 3)"
