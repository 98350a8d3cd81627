import itertools
import re
from fractions import Fraction

import pytest

from qlink.laurent import LaurentPoly, qint
from qlink.rmatrix import m_matrix
from qlink.tensorop import (
    HALF,
    Operator,
    Shape,
    ShapeError,
    Spin,
    compose,
    embed,
    identity,
    kron,
)
from qlink.uqsu2 import casimir_rep, chi, delta_rep, iterated_casimir

from oracles import as_scalar, casimir, casimir_fold, coproduct_fold, rep_e, rep_f, rep_qh, shape_twice_weights, spin_twice_weights

V = LaurentPoly.v_power
Q = LaurentPoly.q_power
ONE = LaurentPoly.one()

# (kind, power) of E, F and q^H, as delta_rep takes them.
GENERATORS = [("E", 1), ("F", 1), ("QH", 1)]


def diagonal(shape, diag):
    return Operator(shape, shape, {(i, i): c for i, c in enumerate(diag)})


class TestGeneratorMatrices:
    def test_raising_on_fundamental(self):
        assert rep_e(HALF).entries == {(0, 1): ONE}
        assert rep_f(HALF).entries == {(1, 0): ONE}

    def test_trivial_space(self):
        assert rep_e(Spin(0)).is_zero()
        assert rep_f(Spin(0)).is_zero()

    def test_raising_on_spin_one(self):
        op = rep_e(Spin(2))
        assert op.entries == {(0, 1): qint(1), (1, 2): qint(2)}

    def test_weight_matrix(self):
        assert rep_qh(HALF, 2) == diagonal(Shape((HALF,)), [Q(1), Q(-1)])
        assert rep_qh(Spin(4), 0) == identity(Shape((Spin(4),)))

    def test_half_power_on_half_integer_spin_rejected(self):
        with pytest.raises(ValueError):
            rep_qh(HALF, Fraction(1, 2))


class TestDefiningRelations:
    @pytest.mark.parametrize("tj", range(0, 7))
    def test_exchange_relations(self, tj):
        j = Spin(tj)
        e, f, qh = rep_e(j), rep_f(j), rep_qh(j, 1)
        assert compose(qh, e) == compose(e, qh) * Q(1)
        assert compose(qh, f) == compose(f, qh) * Q(-1)
        commutator = compose(e, f) - compose(f, e)
        weight_bracket = diagonal(Shape((j,)), [qint(tm) for tm in spin_twice_weights(j)])
        assert commutator == weight_bracket

    @pytest.mark.parametrize("tj", range(0, 7))
    def test_casimir_scalar_and_central(self, tj):
        j = Spin(tj)
        c = casimir(j)
        assert as_scalar(c) == chi(j)
        for op in (rep_e(j), rep_f(j), rep_qh(j, 1)):
            assert compose(c, op) == compose(op, c)

    def test_casimir_values(self):
        assert as_scalar(casimir(Spin(0))) == Q(1) + Q(-1)
        assert as_scalar(casimir(HALF)) == Q(2) + Q(-2)
        assert as_scalar(casimir(Spin(2))) == Q(3) + Q(-3)


class TestCoproduct:
    def test_weight_coproduct_is_grouplike(self):
        op = delta_rep("QH", Shape((HALF, HALF)))
        assert op == diagonal(Shape((HALF, HALF)), [Q(1), Q(0), Q(0), Q(-1)])

    def test_trivial_leg_factors_through(self):
        j = Spin(3)
        op = delta_rep("E", Shape((Spin(0), j)))
        assert op == kron(identity(Shape((Spin(0),))), rep_e(j))

    def test_raising_coproduct_entries_on_two_halves(self):
        op = delta_rep("E", Shape((HALF, HALF)))
        # The doubly-lowered vector maps up with weights q^(1/2), q^(-1/2).
        assert op.entries == {(1, 3): V(1), (2, 3): V(-1), (0, 1): V(1), (0, 2): V(-1)}

    @pytest.mark.parametrize("pair", [(1, 2), (2, 2), (1, 3)])
    def test_coproduct_is_an_algebra_map(self, pair):
        shape = Shape.of(*pair)
        e = delta_rep("E", shape)
        f = delta_rep("F", shape)
        qh = delta_rep("QH", shape)
        assert compose(qh, e) == compose(e, qh) * Q(1)
        assert compose(qh, f) == compose(f, qh) * Q(-1)
        bracket = compose(e, f) - compose(f, e)
        assert bracket == diagonal(shape, [qint(total) for total in shape_twice_weights(shape)])

    @pytest.mark.parametrize("sym", GENERATORS)
    @pytest.mark.parametrize("triple", [(1, 1, 1), (1, 2, 1), (2, 1, 2)])
    def test_coassociativity(self, sym, triple):
        kind, _ = sym
        shape = Shape.of(*triple)
        whole = delta_rep(kind, shape)
        head, tail = Shape(shape.factors[:1]), Shape(shape.factors[1:])
        if kind == "QH":
            right_fold = kron(delta_rep(kind, head), delta_rep(kind, tail))
        else:
            right_fold = kron(delta_rep(kind, head), delta_rep("QH", tail, -1)) + kron(
                delta_rep("QH", head), delta_rep(kind, tail)
            )
        assert whole == right_fold

    def test_equals_the_kron_fold(self):
        # Every shape with 1-3 legs and 2j <= 3 on each leg, and two 4-leg shapes.
        shapes = [Shape.of(*tjs) for legs in (1, 2, 3) for tjs in itertools.product(range(4), repeat=legs)]
        shapes += [Shape.of(1, 2, 1, 3), Shape.of(2, 0, 3, 1)]
        for shape in shapes:
            for kind, power in (("E", 1), ("F", 1), *(("QH", k) for k in (-2, -1, 1, 2))):
                assert delta_rep(kind, shape, power) == coproduct_fold(kind, shape, power), (kind, power, shape)

    def test_empty_shape_rejected(self):
        for kind, power in GENERATORS:
            with pytest.raises(ShapeError):
                delta_rep(kind, Shape(()), power)


class TestIteratedCasimir:
    @pytest.mark.parametrize("span, message", [((), "span must be non-empty"), ((1, 3), "outside shape of 3")])
    def test_span_outside_shape_rejected(self, span, message):
        with pytest.raises(ShapeError, match=re.escape(message)):
            iterated_casimir(Shape.of(1, 1, 1), span)

    def test_single_leg_is_embedded_casimir(self):
        shape = Shape.of(1, 2, 3)
        assert iterated_casimir(shape, (0,)) == embed(casimir(HALF), (0,), shape)
        assert iterated_casimir(shape, (1,)) == embed(casimir(Spin(2)), (1,), shape)

    def test_two_leg_annihilating_product(self):
        for third in (0, 1, 2):
            shape = Shape.of(1, 1, third)
            q12 = iterated_casimir(shape, (0, 1))
            prod = compose(q12 - identity(shape) * chi(Spin(0)), q12 - identity(shape) * chi(Spin(2)))
            assert prod.is_zero()

    def test_three_leg_annihilating_product(self):
        shape = Shape.of(1, 1, 1)
        q123 = iterated_casimir(shape, (0, 1, 2))
        prod = compose(
            q123 - identity(shape) * chi(Spin(1)), q123 - identity(shape) * chi(Spin(3))
        )
        assert prod.is_zero()

    def test_casimir_rep_matches_single_leg(self):
        assert casimir_rep(Shape.of(3)) == casimir(Spin(3))

    def test_non_contiguous_span_rejected(self):
        with pytest.raises(ShapeError):
            iterated_casimir(Shape.of(1, 1, 1), (0, 2))

    @pytest.mark.parametrize("legs", [1, 2, 3])
    def test_equals_the_coproduct_fold(self, legs):
        # Every contiguous span of every shape with 2j <= 3 on each leg.
        shapes = [Shape.of(*tjs) for tjs in itertools.product(range(4), repeat=legs)]
        if legs == 3:
            shapes.append(Shape.of(4, 3, 2))
        for shape in shapes:
            for first in range(legs):
                for last in range(first, legs):
                    span = tuple(range(first, last + 1))
                    assert iterated_casimir(shape, span) == casimir_fold(shape, span), (shape, span)

    def test_central_on_pair(self):
        shape = Shape.of(1, 2)
        c = casimir_rep(shape)
        for kind, power in GENERATORS:
            img = delta_rep(kind, shape, power)
            assert compose(c, img) == compose(img, c)


class TestSymbols:
    def test_symbol_validation(self):
        with pytest.raises(ValueError, match="unknown generator kind 'X'"):
            delta_rep("X", Shape.of(1))

    def test_mu_is_square_of_weight(self):
        for j in (HALF, Spin(3)):
            qh = delta_rep("QH", Shape((j,)))
            assert delta_rep("QH", Shape((j,)), 2) == compose(qh, qh)
        assert m_matrix() == diagonal(Shape((HALF,)), [Q(1), Q(-1)])
