import itertools
from functools import reduce

import pytest

from qlink import aw
from qlink.laurent import LaurentPoly
from qlink.rmatrix import braided_r, braided_r_inv
from qlink.tensorop import (
    HALF,
    Shape,
    Spin,
    as_scalar,
    compose,
    embed,
    identity,
)
from qlink.uqsu2 import casimir, chi

Q = LaurentPoly.q_power

SMALL_SHAPES = [Shape.of(1, 1, 1), Shape.of(1, 2, 1), Shape.of(2, 1, 2)]


@pytest.fixture(autouse=True)
def fresh_cache():
    aw.clear_cache()
    yield
    aw.clear_cache()


class TestElements:
    def test_single_leg_scalars(self):
        shape = Shape.of(1, 2, 3)
        assert as_scalar(aw.q_elem("1", shape)) == chi(HALF)
        assert as_scalar(aw.q_elem("2", shape)) == chi(Spin(2))
        assert as_scalar(aw.q_elem("3", shape)) == chi(Spin(3))

    def test_adjacent_block_annihilator(self):
        shape = Shape.of(1, 1, 2)
        q12 = aw.q_elem("12", shape)
        prod = compose(q12 - identity(shape) * chi(Spin(0)), q12 - identity(shape) * chi(Spin(2)))
        assert prod.is_zero()

    def test_three_leg_annihilator(self):
        shape = Shape.of(1, 1, 1)
        q123 = aw.q_elem("123", shape)
        prod = compose(
            q123 - identity(shape) * chi(Spin(1)), q123 - identity(shape) * chi(Spin(3))
        )
        assert prod.is_zero()

    def test_recoupled_block_shapes(self):
        shape = Shape.of(1, 2, 3)
        for index in ("13", "13~"):
            op = aw.q_elem(index, shape)
            assert op.shape_in == shape and op.shape_out == shape

    def test_index_normalization(self):
        shape = Shape.of(1, 1, 1)
        with pytest.raises(ValueError):
            aw.q_elem("13t", shape)
        with pytest.raises(ValueError):
            aw.q_elem("14", shape)


class TestTraceRoute:
    def test_single_leg_reproduces_casimir(self):
        shape = Shape.of(1, 2, 1)
        got = aw.q_elem_trace("1", shape)
        assert got == embed(casimir(HALF), (0,), shape)

    @pytest.mark.parametrize("tj", range(0, 5))
    def test_one_leg_trace(self, tj):
        assert aw.casimir_trace(Spin(tj)) == casimir(Spin(tj))

    @pytest.mark.parametrize("pair", [(0, 0), (1, 1), (1, 2), (2, 2), (3, 4), (4, 4)])
    def test_two_leg_trace(self, pair):
        from qlink.uqsu2 import casimir_rep

        j1, j2 = Spin(pair[0]), Spin(pair[1])
        assert aw.delta_casimir_trace(j1, j2) == casimir_rep(Shape((j1, j2)))

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_routes_agree(self, shape):
        report = aw.verify_routes(shape)
        assert report.passed, report.summary()
        assert len(report.checks) == 7

    def test_index_three_falls_back(self):
        shape = Shape.of(1, 1, 1)
        assert aw.q_elem_trace("3", shape) == aw.q_elem("3", shape)


class TestRelations:
    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_relations_hold(self, shape):
        report = aw.verify_aw(shape)
        assert report.passed, report.summary()

    def test_corrupted_recoupling_is_flagged(self):
        shape = Shape.of(1, 1, 1)
        q = {name: aw.q_elem(name, shape) for name in ("1", "2", "3", "12", "23", "13", "123")}
        q["13"] = q["13"] + identity(shape)
        residuals = aw.aw_residuals(q, identity(shape))
        assert not residuals["AW1"].is_zero()
        assert residuals["AW1"].nnz() > 0

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_expansion(self, shape):
        report = aw.verify_expansion(shape)
        assert report.passed, report.summary()

    def test_adjacent_blocks_do_not_commute(self):
        shape = Shape.of(1, 1, 1)
        q12, q23 = aw.q_elem("12", shape), aw.q_elem("23", shape)
        assert compose(q12, q23) != compose(q23, q12)

    def test_central_elements_commute_with_blocks(self):
        shape = Shape.of(1, 2, 1)
        blocks = [aw.q_elem(i, shape) for i in ("12", "23", "13", "13~")]
        for central in ("1", "2", "3", "123"):
            c = aw.q_elem(central, shape)
            for b in blocks:
                assert compose(c, b) == compose(b, c)


class TestSpectra:
    def test_block_on_mixed_pair(self):
        shape = Shape.of(1, 2, 1)
        spins = aw.spectrum_twice_spins("12", shape)
        assert spins == [1, 3]
        assert aw.spectrum_report("12", shape).passed

    def test_recoupled_spectrum_ignores_middle_leg(self):
        shape = Shape.of(1, 2, 1)
        assert aw.spectrum_twice_spins("13", shape) == [0, 2]
        assert aw.spectrum_report("13", shape).passed
        assert aw.spectrum_report("13~", shape).passed

    def test_three_leg_spectrum(self):
        shape = Shape.of(1, 1, 1)
        assert aw.spectrum_twice_spins("123", shape) == [1, 3]
        assert aw.spectrum_report("123", shape).passed

    @pytest.mark.parametrize("index", ["12", "23", "13", "13~", "123"])
    def test_spectrum_is_exact(self, index):
        # The product over the listed spins annihilates the block, and no
        # shorter product does: each listed eigenvalue really occurs.
        for tjs in itertools.product(range(3), repeat=3):
            shape = Shape.of(*tjs)
            op, one = aw.q_elem(index, shape), identity(shape)
            factors = [op - one * chi(Spin(tj)) for tj in aw.spectrum_twice_spins(index, shape)]
            assert reduce(compose, factors).is_zero(), shape
            for k in range(len(factors)):
                assert not reduce(compose, factors[:k] + factors[k + 1 :], one).is_zero(), (shape, k)

    def test_scalar_indices_rejected(self):
        with pytest.raises(ValueError):
            aw.spectrum_twice_spins("1", Shape.of(1, 1, 1))


class TestStructure:
    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_centrality(self, shape):
        report = aw.verify_centrality(shape)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("shape", SMALL_SHAPES + [Shape.of(1, 2, 3)], ids=str)
    def test_conjugation_dictionary(self, shape):
        report = aw.conjugation_dictionary(shape)
        assert report.passed, report.summary()

    def test_recoupling_is_braiding_conjugate_of_block(self):
        # Explicit sandwich on a mixed shape, exercising the swapped middle shape.
        shape = Shape.of(1, 2, 3)
        j1, j2, j3 = shape.factors
        swapped = Shape((j1, j3, j2))
        up = embed(braided_r(j2, j3), (1, 2), shape)
        down = embed(braided_r_inv(j2, j3), (1, 2), swapped)
        middle = aw.iterated_casimir(swapped, (0, 1))
        assert aw.q_elem("13", shape) == compose(down, compose(middle, up))

    def test_inverse_recoupling_is_braiding_conjugate_of_block(self):
        shape = Shape.of(1, 2, 3)
        j1, j2, j3 = shape.factors
        swapped = Shape((j1, j3, j2))
        up = embed(braided_r_inv(j3, j2), (1, 2), shape)
        down = embed(braided_r(j3, j2), (1, 2), swapped)
        middle = aw.iterated_casimir(swapped, (0, 1))
        assert aw.q_elem("13~", shape) == compose(down, compose(middle, up))

    def test_conjugation_readings_match_explicit_sandwiches(self):
        shape = Shape.of(1, 2, 3)
        j1, j2, j3 = shape.factors
        swapped12, mid = Shape((j2, j1, j3)), Shape((j2, j3, j1))
        q23 = aw.iterated_casimir(swapped12, (1, 2))
        # Q13 = Rhat12 Q23 Rhat12^-1.
        up, down = embed(braided_r_inv(j2, j1), (0, 1), shape), embed(braided_r(j2, j1), (0, 1), swapped12)
        sandwich = compose(down, compose(q23, up))
        assert aw._conjugated((-1,), (1, 2), shape) == sandwich == aw.q_elem("13", shape)
        # Q~13 = Rhat12^-1 Q23 Rhat12.
        up, down = embed(braided_r(j1, j2), (0, 1), shape), embed(braided_r_inv(j1, j2), (0, 1), swapped12)
        sandwich = compose(down, compose(q23, up))
        assert aw._conjugated((1,), (1, 2), shape) == sandwich == aw.q_elem("13~", shape)
        # Q23 = Rhat12^-1 Rhat23^-1 Q12 Rhat23 Rhat12.
        up = compose(embed(braided_r(j1, j3), (1, 2), swapped12), embed(braided_r(j1, j2), (0, 1), shape))
        down = compose(embed(braided_r_inv(j1, j2), (0, 1), swapped12), embed(braided_r_inv(j1, j3), (1, 2), mid))
        sandwich = compose(down, compose(aw.iterated_casimir(mid, (0, 1)), up))
        assert aw._conjugated((1, 2), (0, 1), shape) == sandwich == aw.q_elem("23", shape)


class TestSweeps:
    def test_relations_hold_on_every_small_shape(self):
        # Zero residual for every triple with all twice-spins <= 3.
        for ta in range(4):
            for tb in range(4):
                for tc in range(4):
                    report = aw.verify_aw(Shape.of(ta, tb, tc))
                    assert report.passed, report.summary()

    def test_routes_agree_on_every_smaller_shape(self):
        for ta in range(3):
            for tb in range(3):
                for tc in range(3):
                    report = aw.verify_routes(Shape.of(ta, tb, tc))
                    assert report.passed, report.summary()


class TestPPropositionsAndTL:
    def test_p_propositions(self):
        report = aw.verify_p_propositions()
        assert report.passed, report.summary()

    def test_tl_iso(self):
        report = aw.verify_tl_iso()
        assert report.passed, report.summary()

    def test_verify_all_wrapper(self):
        report = aw.verify_all(Shape.of(1, 1, 1))
        assert report.passed
        assert len(report.checks) > 20
