import itertools
import re
from functools import reduce

import pytest

from qlink import aw, rmatrix
from qlink.laurent import LaurentPoly
from qlink.report import Report
from qlink.tensorop import (
    HALF,
    Operator,
    Shape,
    Spin,
    act_adjacent,
    compose,
    embed,
    identity,
    partial_trace_first,
)
from qlink.uqsu2 import casimir_rep, chi

from conftest import corrupted
from oracles import (
    TRACE_PRODUCTS,
    as_scalar,
    aux_shape_trace,
    aw_residuals_by_products,
    casimir,
    conjugation_sandwich,
    loop_word,
    rep_qh,
)

Q = LaurentPoly.q_power
V = LaurentPoly.v_power

SMALL_SHAPES = [Shape.of(1, 1, 1), Shape.of(1, 2, 1), Shape.of(2, 1, 2)]
FOUR_LEG_SHAPES = [Shape.of(1, 1, 1, 1), Shape.of(1, 2, 1, 3)]


def every_index(n: int) -> list[str]:
    """Every block of n legs, each with and without "~"."""
    blocks = ["".join(c) for r in range(1, n + 1) for c in itertools.combinations("123456789"[:n], r)]
    return [name + tilde for name in blocks for tilde in ("", "~")]

# (letters, span) of every braiding conjugation aw builds: Q13 and Q~13, and
# the three readings of the conjugation dictionary.
CONJUGATIONS = [((2,), (0, 1)), ((-2,), (0, 1)), ((-1,), (1, 2)), ((1,), (1, 2)), ((1, 2), (0, 1))]


def conjugation_dictionary(shape: Shape) -> Report:
    """
    The braiding conjugations relating the recoupled elements to the adjacent
    blocks: Q13 = Rhat12 Q23 Rhat12^-1, Q~13 = Rhat12^-1 Q23 Rhat12, and the
    two-step form Q23 = Rhat12^-1 Rhat23^-1 Q12 Rhat23 Rhat12, each read with
    the middle element built on the appropriately permuted shape.
    """
    report = Report(f"conjugation dictionary {shape}")
    report.add("Q13 = Rhat12 Q23 Rhat12^-1 (shape-aware)", aw.q_elem("13", shape) - aw._conjugated((-1,), (1, 2), shape))
    report.add("Q~13 = Rhat12^-1 Q23 Rhat12 (shape-aware)", aw.q_elem("13~", shape) - aw._conjugated((1,), (1, 2), shape))
    report.add(
        "Q23 = Rhat12^-1 Rhat23^-1 Q12 Rhat23 Rhat12 (shape-aware)",
        aw.q_elem("23", shape) - aw._conjugated((1, 2), (0, 1), shape),
    )
    return report


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
        # Leg digits strictly increasing, each at most the leg count, then at
        # most one "~"; the message names the index.
        refused = [(index, shape) for index in ("", "~", "0", "31", "11", "1~~", "12x", "14")]
        for index, legs in refused + [("5", Shape.of(1, 1, 1, 1))]:
            for build in (aw.q_elem, aw.q_elem_trace, aw.spectrum_twice_spins):
                with pytest.raises(ValueError, match=re.escape(repr(index))):
                    build(index, legs)
        assert aw.q_elem(13, shape) == aw.q_elem("13", shape)
        assert aw.q_elem_trace(13, shape) == aw.q_elem_trace("13", shape)


class TestTraceRoute:
    def test_single_leg_reproduces_casimir(self):
        shape = Shape.of(1, 2, 1)
        got = aw.q_elem_trace("1", shape)
        assert got == embed(casimir(HALF), (0,), shape)

    @pytest.mark.parametrize("tj", range(0, 5))
    def test_one_leg_trace(self, tj):
        assert aw.q_elem_trace("1", Shape((Spin(tj),))) == casimir(Spin(tj))

    @pytest.mark.parametrize("pair", [(0, 0), (1, 1), (1, 2), (2, 2), (3, 4), (4, 4)])
    def test_two_leg_trace(self, pair):
        shape = Shape.of(*pair)
        assert aw.q_elem_trace("12", shape) == casimir_rep(shape)

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_routes_agree(self, shape):
        report = aw.verify_routes(shape)
        assert report.passed, report.summary()
        assert len(report.checks) == 7

    @pytest.mark.parametrize("index", aw.AW_INDICES)
    def test_contraction_equals_the_aux_shape_product(self, index):
        # Every ordered triple with 2j <= 3 on each leg, and one larger one.
        shapes = [Shape.of(*tjs) for tjs in itertools.product(range(4), repeat=3)] + [Shape.of(4, 3, 2)]
        formula = TRACE_PRODUCTS[index]
        for shape in shapes:
            assert aw.q_elem_trace(index, shape) == aux_shape_trace(formula, shape), shape

    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_index_three_by_trace_route(self, shape):
        # The one index verify_routes leaves out: the auxiliary strand passes
        # over legs 1 and 2 on its way to leg 3 and back.
        assert aw.q_elem_trace("3", shape) == aw.q_elem("3", shape)


def loop(index: str, a: Spin, shape: Shape) -> Operator:
    """
    The closed loop of spin a around the index's block: `loop_word` applied to
    the identity on (a, j1..j_top), the first leg traced against q^(2H) on
    spin a, and the result embedded in `shape`.
    """
    top = max(int(digit) for digit in index.rstrip("~"))
    legs = Shape((a,) + shape.factors[:top])
    word = act_adjacent(rmatrix.word_steps(loop_word(index), legs.factors)[0], identity(legs))
    closed = partial_trace_first(word, rep_qh(a, 2))
    return embed(closed, range(top), shape)


def chebyshev(n: int, q: Operator) -> Operator:
    """S_n(Q) by S_0 = 1, S_1 = Q, S_(k+1) = Q S_k - S_(k-1)."""
    prev, cur = identity(q.shape_in), q
    for _ in range(n - 1):
        prev, cur = cur, compose(q, cur) - prev
    return cur if n else prev


LOOP_SHAPES = [Shape.of(1, 1, 1), Shape.of(1, 2, 3), Shape.of(2, 1, 1), Shape.of(0, 3, 1)]


class TestLoops:
    def test_loop_words(self):
        words = {index: " ".join(map(str, loop_word(index))) for index in aw.AW_INDICES}
        assert words == {
            "1": "1 1",
            "2": "-1 2 2 1",
            "3": "-1 -2 3 3 2 1",
            "12": "1 2 2 1",
            "23": "-1 2 3 3 2 1",
            "123": "1 2 3 3 2 1",
            "13": "1 -2 3 3 2 1",
            "13~": "1 2 3 3 -2 1",
        }

    @pytest.mark.parametrize("shape", LOOP_SHAPES, ids=str)
    @pytest.mark.parametrize("index", aw.AW_INDICES)
    def test_colored_loop_is_chebyshev_of_generator(self, index, shape):
        # The spin-1/2 loop is the generator, and the spin-a loop is S_2a of it:
        # Q, Q^2 - 1 and Q^3 - 2Q for a = 1/2, 1 and 3/2.
        q = aw.q_elem(index, shape)
        for ta in (1, 2, 3):
            assert loop(index, Spin(ta), shape) == chebyshev(ta, q), ta

    def test_fundamental_loop_on_every_small_shape(self):
        for tjs in itertools.product(range(4), repeat=3):
            shape = Shape.of(*tjs)
            for index in aw.AW_INDICES:
                assert loop(index, HALF, shape) == aw.q_elem(index, shape), (index, shape)

    def test_loop_tells_the_recoupled_pair_apart(self):
        shape = Shape.of(1, 1, 1)
        assert loop("13", HALF, shape) != aw.q_elem("13~", shape)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_rule_reads_the_oracle_word(self, n):
        for index in every_index(n):
            assert aw._loop_word(index) == loop_word(index), index

    @pytest.mark.parametrize("shape", FOUR_LEG_SHAPES, ids=str)
    def test_both_routes_are_the_loop_on_four_legs(self, shape):
        for index in every_index(4):
            assert aw.q_elem(index, shape) == aw.q_elem_trace(index, shape) == loop(index, HALF, shape), index


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

    def test_recoupled_elements_read_an_injected_braiding(self):
        # Q13 and Q~13 are conjugated by braided R, so an R-matrix injected
        # after rmatrix.clear_cache() must reach them without aw.clear_cache().
        shape = Shape.of(1, 1, 1)
        assert aw.verify_aw(shape).passed
        good = rmatrix.r_matrix(HALF, HALF)
        with corrupted(("R", 1, 1), good, (3, 3), good.entries[(3, 3)] * V(4), clear=rmatrix.clear_cache):
            assert not aw.verify_aw(shape).passed
        assert aw.verify_aw(shape).passed

    @pytest.mark.parametrize("blocks", ["1|2|34", "1|23|4", "12|3|4", "1|3|4"])
    def test_relations_hold_for_blocks_of_four_legs(self, blocks):
        # Loops around blocks A < B < C of (1/2)^4 in the roles of legs 1, 2, 3.
        a, b, c = blocks.split("|")
        shape = Shape.of(1, 1, 1, 1)
        names = {"1": a, "2": b, "3": c, "12": a + b, "23": b + c, "13": a + c, "123": a + b + c}
        q = {role: aw.q_elem("".join(sorted(name)), shape) for role, name in names.items()}
        residuals = aw.aw_residuals(q, identity(shape))
        assert all(res.is_zero() for res in residuals.values())
        if blocks == "12|3|4":
            # The loop under leg 3 in the role of Q_AC breaks all four.
            broken = aw.aw_residuals({**q, "13": aw.q_elem("124~", shape)}, identity(shape))
            assert not any(res.is_zero() for res in broken.values())

    @pytest.mark.parametrize("shape", SMALL_SHAPES + [Shape.of(3, 3, 3)], ids=str)
    def test_residuals_match_operator_arithmetic(self, shape):
        # The one-pass sums against the operator-by-operator oracle, on the
        # true generators and on five corruptions of them: Q13 times v puts
        # contributions to one cell at odd exponent gaps, so the packed pass
        # reruns at stride 1, and Q123 times 2^70 needs a digit wider than
        # 64 bits.
        q = {name: aw.q_elem(name, shape) for name in ("1", "2", "3", "12", "23", "13", "123")}
        (r, c), p = min(q["123"].entries.items())
        perturbed = Operator(shape, shape, {**q["123"].entries, (r, c): p + 1})
        assignments = {
            "clean": q,
            "Q13 scaled by q": {**q, "13": q["13"] * Q(1)},
            "Q12 and Q23 swapped": {**q, "12": q["23"], "23": q["12"]},
            "one entry of Q123 perturbed": {**q, "123": perturbed},
            "Q13 scaled by v": {**q, "13": q["13"] * V(1)},
            "Q123 scaled by 2**70": {**q, "123": q["123"] * 2**70},
        }
        one = identity(shape)
        for label, assignment in assignments.items():
            residuals = aw.aw_residuals(assignment, one)
            assert residuals == aw_residuals_by_products(assignment, one), label
            assert (label == "clean") == all(res.is_zero() for res in residuals.values()), label

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

    def test_spectrum_of_a_gathered_block_on_four_legs(self):
        shape = Shape.of(1, 2, 1, 1)
        assert aw.spectrum_twice_spins("134", shape) == [1, 3]
        assert aw.spectrum_report("134", shape).passed
        assert aw.spectrum_report("14~", shape).passed


class TestStructure:
    @pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
    def test_centrality(self, shape):
        report = aw.verify_centrality(shape)
        assert report.passed, report.summary()

    @pytest.mark.parametrize("shape", SMALL_SHAPES + [Shape.of(1, 2, 3)], ids=str)
    def test_conjugation_dictionary(self, shape):
        report = conjugation_dictionary(shape)
        assert report.passed, report.summary()

    def test_recoupling_is_braiding_conjugate_of_block(self):
        # On a mixed shape, so the middle Casimir lives on the swapped shape.
        shape = Shape.of(1, 2, 3)
        assert aw.q_elem("13", shape) == conjugation_sandwich((2,), (0, 1), shape)

    def test_inverse_recoupling_is_braiding_conjugate_of_block(self):
        shape = Shape.of(1, 2, 3)
        assert aw.q_elem("13~", shape) == conjugation_sandwich((-2,), (0, 1), shape)

    def test_conjugation_readings_match_explicit_sandwiches(self):
        shape = Shape.of(1, 2, 3)
        # Q13 = Rhat12 Q23 Rhat12^-1, Q~13 = Rhat12^-1 Q23 Rhat12 and
        # Q23 = Rhat12^-1 Rhat23^-1 Q12 Rhat23 Rhat12.
        for letters, span, index in (((-1,), (1, 2), "13"), ((1,), (1, 2), "13~"), ((1, 2), (0, 1), "23")):
            sandwich = conjugation_sandwich(letters, span, shape)
            assert aw._conjugated(letters, span, shape) == sandwich == aw.q_elem(index, shape), letters

    @pytest.mark.parametrize("letters, span", CONJUGATIONS, ids=str)
    def test_conjugated_equals_the_embedded_sandwich(self, letters, span):
        # Every ordered triple with 2j <= 3 on each leg.
        for tjs in itertools.product(range(4), repeat=3):
            shape = Shape.of(*tjs)
            assert aw._conjugated(letters, span, shape) == conjugation_sandwich(letters, span, shape), shape


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
