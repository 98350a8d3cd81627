import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    as_scalar,
    casimir,
    entrywise_full_trace,
    entrywise_kron,
    entrywise_product,
    entrywise_sum,
    embed_by_digits,
    operator_from_json,
    rep_qh,
    shape_twice_weights,
    spin_twice_weights,
    swap,
    unravel,
)
from qlink.laurent import LaurentPoly, qint
from qlink.rmatrix import braided_r, braided_r_inv, r_matrix
from qlink.tensorop import (
    EMPTY_SHAPE,
    HALF,
    InputError,
    Operator,
    Shape,
    ShapeError,
    Spin,
    act_adjacent,
    combine,
    compose,
    embed,
    full_trace,
    identity,
    kron,
    partial_trace_first,
    partial_trace_last,
    parse_spins,
    weighted_trace,
)
from qlink.uqsu2 import chi, commutation_defects

V = LaurentPoly.v_power
Q = LaurentPoly.q_power


class TestSpinAndShape:
    def test_spin_parse_and_str(self):
        assert Spin.parse("1/2") == HALF
        assert Spin.parse("2") == Spin(4)
        assert str(Spin(3)) == "3/2"
        assert str(Spin(4)) == "2"
        with pytest.raises(ValueError):
            Spin.parse("1/3")
        with pytest.raises(ValueError):
            Spin(-1)

    def test_spin_list_parse(self):
        assert parse_spins("1/2, 1,3/2") == (HALF, Spin(2), Spin(3))
        assert parse_spins("") == parse_spins("  ") == ()
        with pytest.raises(InputError, match="not a spin: ''"):
            parse_spins("1/2,")

    def test_weights_descend(self):
        assert spin_twice_weights(Spin(3)) == [3, 1, -1, -3]

    def test_ravel_round_trip(self):
        shape = Shape.of(1, 2, 3)
        assert shape.dim == 2 * 3 * 4
        for index in range(shape.dim):
            assert sum(i * s for i, s in zip(unravel(shape, index), shape.strides())) == index

    def test_first_factor_slowest(self):
        shape = Shape.of(1, 2)
        assert shape.strides() == (3, 1)
        assert unravel(shape, 0) == (0, 0)
        assert unravel(shape, 1) == (0, 1)
        assert unravel(shape, 3) == (1, 0)


def random_operator(rng, shape_in: Shape, shape_out: Shape, fill=4) -> Operator:
    entries = {}
    for _ in range(fill):
        r = rng.randrange(shape_out.dim)
        c = rng.randrange(shape_in.dim)
        entries[(r, c)] = LaurentPoly({rng.randint(-3, 3): rng.randint(-3, 3)})
    return Operator(shape_in, shape_out, entries)


class TestBasics:
    def test_identity_shapes(self):
        assert identity(Shape((HALF,))).nnz() == 2
        assert identity(Shape((HALF, HALF))).nnz() == 4
        empty = identity(EMPTY_SHAPE)
        assert empty.nnz() == 1 and empty.entry(0, 0) == LaurentPoly.one()

    def test_kron_of_identities(self):
        assert kron(identity(Shape((HALF,))), identity(Shape((HALF,)))) == identity(Shape((HALF, HALF)))

    def test_kron_weight_matrices(self):
        m = rep_qh(HALF, 2)
        shape = Shape((HALF, HALF))
        assert kron(m, m) == Operator(shape, shape, {(i, i): c for i, c in enumerate([Q(2), Q(0), Q(0), Q(-2)])})

    def test_kron_unit(self):
        rng = random.Random(0)
        a = random_operator(rng, Shape((HALF,)), Shape((HALF,)))
        assert kron(a, identity(EMPTY_SHAPE)) == a
        assert kron(identity(EMPTY_SHAPE), a) == a

    def test_entries_must_be_a_mapping(self):
        # A list of ((row, col), poly) pairs could repeat a cell; only a
        # mapping, which cannot, is taken.
        shape, one = Shape.of(1), LaurentPoly.one()
        with pytest.raises(AttributeError):
            Operator(shape, shape, [((0, 0), one), ((0, 0), V(1))])

    def test_int_entries_are_constant_polynomials(self):
        # As in LaurentPoly's arithmetic: a later product or the JSON reads the int as a polynomial.
        shape, one = Shape.of(1), LaurentPoly.one()
        op = Operator(shape, shape, {(0, 0): 1, (1, 0): -2, (1, 1): 0})
        same = Operator(shape, shape, {(0, 0): one, (1, 0): LaurentPoly.const(-2)})
        assert op.entries == same.entries
        assert compose(op, op) == compose(same, same) == same
        assert op.to_json() == same.to_json()

    def test_entries_of_another_type_are_rejected(self):
        shape = Shape.of(1)
        with pytest.raises(TypeError, match="str"):
            Operator(shape, shape, {(0, 0): "1"})

    def test_compose_identity_and_mismatch(self):
        rng = random.Random(1)
        a = random_operator(rng, Shape((HALF, HALF)), Shape((HALF, HALF)))
        assert compose(identity(Shape((HALF, HALF))), a) == a
        with pytest.raises(ShapeError):
            compose(a, identity(Shape((HALF,))))


class TestArithmetic:
    # Sums and scalings through `combine`, `-` and kron against the entrywise
    # oracles, on non-square operators: a braiding, whose exponents step by 4,
    # and random operators with two-term entries.
    SRC, DST = Shape.of(1, 2), Shape.of(2, 1)

    def operands(self, seed):
        rng = random.Random(seed)

        def two_term(shape_in, shape_out):
            op = random_operator(rng, shape_in, shape_out, fill=6)
            return Operator(shape_in, shape_out, {rc: p + V(rng.randint(-5, 5)) for rc, p in op.entries.items()})

        a, b, narrow = two_term(self.SRC, self.DST), two_term(self.SRC, self.DST), two_term(Shape.of(2), Shape.of(1))
        return braided_r(HALF, Spin(2)), a, b, narrow

    @pytest.mark.parametrize("seed", range(4))
    def test_sums_and_scalings(self, seed):
        braid, a, b, _ = self.operands(seed)
        copy = Operator(a.shape_in, a.shape_out, dict(a.entries))
        one_off = Operator(a.shape_in, a.shape_out, {**a.entries, (0, 0): a.entry(0, 0) + V(3)})
        for x, y in ((a, b), (braid, a), (a, braid), (a, a), (a, copy), (a, one_off), (braid, braid)):
            total = combine(x.shape_in, x.shape_out, {"sum": [(1, x), (1, y)]})["sum"]
            assert total == entrywise_sum([(1, x), (1, y)])
            assert x - y == entrywise_sum([(1, x), (-1, y)])
        assert (a - copy).nnz() == 0 and (a - one_off).entries == {(0, 0): -V(3)}
        for scalar in (0, 1, -3, 2**70, V(1), Q(1) - Q(-1), LaurentPoly.zero()):
            for x in (a, braid):
                scaled = combine(x.shape_in, x.shape_out, {"scaled": [(scalar, x)]})["scaled"]
                assert scaled == entrywise_sum([(scalar, x)])

    @pytest.mark.parametrize("seed", range(4))
    def test_kron(self, seed):
        braid, a, _, narrow = self.operands(seed)
        unit = identity(EMPTY_SHAPE)
        for x, y in ((a, braid), (braid, narrow), (narrow, a), (narrow, narrow), (a, unit), (unit, narrow)):
            assert kron(x, y) == entrywise_kron(x, y)

    def test_shape_mismatch(self):
        _, a, _, narrow = self.operands(0)
        # Equal entries between other shapes: the comparison that spares the
        # packing of a difference of equal operands does not skip the check.
        transposed_shapes = Operator(self.DST, self.SRC, dict(a.entries))
        for other in (transposed_shapes, identity(self.SRC), narrow):
            with pytest.raises(ShapeError):
                combine(a.shape_in, a.shape_out, {"sum": [(1, a), (1, other)]})
            with pytest.raises(ShapeError):
                a - other
        # `embed` places factors one to one, so an operator that changes its
        # number of factors has no tensor product with another.
        column = Operator(EMPTY_SHAPE, Shape.of(1, 1), {(1, 0): V(1)})
        with pytest.raises(ShapeError):
            kron(column, narrow)


class TestCombine:
    # A braiding-shaped sum: every term maps (1/2, 1) to (1, 1/2).
    SRC, DST = Shape.of(1, 2), Shape.of(2, 1)

    def total(self, terms):
        """The one sum of `terms`, through `combine`."""
        return combine(self.SRC, self.DST, {"sum": terms})["sum"]

    def terms(self, scalars):
        rng = random.Random(7)
        braid = braided_r(HALF, Spin(2))
        mid = random_operator(rng, self.SRC, Shape.of(3), fill=5)
        back = random_operator(rng, Shape.of(3), self.DST, fill=5)
        square = random_operator(rng, self.DST, self.DST, fill=6)
        direct = random_operator(rng, self.SRC, self.DST, fill=4)
        return [(scalars[0], braid), (scalars[1], back, mid), (scalars[2], square, braid), (scalars[3], direct)]

    @pytest.mark.parametrize(
        "scalars",
        [
            (1, -1, 3, 2),
            (Q(1), Q(1) + Q(-1), LaurentPoly({-3: 2}), -V(1)),
            (2, Q(-1), 1, V(5)),
            (1, 2**70, LaurentPoly({2: -(2**70)}), -1),
        ],
        ids=("int", "poly", "mixed", "beyond 2^64"),
    )
    def test_matches_products_and_sums(self, scalars):
        terms = self.terms(scalars)
        expected = entrywise_sum([(scalar, entrywise_product(a, b[0]) if b else a) for scalar, a, *b in terms])
        assert self.total(terms) == expected
        assert expected == entrywise_sum([(scalar, compose(a, b[0]) if b else a) for scalar, a, *b in terms])

    def test_bases_one_apart(self):
        # The braiding's exponents step by 4, so the cells meet bases 1 apart
        # only in the sum, and the pass reruns at stride 1.
        braid = self.terms((1, 1, 1, 1))[0][1]
        assert self.total([(1, braid), (V(1), braid)]) == entrywise_sum([(LaurentPoly.one() + V(1), braid)])

    def test_gap_in_a_later_sum_reruns_the_whole_call(self):
        # "a" alone keeps the braiding's stride 4; the bases first meet 1
        # apart in "b", which reads "a" packed, so the rerun at stride 1 must
        # rebuild "a" and every packed operand rather than reuse them.
        braid = self.terms((1, 1, 1, 1))[0][1]
        got = combine(self.SRC, self.DST, {"a": [(1, braid)], "b": [(V(1), "a"), (1, braid)]})
        assert list(got) == ["b"]
        assert got["b"] == entrywise_sum([(LaurentPoly.one() + V(1), braid)])

    def test_sum_as_left_factor_of_a_narrowing_product(self):
        # Input dimension 3, output dimension 2: a sum read as the left
        # factor is indexed by its 3 input columns, every one of them filled.
        src, dst = Shape.of(2), Shape.of(1)
        narrow = Operator(src, dst, {(r, c): LaurentPoly({r - c: r + 2 * c + 1}) for r in range(2) for c in range(3)})
        square = random_operator(random.Random(10), src, src, fill=6)
        sums = {"p": [(V(1), narrow), (2, narrow, square)], "q": [(Q(1), "p", square), (-1, narrow)]}
        got = combine(src, dst, sums)
        p = entrywise_sum([(V(1), narrow), (2, entrywise_product(narrow, square))])
        assert list(got) == ["q"]
        assert got["q"] == entrywise_sum([(Q(1), entrywise_product(p, square)), (-1, narrow)])

    def test_one_product_is_compose(self):
        _, (_, back, mid), _, _ = self.terms((1, 1, 1, 1))
        assert self.total([(1, back, mid)]) == entrywise_product(back, mid)
        assert compose(back, mid) == entrywise_product(back, mid)
        assert self.total([]) == Operator(self.SRC, self.DST, {})

    def test_cancelling_terms_leave_no_zero_entry(self):
        (_, braid), (_, back, mid), (_, square, _), _ = self.terms((1, 1, 1, 1))
        assert self.total([(Q(1), back, mid), (-Q(1), back, mid)]).nnz() == 0
        partial = self.total([(1, braid), (-1, square, braid), (1, square, braid), (0, square, braid)])
        assert partial == braid
        cut = Operator(self.SRC, self.DST, dict(list(braid.entries.items())[:3]))
        rest = self.total([(V(1), braid), (-V(1), cut)])
        assert rest.nnz() == braid.nnz() - 3 and all(rest.entries.values())
        # A sum that cancels an earlier one entirely.
        sums = {
            "braid": [(V(1), braid), (1, square, braid)],
            "zero": [(1, "braid"), (-V(1), braid), (-1, square, braid)],
        }
        assert combine(self.SRC, self.DST, sums)["zero"].entries == {}

    def test_named_sums_read_earlier_sums(self):
        # Earlier sums as left and as right operands, against products formed
        # one by one; only the sum that no later sum reads comes back.
        rng = random.Random(9)
        square, other, third = (random_operator(rng, self.DST, self.DST, fill=6) for _ in range(3))
        sums = {
            "p": [(V(1), square, other), (2, third)],
            "p on the left": [(Q(1), "p", square), (-1, other)],
            "p on the right": [(1, third, "p"), (V(-1), "p")],
            "product": [(1, "p on the left", "p on the right"), (3, "p")],
        }
        got = combine(self.DST, self.DST, sums)
        assert list(got) == ["product"]
        p = entrywise_sum([(V(1), entrywise_product(square, other)), (2, third)])
        left = entrywise_sum([(Q(1), entrywise_product(p, square)), (-1, other)])
        right = entrywise_sum([(1, entrywise_product(third, p)), (V(-1), p)])
        assert got["product"] == entrywise_sum([(1, entrywise_product(left, right)), (3, p)])
        with pytest.raises(ValueError, match="'later', which is not an earlier sum"):
            combine(self.DST, self.DST, {"early": [(1, "later")], "later": [(1, square)]})

    def test_dense_sums_reach_the_width_bound(self):
        # Every cell of these dense monomial products sums its contributions
        # without cancelling, so each coefficient, 4 * 6^2 = 144, equals its
        # sum's entry bound: a digit one bit narrower, or proven from entry
        # norms alone or from the largest term instead of the sum of terms,
        # would corrupt it.
        dense = Operator(self.DST, self.DST, {(r, c): V(1) for r in range(6) for c in range(6)})
        sums = {"square": [(1, dense, dense)], "sum": [(1, "square", dense)] * 4}
        expected = entrywise_sum([(4, entrywise_product(entrywise_product(dense, dense), dense))])
        assert list(expected.entries.values()) == [LaurentPoly({3: 144})] * 36
        assert combine(self.DST, self.DST, sums)["sum"] == expected

    def test_shared_and_fresh_right_factors(self):
        # One right factor in several terms, then fresh right factors built
        # and dropped term by term, whose ids CPython may hand out again.
        rng = random.Random(8)
        mid = random_operator(rng, self.SRC, Shape.of(3), fill=5)
        backs = [random_operator(rng, Shape.of(3), self.DST, fill=5) for _ in range(3)]
        entries = [dict(random_operator(rng, self.SRC, Shape.of(3), fill=5).entries) for _ in range(4)]

        def terms():
            for back in backs:
                yield (V(1), back, mid)
            for k, cells in enumerate(entries):
                yield (k + 1, backs[k % 3], Operator(self.SRC, Shape.of(3), cells))

        expected = entrywise_sum([(scalar, entrywise_product(a, b)) for scalar, a, b in terms()])
        assert self.total(terms()) == expected

    def test_shape_mismatch_names_both_shapes(self):
        braid = braided_r(HALF, Spin(2))
        with pytest.raises(ShapeError) as err:
            combine(self.DST, self.SRC, {"sum": [(1, braid)]})
        assert "(1/2, 1)" in str(err.value) and "(1, 1/2)" in str(err.value)
        with pytest.raises(ShapeError) as err:
            combine(self.SRC, self.SRC, {"sum": [(1, braid, identity(self.SRC))]})
        assert "term maps (1/2, 1)->(1, 1/2)" in str(err.value) and "(1/2, 1)->(1/2, 1)" in str(err.value)
        with pytest.raises(ShapeError):  # a zero scalar does not skip the check
            combine(self.SRC, self.SRC, {"sum": [(0, braid)]})
        with pytest.raises(ShapeError, match=r"left expects \(1/2, 1\), right produces \(1, 1/2\)"):
            self.total([(1, braid, braid)])


class TestPermute:
    def test_swap_on_two_halves(self):
        op = swap(HALF, HALF)
        one = LaurentPoly.one()
        assert op.entries == {(0, 0): one, (1, 2): one, (2, 1): one, (3, 3): one}

    def test_mixed_swap_shape(self):
        op = swap(HALF, Spin(2))
        assert op.shape_out == Shape.of(2, 1)
        assert op.nnz() == 6
        back = swap(Spin(2), HALF)
        assert compose(back, op) == identity(Shape.of(1, 2))

    def test_composition_law_with_shapes(self):
        # Adjacent exchanges embedded on mixed shapes satisfy s1 s2 s1 = s2 s1 s2,
        # and both reverse the three legs.
        def exchange(i, op):
            legs = op.shape_out
            return compose(embed(swap(legs[i], legs[i + 1]), (i, i + 1), legs), op)

        for tjs in ((1, 2, 0), (1, 2, 3), (2, 1, 2)):
            shape = Shape.of(*tjs)
            lhs = exchange(0, exchange(1, exchange(0, identity(shape))))
            assert lhs == exchange(1, exchange(0, exchange(1, identity(shape))))
            assert lhs.shape_out == Shape.of(*reversed(tjs))


class TestEmbed:
    def test_embed_identity(self):
        shape = Shape.of(1, 2, 1)
        assert embed(identity(Shape.of(2)), (1,), shape) == identity(shape)

    def test_adjacent_embed_matches_kron(self):
        rng = random.Random(3)
        op = random_operator(rng, Shape((HALF, HALF)), Shape((HALF, HALF)))
        ambient = Shape.of(2, 1, 1)
        assert embed(op, (1, 2), ambient) == entrywise_kron(identity(Shape.of(2)), op)

    def test_every_ordered_pair_matches_the_digit_oracle(self):
        # A leg-swapping operator on each ordered pair of distinct legs of a
        # mixed shape, so row and column strides differ on every placement.
        ambient = Shape.of(1, 2, 3)
        for i, j in itertools.permutations(range(3), 2):
            op = braided_r(ambient[i], ambient[j])
            assert embed(op, (i, j), ambient) == embed_by_digits(op, (i, j), ambient)

    def test_reversed_positions(self):
        # Embedding with swapped slots conjugates by the exchange operator.
        rng = random.Random(4)
        op = random_operator(rng, Shape((HALF, Spin(2))), Shape((HALF, Spin(2))))
        ambient = Shape.of(2, 1)
        direct = embed(op, (1, 0), ambient)
        conj = compose(
            swap(HALF, Spin(2)),
            compose(embed(op, (0, 1), Shape.of(1, 2)), swap(Spin(2), HALF)),
        )
        assert direct == conj

    def test_spin_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            embed(identity(Shape((HALF,))), (0,), Shape.of(2, 1))

    def test_position_outside_ambient_rejected(self):
        with pytest.raises(ShapeError, match="position 3 outside ambient of 3 factors"):
            embed(identity(Shape((HALF,))), (3,), Shape.of(1, 1, 1))

    def test_duplicate_positions_rejected(self):
        op = identity(Shape((HALF, HALF)))
        with pytest.raises(ShapeError):
            embed(op, (0, 0), Shape.of(1, 1))


def embedded_steps(steps, target: Operator) -> Operator:
    """The oracle for `act_adjacent`: each step embedded on the whole shape and composed on."""
    for i, op in steps:
        target = compose(embed(op, (i, i + 1), target.shape_out), target)
    return target


def braid_step(rng, factors) -> tuple[int, Operator]:
    """A random signed letter on `factors` as (i, braided R at the legs' spins)."""
    i = rng.randrange(len(factors) - 1)
    a, b = factors[i], factors[i + 1]
    return i, braided_r(a, b) if rng.random() < 0.5 else braided_r_inv(b, a)


def assert_canonical(op: Operator):
    assert all(p.terms and all(p.terms.values()) for p in op.entries.values())


class TestActAdjacent:
    SHAPES = (Shape.of(1, 2, 3), Shape.of(2, 1, 1), Shape.of(1, 3, 0, 2), Shape.of(2, 2, 1, 1))

    def test_matches_embed_then_compose_on_random_operators(self):
        rng = random.Random(11)
        for ambient in self.SHAPES:
            for i in range(len(ambient) - 1):
                legs = Shape(ambient.factors[i : i + 2])
                for legs_out in (legs, Shape((legs[1], legs[0]))):
                    op = random_operator(rng, legs, legs_out, fill=6)
                    target = random_operator(rng, Shape.of(2, 1), ambient, fill=12)
                    want = compose(embed(op, (i, i + 1), ambient), target)
                    assert act_adjacent([(i, op)], target) == want

    def test_matches_embed_then_compose_on_braidings(self):
        rng = random.Random(12)
        for ambient in self.SHAPES:
            for i in range(len(ambient) - 1):
                a, b = ambient[i], ambient[i + 1]
                target = random_operator(rng, ambient, ambient, fill=12)
                for op in (braided_r(a, b), braided_r_inv(b, a)):
                    want = compose(embed(op, (i, i + 1), ambient), target)
                    assert act_adjacent([(i, op)], target) == want

    def test_leg_mismatch_rejected(self):
        target = identity(Shape.of(1, 2, 3))
        with pytest.raises(ShapeError):
            act_adjacent([(0, braided_r(HALF, HALF))], target)
        with pytest.raises(ShapeError):
            act_adjacent([(2, braided_r(Spin(2), Spin(3)))], target)
        with pytest.raises(ShapeError):
            act_adjacent([(-1, swap(HALF, Spin(2)))], target)
        with pytest.raises(ShapeError):
            act_adjacent([(0, Operator(Shape.of(1, 2), Shape.of(1, 1), {}))], target)

    def test_no_steps_return_the_target(self):
        target = random_operator(random.Random(13), Shape.of(1, 2), Shape.of(2, 1), fill=5)
        assert act_adjacent([], target) is target

    def test_random_words_match_embed_then_compose(self):
        # Words of braidings and of random two-leg operators (shape-keeping or
        # leg-swapping) on 2-4 legs with 2j <= 3, one leg of color 0 in some.
        rng = random.Random(14)
        for case in range(60):
            n = 2 + case % 3
            ambient = Shape.of(*(rng.randint(0, 3) for _ in range(n - 1)), 0 if case % 2 else rng.randint(1, 3))
            target = random_operator(rng, Shape.of(1, 2), ambient, fill=10)
            factors = list(ambient.factors)
            steps = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.7:
                    i, op = braid_step(rng, factors)
                else:
                    i = rng.randrange(n - 1)
                    legs = Shape(factors[i : i + 2])
                    op = random_operator(rng, legs, Shape((legs[1], legs[0])) if rng.random() < 0.5 else legs, fill=5)
                steps.append((i, op))
                factors[i : i + 2] = op.shape_out.factors
            got = act_adjacent(steps, target)
            assert got == embedded_steps(steps, target), (ambient, [i for i, _ in steps])
            assert got.shape_out == Shape(factors)
            assert_canonical(got)

    def test_cancelling_words_leave_no_zero_cells(self):
        for ambient in self.SHAPES:
            target = identity(ambient)
            for i in range(len(ambient) - 1):
                a, b = ambient[i], ambient[i + 1]
                for steps in (
                    [(i, braided_r(a, b)), (i, braided_r_inv(a, b))],
                    [(i, braided_r_inv(b, a)), (i, braided_r(b, a))],
                    [(i, braided_r(a, b)), (i, braided_r(b, a)), (i, braided_r_inv(b, a)), (i, braided_r_inv(a, b))],
                ):
                    got = act_adjacent(steps, target)
                    assert got == target
                    assert_canonical(got)

    def test_sector_restricted_start(self):
        # As the closure trace starts: the identity's columns of twice-weight t >= 0 only.
        rng = random.Random(15)
        one = LaurentPoly.one()
        for ambient in self.SHAPES:
            start = Operator(ambient, ambient, {(i, i): one for i, t in enumerate(shape_twice_weights(ambient)) if t >= 0})
            factors = list(ambient.factors)
            steps = []
            for _ in range(8):
                i, op = braid_step(rng, factors)
                steps.append((i, op))
                factors[i : i + 2] = op.shape_out.factors
            assert act_adjacent(steps, start) == embedded_steps(steps, start), ambient

    def test_corrupted_braiding_matches_embed_then_compose(self):
        # The single-entry corruptions of R(1/2, 1/2): every entry scaled by v^2,
        # and a 1 written into the empty cell (0, 1).  None of them intertwines.
        clean = r_matrix(HALF, HALF)
        cells = [(cell, V(2) * p) for cell, p in sorted(clean.entries.items())] + [((0, 1), LaurentPoly.one())]
        ambient = Shape.of(1, 1, 1)
        rng = random.Random(16)
        target = random_operator(rng, ambient, ambient, fill=12)
        for cell, value in cells:
            bad = compose(swap(HALF, HALF), Operator(clean.shape_in, clean.shape_out, {**clean.entries, cell: value}))
            assert not all(defect.is_zero() for _, defect in commutation_defects(bad))
            steps = [(0, bad), (1, bad), (0, braided_r(HALF, HALF)), (1, bad), (0, bad)]
            assert act_adjacent(steps, target) == embedded_steps(steps, target), cell

    @pytest.mark.parametrize("c", [-7, -6, 6, 7])
    def test_coefficient_at_the_width_bound(self, c):
        # The bound is 1 * c^9 exactly and the product reaches it.  6^9 takes
        # 24 bits, so its width is 32 and a proof one bit short (24) would
        # decode the cell wrongly; 7^9 (26 bits) is byte-rounded to 32 either way.
        legs = Shape.of(0, 0)
        op = Operator(legs, legs, {(0, 0): LaurentPoly({4: c})})
        assert act_adjacent([(0, op)] * 9, identity(legs)).entries == {(0, 0): LaurentPoly({36: c**9})}

    def test_gap_the_stride_does_not_divide_reruns_the_word(self):
        # Both rows of column 0 land in row 0: (1 + v^4) * 1 meets v^2 * 1, a gap
        # of 2 against the stride 4 of the polynomials' own gaps.
        legs = Shape.of(1, 0)
        one = LaurentPoly.one()
        op = Operator(legs, legs, {(0, 0): one + V(4), (0, 1): V(2)})
        target = Operator(legs, legs, {(0, 0): one, (1, 0): one})
        steps = [(0, op), (0, braided_r(HALF, Spin(0))), (0, braided_r(Spin(0), HALF)), (0, op)]
        assert act_adjacent(steps[:1], target).entries == {(0, 0): LaurentPoly({0: 1, 2: 1, 4: 1})}
        assert act_adjacent(steps, target) == embedded_steps(steps, target)

    def test_zero_operator_and_empty_target(self):
        ambient = Shape.of(1, 2, 1)
        target = random_operator(random.Random(17), ambient, ambient, fill=8)
        zero = Operator(Shape.of(1, 1), Shape.of(1, 1), {})
        steps = [(0, braided_r(HALF, Spin(2))), (1, zero), (0, braided_r(Spin(2), HALF))]
        got = act_adjacent(steps, target)
        assert got == embedded_steps(steps, target) and not got.entries
        empty = Operator(ambient, ambient, {})
        got = act_adjacent(steps[:1], empty)
        assert got == embedded_steps(steps[:1], empty) and not got.entries
        assert got.shape_out == Shape.of(2, 1, 1)

    def test_bad_later_step_raises_the_single_step_message(self):
        target = identity(Shape.of(1, 2, 3))
        first = (0, braided_r(HALF, Spin(2)))  # the legs become (1, 1/2, 3/2)
        after = act_adjacent([first], target)
        for bad in (
            (2, braided_r(HALF, HALF)),
            (0, braided_r(HALF, Spin(2))),
            (1, Operator(Shape.of(1, 3), Shape.of(1, 1), {})),
        ):
            with pytest.raises(ShapeError) as single:
                act_adjacent([bad], after)
            with pytest.raises(ShapeError) as word:
                act_adjacent([first, bad, first], target)
            assert str(word.value) == str(single.value)


def diagonal_oracle(steps, target: Operator, offsets) -> LaurentPoly:
    """The oracle for `weighted_trace`: sum_r sum_(o in offsets[r]) v^o B_rr of the full act_adjacent(steps, target)."""
    op = act_adjacent(steps, target)
    return sum((V(o) * op.entry(r, r) for r in range(op.shape_out.dim) for o in offsets[r]), LaurentPoly.zero())


def random_offsets(rng, shape: Shape) -> list[tuple[int, ...]]:
    return [tuple(rng.randint(-6, 6) for _ in range(rng.randint(0, 2))) for _ in range(shape.dim)]


class TestWeightedTrace:
    def test_random_words_match_the_full_diagonal(self):
        # Words of braidings and of random two-leg operators on 2-4 legs with
        # 2j <= 3, on random targets whose input is the shape the word leaves.
        rng = random.Random(19)
        for case in range(60):
            n = 2 + case % 3
            ambient = Shape.of(*(rng.randint(0, 3) for _ in range(n)))
            factors = list(ambient.factors)
            steps = []
            for _ in range(rng.randint(1, 8)):
                if rng.random() < 0.7:
                    i, op = braid_step(rng, factors)
                else:
                    i = rng.randrange(n - 1)
                    legs = Shape(factors[i : i + 2])
                    op = random_operator(rng, legs, Shape((legs[1], legs[0])) if rng.random() < 0.5 else legs, fill=5)
                steps.append((i, op))
                factors[i : i + 2] = op.shape_out.factors
            target = random_operator(rng, Shape(factors), ambient, fill=3 * ambient.dim)
            offsets = random_offsets(rng, ambient)
            assert weighted_trace(steps, target, offsets) == diagonal_oracle(steps, target, offsets), ambient

    def test_empty_word_reads_the_target_diagonal(self):
        rng = random.Random(20)
        for ambient in (EMPTY_SHAPE, Shape.of(1, 2), Shape.of(2, 0, 3)):
            target = random_operator(rng, ambient, ambient, fill=3 * ambient.dim)
            offsets = random_offsets(rng, ambient)
            want = sum((V(o) * target.entry(r, r) for r in range(ambient.dim) for o in offsets[r]), LaurentPoly.zero())
            assert weighted_trace([], target, offsets) == want

    def test_non_symmetric_offsets_give_the_q2h_weighted_trace(self):
        # (2t,) on every column of the identity: Tr(B q^(2H) (x) ... (x) q^(2H)),
        # B a pure braid (each letter crosses its legs twice) on mixed colors.
        rng = random.Random(21)
        for ambient in (Shape.of(1, 2, 1), Shape.of(2, 3), Shape.of(1, 3, 0, 2)):
            factors = list(ambient.factors)
            steps = []
            for _ in range(4):
                i = rng.randrange(len(factors) - 1)
                for _ in range(2):
                    a, b = factors[i], factors[i + 1]
                    steps.append((i, braided_r(a, b) if rng.random() < 0.5 else braided_r_inv(b, a)))
                    factors[i : i + 2] = b, a
            offsets = [(2 * t,) for t in shape_twice_weights(ambient)]
            want = full_trace(act_adjacent(steps, identity(ambient)), [rep_qh(j, 2) for j in ambient])
            assert weighted_trace(steps, identity(ambient), offsets) == want

    def test_a_diagonal_cell_that_cancels(self):
        # R(1/2, 1/2) braided sends both cells of column 1 to row 1:
        # (v - v^-3) * 1 + v^-1 * (v^-2 - v^2) = 0.
        legs = Shape.of(1, 1)
        one = LaurentPoly.one()
        target = Operator(legs, legs, {(0, 0): one, (1, 1): one, (2, 1): V(-2) - V(2), (3, 3): one + one})
        steps = [(0, braided_r(HALF, HALF))]
        assert (1, 1) not in act_adjacent(steps, target).entries
        offsets = [(0,), (5,), (0,), (1,)]
        want = LaurentPoly({1: 1, 2: 2})
        assert weighted_trace(steps, target, offsets) == want == diagonal_oracle(steps, target, offsets)

    def test_diagonal_cells_whose_bases_differ_by_an_odd_gap_rerun_the_word(self):
        # Both cells of column 1 land on (1, 1): (v - v^-3) * 1 meets v^-1 * v,
        # a base gap of 3 against the braiding's stride 4, in the last, diagonal
        # only step.  Run twice, the letter keeps both of its packed strides.
        m = cold(braided_r(HALF, HALF))
        legs = Shape.of(1, 1)
        target = Operator(legs, legs, {(1, 1): LaurentPoly.one(), (2, 1): V(1)})
        offsets = [(0,)] * 4
        for _ in range(2):
            assert weighted_trace([(0, m)], target, offsets) == LaurentPoly({-3: -1, 0: 1, 1: 1})
        assert sorted(s for s, _ in m._index[3]) == [1, 4]
        rng = random.Random(22)
        for _ in range(10):
            offsets = random_offsets(rng, legs)
            steps = [(0, m)] * rng.randint(1, 3)
            assert weighted_trace(steps, target, offsets) == diagonal_oracle(steps, target, offsets)

    def test_bad_steps_and_non_square_words_rejected(self):
        target = identity(Shape.of(1, 2, 3))
        offsets = [(0,)] * target.shape_in.dim
        with pytest.raises(ShapeError) as single:
            act_adjacent([(0, braided_r(HALF, HALF))], target)
        with pytest.raises(ShapeError) as trace:
            weighted_trace([(0, braided_r(HALF, HALF))], target, offsets)
        assert str(trace.value) == str(single.value)
        with pytest.raises(ShapeError):
            weighted_trace([(0, braided_r(HALF, Spin(2)))], target, offsets)


def cold(op: Operator) -> Operator:
    """A copy of `op` whose index is empty."""
    return Operator._raw(op.shape_in, op.shape_out, dict(op.entries))


class TestIndex:
    # Each test warms its own copy of a braided matrix, which no other test reads.
    AMBIENT = Shape.of(2, 2, 1)

    def test_warm_and_cold_letters_agree(self):
        # A short word twice (the second reads the columns the first kept), a
        # long one (a wider width), then the short one again from the index:
        # every run on the warm matrix equals a run on a cold copy.
        m = cold(braided_r(Spin(2), Spin(2)))
        target = random_operator(random.Random(18), self.AMBIENT, self.AMBIENT, fill=12)
        for n in (2, 2, 12, 2):
            got = act_adjacent([(0, m)] * n, target)
            assert got == act_adjacent([(0, cold(m))] * n, target), n
        assert got == embedded_steps([(0, cold(m))] * 2, target)
        assert len({w for _, w in m._index[3]}) == 2

    def test_a_keeps_its_columns_from_its_first_call(self):
        # An operator read as an a keeps its packed columns in its index from
        # its first call on, and a second word reads the same columns.  Read
        # as both a and b in one call, it keeps one variant too.
        m = cold(braided_r(HALF, HALF))
        target = identity(Shape.of(1, 1))
        want = act_adjacent([(0, cold(m))] * 3, target)
        assert act_adjacent([(0, m)] * 3, target) == want
        assert list(m._index[3]) == [(4, 8)]
        cols = m._index[3][4, 8]
        assert act_adjacent([(0, m)] * 3, target) == want
        assert list(m._index[3]) == [(4, 8)] and m._index[3][4, 8] is cols
        square = cold(m)
        assert compose(square, square) == compose(cold(m), cold(m))
        assert len(square._index[3]) == 1

    def test_stride_rerun_with_a_warm_index(self):
        # The braiding's exponents step by 4, and the target's cells v^0 and
        # v^1 of column 0 meet in one row: every run tries stride 4, then
        # runs once more at stride 1, and the index keeps both packings.
        m = cold(braided_r(HALF, HALF))
        legs = Shape.of(1, 1)
        target = Operator(legs, legs, {(1, 0): LaurentPoly.one(), (2, 0): V(1)})
        want = embedded_steps([(0, cold(m))] * 3, target)
        for _ in range(3):
            assert act_adjacent([(0, m)] * 3, target) == want
        assert sorted(s for s, _ in m._index[3]) == [1, 4]

    def test_monomial_entries_keep_their_packed_cells(self):
        # An operator whose entries are all monomials keeps its packed cells,
        # keyed r m + c with m its input dimension, since no stride or width
        # changes them; one with a polynomial entry keeps none.
        legs = Shape.of(1, 1)
        target = Operator(legs, legs, {(0, 0): LaurentPoly({3: 2}), (2, 1): -V(-1)})
        m = cold(braided_r(HALF, HALF))
        want = embedded_steps([(0, m)] * 2, target)
        assert act_adjacent([(0, m)] * 2, target) == want
        cells = target._index[4]
        assert cells == {0: (3, 2), 9: (-1, -1)} and m._index[4] is None
        assert act_adjacent([(0, m)] * 2, target) == want and target._index[4] is cells

    def test_variants_are_at_most_the_byte_widths_used(self):
        # Words of 1-16 letters on the identity: the proven width grows with
        # the length, and rounding it up to whole bytes leaves fewer variants.
        m = cold(braided_r(Spin(2), Spin(2)))
        rows = {}
        for (r, _), p in m.entries.items():
            rows[r] = rows.get(r, 0) + sum(map(abs, p.terms.values()))
        exact = {(max(rows.values()) ** n).bit_length() + 1 for n in range(1, 17)}
        for n in range(1, 17):
            act_adjacent([(0, m)] * n, identity(self.AMBIENT))
        variants = m._index[3]
        assert len(variants) <= len({-(-w // 8) * 8 for w in exact}) < len(exact)
        assert all(s == 4 and w % 8 == 0 and len(cols) == 9 for (s, w), cols in variants.items())


class TestTraces:
    def test_unweighted_partial_traces_of_identity(self):
        shape = Shape.of(1, 3)
        assert partial_trace_first(identity(shape)) == entrywise_sum([(2, identity(Shape.of(3)))])
        shape = Shape.of(3, 1)
        assert partial_trace_last(identity(shape)) == entrywise_sum([(2, identity(Shape.of(3)))])

    def test_factorized_partial_trace(self):
        rng = random.Random(5)
        a = random_operator(rng, Shape((HALF,)), Shape((HALF,)))
        b = random_operator(rng, Shape((Spin(2),)), Shape((Spin(2),)))
        w = rep_qh(HALF, 2)
        got = partial_trace_first(kron(a, b), w)
        assert got == entrywise_sum([(full_trace(a, [w]), b)])

    def test_full_trace_weight_values(self):
        assert full_trace(identity(Shape((HALF,))), [rep_qh(HALF, 2)]) == qint(2)
        assert full_trace(identity(Shape((Spin(2),))), [rep_qh(Spin(2), 2)]) == qint(3)
        assert full_trace(identity(Shape((HALF,))), [None]) == LaurentPoly.const(2)

    def test_traces_match_entrywise_oracle(self):
        # Non-diagonal weights: a trace that ignores the weight's off-diagonal
        # entries, or reads them transposed, fails here.
        rng = random.Random(13)
        for twice in ((1, 2), (2, 0), (1, 2, 1), (2, 1, 3)):
            shape = Shape.of(*twice)
            for _ in range(8):
                op = random_operator(rng, shape, shape, fill=3 * shape.dim)
                weights = [
                    None if rng.random() < 0.2 else random_operator(rng, Shape((s,)), Shape((s,)), fill=2 * s.dim)
                    for s in shape
                ]
                want = entrywise_full_trace(op, weights)
                assert full_trace(op, weights) == want
                assert entrywise_full_trace(partial_trace_first(op, weights[0]), weights[1:]) == want
                assert entrywise_full_trace(partial_trace_last(op, weights[-1]), weights[:-1]) == want

    def test_trace_requires_square(self):
        op = swap(HALF, Spin(2))
        with pytest.raises(ShapeError):
            full_trace(op, [None, None])

    def test_trace_shape_errors(self):
        op = identity(Shape.of(1, 2))
        with pytest.raises(ShapeError):
            partial_trace_first(op, rep_qh(Spin(2), 2))
        with pytest.raises(ShapeError):
            partial_trace_last(op, rep_qh(HALF, 2))
        with pytest.raises(ShapeError):
            full_trace(op, [None])
        with pytest.raises(ShapeError):
            partial_trace_first(identity(EMPTY_SHAPE))
        with pytest.raises(ShapeError):
            partial_trace_last(identity(EMPTY_SHAPE))


class TestAsScalar:
    def test_identity_and_casimir(self):
        assert as_scalar(identity(Shape.of(1, 1))) == LaurentPoly.one()
        assert as_scalar(casimir(Spin(3))) == chi(Spin(3))

    def test_non_scalar(self):
        from qlink.rmatrix import braided_r

        assert as_scalar(braided_r(HALF, HALF)) is None

    def test_zero(self):
        shape = Shape.of(1)
        assert as_scalar(Operator(shape, shape, {})) == LaurentPoly.zero()


class TestInterchange:
    def test_interchange_law(self):
        rng = random.Random(6)
        s1, s2 = Shape((HALF,)), Shape((Spin(2),))
        for _ in range(15):
            a = random_operator(rng, s1, s1)
            b = random_operator(rng, s2, s2)
            c = random_operator(rng, s1, s1)
            d = random_operator(rng, s2, s2)
            assert compose(kron(a, b), kron(c, d)) == kron(compose(a, c), compose(b, d))


class TestSerialization:
    def test_operator_json_round_trip(self):
        rng = random.Random(7)
        op = random_operator(rng, Shape.of(1, 2), Shape.of(2, 1), fill=6)
        assert operator_from_json(op.to_json()) == op


entry_strategy = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=-2, max_value=2),
)


@st.composite
def small_square_operator(draw):
    shape = Shape.of(1, 1)
    entries = {}
    for r, c, coeff, exp in draw(st.lists(entry_strategy, max_size=5)):
        entries[(r, c)] = LaurentPoly({exp: coeff})
    return Operator(shape, shape, entries)


class TestAlgebraProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_square_operator(), small_square_operator(), small_square_operator())
    def test_composition_associative_and_bilinear(self, a, b, c):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))
        assert compose(a, entrywise_sum([(1, b), (1, c)])) == entrywise_sum([(1, compose(a, b)), (1, compose(a, c))])

    @settings(max_examples=60, deadline=None)
    @given(small_square_operator())
    def test_trace_cyclic_under_weight_commuting_conjugation(self, x):
        # Conjugating by the braiding preserves the doubly weighted trace,
        # because the braiding commutes with the product of weight matrices.
        from qlink.rmatrix import braided_r, braided_r_inv

        weights = [rep_qh(HALF, 2), rep_qh(HALF, 2)]
        conj = compose(braided_r(HALF, HALF), compose(x, braided_r_inv(HALF, HALF)))
        assert full_trace(conj, weights) == full_trace(x, weights)
