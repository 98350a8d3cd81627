import random

import pytest

from conftest import corrupted
from oracles import (
    as_scalar,
    entrywise_sum,
    monodromy,
    monodromy_annihilator,
    r_matrix_expansion,
    rep_e,
    rep_f,
    rep_qh,
    shape_twice_weights,
    swap,
    verify_frt,
    verify_yang_baxter,
)
from qlink import rmatrix as rm
from qlink.laurent import LaurentPoly
from qlink.tensorop import (
    HALF,
    Operator,
    Shape,
    ShapeError,
    Spin,
    act_adjacent,
    compose,
    embed,
    identity,
    kron,
    partial_trace_first,
    partial_trace_last,
)
from qlink.uqsu2 import delta_rep

V = LaurentPoly.v_power
Q = LaurentPoly.q_power
COEFF = Q(1) - Q(-1)  # q - q^-1


def act_letters(letters, target: Operator) -> Operator:
    """Signed braid letters applied bottom-up to the output legs of `target`, as the routes apply them."""
    return act_adjacent(rm.word_steps(letters, target.shape_out.factors)[0], target)


@pytest.fixture(autouse=True)
def fresh_caches():
    rm.clear_cache()
    yield
    rm.clear_cache()


class TestRMatrix:
    def test_fundamental_matrix_entry_for_entry(self):
        got = rm.r_matrix(HALF, HALF)
        expected = {
            (0, 0): V(1),
            (1, 1): V(-1),
            (2, 1): V(1) - V(-3),  # q^(1/2) (1 - q^-2)
            (2, 2): V(-1),
            (3, 3): V(1),
        }
        assert got.entries == expected

    def test_trivial_leg_gives_identity(self):
        for tj in (0, 1, 2, 5):
            shape = Shape((Spin(0), Spin(tj)))
            assert rm.r_matrix(Spin(0), Spin(tj)) == identity(shape)
            assert rm.r_inverse(Spin(0), Spin(tj)) == identity(shape)

    def test_mixed_matrix_is_weight_graded(self):
        op = rm.r_matrix(HALF, Spin(2))
        shape = Shape((HALF, Spin(2)))
        assert shape.dim == 6
        for (r, c) in op.entries:
            assert r >= c  # descending-weight basis makes it lower triangular
        # Row weights are preserved: total twice-weight of row == column.
        weights = shape_twice_weights(shape)
        for (r, c) in op.entries:
            assert weights[r] == weights[c]

    @pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2), (1, 3), (3, 2)])
    def test_inverse_product(self, pair):
        j1, j2 = Spin(pair[0]), Spin(pair[1])
        shape = Shape((j1, j2))
        assert compose(rm.r_matrix(j1, j2), rm.r_inverse(j1, j2)) == identity(shape)
        assert compose(rm.r_inverse(j1, j2), rm.r_matrix(j1, j2)) == identity(shape)


class TestClosedForm:
    @pytest.mark.parametrize("t1", range(7))
    def test_entries_match_the_operator_expansion(self, t1):
        for t2 in range(7):
            j1, j2 = Spin(t1), Spin(t2)
            assert rm.r_matrix(j1, j2).entries == r_matrix_expansion(j1, j2).entries, (t1, t2)

    @pytest.mark.parametrize(
        "build,spins,key",
        [
            (rm.r_matrix, (HALF, Spin(2)), ("R", 1, 2)),
            (rm.r_inverse, (HALF, Spin(2)), ("Rinv", 1, 2)),
            (rm.r_opposite, (Spin(2), HALF), ("Rop", 2, 1)),
            (rm.braided_r, (Spin(3), Spin(0)), ("bR", 3, 0)),
            (rm.braided_r_inv, (Spin(0), Spin(3)), ("bRinv", 0, 3)),
            (rm.l_plus, (Spin(2),), ("Rop", 1, 2)),
            (rm.l_plus_inv, (Spin(3),), ("Lpi", 3)),
            (rm.p_matrix, (), ("P",)),
            (rm.m_matrix, (), ("M",)),
        ],
    )
    def test_memo_keys(self, build, spins, key):
        rm.clear_cache()
        first = build(*spins)
        assert rm._cache[key] is first
        assert build(*spins) is first
        rm.clear_cache()
        rm._cache[key] = first
        assert build(*spins) is first
        assert list(rm._cache) == [key]


class TestBraided:
    def test_braided_equals_shift_minus_p(self):
        id2 = identity(Shape((HALF, HALF)))
        p = rm.p_matrix()
        assert rm.braided_r(HALF, HALF) == entrywise_sum([(V(1), id2), (-V(-1), p)])
        assert rm.braided_r_inv(HALF, HALF) == entrywise_sum([(V(-1), id2), (-V(1), p)])

    def test_braid_relation_fundamental(self):
        shape = Shape((HALF, HALF, HALF))
        b = embed(rm.braided_r(HALF, HALF), (0, 1), shape)
        b12 = lambda s: embed(rm.braided_r(s[0], s[1]), (0, 1), s)
        b23 = lambda s: embed(rm.braided_r(s[1], s[2]), (1, 2), s)
        lhs = compose(b12(shape), compose(b23(shape), b12(shape)))
        rhs = compose(b23(shape), compose(b12(shape), b23(shape)))
        assert lhs == rhs

    def test_braid_relation_mixed_with_shape_tracking(self):
        # On (1/2, 1/2, 1) the two sides both map to (1, 1/2, 1/2).
        shape = Shape.of(1, 1, 2)

        def chain(first_positions):
            current = shape
            op = identity(shape)
            for (i, k) in first_positions:
                a, b = current[i], current[k]
                step = embed(rm.braided_r(a, b), (i, k), current)
                op = compose(step, op)
                current = step.shape_out
            return op

        lhs = chain([(0, 1), (1, 2), (0, 1)])
        rhs = chain([(1, 2), (0, 1), (1, 2)])
        assert lhs.shape_out == Shape.of(2, 1, 1)
        assert lhs == rhs

    def test_skein_split_at_fundamental(self):
        id2 = identity(Shape((HALF, HALF)))
        lhs = entrywise_sum([(V(1), rm.braided_r(HALF, HALF)), (-V(-1), rm.braided_r_inv(HALF, HALF))])
        assert lhs == entrywise_sum([(COEFF, id2)])

    @pytest.mark.parametrize("pair", [(1, 2), (2, 2)])
    def test_braided_intertwines_the_coproduct(self, pair):
        j1, j2 = Spin(pair[0]), Spin(pair[1])
        braid = rm.braided_r(j1, j2)
        for kind in ("E", "F", "QH"):
            lhs = compose(braid, delta_rep(kind, Shape((j1, j2))))
            rhs = compose(delta_rep(kind, Shape((j2, j1))), braid)
            assert lhs == rhs

    @pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 3)])
    def test_braided_commutes_with_weights(self, pair):
        j1, j2 = Spin(pair[0]), Spin(pair[1])
        braid = rm.braided_r(j1, j2)
        assert compose(braid, kron(rep_qh(j1, 2), rep_qh(j2, 2))) == compose(kron(rep_qh(j2, 2), rep_qh(j1, 2)), braid)


class TestActLetters:
    def test_matches_product_of_embedded_braidings(self):
        # Mixed spins and words whose colors do not return, so letters meet permuted shapes.
        rng = random.Random(7)
        cases = 0
        while cases < 12:
            n = 3 + cases % 2
            shape = Shape.of(*(rng.choice((1, 2)) for _ in range(n)))
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 5)))
            expected = identity(shape)
            for letter in letters:
                i, legs = abs(letter) - 1, expected.shape_out
                a, b = legs[i], legs[i + 1]
                two_leg = rm.braided_r(a, b) if letter > 0 else rm.braided_r_inv(b, a)
                expected = compose(embed(two_leg, (i, i + 1), legs), expected)
            if expected.shape_out == shape:
                continue
            assert act_letters(letters, identity(shape)) == expected, (shape, letters)
            cases += 1

    def test_inverted_word_undoes_the_word(self):
        shape = Shape.of(1, 2, 3)
        word = act_letters((1, -2, 1), identity(shape))
        assert act_letters((-1, 2, -1), word) == identity(shape)

    @pytest.mark.parametrize("letter", (0, 3, -3))
    def test_letter_outside_the_shape_is_rejected(self, letter):
        with pytest.raises(ShapeError):
            act_letters((letter,), identity(Shape.of(1, 1, 1)))


class TestWeightedTraces:
    @pytest.mark.parametrize("tj", range(1, 7))
    def test_all_four_kink_traces(self, tj):
        j = Spin(tj)
        factor = V(tj * (tj + 2))  # q^(2j(j+1))
        assert as_scalar(partial_trace_first(rm.braided_r(j, j), rep_qh(j, 2))) == factor
        assert as_scalar(partial_trace_first(rm.braided_r_inv(j, j), rep_qh(j, 2))) == factor.bar()
        assert as_scalar(partial_trace_last(rm.braided_r(j, j), rep_qh(j, -2))) == factor
        assert as_scalar(partial_trace_last(rm.braided_r_inv(j, j), rep_qh(j, -2))) == factor.bar()


class TestMixedMatrices:
    @pytest.mark.parametrize("tj", (1, 2, 3))
    def test_block_forms(self, tj):
        # The written 2x2 block forms, with operator-valued entries.
        j = Spin(tj)
        d = j.dim
        off = entrywise_sum([(COEFF * V(-1), rep_e(j))])
        expected = {}
        for (r, c), p in rep_qh(j, 1).entries.items():
            expected[(r, c)] = p
        for (r, c), p in rep_qh(j, -1).entries.items():
            expected[(d + r, d + c)] = p
        for (r, c), p in off.entries.items():
            expected[(d + r, c)] = p
        assert rm.l_minus(j).entries == expected

        expected = {}
        off = entrywise_sum([(COEFF * V(-1), rep_f(j))])
        for (r, c), p in rep_qh(j, 1).entries.items():
            expected[(r, c)] = p
        for (r, c), p in rep_qh(j, -1).entries.items():
            expected[(d + r, d + c)] = p
        for (r, c), p in off.entries.items():
            expected[(r, d + c)] = p
        assert rm.l_plus(j).entries == expected

    def test_trivial_general_leg(self):
        shape = Shape((HALF, Spin(0)))
        assert rm.l_minus(Spin(0)) == identity(shape)
        assert rm.l_plus(Spin(0)) == identity(shape)
        assert rm.l_plus_inv(Spin(0)) == identity(shape)
        assert rm.l_minus_inv(Spin(0)) == identity(shape)

    @pytest.mark.parametrize("tj", (1, 2))
    def test_inverses(self, tj):
        j = Spin(tj)
        shape = Shape((HALF, j))
        assert compose(rm.l_plus(j), rm.l_plus_inv(j)) == identity(shape)
        assert compose(rm.l_minus(j), rm.l_minus_inv(j)) == identity(shape)


class TestPMatrix:
    def test_quadratic_law(self):
        p = rm.p_matrix()
        assert compose(p, p) == entrywise_sum([(Q(1) + Q(-1), p)])

    def test_weighted_trace(self):
        assert partial_trace_first(rm.p_matrix(), rm.m_matrix()) == identity(Shape((HALF,)))

    def test_braiding_rearrangement(self):
        id2 = identity(Shape((HALF, HALF)))
        assert entrywise_sum([(1, rm.braided_r(HALF, HALF)), (V(-1), rm.p_matrix())]) == entrywise_sum([(V(1), id2)])


class TestSuites:
    def test_frt_passes(self):
        report = verify_frt((1, 2, 3))
        assert report.passed, report.summary()
        assert len(report.checks) == 18

    def test_frt_flags_corrupted_mixed_matrix(self):
        good = rm.l_plus(Spin(2))
        cell = min(good.entries)
        with corrupted(("Rop", 1, 2), good, cell, good.entries[cell] * V(2)):
            report = verify_frt((2,))
        assert not report.passed
        assert any(not c.passed and c.residual for c in report.checks)

    def test_yang_baxter_all_small_triples(self):
        for t1 in (0, 1, 2):
            for t2 in (0, 1, 2):
                for t3 in (0, 1, 2):
                    report = verify_yang_baxter(Spin(t1), Spin(t2), Spin(t3))
                    assert report.passed, report.summary()

    def test_monodromy_fundamental_factors(self):
        b = monodromy(HALF, HALF)
        id2 = identity(Shape((HALF, HALF)))
        prod = compose(entrywise_sum([(1, b), (-Q(1), id2)]), entrywise_sum([(1, b), (-Q(-3), id2)]))
        assert prod.is_zero()

    def test_monodromy_trivial_pair(self):
        assert monodromy(Spin(0), Spin(3)) == identity(Shape((Spin(0), Spin(3))))
        assert monodromy_annihilator(Spin(0), Spin(3)).passed

    def test_monodromy_reports(self):
        for ta, tb in [(1, 1), (1, 2), (2, 2)]:
            report = monodromy_annihilator(Spin(ta), Spin(tb))
            assert report.passed, report.summary()

    def test_opposite_variant(self):
        flip = swap(HALF, Spin(2))
        back = swap(Spin(2), HALF)
        assert rm.r_opposite(HALF, Spin(2)) == compose(back, compose(rm.r_matrix(Spin(2), HALF), flip))

    @pytest.mark.parametrize("pair", [(1, 2), (2, 3), (0, 4), (3, 1)], ids=["1/2,1", "1,3/2", "0,2", "3/2,1/2"])
    def test_relabelled_variants_are_products_with_the_exchange(self, pair):
        # Mixed spins, so a relabelling that mixes up d_a and d_b shows.
        a, b = Spin(pair[0]), Spin(pair[1])
        assert rm.braided_r(a, b) == compose(swap(a, b), rm.r_matrix(a, b))
        assert rm.braided_r_inv(a, b) == compose(rm.r_inverse(a, b), swap(b, a))
        assert rm.r_opposite(a, b) == compose(swap(b, a), compose(rm.r_matrix(b, a), swap(a, b)))
        for j in (a, b):
            assert rm.l_plus_inv(j) == compose(swap(j, HALF), compose(rm.r_inverse(j, HALF), swap(HALF, j)))


class TestCorruptionDetection:
    @pytest.mark.parametrize("spins", [(HALF, Spin(2)), (Spin(2), Spin(3))], ids=("1/2,1", "1,3/2"))
    def test_r_inverse_leaves_no_columns(self, spins):
        # On empty caches (the fixture's), the R^-1 R check reads a copy of
        # the inverse as its left factor, so neither memoized matrix keeps
        # packed columns from it.
        inv = rm.r_inverse(*spins)
        base = rm.r_matrix(*spins)
        assert rm._cache[("Rinv", *(j.twice_j for j in spins))] is inv
        assert base._index is not None and base._index[3] == {}
        assert inv._index is None

    def test_bar_inverse_check_catches_corruption(self):
        good = rm.r_matrix(HALF, HALF)
        with corrupted(("R", 1, 1), good, (1, 1), good.entries[(1, 1)] * V(2)), pytest.raises(RuntimeError):
            rm.r_inverse(HALF, HALF)
