import random
from itertools import product

import pytest

from conftest import corrupted
from oracles import (
    bracket_state_sum,
    cyclotomic_coefficients,
    full_twist_value,
    fusion_identity_residual,
    hopf_link,
    random_colored_braid,
    random_word,
    two_strand_torus_value,
    unknot,
)
from qlink.braid import BraidError, BraidWord, ColoredBraid, cable, disjoint_union
from qlink.invariant import (
    all_half,
    braid_operator,
    cs_invariant_fundamental,
    kauffman_bracket,
    rt_invariant,
    verify_factorization,
    verify_framing,
    verify_markov,
    verify_recursion,
    verify_skein,
)
from qlink import rmatrix
from qlink.laurent import LaurentPoly, div_exact, qint
from qlink.tensorop import HALF, InputError, Spin

V = LaurentPoly.v_power
# The bracket's loop value -x^2 - x^-2, read in its own variable x.
BRACKET_LOOP = LaurentPoly({2: -1, -2: -1})


class TestClosedValues:
    @pytest.mark.parametrize("tj", range(0, 7))
    def test_unknot_loop_dimension(self, tj):
        assert rt_invariant(unknot(Spin(tj))) == qint(tj + 1)

    @pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 2), (3, 1), (4, 4)])
    def test_doubly_crossed_circles(self, pair):
        value = rt_invariant(hopf_link(Spin(pair[0]), Spin(pair[1])))
        assert value == qint((pair[0] + 1) * (pair[1] + 1))

    def test_trefoil_frozen_value(self):
        value = rt_invariant(all_half(BraidWord(2, (1, 1, 1))))
        assert value == LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})

    @pytest.mark.parametrize("k", range(0, 7))
    def test_two_strand_torus_words_match_eigenvalue_oracle(self, k):
        value = rt_invariant(all_half(BraidWord(2, (1,) * k)))
        assert value == two_strand_torus_value(HALF, HALF, k)

    @pytest.mark.parametrize(
        "ta, tb, k",
        [(ta, tb, k) for ta in range(6) for tb in range(6) for k in range(-4, 5) if k % 2 == 0 or ta == tb]
        + [(t, t, k) for t in (6, 8, 10) for k in (-2, -1, 1, 2)]
        + [(8, 8, 6), (8, 8, -6), (10, 10, 5), (12, 12, 3)],
    )
    def test_colored_torus_links_match_closed_form(self, ta, tb, k):
        a, b = Spin(ta), Spin(tb)
        braid = ColoredBraid(BraidWord(2, (1 if k > 0 else -1,) * abs(k)), (a, b))
        assert rt_invariant(braid) == two_strand_torus_value(a, b, k)

    def test_empty_braid_value_is_one(self):
        assert rt_invariant(ColoredBraid(BraidWord(0, ()), ())) == LaurentPoly.one()

    def test_operator_shape_round_trip(self):
        braid = all_half(BraidWord(3, (1, -2, 1)))
        op = braid_operator(braid)
        assert op.shape_in == op.shape_out


class TestBracketPipeline:
    def test_unknot_bracket(self):
        assert kauffman_bracket(BraidWord(1, ())) == BRACKET_LOOP

    def test_positive_kink(self):
        assert kauffman_bracket(BraidWord(2, (1,))) == LaurentPoly({3: -1}) * BRACKET_LOOP

    def test_state_sum_oracle_agreement_exhaustive_short_words(self):
        for n in (2, 3):
            gens = [i for i in range(1, n)]
            letters_pool = [s * g for g in gens for s in (1, -1)]
            for length in range(0, 4):
                for letters in product(letters_pool, repeat=length):
                    word = BraidWord(n, letters)
                    assert kauffman_bracket(word) == bracket_state_sum(word), letters

    def test_state_sum_oracle_agreement_sampled(self):
        rng = random.Random(21)
        for _ in range(40):
            word = random_word(rng, rng.randint(2, 4), rng.randint(4, 6))
            assert kauffman_bracket(word) == bracket_state_sum(word)


class TestCombinedPipeline:
    def test_fundamental_values(self):
        assert cs_invariant_fundamental(BraidWord(1, ())) == qint(2)
        assert cs_invariant_fundamental(BraidWord(2, (1, 1))) == qint(4)

    def test_kink_framing_factor(self):
        assert cs_invariant_fundamental(BraidWord(2, (1,))) == V(3) * qint(2)

    def test_pipeline_agreement_sampled(self):
        rng = random.Random(22)
        for _ in range(60):
            word = random_word(rng, rng.randint(1, 4), rng.randint(0, 7))
            assert cs_invariant_fundamental(word) == rt_invariant(all_half(word)), word

    def test_named_knots(self):
        trefoil = BraidWord(2, (1, 1, 1))
        figure_eight = BraidWord(3, (1, -2, 1, -2))
        for word in (trefoil, figure_eight):
            assert cs_invariant_fundamental(word) == rt_invariant(all_half(word))


class TestStability:
    def test_doubled_inverse_pair_insertion(self):
        rng = random.Random(23)
        for _ in range(25):
            word = random_word(rng, 3, rng.randint(0, 5))
            braid = all_half(word)
            base = rt_invariant(braid)
            spot = rng.randint(0, len(word.letters))
            g = rng.choice((1, 2))
            padded = word.letters[:spot] + (g, -g) + word.letters[spot:]
            assert rt_invariant(all_half(BraidWord(3, padded))) == base
            assert kauffman_bracket(BraidWord(3, padded)) == kauffman_bracket(word)

    def test_braid_relation_substitution(self):
        rng = random.Random(24)
        for _ in range(25):
            prefix = random_word(rng, 3, rng.randint(0, 3)).letters
            suffix = random_word(rng, 3, rng.randint(0, 3)).letters
            one = BraidWord(3, prefix + (1, 2, 1) + suffix)
            two = BraidWord(3, prefix + (2, 1, 2) + suffix)
            assert rt_invariant(all_half(one)) == rt_invariant(all_half(two))
            assert kauffman_bracket(one) == kauffman_bracket(two)

    def test_cabled_cancelling_pair_keeps_the_invariant(self):
        plain = ColoredBraid(BraidWord(2, ()), (Spin(2), HALF))
        wiggly = ColoredBraid(BraidWord(2, (1, -1)), (Spin(2), HALF))
        colors = [(HALF, HALF), (HALF,)]
        assert rt_invariant(cable(wiggly, colors)) == rt_invariant(cable(plain, colors))

    def test_conjugation_invariance_random_colored(self):
        rng = random.Random(25)
        for _ in range(20):
            braid = random_colored_braid(rng, rng.randint(2, 3), rng.randint(0, 5), 3)
            report = verify_markov(braid)
            assert report.passed, report.summary()


class TestFraming:
    @pytest.mark.parametrize("tj", range(0, 5))
    def test_unknot_kinks(self, tj):
        report = verify_framing(unknot(Spin(tj)))
        assert report.passed, report.summary()

    def test_non_leftmost_strand(self):
        braid = ColoredBraid(BraidWord(3, (1, 1)), (HALF, HALF, Spin(2)))
        report = verify_framing(braid, strand=2)
        assert report.passed, report.summary()

    def test_bad_strand_rejected(self):
        with pytest.raises(InputError) as caught:
            verify_framing(unknot(HALF), strand=5)
        assert caught.value.field == "strand"


class TestRecursion:
    @pytest.mark.parametrize("tj", (2, 3, 4))
    def test_unknot_color_lowering(self, tj):
        report = verify_recursion(unknot(Spin(tj)), 0)
        assert report.passed, report.summary()

    def test_unknot_identity_is_quantum_number_identity(self):
        # [3] = [2]^2 - 1 realized through the doubling route.
        cabled = cable(unknot(Spin(2)), [(HALF, HALF)])
        assert rt_invariant(cabled) == qint(2) * qint(2)

    @pytest.mark.parametrize("colors", [(2, 1), (2, 2)])
    def test_hopf_color_lowering(self, colors):
        report = verify_recursion(hopf_link(Spin(colors[0]), Spin(colors[1])), 0)
        assert report.passed, report.summary()

    def test_cabled_hopf_value(self):
        cabled = cable(hopf_link(Spin(2), HALF), [(HALF, HALF), (HALF,)])
        assert rt_invariant(cabled) == qint(6) + qint(2)

    def test_color_zero_component_deletes(self):
        braid = ColoredBraid(BraidWord(3, (1, 1, 2, 2)), (Spin(0), HALF, HALF))
        report = verify_recursion(ColoredBraid(braid.word, (Spin(2), HALF, HALF)), 0)
        assert report.passed, report.summary()

    @pytest.mark.parametrize(
        "braid, comp",
        [
            (unknot(HALF), 0),
            (hopf_link(HALF, Spin(2)), 0),
            (hopf_link(Spin(3), HALF), 1),
            (all_half(BraidWord(3, (1, -2, 1, -2))), 0),
        ],
    )
    def test_color_half_lowers_to_zero(self, braid, comp):
        # The lowered term would be color -1/2, whose value is 0.
        report = verify_recursion(braid, comp)
        assert report.passed, report.summary()
        assert report.checks[0].name == "value(j=1/2) = value(cable(1/2,0))"

    def test_spin_zero_rejected(self):
        with pytest.raises(InputError) as caught:
            verify_recursion(unknot(Spin(0)), 0)
        assert caught.value.field == "component"


class TestFactorization:
    def test_two_circles_fuse(self):
        for ta in range(0, 4):
            for tb in range(0, 4):
                left, right = unknot(Spin(ta)), unknot(Spin(tb))
                assert verify_factorization(left, right).passed
                value = rt_invariant(disjoint_union(left, right))
                total = LaurentPoly.zero()
                for tc in range(abs(ta - tb), ta + tb + 1, 2):
                    total = total + qint(tc + 1)
                assert value == total

    def test_circle_with_trefoil(self):
        report = verify_factorization(unknot(Spin(3)), all_half(BraidWord(2, (1, 1, 1))))
        assert report.passed, report.summary()

    def test_empty_union_is_neutral(self):
        empty = ColoredBraid(BraidWord(0, ()), ())
        braid = hopf_link(HALF, Spin(2))
        assert rt_invariant(disjoint_union(empty, braid)) == rt_invariant(braid)

    def test_random_pairs(self):
        rng = random.Random(26)
        for _ in range(10):
            a = random_colored_braid(rng, rng.randint(1, 3), rng.randint(0, 4), 2)
            b = random_colored_braid(rng, rng.randint(1, 3), rng.randint(0, 4), 2)
            assert verify_factorization(a, b).passed


class TestSkein:
    def test_small_words(self):
        rng = random.Random(27)
        for _ in range(20):
            word = random_word(rng, rng.randint(2, 4), rng.randint(0, 5))
            report = verify_skein(all_half(word))
            assert report.passed, report.summary()

    def test_requires_fundamental_colors(self):
        with pytest.raises(InputError) as caught:
            verify_skein(hopf_link(Spin(2), Spin(2)))
        assert caught.value.field == "colors"


class TestNormalization:
    def test_kinked_unknot_normalizes_to_loop_value(self):
        kinked = all_half(BraidWord(2, (1,)))
        assert rt_invariant(kinked) == V(3) * qint(2)
        assert rt_invariant(kinked, normalize=True) == qint(2)

    def test_normalized_value_is_kink_stable(self):
        braid = all_half(BraidWord(2, (1, 1, 1)))
        padded = all_half(BraidWord(3, (2, 1, 1, 1)))  # extra kink on the closure
        assert rt_invariant(braid, normalize=True) == rt_invariant(padded, normalize=True)

    def test_linking_is_not_normalized_away(self):
        hopf = hopf_link(HALF, HALF)
        assert rt_invariant(hopf, normalize=True) == rt_invariant(hopf)


def full_twist(twice_spins, k: int) -> ColoredBraid:
    """(sigma_1 ... sigma_(n-1))^(n k) colored by `twice_spins`; a pure braid, so any colors close."""
    n = len(twice_spins)
    turn = range(1, n) if k >= 0 else range(1 - n, 0)
    return ColoredBraid(BraidWord(n, tuple(turn) * (n * abs(k))), tuple(Spin(t) for t in twice_spins))


# Equal and mixed colors up to 2j = 5 on three and four strands, one with a color-0 strand.
TWIST_COLORS = [
    *[(1, 1, 1), (2, 2, 2), (5, 5, 5), (1, 2, 3), (5, 3, 1), (0, 1, 2)],
    *[(1, 1, 1, 1), (2, 2, 2, 2), (1, 3, 1, 3), (2, 0, 1, 3), (3, 3, 3, 3)],
]


class TestFullTwist:
    """Powers of the full twist against their Reshetikhin-Turaev closed form."""

    @pytest.mark.parametrize("twice_spins", TWIST_COLORS, ids=str)
    @pytest.mark.parametrize("k", range(-2, 3))
    def test_closure_matches_the_closed_form(self, twice_spins, k):
        assert rt_invariant(full_twist(twice_spins, k)) == full_twist_value(twice_spins, k)

    def test_corrupted_braiding_is_caught(self):
        # A c14 corruption of R(1/2, 1/2): one entry scaled by v^2.
        clean = rmatrix.r_matrix(HALF, HALF)
        cell = min(clean.entries)
        with corrupted(("R", 1, 1), clean, cell, clean.entries[cell] * V(2)):
            assert rt_invariant(full_twist((1, 1, 1), 1)) != full_twist_value((1, 1, 1), 1)
        assert rt_invariant(full_twist((1, 1, 1), 1)) == full_twist_value((1, 1, 1), 1)


class TestCyclotomicExpansion:
    """
    Habiro's cyclotomic expansion of knots: each color fixes one coefficient
    by an exact division, so each color past the closed forms is a
    divisibility test of values no other test pins.
    """

    def test_trefoil(self):
        got = cyclotomic_coefficients((1, 1, 1), 2, 6)
        assert got == [LaurentPoly({-2 * k * (k + 3): (-1) ** k}) for k in range(7)]

    def test_mirror_trefoil(self):
        got = cyclotomic_coefficients((-1, -1, -1), 2, 4)
        assert got == [LaurentPoly({2 * k * (k + 3): (-1) ** k}) for k in range(5)]

    def test_figure_eight(self):
        assert cyclotomic_coefficients((1, -2, 1, -2), 3, 5) == [LaurentPoly.one()] * 6

    @pytest.mark.parametrize(
        "letters, n_strands, max_twice_spin",
        [((1, 1, 1, 2, -1, 2), 3, 5), ((1, 2) * 4, 3, 4), ((1, 1, 2, -1, -3, 2, -3), 4, 2)],
        ids=("5_2", "T(3,4)", "4-strand"),
    )
    def test_coefficients_are_exact_in_q(self, letters, n_strands, max_twice_spin):
        got = cyclotomic_coefficients(letters, n_strands, max_twice_spin)
        assert len(got) == max_twice_spin + 1 and got[0] == LaurentPoly.one()
        assert all(e % 4 == 0 for c in got for e in c.terms)

    def test_corrupted_braiding_breaks_divisibility(self):
        # T(3,4) is a positive braid, so r_inverse's own check never runs on it.
        spin = Spin(3)
        clean = rmatrix.r_matrix(spin, spin)
        braid = ColoredBraid(BraidWord(3, (1, 2) * 4), [spin] * 3)
        with corrupted(("R", 3, 3), clean, (0, 0), clean.entries[(0, 0)] * V(4)), pytest.raises(ValueError):
            div_exact(rt_invariant(braid, normalize=True), qint(4))
        assert div_exact(rt_invariant(braid, normalize=True), qint(4))


class TestFusionRule:
    def test_residuals_vanish(self):
        for ta in range(0, 11):
            for tb in range(0, 11):
                assert not fusion_identity_residual(ta, tb)


class TestValidation:
    def test_color_transport_enforced(self):
        with pytest.raises(BraidError):
            ColoredBraid(BraidWord(2, (1,)), (HALF, Spin(2)))
