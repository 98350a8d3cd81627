import random
from functools import reduce
from itertools import product

import pytest

from oracles import _diagram_images, close_all_by_strands, random_word, tl_image, word_element_by_letters
from qlink.braid import BraidWord
from qlink.invariant import all_half, braid_operator
from qlink.laurent import LaurentPoly
from qlink.tl import (
    DELTA,
    TLElement,
    braid_letter,
    close_all,
    close_first,
    compose_matchings,
    hook_diagram,
    identity_diagram,
    tl_mul,
    word_element,
)

V = LaurentPoly.v_power
CATALAN = (1, 1, 2, 5, 14, 42)


def _perfect_matchings(points):
    if not points:
        yield {}
        return
    first, rest = points[0], points[1:]
    for k, other in enumerate(rest):
        for m in _perfect_matchings(rest[:k] + rest[k + 1 :]):
            yield {**m, first: other, other: first}


def checked(n: int, pairing) -> tuple[int, ...]:
    """`pairing` once the public constructor has accepted it as an n-strand diagram."""
    (diag,) = TLElement(n, {pairing: 1}).terms
    return diag


def is_diagram(n: int, pairing) -> bool:
    try:
        return checked(n, pairing) == pairing
    except ValueError:
        return False


def all_diagrams(n: int) -> list[tuple[int, ...]]:
    """Every planar matching on n strands, by filtering all perfect matchings."""
    pairings = (tuple(m[i] for i in range(2 * n)) for m in _perfect_matchings(tuple(range(2 * n))))
    out = [pairing for pairing in pairings if is_diagram(n, pairing)]
    assert len(out) == CATALAN[n]
    return out


def random_element(rng, n: int) -> TLElement:
    diagrams = all_diagrams(n)
    terms = {}
    for diag in rng.sample(diagrams, rng.randint(1, len(diagrams))):
        terms[diag] = LaurentPoly({rng.randint(-6, 6): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})
    return TLElement(n, terms)


class TestDiagrams:
    def test_identity_and_hook(self):
        assert identity_diagram(2) == (2, 3, 0, 1)
        assert hook_diagram(3, 1) == (1, 0, 5, 4, 3, 2)

    def test_hook_index_out_of_range(self):
        for i in (0, 3):
            with pytest.raises(ValueError, match="hook index"):
                hook_diagram(3, i)

    def test_crossing_matchings_rejected(self):
        with pytest.raises(ValueError, match="not planar"):
            checked(2, (3, 2, 1, 0))  # bottom0-top1 crosses bottom1-top0

    def test_non_involution_rejected(self):
        with pytest.raises(ValueError, match="involution"):
            checked(1, (0, 1))

    def test_nested_cups_allowed(self):
        assert checked(2, (1, 0, 3, 2)) == (1, 0, 3, 2)  # cup-cup / cap-cap


class TestUncheckedConstructors:
    """The module builds its own diagrams and elements unchecked; each must pass the public checks."""

    def test_every_composition_is_a_valid_matching(self):
        for n in range(6):
            diagrams = all_diagrams(n)
            for top in diagrams:
                for bottom in diagrams:
                    diag, _ = compose_matchings(top, bottom)
                    assert is_diagram(n, diag)

    def test_identity_and_hooks_are_valid_matchings(self):
        for n in range(6):
            for diag in (identity_diagram(n), *(hook_diagram(n, i) for i in range(1, n))):
                assert is_diagram(n, diag)

    def test_every_one_strand_closure_is_a_valid_matching(self):
        for n in range(1, 6):
            for diag in all_diagrams(n):
                closed = close_first(TLElement(n, {diag: LaurentPoly.one()}))
                assert all(is_diagram(n - 1, d) for d in closed.terms)

    def test_products_and_letters_are_canonical(self):
        rng = random.Random(21)
        for n in range(1, 6):
            for _ in range(8):
                r = tl_mul(random_element(rng, n), random_element(rng, n))
                assert r == TLElement(n, dict(r.terms))
            for letter in (*range(1, n), *range(-n + 1, 0)):
                r = braid_letter(n, letter)
                assert r == TLElement(n, dict(r.terms))
            # A letter times its inverse cancels to the identity: every zero coefficient is dropped.
            for letter in range(1, n):
                r = tl_mul(braid_letter(n, -letter), braid_letter(n, letter))
                assert r == TLElement(n, dict(r.terms)) == TLElement.identity(n)

    @pytest.mark.parametrize(
        "n, pairing",
        [(2, (3, 2, 1, 0)), (1, (0, 1)), (2, (1, 0, 3)), (2, (1, 0, 3, 4)), (2, (2, 3, 1, 0))],
    )
    def test_public_constructor_still_rejects_invalid_pairings(self, n, pairing):
        with pytest.raises(ValueError):
            TLElement(n, {pairing: 1})

    def test_public_element_constructor_still_rejects_a_wrong_strand_count(self):
        with pytest.raises(ValueError, match="expected 6"):
            TLElement(3, {identity_diagram(2): LaurentPoly.one()})

    def test_int_coefficients_are_constant_polynomials(self):
        # As in LaurentPoly's arithmetic: a product or a closure reads the int as a polynomial.
        elem = TLElement(2, {identity_diagram(2): 1, hook_diagram(2, 1): 0})
        assert elem.terms == {identity_diagram(2): LaurentPoly.one()}
        assert tl_mul(elem, TLElement.hook(2, 1)) == TLElement.hook(2, 1)
        assert close_all(elem) == DELTA * DELTA

    def test_coefficients_of_another_type_are_rejected(self):
        with pytest.raises(TypeError, match="str"):
            TLElement(2, {identity_diagram(2): "1"})


class TestComposition:
    def test_hook_squared_makes_one_loop(self):
        hook = hook_diagram(2, 1)
        diag, loops = compose_matchings(hook, hook)
        assert diag == hook
        assert loops == 1

    def test_hook_relations(self):
        e1, e2 = TLElement.hook(3, 1), TLElement.hook(3, 2)
        assert tl_mul(e1, e1).terms == {hook_diagram(3, 1): DELTA}
        assert tl_mul(tl_mul(e1, e2), e1) == e1
        assert tl_mul(tl_mul(e2, e1), e2) == e2

    def test_loops_weight_each_term(self):
        # e1 e3 stacked on itself erases two loops; stacked on e2, none.
        e1e3 = tl_mul(TLElement.hook(4, 1), TLElement.hook(4, 3))
        e2 = TLElement.hook(4, 2)
        (d13,), (d2,) = e1e3.terms, e2.terms
        assert tl_mul(e1e3, e1e3).terms == {d13: DELTA**2}
        (d132,) = tl_mul(e1e3, e2).terms
        lhs = tl_mul(TLElement(4, {d13: V(1)}), TLElement(4, {d2: LaurentPoly.one(), d13: V(-3)}))
        assert lhs.terms == {d132: V(1), d13: V(-2) * DELTA**2}

    def test_identity_element_is_neutral(self):
        e1 = TLElement.hook(4, 1)
        ident = TLElement.identity(4)
        assert tl_mul(ident, e1) == e1
        assert tl_mul(e1, ident) == e1

    def test_size_mismatch(self):
        # Anywhere in a chain, the error names both strand counts; a diagram
        # pair is checked too.
        three, two = TLElement.identity(3), TLElement.identity(2)
        for chain in ((two, three), (two, three, three), (three, two, three), (three, three, two)):
            with pytest.raises(ValueError, match=r"on (3 and 2|2 and 3) strands"):
                tl_mul(*chain)
        with pytest.raises(ValueError, match="cannot stack diagrams on 2 and 3 strands"):
            compose_matchings(identity_diagram(2), identity_diagram(3))

    def test_identity_diagram_returns_the_other_operand(self):
        for n in range(5):
            diagrams = all_diagrams(n)
            (ident,) = [d for d in diagrams if d == identity_diagram(n)]
            for diag in diagrams:
                for top, bottom in ((ident, diag), (diag, ident)):
                    result, loops = compose_matchings(top, bottom)
                    assert result is diag
                    assert loops == 0


class TestChainProduct:
    """`tl_mul` of any number of factors, in one pass, against two-factor products."""

    def test_chain_equals_the_pairwise_right_fold(self):
        # One factor folds to itself, so the chain of one is that factor.
        rng = random.Random(29)
        for n in range(6):
            for length in range(1, 7):
                factors = [random_element(rng, n) for _ in range(length)]
                fold = reduce(lambda below, top: tl_mul(top, below), reversed(factors[:-1]), factors[-1])
                assert tl_mul(*factors) == fold, [f.terms for f in factors]

    def test_no_factor_is_an_error(self):
        with pytest.raises(ValueError, match="at least one factor"):
            tl_mul()

    def test_inverse_letters_cancel_exactly_mid_chain(self):
        rng = random.Random(31)
        for n in range(2, 6):
            for i in range(1, n):
                pair = (braid_letter(n, -i), braid_letter(n, i))
                assert tl_mul(*pair).terms == {identity_diagram(n): LaurentPoly.one()}
                # The expected elements are canonical, so equality also rules
                # out a zero-coefficient diagram left by the cancellation.
                above, below = random_element(rng, n), random_element(rng, n)
                assert tl_mul(*pair, below) == below
                assert tl_mul(above, *pair, below) == tl_mul(above, below)

    def test_word_element_equals_the_per_letter_fold(self):
        # Every word up to length 6 on up to three strands and up to length 4
        # on four (lengths 5 and 6 there add 54,432 words, too many for every
        # run), then random words of length 5 and 6 on four strands and random
        # longer words on up to six.
        words = []
        for n, max_len in ((1, 6), (2, 6), (3, 6), (4, 4)):
            alphabet = [s * g for g in range(1, n) for s in (1, -1)]
            words += [BraidWord(n, letters) for k in range(max_len + 1) for letters in product(alphabet, repeat=k)]
        rng = random.Random(32)
        words += [random_word(rng, 4, rng.randint(5, 6)) for _ in range(200)]
        words += [random_word(rng, n, rng.randint(7, 14)) for n in range(2, 7) for _ in range(20)]
        for word in words:
            assert word_element(word) == word_element_by_letters(word), word


class TestBraidLetters:
    def test_letter_expansion(self):
        elem = braid_letter(2, 1)
        assert elem.terms[identity_diagram(2)] == V(1)
        assert elem.terms[hook_diagram(2, 1)] == -V(-1)
        inverse = braid_letter(2, -1)
        assert inverse.terms[identity_diagram(2)] == V(-1)
        assert inverse.terms[hook_diagram(2, 1)] == -V(1)

    def test_letter_out_of_range(self):
        with pytest.raises(ValueError, match="letter 3 out of range for 3 strands"):
            braid_letter(3, 3)

    def test_inverse_letters_cancel(self):
        elem = tl_mul(braid_letter(2, -1), braid_letter(2, 1))
        assert elem == TLElement.identity(2)

    def test_braid_relation_in_the_monoid(self):
        lhs = word_element(BraidWord(3, (1, 2, 1)))
        rhs = word_element(BraidWord(3, (2, 1, 2)))
        assert lhs == rhs


class TestClosure:
    def test_closing_identity_strands(self):
        assert close_all(TLElement.identity(1)) == DELTA
        assert close_all(TLElement.identity(3)) == DELTA**3

    def test_closing_hook(self):
        assert close_all(TLElement.hook(2, 1)) == DELTA

    def test_no_strand_to_close(self):
        with pytest.raises(ValueError, match="no strand left to close"):
            close_first(TLElement.identity(0))

    def test_close_first_partial(self):
        # Closing one strand of the two-strand identity leaves one strand and a loop.
        partial = close_first(TLElement.identity(2))
        assert partial == TLElement(1, {identity_diagram(1): DELTA})

    def test_positive_kink_value(self):
        closed = close_all(word_element(BraidWord(2, (1,))))
        assert closed == V(3) * DELTA

    def test_empty_word_bracket(self):
        assert close_all(word_element(BraidWord(1, ()))) == DELTA

    def test_close_all_matches_strand_by_strand_closure(self):
        rng = random.Random(7)
        for n in range(6):
            for _ in range(12):
                elem = random_element(rng, n)
                assert close_all(elem) == close_all_by_strands(elem), elem.terms
        for n in range(1, 6):
            for _ in range(8):
                elem = word_element(random_word(rng, n, rng.randint(0, 7)))
                assert close_all(elem) == close_all_by_strands(elem), elem.terms


class TestOperatorImage:
    """The map E_i -> P on legs i, i+1 of (1/2)^n, checked against the R-matrix route with no closure."""

    def test_walk_reaches_every_diagram(self):
        for n in range(6):
            assert set(_diagram_images(n)) == set(all_diagrams(n))

    def test_image_respects_products(self):
        diagrams = [TLElement(4, {d: LaurentPoly.one()}) for d in all_diagrams(4)]
        for a in diagrams:
            for b in diagrams:
                assert tl_image(tl_mul(a, b)) == tl_image(a) @ tl_image(b), (a.terms, b.terms)

    def test_letters_are_the_braided_r_matrix(self):
        words = [BraidWord(3, letters) for k in range(4) for letters in product((1, -1, 2, -2), repeat=k)]
        rng = random.Random(28)
        words += [random_word(rng, 4, rng.randint(1, 8)) for _ in range(50)]
        for word in words:
            assert tl_image(word_element(word)) == braid_operator(all_half(word)), word
