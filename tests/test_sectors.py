"""
The quantum trace read from the nonnegative weight sectors, and the
intertwining check that admits a braid to it.  The full-column trace of
`braid_operator` is the oracle.
"""

import random

import pytest

from conftest import corrupted
from oracles import random_colored_braid, rep_qh, shape_twice_weights, two_strand_torus_value
from qlink import rmatrix
from qlink.braid import BraidWord, ColoredBraid, parse_colored
from qlink.invariant import all_half, braid_operator, rt_invariant
from qlink.laurent import LaurentPoly
from qlink.tensorop import HALF, Shape, Spin, full_trace, weighted_trace
from qlink.uqsu2 import delta_rep, twice_weights

V = LaurentPoly.v_power

# The single-entry corruptions of R(1/2, 1/2) that the c14 acceptance criterion
# injects: every entry scaled by v^2, and a 1 written into the empty cell (0, 1).
CORRUPTIONS = [(cell, "scale") for cell in sorted(rmatrix.r_matrix(HALF, HALF).entries)] + [((0, 1), "insert")]


@pytest.fixture(autouse=True)
def fresh_caches():
    rmatrix.clear_cache()
    yield
    rmatrix.clear_cache()


def full_column_value(braid):
    return full_trace(braid_operator(braid), [rep_qh(j, 2) for j in braid.colors])


def test_shape_twice_weights_are_the_weight_diagonal():
    for weights in (twice_weights, shape_twice_weights):
        assert weights(Shape.of(1, 2)) == [3, 1, -1, 1, -1, -3]
        assert weights(Shape(())) == [0]
        shape = Shape.of(1, 2, 3)
        qh = delta_rep("QH", shape)
        assert [qh.entry(i, i) for i in range(shape.dim)] == [V(t) for t in weights(shape)]
    for tjs in ((0,), (4,), (3, 0, 2), (1, 1, 1, 1), (2, 3, 1)):
        assert twice_weights(Shape.of(*tjs)) == shape_twice_weights(Shape.of(*tjs)), tjs


@pytest.mark.parametrize("seed", range(20))
def test_sector_closure_equals_full_column_trace(seed):
    rng = random.Random(7100 + seed)
    for n in range(5):
        braid = random_colored_braid(rng, n, rng.randint(0, 5), 4)
        assert rt_invariant(braid) == full_column_value(braid), braid


def test_clean_braidings_intertwine():
    assert all(rmatrix.intertwines(Spin(a), Spin(b)) for a in range(5) for b in range(5))
    assert rmatrix._cache[("intertwines", 1, 1)] is True
    rmatrix.clear_cache()
    assert ("intertwines", 1, 1) not in rmatrix._cache


@pytest.mark.parametrize("cell, mode", CORRUPTIONS, ids=[f"{mode}-{r}-{c}" for (r, c), mode in CORRUPTIONS])
def test_corrupted_r_fails_the_check_and_keeps_the_full_column_value(cell, mode):
    clean = rmatrix.r_matrix(HALF, HALF)
    value = clean.entries[cell] * V(2) if mode == "scale" else LaurentPoly.one()
    with corrupted(("R", 1, 1), clean, cell, value):
        assert rmatrix.intertwines(HALF, HALF) is False
        for word in (BraidWord(1, ()), BraidWord(2, (1, 1, 1)), BraidWord(3, (1, 2, 1, 1))):
            braid = all_half(word)
            assert rt_invariant(braid) == full_column_value(braid), word


def test_corrupted_mixed_color_r_keeps_the_full_column_value():
    # Positive letters only: a corrupted R(1/2, 1) would fail the R^-1 R = id check of its inverse.
    braid = parse_colored("n=2; 1 1", colors=(HALF, Spin(2)))
    clean_value = rt_invariant(braid)
    clean = rmatrix.r_matrix(HALF, Spin(2))
    cell = min(clean.entries)
    with corrupted(("R", 1, 2), clean, cell, clean.entries[cell] * V(2)):
        assert rmatrix.intertwines(HALF, Spin(2)) is False
        value = rt_invariant(braid)
        assert value == full_column_value(braid)
    assert value != clean_value


@pytest.mark.parametrize("tj", [8, 10, 12])
@pytest.mark.parametrize("k", [4, -3])
def test_high_color_two_strand_closure_matches_closed_form(tj, k):
    braid = ColoredBraid(BraidWord(2, (1 if k > 0 else -1,) * abs(k)), (Spin(tj), Spin(tj)))
    assert rt_invariant(braid) == two_strand_torus_value(Spin(tj), Spin(tj), k)


@pytest.mark.parametrize("tj", [5, 6])
def test_high_color_three_strand_closure_equals_full_column_trace(tj):
    braid = ColoredBraid(BraidWord(3, (1, 2, 1, 2, -1, 2)), (Spin(tj),) * 3)
    assert rt_invariant(braid) == full_column_value(braid)


def frame_key(braid):
    return ("frame", *[c.twice_j for c in braid.colors])


# Pure words (every strand closes on itself), so any colors fit: a color-0
# strand, mixed colors, a word whose second letter reads the leg stride the
# first one changed, and the empty word.
FIXED_BRAIDS = [
    ColoredBraid(BraidWord(3, (1, 1, -2, -2)), (Spin(0), Spin(2), Spin(1))),
    ColoredBraid(BraidWord(3, (2, 1, 1, 2)), (Spin(1), Spin(2), Spin(3))),
    ColoredBraid(BraidWord(4, (2, 2, 1, -3, -3, -1)), (Spin(1), Spin(3), Spin(0), Spin(2))),
    ColoredBraid(BraidWord(3, ()), (Spin(1), Spin(0), Spin(3))),
    ColoredBraid(BraidWord(2, ()), (Spin(2), Spin(2))),
]


@pytest.mark.parametrize("seed", range(10))
def test_cold_and_warm_frames_give_the_full_column_value(seed):
    # Each braid twice: from a cold frame, then from the frame the first call
    # kept, on 2-4 strands of mixed colors 2j <= 3.  Even cases build the
    # frame before any matrix, odd ones after the oracle has built them.
    rng = random.Random(7300 + seed)
    braids = [random_colored_braid(rng, 2 + case % 3, rng.randint(0, 7), 3) for case in range(6)]
    for case, braid in enumerate(braids + FIXED_BRAIDS[seed % 5 : seed % 5 + 1]):
        rmatrix.clear_cache()
        want = None if case % 2 == 0 else full_column_value(braid)
        assert frame_key(braid) not in rmatrix._cache
        cold = rt_invariant(braid)
        frame = rmatrix._cache[frame_key(braid)]
        warm = rt_invariant(braid)
        assert rmatrix._cache[frame_key(braid)] is frame
        assert cold == warm == (want or full_column_value(braid)), braid


def test_clear_cache_drops_the_frame_so_a_corrupted_r_is_traced_over_every_column():
    # The (1/2, 1/2) frame from a clean R reads only the columns of twice-weight
    # t >= 0.  After clear_cache and c14's scaled entry, the closure must build
    # a new frame over every column; the old one would give a wrong value.
    braid = all_half(BraidWord(2, (1, 1, 1)))
    rt_invariant(braid)
    stale = rmatrix._cache[("frame", 1, 1)]
    assert stale[0].nnz() == 3
    clean = rmatrix.r_matrix(HALF, HALF)
    cell = min(clean.entries)
    with corrupted(("R", 1, 1), clean, cell, clean.entries[cell] * V(2)):
        value = rt_invariant(braid)
        frame = rmatrix._cache[("frame", 1, 1)]
        assert frame is not stale and frame[0].nnz() == 4
        assert value == full_column_value(braid)
        assert weighted_trace(rmatrix.word_steps(braid.word.letters, braid.colors)[0], *stale) != value
