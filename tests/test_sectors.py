"""
The quantum trace read from the nonnegative weight sectors, and the
intertwining check that admits a braid to it.  The full-column trace of
`braid_operator` is the oracle.
"""

import random

import pytest

from oracles import random_colored_braid, rep_qh, two_strand_torus_value
from qlink import rmatrix
from qlink.braid import BraidWord, ColoredBraid, parse_colored
from qlink.invariant import all_half, braid_operator, rt_invariant
from qlink.laurent import LaurentPoly
from qlink.tensorop import HALF, Operator, Shape, Spin, full_trace
from qlink.uqsu2 import delta_rep

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
    assert Shape.of(1, 2).twice_weights() == [3, 1, -1, 1, -1, -3]
    assert Shape(()).twice_weights() == [0]
    shape = Shape.of(1, 2, 3)
    qh = delta_rep("QH", shape)
    assert [qh.entry(i, i) for i in range(shape.dim)] == [V(t) for t in shape.twice_weights()]


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
    entries = dict(clean.entries)
    entries[cell] = entries[cell] * V(2) if mode == "scale" else LaurentPoly.one()
    rmatrix.clear_cache()
    rmatrix._cache[("R", 1, 1)] = Operator(clean.shape_in, clean.shape_out, entries)
    assert rmatrix.intertwines(HALF, HALF) is False
    for word in (BraidWord(1, ()), BraidWord(2, (1, 1, 1)), BraidWord(3, (1, 2, 1, 1))):
        braid = all_half(word)
        assert rt_invariant(braid) == full_column_value(braid), word


def test_corrupted_mixed_color_r_keeps_the_full_column_value():
    # Positive letters only: a corrupted R(1/2, 1) would fail the R^-1 R = id check of its inverse.
    braid = parse_colored("n=2; 1 1", colors=(HALF, Spin(2)))
    clean_value = rt_invariant(braid)
    clean = rmatrix.r_matrix(HALF, Spin(2))
    entries = dict(clean.entries)
    cell = min(entries)
    entries[cell] = entries[cell] * V(2)
    rmatrix.clear_cache()
    rmatrix._cache[("R", 1, 2)] = Operator(clean.shape_in, clean.shape_out, entries)
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
