"""
Acceptance suite: one test per criterion, each an exact (zero-tolerance)
polynomial or matrix identity, with a wall-clock budget.  Every criterion
prints a single pass/fail line (run pytest with -s to see them as they go).
"""

import random
import time
from contextlib import contextmanager
from itertools import product

import pytest

from conftest import clear_all_caches, corrupted
from oracles import (
    as_scalar,
    bracket_state_sum,
    casimir,
    fusion_identity_residual,
    hopf_link,
    monodromy_annihilator,
    random_colored_braid,
    random_word,
    rep_qh,
    unknot,
    verify_frt,
    verify_yang_baxter,
)
from qlink import aw, rmatrix
from qlink.braid import BraidWord, ColoredBraid, cable
from qlink.invariant import (
    all_half,
    cs_invariant_fundamental,
    kauffman_bracket,
    rt_invariant,
    verify_factorization,
    verify_framing,
    verify_markov,
    verify_recursion,
    verify_skein,
)
from qlink.laurent import LaurentPoly, qint
from qlink.tensorop import (
    HALF,
    Operator,
    Shape,
    Spin,
    partial_trace_first,
    partial_trace_last,
)
from qlink.uqsu2 import casimir_rep

V = LaurentPoly.v_power


@pytest.fixture(scope="module", autouse=True)
def _fresh_start():
    clear_all_caches()
    yield
    clear_all_caches()


@contextmanager
def criterion(number: int, budget_s: float, description: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number:02d} FAIL ({elapsed:6.2f}s): {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number:02d} PASS ({elapsed:6.2f}s <= {budget_s:g}s): {description}")
    assert elapsed <= budget_s, f"criterion {number} exceeded its {budget_s}s budget ({elapsed:.2f}s)"


def test_c01_fundamental_braiding_matrix():
    with criterion(1, 1.0, "fundamental 4x4 braiding matrix, entry for entry"):
        got = rmatrix.r_matrix(HALF, HALF)
        expected = Operator(
            Shape((HALF, HALF)),
            Shape((HALF, HALF)),
            {
                (0, 0): V(1),
                (1, 1): V(-1),
                (2, 1): V(1) - V(-3),
                (2, 2): V(-1),
                (3, 3): V(1),
            },
        )
        assert got == expected


def test_c02_unknot_values():
    with criterion(2, 5.0, "unknot values are quantum dimensions for 2j = 0..6"):
        for tj in range(0, 7):
            assert rt_invariant(unknot(Spin(tj))) == qint(tj + 1), tj


def test_c03_hopf_values():
    with criterion(3, 30.0, "doubly-crossed circles give [(2j1+1)(2j2+1)] for 2j <= 4"):
        for ta in range(0, 5):
            for tb in range(0, 5):
                got = rt_invariant(hopf_link(Spin(ta), Spin(tb)))
                assert got == qint((ta + 1) * (tb + 1)), (ta, tb)


def test_c04_weighted_partial_traces():
    with criterion(4, 30.0, "all four weighted kink traces give q^(+-2j(j+1)) for 2j = 1..6"):
        for tj in range(1, 7):
            j = Spin(tj)
            factor = V(tj * (tj + 2))
            braid_op = rmatrix.braided_r(j, j)
            braid_inv = rmatrix.braided_r_inv(j, j)
            assert as_scalar(partial_trace_first(braid_op, rep_qh(j, 2))) == factor
            assert as_scalar(partial_trace_first(braid_inv, rep_qh(j, 2))) == factor.bar()
            assert as_scalar(partial_trace_last(braid_op, rep_qh(j, -2))) == factor
            assert as_scalar(partial_trace_last(braid_inv, rep_qh(j, -2))) == factor.bar()


def test_c05_trace_route_reproduces_casimirs():
    with criterion(5, 30.0, "trace route reproduces Casimir and coproduct Casimir, 2j <= 4"):
        for tj in range(0, 5):
            assert aw.q_elem_trace("1", Shape.of(tj)) == casimir(Spin(tj)), tj
        for ta in range(0, 5):
            for tb in range(0, 5):
                shape = Shape.of(ta, tb)
                assert aw.q_elem_trace("12", shape) == casimir_rep(shape), (ta, tb)


AW_SHAPES = [(1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1), (1, 2, 3), (2, 2, 2)]


def test_c06_askey_wilson_relations():
    with criterion(6, 120.0, "all four AW relations, zero residual, on six shapes"):
        for triple in AW_SHAPES:
            report = aw.verify_aw(Shape.of(*triple))
            assert report.passed, report.summary()


EXPANSION_SHAPES = [(1, 1, 1), (1, 2, 1), (2, 1, 2)]


def test_c07_expansion_and_route_equality():
    with criterion(7, 120.0, "block-product expansion and coproduct/trace route equality"):
        for triple in EXPANSION_SHAPES:
            shape = Shape.of(*triple)
            report = aw.verify_expansion(shape)
            assert report.passed, report.summary()
            report = aw.verify_routes(shape)
            assert report.passed, report.summary()


def test_c08_p_matrix_layer():
    with criterion(8, 10.0, "P-matrix layer: split, quadratic law, traces, exchange relations"):
        report = aw.verify_p_propositions()
        assert report.passed, report.summary()


def test_c09_exchange_and_yang_baxter_layer():
    with criterion(9, 60.0, "FRT/one-leg exchange relations, Yang-Baxter, monodromy annihilators"):
        report = verify_frt((1, 2, 3))
        assert report.passed, report.summary()
        for t1 in (0, 1, 2):
            for t2 in (0, 1, 2):
                for t3 in (0, 1, 2):
                    ybe = verify_yang_baxter(Spin(t1), Spin(t2), Spin(t3))
                    assert ybe.passed, ybe.summary()
        for ta in (0, 1, 2):
            for tb in (0, 1, 2):
                mono = monodromy_annihilator(Spin(ta), Spin(tb))
                assert mono.passed, mono.summary()


def _corpus():
    """Deterministic word corpus: n <= 4 strands, length <= 8, several thousand words."""
    words = []
    for n, max_len in ((2, 8), (3, 5), (4, 3)):
        alphabet = [s * g for g in range(1, n) for s in (1, -1)]
        for length in range(0, max_len + 1):
            for letters in product(alphabet, repeat=length):
                words.append(BraidWord(n, letters))
    rng = random.Random(20240)
    for _ in range(500):
        words.append(random_word(rng, 4, rng.randint(4, 8)))
    for _ in range(300):
        words.append(random_word(rng, 3, rng.randint(6, 8)))
    return words


def test_c10_cross_pipeline_equality():
    with criterion(10, 300.0, "bracket and quantum-trace pipelines agree on the word corpus"):
        words = _corpus()
        assert len(words) > 2000
        for word in words:
            assert cs_invariant_fundamental(word) == rt_invariant(all_half(word)), word
        trefoil = BraidWord(2, (1, 1, 1))
        figure_eight = BraidWord(3, (1, -2, 1, -2))
        assert rt_invariant(all_half(trefoil)) == LaurentPoly({7: 1, 3: 1, -1: 1, -9: -1})
        for named in (trefoil, figure_eight):
            assert cs_invariant_fundamental(named) == rt_invariant(all_half(named))
        checked = 0
        for word in words:
            if len(word.letters) <= 6:
                assert kauffman_bracket(word) == bracket_state_sum(word), word
                checked += 1
        assert checked > 1500


def test_c11_skein_framing_fusion_factorization_markov():
    with criterion(11, 120.0, "skein, framing, fusion, factorization, conjugation invariance"):
        rng = random.Random(77)
        for _ in range(200):
            word = random_word(rng, rng.randint(2, 4), rng.randint(0, 6))
            rng.randint(1, word.n_strands - 1)  # a position draw, kept so the later draws stay the same
            report = verify_skein(all_half(word))
            assert report.passed, report.summary()
        for tj in range(0, 5):
            report = verify_framing(unknot(Spin(tj)))
            assert report.passed, report.summary()
        report = verify_framing(ColoredBraid(BraidWord(3, (1, 1)), (HALF, HALF, Spin(4))), strand=2)
        assert report.passed, report.summary()
        for ta in range(0, 11):
            for tb in range(0, 11):
                assert not fusion_identity_residual(ta, tb), (ta, tb)
        for _ in range(50):
            left = random_colored_braid(rng, rng.randint(1, 3), rng.randint(0, 4), 2)
            right = random_colored_braid(rng, rng.randint(1, 3), rng.randint(0, 4), 2)
            report = verify_factorization(left, right)
            assert report.passed, report.summary()
        for _ in range(200):
            braid = random_colored_braid(rng, rng.randint(2, 4), rng.randint(0, 6), 2)
            rng.randint(1, braid.n_strands - 1)  # a generator draw, kept so the later draws stay the same
            report = verify_markov(braid)
            assert report.passed, report.summary()


def test_c12_color_lowering_recursion():
    with criterion(12, 60.0, "color-lowering recursion on circles and linked circles"):
        for tj in (2, 3, 4):
            report = verify_recursion(unknot(Spin(tj)), 0)
            assert report.passed, report.summary()
        for colors in ((2, 1), (2, 2)):
            report = verify_recursion(hopf_link(Spin(colors[0]), Spin(colors[1])), 0)
            assert report.passed, report.summary()
        # Color-0 components delete outright, even when entangled.
        chain = ColoredBraid(BraidWord(3, (1, 1, 2, 2)), (Spin(0), HALF, HALF))
        assert rt_invariant(chain) == rt_invariant(cable(chain, [(), (HALF,), (HALF,)]))


def test_c13_diagram_relations_and_quotient_map():
    with criterion(13, 10.0, "diagram-monoid relations and the hook-expansion quotient map"):
        report = aw.verify_tl_iso()
        assert report.passed, report.summary()


def _detects_corruption() -> dict:
    """Run cheap stand-ins for criteria 6, 9, 10 and report which ones notice."""
    detected = {}
    try:
        report = aw.verify_aw(Shape.of(1, 1, 1))
        detected["aw-relations"] = not report.passed
    except Exception:
        detected["aw-relations"] = True
    try:
        report = verify_yang_baxter(HALF, HALF, HALF)
        detected["yang-baxter"] = not report.passed
    except Exception:
        detected["yang-baxter"] = True
    try:
        # Two corpus representatives; the second one exercises inverse letters.
        mismatch = False
        for word in (BraidWord(2, (1, 1, 1)), BraidWord(3, (1, -2, 1, -2))):
            mismatch = mismatch or cs_invariant_fundamental(word) != rt_invariant(all_half(word))
        detected["cross-pipeline"] = mismatch
    except Exception:
        detected["cross-pipeline"] = True
    return detected


def test_c14_negative_controls():
    with criterion(14, 120.0, "single-entry braiding corruptions are detected by the suite"):
        clean = rmatrix.r_matrix(HALF, HALF)
        corruptions = [((r, c), "scale") for (r, c) in sorted(clean.entries)]
        corruptions.append(((0, 1), "insert"))
        for cell, mode in corruptions:
            value = clean.entries[cell] * V(2) if mode == "scale" else LaurentPoly.one()
            with corrupted(("R", 1, 1), clean, cell, value):
                detected = _detects_corruption()
            assert all(detected.values()), (cell, mode, detected)
        # And the pristine matrix passes the same detectors.
        detected = _detects_corruption()
        assert not any(detected.values()), detected
