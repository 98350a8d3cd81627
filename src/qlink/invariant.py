"""
The two invariant pipelines for closed braids, and the identity suites
connecting them.

Quantum-trace route: the braid's letters (`rmatrix.word_steps`) are applied
in one pass of `tensorop`'s packed executor over the word, each on the two legs it
crosses by the braided two-leg matrix at their spins (inverse matrices for
negative letters); neither an ambient-size letter operator nor an operator
per letter is built.  Colors travel with the strands, so the shape
bookkeeping is exact for mixed colorings.  The closure value is the trace weighted by
q^(2H) on every factor, Tr(B . q^(2H) (x) ... (x) q^(2H)) = sum_i B_ii v^(2 t_i)
with t_i the twice-weight of column i, and one path computes it: the letters
act on the identity's columns in one `tensorop.weighted_trace` call, whose
last letter writes only the diagonal, decoded straight into the weighted sum.
The columns acted on and their offsets, the frame of the colors, come from
`rmatrix.closure_frame`, which states the rule.  `braid_operator` with
`tensorop.full_trace` is the test oracle for this path.  The value is a
regular-isotopy invariant: a kink changes it by exactly q^(+-2j(j+1)), which
is checked by `verify_framing` rather than normalized away.  An
ambient-isotopy variant that divides out each component's self-writhe is
available behind the `normalize` flag; the raw framed value is the default.

Bracket route (fundamental color only): a braid word is expanded in the
diagram monoid over v (a letter is v - v^-1 E, its inverse v^-1 - v E) and
closed at loop value q + q^-1, which is the quantum trace with every color
1/2; the Kauffman bracket in x is `phase_mul` of that value.  An
exponential-time smoothing-tree oracle for the bracket lives in the test
suite, deliberately independent of the diagram-monoid implementation here.
"""

from __future__ import annotations

import sys

from .braid import (
    BraidWord,
    ColoredBraid,
    cable,
    component,
    components,
    disjoint_union,
    self_writhe,
)
from .laurent import LaurentPoly, phase_mul
from .report import Report
from .tensorop import (
    HALF,
    InputError,
    Operator,
    Shape,
    Spin,
    act_adjacent,
    identity,
    weighted_trace,
)

Q = LaurentPoly.q_power
V = LaurentPoly.v_power

# The package this module was imported with; see `_rmatrix`.
_PACKAGE = sys.modules[__package__]


def _rmatrix():
    """
    The rmatrix module, imported on first use so that the cs and bracket
    routes never load it (nor uqsu2).  It is looked up on this module's own
    package, not in sys.modules, so that a process which imports qlink afresh
    (perfbench's cold-cache replicas) keeps every module with the rmatrix of
    its own import and never mixes two imports' polynomial classes.
    """
    rmatrix = getattr(_PACKAGE, "rmatrix", None)
    if rmatrix is None:
        from . import rmatrix
    return rmatrix


def clear_cache() -> None:
    """
    Clear rmatrix's table: its two-leg matrices and the closure frames drawn
    from them, the only cache the quantum-trace route reads.
    """
    _rmatrix().clear_cache()


def braid_operator(braid: ColoredBraid) -> Operator:
    """The represented braid, from the bottom-color shape to itself."""
    return act_adjacent(_rmatrix().word_steps(braid.word.letters, braid.colors)[0], identity(Shape(braid.colors)))


def rt_invariant(braid: ColoredBraid, normalize: bool = False) -> LaurentPoly:
    """
    The weighted closure trace of the braid, from the frame of its colors.
    With normalize=True the value is multiplied by q^(-2j(j+1) * self-writhe)
    per component, trading the framed (regular-isotopy) value for an
    ambient-isotopy one.
    """
    rmatrix = _rmatrix()
    value = weighted_trace(rmatrix.word_steps(braid.word.letters, braid.colors)[0], *rmatrix.closure_frame(braid.colors))
    if normalize:
        twice = [braid.colors[comp[0]].twice_j for comp in components(braid)]
        value = value * V(-sum(tj * (tj + 2) * w for tj, w in zip(twice, self_writhe(braid))))
    return value


# ---------------------------------------------------------------------------
# Bracket pipeline (all strands fundamental, input an uncolored word).
# ---------------------------------------------------------------------------


def kauffman_bracket(word: BraidWord) -> LaurentPoly:
    """
    The bracket of the braid closure in x, a closed strand worth -x^2 - x^(-2):
    `phase_mul` of the fundamental-color value at the writhe.  An exponent of
    the other parity is a complex residue, a pipeline fault: ArithmeticError.
    """
    return phase_mul(cs_invariant_fundamental(word), word.exponent_sum())


def cs_invariant_fundamental(word: BraidWord) -> LaurentPoly:
    """
    The closure's value with every component in the fundamental color: the
    word's element in the diagram monoid over v, closed.
    """
    from .tl import close_all, word_element

    return close_all(word_element(word))


def all_half(word: BraidWord) -> ColoredBraid:
    """The word colored with spin 1/2 on every strand."""
    return ColoredBraid(word, tuple(HALF for _ in range(word.n_strands)))


def fundamental_word(braid: ColoredBraid, use: str) -> BraidWord:
    """The braid's word, for a `use` that needs every strand in color 1/2."""
    if any(c != HALF for c in braid.colors):
        raise InputError(f"{use} needs every strand in color 1/2", "colors")
    return braid.word


# ---------------------------------------------------------------------------
# Identity suites.
# ---------------------------------------------------------------------------


def _conjugate(braid: ColoredBraid, g: int) -> ColoredBraid:
    """sigma_g . braid . sigma_g^-1, with the bottom colors swapped to match."""
    letters = (g,) + braid.word.letters + (-g,)
    colors = list(braid.colors)
    colors[g - 1], colors[g] = colors[g], colors[g - 1]
    return ColoredBraid(BraidWord(braid.n_strands, letters), tuple(colors))


def _stabilize_front(braid: ColoredBraid, positive: bool) -> ColoredBraid:
    """
    Add a kink at the left edge: a fresh strand at the leftmost bottom
    position, colored like the old leftmost strand, crossing it once.
    """
    union = disjoint_union(ColoredBraid(BraidWord(1, ()), braid.colors[:1]), braid)
    return ColoredBraid(BraidWord(union.n_strands, (1 if positive else -1,) + union.word.letters), union.colors)


def verify_framing(braid: ColoredBraid, strand: int = 0) -> Report:
    """
    Check that a single kink on the chosen strand's component scales the
    closure value by exactly q^(+-2j(j+1)).  The kink is inserted at the left
    edge; if the strand is not already leftmost, the braid is first conjugated
    (a closure-preserving move) to bring it there.
    """
    if not 0 <= strand < braid.n_strands:
        raise InputError(f"no strand {strand}; braid has {braid.n_strands}", "strand")
    report = Report(f"framing strand={strand}")
    work = braid
    # Walk the strand to the leftmost bottom position, one conjugation at a time.
    pos = strand
    while pos > 0:
        work = _conjugate(work, pos)
        pos -= 1
    base = rt_invariant(work)
    report.add("conjugation used to front the strand preserves the value", base - rt_invariant(braid))
    tj = braid.colors[strand].twice_j
    factor = V(tj * (tj + 2))  # q^(2j(j+1))
    plus = rt_invariant(_stabilize_front(work, positive=True))
    minus = rt_invariant(_stabilize_front(work, positive=False))
    report.add(f"positive kink scales by q^(2j(j+1)), 2j={tj}", plus - base * factor)
    report.add(f"negative kink scales by q^(-2j(j+1)), 2j={tj}", minus - base * factor.bar())
    return report


def verify_recursion(braid: ColoredBraid, comp_index: int) -> Report:
    """
    Check the color-lowering recursion on one component: the value at color j
    equals the value of the parallel 2-cable colored (1/2, j - 1/2) minus the
    value at color j - 1; plus the rule that a color-0 component can be
    deleted outright.  At j = 1/2 the lowered term is the value at color -1/2,
    which is 0 (its loop dimension is [0] = 0), so the cable alone must match.
    """
    color = braid.colors[component(braid, comp_index)[0]]
    tj = color.twice_j
    if tj < 1:
        raise InputError(f"component {comp_index} has color {color}; recursion needs at least 1/2", "component")
    own = [(braid.colors[comp[0]],) for comp in components(braid)]

    def edited(new: tuple[Spin, ...]) -> ColoredBraid:
        # Every other component keeps its color at width 1; this one becomes `new`.
        return cable(braid, [*own[:comp_index], new, *own[comp_index + 1 :]])

    report = Report(f"recursion component={comp_index} color={color}")
    residual = rt_invariant(braid) - rt_invariant(edited((HALF, Spin(tj - 1))))
    name = f"value(j={color}) = value(cable(1/2,{Spin(tj - 1)}))"
    if tj >= 2:
        residual = residual + rt_invariant(edited((Spin(tj - 2),)))
        name += f" - value(j={Spin(tj - 2)})"
    report.add(name, residual)
    report.add("a color-0 component deletes cleanly", rt_invariant(edited((Spin(0),))) - rt_invariant(edited(())))
    return report


def verify_factorization(a: ColoredBraid, b: ColoredBraid) -> Report:
    """Closure value of a disjoint union is the product of the values."""
    report = Report("factorization")
    report.add(
        "value(a u b) = value(a) value(b)",
        rt_invariant(disjoint_union(a, b)) - rt_invariant(a) * rt_invariant(b),
    )
    return report


def _require_generator(suite: str, braid: ColoredBraid) -> None:
    # With one strand there is no generator, and a report of no checks would read as a pass.
    if braid.n_strands < 2:
        raise InputError(f"{suite} needs at least 2 strands, got {braid.n_strands}", "braid")


def verify_skein(braid: ColoredBraid) -> Report:
    """
    The two-term crossing exchange for fundamental colors:
    q^(1/2) value(w sigma_i) - q^(-1/2) value(w sigma_i^-1) = (q - q^-1) value(w).
    """
    fundamental_word(braid, "the two-term exchange")
    _require_generator("skein", braid)
    report = Report("skein")
    base = rt_invariant(braid)
    coeff = Q(1) - Q(-1)
    for i in range(1, braid.n_strands):
        word_plus = BraidWord(braid.n_strands, braid.word.letters + (i,))
        word_minus = BraidWord(braid.n_strands, braid.word.letters + (-i,))
        lhs = V(1) * rt_invariant(all_half(word_plus)) - V(-1) * rt_invariant(all_half(word_minus))
        report.add(f"exchange at position {i}", lhs - coeff * base)
    return report


def verify_markov(braid: ColoredBraid) -> Report:
    """Conjugating the word by any generator leaves the closure value fixed."""
    _require_generator("markov", braid)
    report = Report("markov")
    base = rt_invariant(braid)
    for g in range(1, braid.n_strands):
        report.add(f"conjugation by generator {g}", rt_invariant(_conjugate(braid, g)) - base)
    return report
