"""
Intermediate Casimir operators on threefold tensor products, built by two
independent routes, and exact verification of the Askey-Wilson relations.

An index names its legs, counted from 1 ("13" and "13~" both name legs 1
and 3); every construction and every spectrum reads the legs from the name.

Coproduct route (`q_elem`, the only cached one): the one-, two-, and
three-leg Casimirs come from iterated coproducts; the recoupled elements
conjugate the (1,2)-block Casimir by a braiding W of the last two legs,

    Q_13  = W^-1 . Q_12' . W   with W = sigma_2,
    Q~_13 = W^-1 . Q_12' . W   with W = sigma_2^-1,

where Q_12' is built on the *swapped* shape (j1, j3, j2) - the braiding
genuinely permutes factors, and constructing the middle operator on the
permuted shape is exactly what the shape-typed operators enforce.  Every
braiding here is a word of braid letters applied by `rmatrix.act_letters`,
the same rule the quantum-trace invariant uses.

Partial-trace route (`q_elem_trace`, uncached): every element with a trace
realization is a weighted first-leg trace of a product of two-leg mixed
matrices on the auxiliary shape (1/2, j1, j2, j3), with the traced spin-1/2
leg always at position 0; each formula names its L+- builder per leg.  The
index-3 element has no such realization here and falls back to the coproduct
route; `verify_routes` compares the two constructions on every index that
has both.

The central elements in the quartic relation are instantiated as their full
matrices, not scalar eigenvalues: the three-leg Casimir is generically not
scalar, and the relations hold at operator level.
"""

from __future__ import annotations

from functools import reduce
from typing import Callable, Iterable, Optional

from .braid import BraidWord
from .laurent import LaurentPoly, subst_x_iv
from .report import Report
from .rmatrix import (
    act_letters,
    braided_r,
    braided_r_inv,
    l_minus,
    l_minus_inv,
    l_plus,
    l_plus_inv,
    m_matrix,
    p_matrix,
    r_matrix,
)
from .tensorop import (
    HALF,
    Operator,
    Shape,
    Spin,
    compose,
    embed,
    identity,
    kron,
    partial_trace_first,
)
from .tl import TLElement, close_first, tl_mul, word_element
from .uqsu2 import E_SYM, F_SYM, GeneratorSymbol, chi, delta_rep, iterated_casimir, twice_spin_range

Q = LaurentPoly.q_power
V = LaurentPoly.v_power

AW_INDICES = ("1", "2", "3", "12", "23", "13", "123", "13~")
_BLOCK_INDICES = ("12", "23", "13", "13~", "123")  # the indices with a spectrum, in report order

_q_cache: dict[tuple, Operator] = {}


def clear_cache() -> None:
    _q_cache.clear()


def _norm_index(index) -> str:
    name = str(index)
    if name not in AW_INDICES:
        raise ValueError(f"unknown intermediate-Casimir index {index!r}")
    return name


def _legs(name: str) -> tuple[int, ...]:
    """The legs an index names, counted from 0: "13~" -> (0, 2)."""
    return tuple(int(digit) - 1 for digit in name.rstrip("~"))


def q_elem(index, shape: Shape) -> Operator:
    """The intermediate Casimir for one index block on a three-leg shape."""
    name = _norm_index(index)
    if len(shape) != 3:
        raise ValueError(f"intermediate Casimirs need a 3-leg shape, got {shape}")
    key = (name, shape)
    if key not in _q_cache:
        if name in ("13", "13~"):
            _q_cache[key] = _conjugated((2,) if name == "13" else (-2,), (0, 1), shape)
        else:
            _q_cache[key] = iterated_casimir(shape, _legs(name))
    return _q_cache[key]


def _conjugated(letters: tuple[int, ...], span: tuple[int, ...], shape: Shape) -> Operator:
    """
    W^-1 . iterated_casimir(W's output shape, span) . W with W the braid word
    `letters` on `shape`; W^-1 is applied in place as the inverted word.
    """
    w = act_letters(letters, identity(shape))
    inverse = tuple(-letter for letter in reversed(letters))
    return act_letters(inverse, compose(iterated_casimir(w.shape_out, span), w))


# ---------------------------------------------------------------------------
# Partial-trace route.
# ---------------------------------------------------------------------------

# Product inside the traced expression, left to right.  Entries are
# (builder, leg): the mixed-matrix builder applied to the spin of target
# factor `leg` (1..3 of the triple), acting on the auxiliary leg and that one.
_TRACE_FORMULAS: dict[str, tuple[tuple[Callable[[Spin], Operator], int], ...]] = {
    "1": ((l_plus, 1), (l_minus, 1)),
    "12": ((l_plus, 1), (l_plus, 2), (l_minus, 2), (l_minus, 1)),
    "123": (
        (l_plus, 1),
        (l_plus, 2),
        (l_plus, 3),
        (l_minus, 3),
        (l_minus, 2),
        (l_minus, 1),
    ),
    "2": ((l_plus, 1), (l_plus, 2), (l_minus, 2), (l_plus_inv, 1)),
    "23": (
        (l_plus, 1),
        (l_plus, 2),
        (l_plus, 3),
        (l_minus, 3),
        (l_minus, 2),
        (l_plus_inv, 1),
    ),
    "13": (
        (l_plus, 1),
        (l_plus, 2),
        (l_plus, 3),
        (l_minus, 3),
        (l_plus_inv, 2),
        (l_minus, 1),
    ),
    "13~": (
        (l_plus, 1),
        (l_minus_inv, 2),
        (l_plus, 3),
        (l_minus, 3),
        (l_minus, 2),
        (l_minus, 1),
    ),
}

TRACE_ROUTE_INDICES = tuple(_TRACE_FORMULAS)


def q_elem_trace(index, shape: Shape) -> Operator:
    """
    The same element produced by tracing the spin-1/2 auxiliary leg out of a
    product of mixed matrices; falls back to `q_elem` for index "3", which has
    no trace realization here.
    """
    name = _norm_index(index)
    if len(shape) != 3:
        raise ValueError(f"intermediate Casimirs need a 3-leg shape, got {shape}")
    if name == "3":
        return q_elem(name, shape)
    return _traced(_TRACE_FORMULAS[name], shape)


def _traced(formula: tuple[tuple[Callable[[Spin], Operator], int], ...], shape: Shape) -> Operator:
    """Weighted trace of the auxiliary spin-1/2 leg 0 out of the formula's product on (1/2,) + shape."""
    aux = Shape((HALF,) + shape.factors)
    prod = reduce(compose, (embed(build(shape[leg - 1]), (0, leg), aux) for build, leg in formula))
    return partial_trace_first(prod, m_matrix())


def casimir_trace(j: Spin) -> Operator:
    """One-leg version: the weighted trace of L+ L- reproduces the Casimir."""
    return _traced(_TRACE_FORMULAS["1"], Shape((j,)))


def delta_casimir_trace(j1: Spin, j2: Spin) -> Operator:
    """Two-leg version: the weighted trace reproduces the coproduct Casimir."""
    return _traced(_TRACE_FORMULAS["12"], Shape((j1, j2)))


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def verify_routes(shape: Shape) -> Report:
    """Coproduct and trace constructions agree on every index that has both."""
    report = Report(f"routes {shape}")
    for name in TRACE_ROUTE_INDICES:
        report.add(f"Q_{name} trace route", q_elem_trace(name, shape) - q_elem(name, shape))
    return report


def aw_residuals(q: dict[str, Operator], dim_identity: Operator) -> dict[str, Operator]:
    """
    Residual operators of the four defining relations for a given assignment
    of generators (exposed so corrupted assignments can serve as negative
    controls).  The q-commutator is [X, Y]_q = q X Y - q^-1 Y X.
    """
    qq, qi = Q(1), Q(-1)
    q2, qi2 = Q(2), Q(-2)
    one = dim_identity

    def qcomm(x: Operator, y: Operator) -> Operator:
        return compose(x, y) * qq - compose(y, x) * qi

    s1 = compose(q["1"], q["3"]) + compose(q["2"], q["123"])
    s2 = compose(q["1"], q["2"]) + compose(q["3"], q["123"])
    s3 = compose(q["2"], q["3"]) + compose(q["1"], q["123"])
    coeff = qq - qi
    res = {
        "AW1": qcomm(q["12"], q["23"]) + q["13"] * (q2 - qi2) - s1 * coeff,
        "AW2": qcomm(q["23"], q["13"]) + q["12"] * (q2 - qi2) - s2 * coeff,
        "AW3": qcomm(q["13"], q["12"]) + q["23"] * (q2 - qi2) - s3 * coeff,
    }
    lhs4 = (
        compose(compose(q["12"], q["23"]), q["13"]) * qq
        + compose(q["12"], q["12"]) * q2
        + compose(q["23"], q["23"]) * qi2
        + compose(q["13"], q["13"]) * q2
        - compose(q["12"], s2) * qq
        - compose(q["23"], s3) * qi
        - compose(q["13"], s1) * qq
    )
    rhs4 = (
        one * ((qq + qi) * (qq + qi))
        - compose(q["123"], q["123"])
        - compose(q["1"], q["1"])
        - compose(q["2"], q["2"])
        - compose(q["3"], q["3"])
        - compose(compose(q["1"], q["2"]), compose(q["3"], q["123"]))
    )
    res["AW4"] = lhs4 - rhs4
    return res


def verify_aw(shape: Shape) -> Report:
    """All four defining relations hold with zero residual on this shape."""
    report = Report(f"aw-relations {shape}")
    q = {name: q_elem(name, shape) for name in ("1", "2", "3", "12", "23", "13", "123")}
    for name, residual in aw_residuals(q, identity(shape)).items():
        report.add(name, residual)
    return report


def verify_expansion(shape: Shape) -> Report:
    """
    The product of the two adjacent-block Casimirs expands into the recoupled
    pair: Q12 Q23 = Q2 Q123 - q Q13 - q^-1 Q~13 + Q1 Q3, and the reversed
    product is the same expansion with q -> q^-1 on the explicit coefficients.
    """
    report = Report(f"expansion {shape}")
    q = {name: q_elem(name, shape) for name in AW_INDICES}
    common = compose(q["2"], q["123"]) + compose(q["1"], q["3"])
    report.add(
        "Q12 Q23 = Q2 Q123 - q Q13 - q^-1 Q~13 + Q1 Q3",
        compose(q["12"], q["23"]) - (common - q["13"] * Q(1) - q["13~"] * Q(-1)),
    )
    report.add(
        "Q23 Q12 = Q2 Q123 - q^-1 Q13 - q Q~13 + Q1 Q3",
        compose(q["23"], q["12"]) - (common - q["13"] * Q(-1) - q["13~"] * Q(1)),
    )
    return report


def verify_p_propositions() -> Report:
    """
    The 4x4 P-matrix layer: its quadratic law, its weighted trace, the
    split of the fundamental braiding into q^(1/2) - q^(-1/2) P, the
    sandwich identity P12 F23 P12 = P12 (x) tr(F), and the three exchange
    relations between P and the mixed matrices.
    """
    report = Report("p-propositions")
    p = p_matrix()
    two = Shape((HALF, HALF))
    id2 = identity(two)
    report.add("braiding = q^(1/2) - q^(-1/2) P", braided_r(HALF, HALF) - (id2 * V(1) - p * V(-1)))
    report.add("inverse braiding = q^(-1/2) - q^(1/2) P", braided_r_inv(HALF, HALF) - (id2 * V(-1) - p * V(1)))
    report.add("P^2 = (q + q^-1) P", compose(p, p) - p * (Q(1) + Q(-1)))
    report.add("weighted first-leg trace of P is the identity", partial_trace_first(p, m_matrix()) - identity(Shape((HALF,))))
    for tj in (1, 2):
        j = Spin(tj)
        shape = Shape((HALF, HALF, j))
        p12 = embed(p, (0, 1), shape)
        f = r_matrix(HALF, j)
        f23 = embed(f, (1, 2), shape)
        sandwich = compose(p12, compose(f23, p12))
        report.add(
            f"P12 F23 P12 = P12 (x) tr(F M) with F the mixed braiding, j={j}",
            sandwich - kron(p, partial_trace_first(f, m_matrix())),
        )
        lp13 = embed(l_plus(j), (0, 2), shape)
        lp23 = embed(l_plus(j), (1, 2), shape)
        lpi13 = embed(l_plus_inv(j), (0, 2), shape)
        lpi23 = embed(l_plus_inv(j), (1, 2), shape)
        lm13 = embed(l_minus(j), (0, 2), shape)
        lm23 = embed(l_minus(j), (1, 2), shape)
        lmi13 = embed(l_minus_inv(j), (0, 2), shape)
        lmi23 = embed(l_minus_inv(j), (1, 2), shape)
        report.add(f"RE1 j={j}", p12 - lp23 @ lp13 @ p12 @ lpi13 @ lpi23)
        report.add(f"RE2 j={j}", p12 - lmi23 @ lmi13 @ p12 @ lm13 @ lm23)
        report.add(f"RE3 j={j}", p12 - lp23 @ lp13 @ p12 @ lm13 @ lm23)
    return report


def verify_tl_iso() -> Report:
    """
    Both realizations of the three-strand diagram relations, and the bracket
    form of the quotient map sending the block Casimirs onto hook elements:
    on three fundamental legs Q12 = (q^3 + q^-3) - (q - q^-1)^2 P12 (and
    likewise Q23 with P23); in the diagram monoid the loop-around-two-strands
    tangle equals (q^3 + q^-3) id - (q - q^-1)^2 E1 after x -> i v.
    """
    report = Report("tl-iso")
    shape = Shape((HALF, HALF, HALF))
    p = p_matrix()
    p12 = embed(p, (0, 1), shape)
    p23 = embed(p, (1, 2), shape)
    loop = Q(1) + Q(-1)
    report.add("P12^2 = (q + q^-1) P12", compose(p12, p12) - p12 * loop)
    report.add("P23^2 = (q + q^-1) P23", compose(p23, p23) - p23 * loop)
    report.add("P12 P23 P12 = P12", p12 @ p23 @ p12 - p12)
    report.add("P23 P12 P23 = P23", p23 @ p12 @ p23 - p23)
    coeff = (Q(1) - Q(-1)) ** 2
    shift = Q(3) + Q(-3)
    report.add("Q12 = (q^3 + q^-3) - (q - q^-1)^2 P12", q_elem("12", shape) - (identity(shape) * shift - p12 * coeff))
    report.add("Q23 = (q^3 + q^-3) - (q - q^-1)^2 P23", q_elem("23", shape) - (identity(shape) * shift - p23 * coeff))

    # Diagram-monoid side.
    e1, e2 = TLElement.hook(3, 1), TLElement.hook(3, 2)
    from .tl import DELTA_X

    report.add_bool("E1 E1 = delta E1", tl_mul(e1, e1) == e1 * DELTA_X)
    report.add_bool("E2 E2 = delta E2", tl_mul(e2, e2) == e2 * DELTA_X)
    report.add_bool("loop value at x = i v is q + q^-1", subst_x_iv(DELTA_X) == loop)
    report.add_bool("E1 E2 E1 = E1", tl_mul(tl_mul(e1, e2), e1) == e1)
    report.add_bool("E2 E1 E2 = E2", tl_mul(tl_mul(e2, e1), e2) == e2)

    # The loop-around-two-strands tangle: close the auxiliary strand of the
    # four-strand word (1 2 2 1), then push the bracket onto the v axis.
    tangle = close_first(word_element(BraidWord(4, (1, 2, 2, 1))))
    tangle_v = tangle.map_coefficients(subst_x_iv)
    expected = TLElement.identity(3) * shift - e1 * coeff
    report.add_bool("loop-around-strands tangle matches the hook expansion", tangle_v == expected)
    return report


# ---------------------------------------------------------------------------
# Spectra.
# ---------------------------------------------------------------------------


def spectrum_twice_spins(index, shape: Shape) -> list[int]:
    """Twice-spins in the decomposition of the legs a block index names."""
    name = _norm_index(index)
    first, *rest = _legs(name)
    if not rest:
        raise ValueError(f"spectrum is only defined for block indices, not {index!r}")
    spins = {shape[first].twice_j}
    for leg in rest:
        spins = {t for s in spins for t in twice_spin_range(s, shape[leg].twice_j)}
    return sorted(spins)


def spectrum_report(index, shape: Shape) -> Report:
    """
    The block Casimir is annihilated by the product of (X - chi_j) over the
    decomposition range of its legs; an exact annihilating-product check, no
    eigen-decomposition over the polynomial ring.
    """
    name = _norm_index(index)
    report = Report(f"spectrum Q_{name} {shape}")
    op = q_elem(name, shape)
    spins = spectrum_twice_spins(name, shape)
    prod = reduce(compose, (op - identity(shape) * chi(Spin(tj)) for tj in spins))
    report.add(
        "annihilating product over the decomposition range",
        prod,
        note=f"2j in {spins}",
    )
    return report


def verify_spectra(shape: Shape) -> Report:
    """The spectrum check of every block index on one shape; the CLI's `--suite spectrum`."""
    report = Report(f"aw spectrum {shape}")
    for index in _BLOCK_INDICES:
        report.extend(spectrum_report(index, shape))
    return report


def verify_centrality(shape: Shape, indices: Optional[Iterable] = None) -> Report:
    """Every intermediate Casimir commutes with the diagonal generator action."""
    report = Report(f"centrality {shape}")
    gens = [E_SYM, F_SYM, GeneratorSymbol("QH", 1)]
    images = [(g.kind, delta_rep(g, shape)) for g in gens]
    for index in indices if indices is not None else AW_INDICES:
        op = q_elem(index, shape)
        for kind, img in images:
            report.add(f"Q_{_norm_index(index)} commutes with diagonal {kind}", compose(op, img) - compose(img, op))
    return report


def conjugation_dictionary(shape: Shape) -> Report:
    """
    The braiding conjugations relating the recoupled elements to the adjacent
    blocks: Q13 = Rhat12 Q23 Rhat12^-1, Q~13 = Rhat12^-1 Q23 Rhat12, and the
    two-step form Q23 = Rhat12^-1 Rhat23^-1 Q12 Rhat23 Rhat12, each read with
    the middle element built on the appropriately permuted shape.
    """
    report = Report(f"conjugation dictionary {shape}")
    report.add("Q13 = Rhat12 Q23 Rhat12^-1 (shape-aware)", q_elem("13", shape) - _conjugated((-1,), (1, 2), shape))
    report.add("Q~13 = Rhat12^-1 Q23 Rhat12 (shape-aware)", q_elem("13~", shape) - _conjugated((1,), (1, 2), shape))
    report.add(
        "Q23 = Rhat12^-1 Rhat23^-1 Q12 Rhat23 Rhat12 (shape-aware)",
        q_elem("23", shape) - _conjugated((1, 2), (0, 1), shape),
    )
    return report


def verify_all(shape: Shape) -> Report:
    """Every suite on one shape; the CLI's `--suite all`."""
    report = Report(f"aw all {shape}")
    report.extend(verify_aw(shape))
    report.extend(verify_routes(shape))
    report.extend(verify_expansion(shape))
    report.extend(verify_spectra(shape))
    report.extend(verify_centrality(shape))
    return report
