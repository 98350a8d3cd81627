"""
Intermediate Casimir operators on tensor products of spins, built by two
independent routes, and exact verification of the Askey-Wilson relations.

An index names a block of legs, counted from 1, on any number of legs, plus
an optional "~" ("13" and "13~" both name legs 1 and 3).  Its element is a
spin-1/2 loop that encloses the block's legs and passes each other leg up to
the block's top one over, or under for a "~" index.  `_loop` holds that rule,
and both routes and the diagram tangle of `verify_tl_iso` read it.

Coproduct route (`q_elem`): a contiguous block's Casimir is written from the
iterated coproduct straight into its cells.  Any other block is W^-1 . C . W:
the braid word W moves each leg the loop passes between the block's ends up
across the block legs above it, on the side the loop passes it, and C is the
Casimir of the gathered block on the permuted shape W reaches, which the
shape-typed operators enforce.  Every braiding is a word of braid letters
made into matrices by `rmatrix.word_steps`, as in the quantum-trace
invariant, and each conjugation is one `act_adjacent` pass over C read as a
column on the out and in legs: W^-1 acts on the out legs and the transpose
of W on the in legs, so neither W nor a product is formed.  Only the
contiguous block Casimirs, which no R-matrix enters, are cached; the others
are conjugated afresh on every call, so they read the R-matrices held now.

Partial-trace route (`q_elem_trace`, uncached): every element is the weighted
trace of an auxiliary spin-1/2 leg out of a product of two-leg mixed matrices,
each acting on that leg and one other: the strand winds up through the legs
and back down, each leg's pair of L+/- factors read from its `_loop` side.
Each leg meets the strand once each way, so the trace is contracted leg by
leg on 2x2 auxiliary blocks, each leg's terms summed into one integer
accumulator per cell, which stays a plain dict until the closed block; no
operator on the auxiliary shape and no tensor product is formed.
`verify_routes` compares the two constructions on every index but the
one-leg "3", whose agreement the tests check.  `q_elem_trace` reads only the
legs up to the block's top one, so on one or two legs it gives the one-leg
Casimir or the coproduct Casimir.

The central elements in the quartic relation are instantiated as their full
matrices, not scalar eigenvalues: the three-leg Casimir is generically not
scalar, and the relations hold at operator level.  The four relation
residuals are one `tensorop.combine` call, which also holds Q12 Q23, Q1 Q2,
Q3 Q123 and s1-s3 as named sums that the residuals read; the two expansion
checks are one call around their shared Q2 Q123 + Q1 Q3, and a spectrum's
annihilating product is one call with a named sum per factor (Q - chi_j)
that multiplies the one before it.  So each generator is packed into integers
once per call, the shared sums are never decoded, and no intermediate
operator is formed per product, scaling or difference.  The trace route sums
its products of 2x2 auxiliary blocks in its own {exponent: coefficient}
accumulators, where packing would not pay.
"""

from __future__ import annotations

import re

from .laurent import LaurentPoly, accumulate_terms, subst_x_iv
from .report import Report
from .rmatrix import (
    braided_r,
    braided_r_inv,
    l_minus,
    l_minus_inv,
    l_plus,
    l_plus_inv,
    m_matrix,
    p_matrix,
    r_matrix,
    word_steps,
)
from .tensorop import (
    EMPTY_SHAPE,
    HALF,
    Operator,
    Shape,
    Spin,
    act_adjacent,
    combine,
    embed,
    identity,
    kron,
    partial_trace_first,
)
from .uqsu2 import chi, commutation_defects, diagonal_generators, iterated_casimir, twice_spin_range

Q = LaurentPoly.q_power
V = LaurentPoly.v_power

AW_INDICES = ("1", "2", "3", "12", "23", "13", "123", "13~")
_BLOCK_INDICES = ("12", "23", "13", "13~", "123")  # the indices with a spectrum, in report order

_INDEX = re.compile("(?=[1-9])1?2?3?4?5?6?7?8?9?~?")  # increasing leg digits, then an optional "~"
_q_cache: dict[tuple, Operator] = {}


def clear_cache() -> None:
    _q_cache.clear()


def _index_name(index, shape: Shape) -> str:
    """The name of an index on `shape`, whose legs must all be legs of the shape."""
    name = str(index)
    if not _INDEX.fullmatch(name) or int(name.rstrip("~")[-1]) > len(shape):
        raise ValueError(f"unknown intermediate-Casimir index {index!r} on {len(shape)} legs")
    return name


def _legs(name: str) -> tuple[int, ...]:
    """The legs an index names, counted from 0: "13~" -> (0, 2)."""
    return tuple(int(digit) - 1 for digit in name.rstrip("~"))


def _loop(name: str) -> tuple[int, ...]:
    """The loop rule, per leg up to the block's top: 0 if the loop encloses it, else 1 over it, or -1 under for "~"."""
    legs, side = _legs(name), -1 if name.endswith("~") else 1
    return tuple(0 if k in legs else side for k in range(legs[-1] + 1))


def _loop_word(name: str) -> tuple[int, ...]:
    """The loop as a braid word from position 0: 1..top up, top..1 down, but -k up over leg k and down under it."""
    sides = list(enumerate(_loop(name), 1))
    return tuple([-k if s > 0 else k for k, s in sides] + [-k if s < 0 else k for k, s in reversed(sides)])


def q_elem(index, shape: Shape) -> Operator:
    """The intermediate Casimir of an index on any shape; only the contiguous blocks are cached."""
    name = _index_name(index, shape)
    legs = _legs(name)
    if legs[-1] - legs[0] < len(legs):  # contiguous: the loop passes no leg between the ends
        return _block_casimir(legs, shape)
    sides, word = _loop(name), []
    for k in range(legs[-1] - 1, legs[0], -1):  # each passed leg between the ends, highest first, on its side
        if sides[k]:
            word += [sides[k] * (k + i) for i in range(1, sum(leg > k for leg in legs) + 1)]
    return _conjugated(tuple(word), tuple(range(legs[0], legs[0] + len(legs))), shape)


def _block_casimir(legs: tuple[int, ...], shape: Shape) -> Operator:
    """The Casimir of contiguous legs, cached under (legs, dims): the dims fix the spins and hash in C."""
    key = (legs, shape.dims)
    if key not in _q_cache:
        _q_cache[key] = iterated_casimir(shape, legs)
    return _q_cache[key]


def _conjugated(letters: tuple[int, ...], span: tuple[int, ...], shape: Shape) -> Operator:
    """
    W^-1 . C . W with W the braid word `letters` on `shape` and C the
    Casimir of the contiguous block `span` on W's output shape, in one
    `act_adjacent` pass: C is read as one column on the legs (out legs + in
    legs), entry (r, k) in row r * D + k; the inverted word acts on the out
    legs, and the transposed letters of W, last letter first, on the in legs
    (position n + i).  C comes from the contiguous-block cache, so a block and
    its "~" twin on one shape share it.
    """
    word, out = word_steps(letters, shape.factors)
    inverse, _ = word_steps([-letter for letter in reversed(letters)], out)
    n, middle = len(shape), Shape(out)
    transposed = [
        (n + i, Operator._raw(m.shape_out, m.shape_in, {(c, r): p for (r, c), p in m.entries.items()}))
        for i, m in reversed(word)
    ]
    d = middle.dim
    block = _block_casimir(span, middle)
    column = {(r * d + k, 0): p for (r, k), p in block.entries.items()}
    cells = act_adjacent(transposed + inverse, Operator._raw(EMPTY_SHAPE, middle + middle, column)).entries
    return Operator._raw(shape, shape, {divmod(row, shape.dim): p for (row, _), p in cells.items()})


# ---------------------------------------------------------------------------
# Partial-trace route.
# ---------------------------------------------------------------------------


TRACE_ROUTE_INDICES = ("1", "12", "123", "2", "23", "13", "13~")  # verify_routes' checks, in report order


def _aux_blocks(op: Operator) -> dict[tuple[int, int], dict[int, list]]:
    """
    The 2x2 auxiliary blocks of an operator on (1/2, j), each indexed by row:
    block (b, b') maps row i of (j,) to its entries [(i', terms), ...].
    """
    d = op.shape_in.dim // 2
    blocks: dict[tuple[int, int], dict[int, list]] = {}
    for (r, c), p in op.entries.items():
        (b, i), (b2, i2) = divmod(r, d), divmod(c, d)
        blocks.setdefault((b, b2), {}).setdefault(i, []).append((i2, p.terms))
    return blocks


def q_elem_trace(index, shape: Shape) -> Operator:
    """
    The same element as the weighted trace of the spin-1/2 auxiliary leg out
    of a product of mixed matrices, contracted leg by leg.  The strand runs up
    through legs 1..top with L+ and back down with L-, but by `_loop` it
    passes a leg over with L+ then L+^-1, and under with L-^-1 then L-.  With
    w[b, c] the cells on legs 1..k-1 between auxiliary indices b (going up)
    and c (coming down), leg k's pair turns it into w'[b', c'] = sum w[b, c]
    (x) (up[b, b'] . down[c', c]): the block products feeding one w[b, c] are
    summed into one {exponent: coefficient} dict per cell of the leg, and
    their tensor products with w[b, c] into one per cell of w', its zero
    coefficients dropped.  The weight m = diag(q, q^-1) starts the strand as
    scalars on no legs, b' = c' at the top closes it, and the closed operator
    on legs 1..top is embedded in `shape`.
    """
    sides = _loop(_index_name(index, shape))
    top = len(sides)
    w = {(c, b): {(0, 0): p.terms} for (b, c), p in m_matrix().entries.items()}
    for k, side in enumerate(sides, 1):
        spin = shape[k - 1]
        up = _aux_blocks((l_minus_inv if side < 0 else l_plus)(spin))
        down = _aux_blocks((l_plus_inv if side > 0 else l_minus)(spin))
        steps: dict = {}  # (b, c, the cell of w' it feeds) -> the products up[b, b'] . down[c', c]
        for (b, b2), u in up.items():
            for (c2, c), dn in down.items():
                if (b, c) in w and (k < top or b2 == c2):  # at the top, b' = c' closes the strand into one cell
                    steps.setdefault((b, c, (b2, c2) if k < top else "closed"), []).append((u, dn))
        d = spin.dim
        acc: dict = {}  # the cell of w' -> {(row, col): {exponent: coefficient}}
        for (b, c, cell), products in steps.items():
            summed: dict = {}  # the leg's cell -> {exponent: coefficient} of the summed products
            for u, dn in products:
                for i, row in u.items():
                    for mid, pu in row:
                        for j, pd in dn.get(mid, ()):
                            terms = summed.get((i, j))
                            if terms is None:
                                terms = summed[(i, j)] = {}
                            accumulate_terms(terms, pu, pd)
            x = [(rc, terms) for rc, terms in summed.items() if any(terms.values())]
            out = acc.setdefault(cell, {})
            for (ra, ca), pa in w[(b, c)].items():
                ra, ca = ra * d, ca * d
                for (rb, cb), pb in x:
                    rc = (ra + rb, ca + cb)
                    terms = out.get(rc)
                    if terms is None:
                        terms = out[rc] = {}
                    accumulate_terms(terms, pa, pb)
        w = {cell: {rc: t for rc, terms in out.items() if (t := {e: n for e, n in terms.items() if n})} for cell, out in acc.items()}
    block = Shape(shape.factors[:top])
    cells = {rc: LaurentPoly._raw(terms) for rc, terms in w["closed"].items()}
    return embed(Operator._raw(block, block, cells), range(top), shape)


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def verify_routes(shape: Shape) -> Report:
    """
    Coproduct and trace constructions agree on every index of
    TRACE_ROUTE_INDICES; the one-leg "3" is left out of this report.
    """
    report = Report(f"routes {shape}")
    for name in TRACE_ROUTE_INDICES:
        report.add(f"Q_{name} trace route", q_elem_trace(name, shape) - q_elem(name, shape))
    return report


def aw_residuals(q: dict[str, Operator]) -> dict[str, Operator]:
    """
    Residual operators of the four defining relations for a given assignment
    of generators (exposed so corrupted assignments can serve as negative
    controls).  With the q-commutator [X, Y]_q = q X Y - q^-1 Y X they are

        AW1 = [Q12, Q23]_q + (q^2 - q^-2) Q13 - (q - q^-1) s1,
        s1 = Q1 Q3 + Q2 Q123, and cyclically AW2 (Q23, Q13, Q12; s2 =
        Q1 Q2 + Q3 Q123) and AW3 (Q13, Q12, Q23; s3 = Q2 Q3 + Q1 Q123);

        AW4 = q Q12 Q23 Q13 + q^2 Q12^2 + q^-2 Q23^2 + q^2 Q13^2
              - q Q12 s2 - q^-1 Q23 s3 - q Q13 s1
              - (q + q^-1)^2 + Q123^2 + Q1^2 + Q2^2 + Q3^2 + Q1 Q2 Q3 Q123,

    all four in one `combine` call, in which Q12 Q23, Q1 Q2, Q3 Q123 and
    s1-s3 are named sums that stay packed.
    """
    qq, qi = Q(1), Q(-1)
    shape = q["123"].shape_in
    q1, q2, q3, q12, q23, q13, q123 = (q[name] for name in ("1", "2", "3", "12", "23", "13", "123"))
    two, coeff = Q(2) - Q(-2), qi - qq  # q^2 - q^-2 and -(q - q^-1)
    sums = {
        "Q12 Q23": ((1, q12, q23),),
        "Q1 Q2": ((1, q1, q2),),
        "Q3 Q123": ((1, q3, q123),),
        "s1": ((1, q1, q3), (1, q2, q123)),
        "s2": ((1, "Q1 Q2"), (1, "Q3 Q123")),
        "s3": ((1, q2, q3), (1, q1, q123)),
        "AW1": ((qq, "Q12 Q23"), (-qi, q23, q12), (two, q13), (coeff, "s1")),
        "AW2": ((qq, q23, q13), (-qi, q13, q23), (two, q12), (coeff, "s2")),
        "AW3": ((qq, q13, q12), (-qi, q12, q13), (two, q23), (coeff, "s3")),
        "AW4": (
            (qq, "Q12 Q23", q13),
            (Q(2), q12, q12),
            (Q(-2), q23, q23),
            (Q(2), q13, q13),
            (-qq, q12, "s2"),
            (-qi, q23, "s3"),
            (-qq, q13, "s1"),
            (-((qq + qi) * (qq + qi)), identity(shape)),
            (1, q123, q123),
            (1, q1, q1),
            (1, q2, q2),
            (1, q3, q3),
            (1, "Q1 Q2", "Q3 Q123"),
        ),
    }
    return combine(shape, shape, sums)


def verify_aw(shape: Shape) -> Report:
    """All four defining relations hold with zero residual on this shape."""
    report = Report(f"aw-relations {shape}")
    q = {name: q_elem(name, shape) for name in ("1", "2", "3", "12", "23", "13", "123")}
    for name, residual in aw_residuals(q).items():
        report.add(name, residual)
    return report


def verify_expansion(shape: Shape) -> Report:
    """
    The product of the two adjacent-block Casimirs expands into the recoupled
    pair: Q12 Q23 = Q2 Q123 - q Q13 - q^-1 Q~13 + Q1 Q3, and the reversed
    product is the same expansion with q -> q^-1 on the explicit coefficients.
    Both residuals are one `combine` call that reads Q2 Q123 + Q1 Q3 as a
    named sum.
    """
    report = Report(f"expansion {shape}")
    q = {name: q_elem(name, shape) for name in AW_INDICES}

    def residual(x: str, y: str, k: int) -> tuple:
        """The terms of Q_x Q_y - (Q2 Q123 - q^k Q13 - q^-k Q~13 + Q1 Q3)."""
        return ((1, q[x], q[y]), (-1, "Q2 Q123 + Q1 Q3"), (Q(k), q["13"]), (Q(-k), q["13~"]))

    sums = {
        "Q2 Q123 + Q1 Q3": ((1, q["2"], q["123"]), (1, q["1"], q["3"])),
        "Q12 Q23 = Q2 Q123 - q Q13 - q^-1 Q~13 + Q1 Q3": residual("12", "23", 1),
        "Q23 Q12 = Q2 Q123 - q^-1 Q13 - q Q~13 + Q1 Q3": residual("23", "12", -1),
    }
    for name, res in combine(shape, shape, sums).items():
        report.add(name, res)
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
    sums = {
        "braiding = q^(1/2) - q^(-1/2) P": ((1, braided_r(HALF, HALF)), (-V(1), id2), (V(-1), p)),
        "inverse braiding = q^(-1/2) - q^(1/2) P": ((1, braided_r_inv(HALF, HALF)), (-V(-1), id2), (V(1), p)),
        "P^2 = (q + q^-1) P": ((1, p, p), (-(Q(1) + Q(-1)), p)),
    }
    for name, residual in combine(two, two, sums).items():
        report.add(name, residual)
    report.add("weighted first-leg trace of P is the identity", partial_trace_first(p, m_matrix()) - identity(Shape((HALF,))))
    for tj in (1, 2):
        j = Spin(tj)
        shape = Shape((HALF, HALF, j))
        p12 = embed(p, (0, 1), shape)
        f = r_matrix(HALF, j)
        traced = kron(p, partial_trace_first(f, m_matrix()))
        sums = {
            "P12 F23": ((1, p12, embed(f, (1, 2), shape)),),
            f"P12 F23 P12 = P12 (x) tr(F M) with F the mixed braiding, j={j}": ((1, "P12 F23", p12), (-1, traced)),
        }
        lp, lpi, lm, lmi = ([embed(m(j), (k, 2), shape) for k in (0, 1)] for m in (l_plus, l_plus_inv, l_minus, l_minus_inv))
        # RE1-RE3: P12 = X23 X13 P12 Y13 Y23 for (X, Y) = (L+, L+^-1), (L-^-1, L-) and (L+, L-).
        for k, (x, y) in enumerate(((lp, lpi), (lmi, lm), (lp, lm)), 1):
            sums[f"X23 X13 {k}"] = ((1, x[1], x[0]),)
            sums[f"X23 X13 P12 {k}"] = ((1, f"X23 X13 {k}", p12),)
            sums[f"X23 X13 P12 Y13 {k}"] = ((1, f"X23 X13 P12 {k}", y[0]),)
            sums[f"RE{k} j={j}"] = ((1, p12), (-1, f"X23 X13 P12 Y13 {k}", y[1]))
        for name, residual in combine(shape, shape, sums).items():
            report.add(name, residual)
    return report


def verify_tl_iso() -> Report:
    """
    Both realizations of the three-strand diagram relations, over v, and the
    quotient map sending the block Casimirs onto hook elements: on three
    fundamental legs Q12 = (q^3 + q^-3) - (q - q^-1)^2 P12 (and likewise Q23
    with P23); in the diagram monoid the loop-around-two-strands tangle
    equals (q^3 + q^-3) id - (q - q^-1)^2 E1.
    """
    report = Report("tl-iso")
    shape = Shape((HALF, HALF, HALF))
    p = p_matrix()
    p12 = embed(p, (0, 1), shape)
    p23 = embed(p, (1, 2), shape)
    loop = Q(1) + Q(-1)
    coeff = (Q(1) - Q(-1)) ** 2
    shift = Q(3) + Q(-3)
    one = identity(shape)
    sums = {
        "P12^2 = (q + q^-1) P12": ((1, p12, p12), (-loop, p12)),
        "P23^2 = (q + q^-1) P23": ((1, p23, p23), (-loop, p23)),
        "P12 P23": ((1, p12, p23),),
        "P12 P23 P12 = P12": ((1, "P12 P23", p12), (-1, p12)),
        "P23 P12": ((1, p23, p12),),
        "P23 P12 P23 = P23": ((1, "P23 P12", p23), (-1, p23)),
        "Q12 = (q^3 + q^-3) - (q - q^-1)^2 P12": ((1, q_elem("12", shape)), (-shift, one), (coeff, p12)),
        "Q23 = (q^3 + q^-3) - (q - q^-1)^2 P23": ((1, q_elem("23", shape)), (-shift, one), (coeff, p23)),
    }
    for name, residual in combine(shape, shape, sums).items():
        report.add(name, residual)

    # Diagram-monoid side.
    from .braid import BraidWord
    from .tl import DELTA, TLElement, close_first, hook_diagram, identity_diagram, tl_mul, word_element

    h1, h2 = hook_diagram(3, 1), hook_diagram(3, 2)
    e1, e2 = TLElement.hook(3, 1), TLElement.hook(3, 2)
    report.add_bool("E1 E1 = delta E1", tl_mul(e1, e1).terms == {h1: DELTA})
    report.add_bool("E2 E2 = delta E2", tl_mul(e2, e2).terms == {h2: DELTA})
    # The bracket's loop value -x^2 - x^-2, read in x, goes to DELTA.
    report.add_bool("loop value at x = i v is q + q^-1", subst_x_iv(-loop) == DELTA == loop)
    report.add_bool("E1 E2 E1 = E1", tl_mul(e1, e2, e1) == e1)
    report.add_bool("E2 E1 E2 = E2", tl_mul(e2, e1, e2) == e2)

    # The loop-around-two-strands tangle: close the auxiliary strand of the
    # loop word of "12".
    tangle = close_first(word_element(BraidWord(4, _loop_word("12"))))
    expected = {identity_diagram(3): shift, h1: -coeff}
    report.add_bool("loop-around-strands tangle matches the hook expansion", tangle.terms == expected)
    return report


# ---------------------------------------------------------------------------
# Spectra.
# ---------------------------------------------------------------------------


def spectrum_twice_spins(index, shape: Shape) -> list[int]:
    """Twice-spins in the decomposition of the legs a block index names."""
    name = _index_name(index, shape)
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
    name = _index_name(index, shape)
    report = Report(f"spectrum Q_{name} {shape}")
    op = q_elem(name, shape)
    spins = spectrum_twice_spins(name, shape)
    sums, prev = {}, identity(shape)
    for tj in spins:
        sums[f"up to 2j = {tj}"] = ((1, op, prev), (-chi(Spin(tj)), prev))
        prev = f"up to 2j = {tj}"
    (prod,) = combine(shape, shape, sums).values()
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


def verify_centrality(shape: Shape) -> Report:
    """Every intermediate Casimir commutes with the diagonal generator action."""
    report = Report(f"centrality {shape}")
    generators = diagonal_generators(shape)
    for index in AW_INDICES:
        for kind, defect in commutation_defects(q_elem(index, shape), generators):
            report.add(f"Q_{index} commutes with diagonal {kind}", defect)
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
