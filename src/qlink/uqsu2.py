"""
Representations of the quantum algebra on generators E, F, q^H, on tensor
products of spin spaces.

Everything is held as a represented matrix in the fixed descending-weight
basis of `tensorop`; there is no representation-free algebra arithmetic.
On the spin-j space:

    E |j, m> = [j - m] |j, m + 1>
    F |j, m> = [j + m] |j, m - 1>
    q^(kH) |j, m> = q^(k m) |j, m>     (k an integer)

with [n] the q-integer.  The Casimir element

    (q - q^-1)^2 F E + q^(2H+1) + q^(-2H-1)

acts on spin j as the scalar chi_j = q^(2j+1) + q^(-2j-1).  The coproduct is

    D(E) = E (x) q^-H + q^H (x) E,   D(F) likewise,   D(q^H) = q^H (x) q^H,

so on n legs D(E) = sum_i q^H..q^H E_i q^-H..q^-H.  One walk over the basis
columns (`_moves`) writes D(E), D(F), D(q^(kH)) and the iterated-coproduct
Casimir entry by entry; nothing is multiplied out, and a single leg is the
one-leg case of the same walk.  The same walk gives each column's total
twice-weight (`twice_weights`), its weight sector, which a closure trace
reads; no other module computes it.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .laurent import LaurentPoly, finalize, qint
from .tensorop import Operator, Shape, ShapeError, Spin, combine, embed

V = LaurentPoly.v_power


def twice_spin_range(ta: int, tb: int) -> range:
    """Twice-spins in the decomposition of V_(ta/2) (x) V_(tb/2) (Clebsch-Gordan)."""
    return range(abs(ta - tb), ta + tb + 1, 2)


def chi(j: Spin) -> LaurentPoly:
    """The Casimir eigenvalue chi_j = q^(2j+1) + q^(-2j-1) on spin j."""
    return V(2 * j.twice_j + 2) + V(-2 * j.twice_j - 2)


# ---------------------------------------------------------------------------
# Coproducts.
# ---------------------------------------------------------------------------


def _moves(shape: Shape) -> list[tuple[int, list, list]]:
    """
    (T, raises, lowers) for every basis column, in index order: T its total
    twice-weight, and a move (row, n, power) per leg i that E_i (in raises) or
    F_i (in lowers) does not kill, sending the column to `row` times [n] v^power.
    With digit x_l and twice-weight t_l = 2j_l - 2x_l on leg l, E_i has
    n = x_i, F_i has n = 2j_i - x_i, and the K^(+-1) on the other legs give
    power = sum_{l<i} t_l - sum_{l>i} t_l.
    """
    tjs, strides = shape.twice_list(), shape.strides()
    walk = []
    for col, digits in enumerate(product(*(range(tj + 1) for tj in tjs))):
        t = [tj - 2 * x for tj, x in zip(tjs, digits)]
        total, below = sum(t), 0
        raises, lowers = [], []
        for i, (tj, x, ti) in enumerate(zip(tjs, digits, t)):
            power = below - (total - below - ti)
            if x:
                raises.append((col - strides[i], x, power))
            if x < tj:
                lowers.append((col + strides[i], tj - x, power))
            below += ti
        walk.append((total, raises, lowers))
    return walk


def twice_weights(shape: Shape) -> list[int]:
    """The total twice-weight T of every basis column of `shape`, in index order, read from `_moves`."""
    return [total for total, _, _ in _moves(shape)]


def delta_rep(kind: str, shape: Shape, power: int = 1) -> Operator:
    """
    The (len(shape) - 1)-fold iterated coproduct of one generator, represented
    on the whole of `shape`: E for kind "E", F for "F", and q^(power H) for
    "QH" (`power` is read for "QH" only).
    """
    if kind not in ("E", "F", "QH"):
        raise ValueError(f"unknown generator kind {kind!r}")
    if not len(shape):
        raise ShapeError("cannot represent a generator on an empty shape")
    walk = _moves(shape)
    if kind == "QH":
        entries = {(col, col): V(power * total) for col, (total, _, _) in enumerate(walk)}
    else:
        side = 1 if kind == "E" else 2
        entries = {(row, col): qint(n, p) for col, moves in enumerate(walk) for row, n, p in moves[side]}
    return Operator(shape, shape, entries)


def diagonal_generators(shape: Shape) -> list[tuple[str, Operator]]:
    """(kind, D(g)) for g = E, F and q^H, represented on `shape`."""
    return [(kind, delta_rep(kind, shape)) for kind in ("E", "F", "QH")]


def commutation_defects(op: Operator, generators: Sequence[tuple[str, Operator]] = ()) -> list[tuple[str, Operator]]:
    """
    (kind, op . D(g) - D(g) . op) for g = E, F and q^H, with D(g) represented
    on the shape `op` reads on the right and on the shape it writes on the
    left (one build when the two coincide); every defect is zero exactly when
    `op` intertwines the diagonal action.  `generators`, the
    `diagonal_generators` of op.shape_in, spares the builds when many
    operators on one shape are checked.  The three defects are one `combine`
    call, so `op` is packed once.
    """
    right = generators or diagonal_generators(op.shape_in)
    left = right if op.shape_out == op.shape_in else diagonal_generators(op.shape_out)
    sums = {kind: ((1, op, r), (-1, l, op)) for (kind, r), (_, l) in zip(right, left)}
    return list(combine(op.shape_in, op.shape_out, sums).items())


def casimir_rep(shape: Shape) -> Operator:
    """The iterated-coproduct image of the Casimir element on all of `shape`."""
    return iterated_casimir(shape, range(len(shape)))


def iterated_casimir(shape: Shape, span: Sequence[int]) -> Operator:
    """
    The intermediate Casimir supported on a contiguous block `span` of factor
    positions (0-based), acting as the identity elsewhere.  Column by column
    of the block: (q - q^-1)^2 D(F) D(E) as each E-move out of the column
    followed by each F-move out of the column it reaches, plus
    q K^2 + q^-1 K^-2 = v^(2T+2) + v^(-2T-2) on the diagonal.  The block is
    built on its own legs and `embed` places it on `shape`.
    Non-contiguous spans are rejected; recoupled blocks are built by braiding
    conjugation in the Askey-Wilson layer instead.
    """
    span = tuple(sorted(span))
    if not span:
        raise ShapeError("span must be non-empty")
    if any(not 0 <= p < len(shape) for p in span):
        raise ShapeError(f"span {span} outside shape of {len(shape)} factors")
    if any(b - a != 1 for a, b in zip(span, span[1:])):
        raise ShapeError(f"span {span} is not contiguous")
    sub = Shape(shape.factors[span[0] : span[-1] + 1])
    walk = _moves(sub)
    entries = {}
    for col, (total, raises, _) in enumerate(walk):
        cells: dict[int, dict[int, int]] = {col: {}}  # row of the block -> {exponent: coefficient}
        for e in (2 * total + 2, -2 * total - 2):  # equal when T = -1
            cells[col][e] = cells[col].get(e, 0) + 1
        for mid, a, p_e in raises:
            for row, b, p_f in walk[mid][2]:
                cell = cells.setdefault(row, {})
                # (q - q^-1)^2 [a][b] v^power = (q^a - q^-a)(q^b - q^-b) v^power
                for x, sign in ((a + b, 1), (a - b, -1), (b - a, -1), (-a - b, 1)):
                    e = p_e + p_f + 2 * x
                    cell[e] = cell.get(e, 0) + sign
        for row, cell in cells.items():
            p = finalize(cell)
            if p:
                entries[(row, col)] = p
    return embed(Operator._raw(sub, sub, entries), span, shape)
