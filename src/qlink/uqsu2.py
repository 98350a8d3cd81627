"""
Finite-dimensional representations of the quantum algebra on generators
E, F, q^H.

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

iterated coproducts are built by folding D from the left; coassociativity
(making the folding direction irrelevant) is checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .laurent import LaurentPoly, qint
from .tensorop import Operator, Shape, ShapeError, Spin, embed, kron

Q = LaurentPoly.q_power
V = LaurentPoly.v_power


def _check_power(k) -> None:
    if not isinstance(k, int):
        raise ValueError(f"power of q^H must be an integer, got {k!r}")


@dataclass(frozen=True)
class GeneratorSymbol:
    """One of E, F, or q^(kH) with integer k (powers of q^H compose additively)."""

    kind: str  # "E", "F", or "QH"
    power: int = 0  # k when kind == "QH"

    def __post_init__(self):
        if self.kind not in ("E", "F", "QH"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        _check_power(self.power)
        if self.kind != "QH" and self.power:
            raise ValueError("only QH carries a power")


E_SYM = GeneratorSymbol("E")
F_SYM = GeneratorSymbol("F")


def qh_symbol(k: int) -> GeneratorSymbol:
    return GeneratorSymbol("QH", k)


def rep_e(j: Spin) -> Operator:
    """E on the spin-j space: raises the weight by one step."""
    tj = j.twice_j
    # Column index i carries m = j - i, so E sends column i to row i - 1
    # with coefficient [j - m] = [i].
    entries = {(i - 1, i): qint(i) for i in range(1, tj + 1)}
    shape = Shape((j,))
    return Operator(shape, shape, entries)


def rep_f(j: Spin) -> Operator:
    """F on the spin-j space: lowers the weight by one step."""
    tj = j.twice_j
    entries = {(i + 1, i): qint(tj - i) for i in range(tj)}
    shape = Shape((j,))
    return Operator(shape, shape, entries)


def rep_qh(j: Spin, k: int) -> Operator:
    """q^(kH) on the spin-j space, diagonal with entries q^(k m) = v^(k 2m)."""
    _check_power(k)
    shape = Shape((j,))
    entries = {(i, i): V(k * tm) for i, tm in enumerate(j.twice_weights())}
    return Operator(shape, shape, entries)


def rep(sym: GeneratorSymbol, j: Spin) -> Operator:
    if sym.kind == "E":
        return rep_e(j)
    if sym.kind == "F":
        return rep_f(j)
    return rep_qh(j, sym.power)


def mu(j: Spin) -> Operator:
    """The weight element q^(2H) on the spin-j space."""
    return rep_qh(j, 2)


def mu_inv(j: Spin) -> Operator:
    return rep_qh(j, -2)


def twice_spin_range(ta: int, tb: int) -> range:
    """Twice-spins in the decomposition of V_(ta/2) (x) V_(tb/2) (Clebsch-Gordan)."""
    return range(abs(ta - tb), ta + tb + 1, 2)


def chi(j: Spin) -> LaurentPoly:
    """The Casimir eigenvalue chi_j = q^(2j+1) + q^(-2j-1) on spin j."""
    return V(2 * j.twice_j + 2) + V(-2 * j.twice_j - 2)


def casimir(j: Spin) -> Operator:
    """(q - q^-1)^2 F E + q^(2H+1) + q^(-2H-1) on the spin-j space."""
    coeff = (Q(1) - Q(-1)) ** 2
    return rep_f(j) @ rep_e(j) * coeff + rep_qh(j, 2) * Q(1) + rep_qh(j, -2) * Q(-1)


# ---------------------------------------------------------------------------
# Coproducts.
# ---------------------------------------------------------------------------


def coproduct_rep(sym: GeneratorSymbol, j1: Spin, j2: Spin) -> Operator:
    """The coproduct of one generator represented on V_j1 (x) V_j2."""
    return delta_rep(sym, Shape((j1, j2)))


def delta_rep(sym: GeneratorSymbol, shape: Shape) -> Operator:
    """
    The (len(shape) - 1)-fold iterated coproduct of one generator, represented
    on the whole of `shape`.  Folded from the left: the head of the shape is
    treated as one leg and the last factor as the other.
    """
    n = len(shape)
    if n == 0:
        raise ShapeError("cannot represent a generator on an empty shape")
    if n == 1:
        return rep(sym, shape[0])
    head = Shape(shape.factors[:-1])
    last = shape[-1]
    if sym.kind == "QH":
        return kron(delta_rep(sym, head), rep_qh(last, sym.power))
    partner = rep_e(last) if sym.kind == "E" else rep_f(last)
    return kron(delta_rep(sym, head), rep_qh(last, -1)) + kron(
        delta_rep(GeneratorSymbol("QH", 1), head), partner
    )


def commutation_defects(op: Operator) -> list[tuple[str, Operator]]:
    """
    (kind, op . D(g) - D(g) . op) for g = E, F and q^H, with D(g) represented
    on the shape `op` reads on the right and on the shape it writes on the
    left; every defect is zero exactly when `op` intertwines the diagonal action.
    """
    return [
        (sym.kind, op @ delta_rep(sym, op.shape_in) - delta_rep(sym, op.shape_out) @ op)
        for sym in (E_SYM, F_SYM, qh_symbol(1))
    ]


def casimir_rep(shape: Shape) -> Operator:
    """The iterated-coproduct image of the Casimir element on all of `shape`."""
    coeff = (Q(1) - Q(-1)) ** 2
    mu_all = delta_rep(GeneratorSymbol("QH", 2), shape)  # q^(2H) on every leg
    mu_all_inv = delta_rep(GeneratorSymbol("QH", -2), shape)
    fe = delta_rep(F_SYM, shape) @ delta_rep(E_SYM, shape)
    return fe * coeff + mu_all * Q(1) + mu_all_inv * Q(-1)


def iterated_casimir(shape: Shape, span: Sequence[int]) -> Operator:
    """
    The intermediate Casimir supported on a contiguous block `span` of factor
    positions (0-based), acting as the identity elsewhere.  Non-contiguous
    spans are rejected; recoupled blocks are built by braiding conjugation in
    the Askey-Wilson layer instead.
    """
    span = tuple(sorted(span))
    if not span:
        raise ShapeError("span must be non-empty")
    if any(not 0 <= p < len(shape) for p in span):
        raise ShapeError(f"span {span} outside shape of {len(shape)} factors")
    if any(b - a != 1 for a, b in zip(span, span[1:])):
        raise ShapeError(f"span {span} is not contiguous")
    sub = Shape(shape.factors[span[0] : span[-1] + 1])
    return embed(casimir_rep(sub), span, shape)
