"""
R-matrices on pairs of spin representations, and the boundary-matrix layer
built from them.

The two-leg braiding element is the expansion

    R = sum_k  (q - q^-1)^k / [k]!  q^(-k(k+1)/2)  (F^k (x) E^k)
              (q^(kH) (x) q^(-kH))  q^(2 H (x) H),   0 <= k <= min(2 j_1, 2 j_2),

and `r_matrix` writes its entries from their closed form (Kirby-Melvin,
Invent. Math. 105, 1991).  Index leg 1 by a (twice-weight tm1 = 2j_1 - 2a)
and leg 2 by b (tm2 = 2j_2 - 2b); term k sends (a, b) to (a + k, b - k) with

    (q - q^-1)^k [2j_1 - a] [2j_1 - a - 1] ... [2j_1 - a - k + 1] [b choose k]
        v^(tm1 tm2 + k (tm1 - tm2) - k (k + 1)),

for k <= min(2j_1 - a, b).  The q-binomials, the entries of E^k/[k]!, come
from the q-Pascal rule, so nothing is divided.  The inverse is *not* obtained
by matrix inversion but by the bar substitution v -> v^-1 applied entrywise
(the representation matrices of E and F are bar-invariant, so this is the
same as barring the expansion coefficients); the construction asserts
R^-1 R = id and raises if that ever fails, which makes any upstream
corruption loud.

Derived operators:

- braided form  Rhat = swap . R  (shape (a,b) -> (b,a)) and its inverse;
- opposite form R21 = swap . R(b,a) . swap on (a,b);
- each of these is R or R^-1 with the indices of its exchanged sides
  relabelled by the exchange rule, index i d_b + k on legs (a, b) being
  k d_a + i on (b, a) (`_exchanged`), so no product is formed;
- L^- (j) = R on (1/2, j) and L^+(j) = R21 on (1/2, j): the mixed matrices
  with a distinguished spin-1/2 first leg, defined from R rather than
  transcribed, so there is a single source of truth (the written 2x2 block
  forms are asserted in the tests instead);
- the 4x4 projector-like P with middle block [[q^-1, -1], [-1, q]], satisfying
  Rhat = q^(1/2) - q^(-1/2) P on two spin-1/2 legs;
- M = diag(q, q^-1), the weight q^(2H) on the spin-1/2 leg that every
  auxiliary-strand trace is taken against, which `delta_rep` writes.

The Yang-Baxter equation, the FRT/RLL exchange relations and the monodromy
annihilators of these matrices are checked by the test suite; no route of
the package runs them.

`word_steps` is the one place a braid letter becomes a matrix: letter +i
acts on legs i - 1, i by Rhat at their current spins, letter -i by Rhat^-1,
and the spins travel with the strands.  Closed braids and the Askey-Wilson
conjugations both take their braidings from it.

`intertwines(j1, j2)` reports whether Rhat carries the coproducts of E, F
and q^H on (j1, j2) to those on (j2, j1); `closure_frame` reads those
verdicts to choose the columns and weights of a closure trace.

`_memo` keeps each builder's result in one module-level table under its tag
and the twice-spins of its arguments: ("R", 2j_1, 2j_2), likewise "Rinv",
"Rop", "bR", "bRinv" and "intertwines" (a bool); ("Lpi", 2j), ("P",) and
("M",).  `l_minus` and `l_plus` read ("R", 1, 2j) and ("Rop", 1, 2j).
`closure_frame` keeps there, under ("frame", 2j of each color), the frame
of each color tuple.  Each key is written once, so concurrent readers are
safe under the GIL.  `clear_cache`, for tests that inject corrupted matrices
under these keys, clears the verdicts and frames drawn from them too.
"""

from __future__ import annotations

from functools import wraps
from typing import Iterable, Sequence, Union

from .laurent import LaurentPoly, qint
from .tensorop import HALF, Operator, Shape, ShapeError, Spin, compose, identity
from .uqsu2 import commutation_defects, delta_rep, twice_weights

Q = LaurentPoly.q_power
V = LaurentPoly.v_power

_cache: dict[tuple, Union[Operator, bool, tuple[Operator, list[tuple[int, ...]]]]] = {}


def clear_cache() -> None:
    _cache.clear()


def _memo(tag: str):
    """Memoize a builder of up to two spins in `_cache` under (tag, twice_j of each spin)."""

    def wrap(build):
        @wraps(build)
        def memoized(j1=None, j2=None):
            # Spelled out per arity: a cache hit is on the letter path.
            key = (tag,) if j1 is None else (tag, j1.twice_j) if j2 is None else (tag, j1.twice_j, j2.twice_j)
            value = _cache.get(key)
            if value is None:
                value = _cache[key] = build(*[j for j in (j1, j2) if j is not None])
            return value

        return memoized

    return wrap


@_memo("R")
def r_matrix(j1: Spin, j2: Spin) -> Operator:
    """The braiding element represented on V_j1 (x) V_j2 (shape-preserving)."""
    t1, t2 = j1.twice_j, j2.twice_j
    one = LaurentPoly.one()
    binom = [[one]]  # binom[b][k] = [b choose k]
    for b in range(1, t2 + 1):
        prev = binom[-1]
        binom.append([one] + [Q(k) * prev[k] + Q(k - b) * prev[k - 1] for k in range(1, b)] + [one])
    step = [(Q(1) - Q(-1)) * qint(i) for i in range(t1 + 1)]  # (q - q^-1) [i]
    entries = {}
    for a in range(t1 + 1):
        n, tm1 = t1 - a, t1 - 2 * a
        lead = [one]  # lead[k] = (q - q^-1)^k [n] [n - 1] ... [n - k + 1]
        for k in range(1, min(n, t2) + 1):
            lead.append(lead[-1] * step[n - k + 1])
        for b in range(t2 + 1):
            tm2 = t2 - 2 * b
            col = a * (t2 + 1) + b
            entries[(col, col)] = V(tm1 * tm2)
            for k in range(1, min(n, b) + 1):
                weight = V(tm1 * tm2 + k * (tm1 - tm2) - k * (k + 1))
                entries[(col + k * t2, col)] = weight * lead[k] * binom[b][k]
    shape = Shape((j1, j2))
    return Operator._raw(shape, shape, entries)


@_memo("Rinv")
def r_inverse(j1: Spin, j2: Spin) -> Operator:
    """
    Inverse of `r_matrix`, built by the bar substitution and then verified
    with a copy of it as the left factor, so the memoized inverse keeps no
    packed columns from the check.
    """
    base = r_matrix(j1, j2)
    inv = Operator._raw(base.shape_in, base.shape_out, {rc: p.bar() for rc, p in base.entries.items()})
    if compose(Operator._raw(inv.shape_in, inv.shape_out, inv.entries), base) != identity(base.shape_in):
        raise RuntimeError(
            f"bar-substituted inverse failed the R^-1 R = id cross-check on {base.shape_in}; "
            "the braiding matrix construction is corrupted"
        )
    return inv


def _exchanged(op: Operator, out_legs: bool, in_legs: bool) -> Operator:
    """
    swap . op if out_legs, times swap on the right if in_legs, for op between
    two-leg shapes, with no product formed: on each exchanged side, index
    i d_b + k on the legs (a, b) of op is relabelled k d_a + i on (b, a).
    """
    (ra, rb), (ca, cb) = op.shape_out.dims, op.shape_in.dims
    entries = {
        (r % rb * ra + r // rb if out_legs else r, c % cb * ca + c // cb if in_legs else c): p
        for (r, c), p in op.entries.items()
    }
    shape_in = Shape(reversed(op.shape_in.factors)) if in_legs else op.shape_in
    shape_out = Shape(reversed(op.shape_out.factors)) if out_legs else op.shape_out
    return Operator._raw(shape_in, shape_out, entries)


@_memo("Rop")
def r_opposite(j1: Spin, j2: Spin) -> Operator:
    """R21 = swap . R(j2, j1) . swap (the flipped braiding element) represented on V_j1 (x) V_j2."""
    return _exchanged(r_matrix(j2, j1), True, True)


@_memo("bR")
def braided_r(j1: Spin, j2: Spin) -> Operator:
    """Rhat = swap . R, mapping (j1, j2) to (j2, j1)."""
    return _exchanged(r_matrix(j1, j2), True, False)


@_memo("bRinv")
def braided_r_inv(j1: Spin, j2: Spin) -> Operator:
    """Inverse of braided_r(j1, j2) = R^-1 . swap, mapping (j2, j1) back to (j1, j2)."""
    return _exchanged(r_inverse(j1, j2), False, True)


@_memo("intertwines")
def intertwines(j1: Spin, j2: Spin) -> bool:
    """Whether braided_r(j1, j2) carries D(E), D(F) and D(q^H) on (j1, j2) to those on (j2, j1)."""
    return all(defect.is_zero() for _, defect in commutation_defects(braided_r(j1, j2)))


def closure_frame(colors: Sequence[Spin]) -> tuple[Operator, list[tuple[int, ...]]]:
    """
    (start, offsets), from which `tensorop.weighted_trace` of a word on legs
    with spins `colors` is Tr(braid . q^(2H) on every factor) = sum_i B_ii
    v^(2 t_i), with t_i the twice-weight of column i (`twice_weights`).  If
    every braided matrix between the colors intertwines (`intertwines` on each
    pair), so does every braid, and sector t has the trace of -t: the start is
    the identity's columns with t >= 0, sector 0 takes the offset 0 and t > 0
    the offsets 2t and -2t.  Otherwise (a corrupted R) the start is the
    identity and column i takes 2 t_i.  Kept under ("frame", 2j of each
    color), so `clear_cache` drops it with the matrices its verdicts were
    drawn from; the start keeps its index, so no closure packs it again.
    """
    key = ("frame", *[c.twice_j for c in colors])
    frame = _cache.get(key)
    if frame is None:
        spins = set(colors)
        symmetric = all(intertwines(a, b) for a in spins for b in spins)
        shape = Shape(colors)
        sector, one = twice_weights(shape), LaurentPoly.one()
        start = Operator._raw(shape, shape, {(i, i): one for i, t in enumerate(sector) if t >= 0 or not symmetric})
        weights = {t: (2 * t,) if not symmetric or t == 0 else (2 * t, -2 * t) for t in sector}
        frame = _cache[key] = (start, [weights[t] for t in sector])
    return frame


def word_steps(letters: Iterable[int], factors: Sequence[Spin]) -> tuple[list[tuple[int, Operator]], tuple[Spin, ...]]:
    """
    The `act_adjacent` steps of signed braid letters read bottom-up from legs
    with spins `factors`, and the spins the word leaves.  Letter +-i is the
    step (i - 1, braided_r(a, b)) for +i and (i - 1, braided_r_inv(b, a))
    for -i, with (a, b) the spins legs i - 1, i carry by then.
    """
    factors = list(factors)
    steps = []
    for letter in letters:
        i = abs(letter) - 1
        if not 0 <= i < len(factors) - 1:
            raise ShapeError(f"letter {letter} needs legs {i}, {i + 1} of a {len(factors)}-leg shape")
        a, b = factors[i], factors[i + 1]
        matrix = braided_r(a, b) if letter > 0 else braided_r_inv(b, a)
        steps.append((i, matrix))
        factors[i : i + 2] = matrix.shape_out.factors
    return steps, tuple(factors)


# ---------------------------------------------------------------------------
# The mixed matrices with a spin-1/2 first leg, and the 4x4 P matrix.
# ---------------------------------------------------------------------------


def l_minus(j: Spin) -> Operator:
    """R with the first leg in the fundamental: acts on (1/2, j)."""
    return r_matrix(HALF, j)


def l_plus(j: Spin) -> Operator:
    """R21 with the first leg in the fundamental: acts on (1/2, j)."""
    return r_opposite(HALF, j)


def l_minus_inv(j: Spin) -> Operator:
    return r_inverse(HALF, j)


@_memo("Lpi")
def l_plus_inv(j: Spin) -> Operator:
    return _exchanged(r_inverse(j, HALF), True, True)


@_memo("M")
def m_matrix() -> Operator:
    """diag(q, q^-1): the weight element q^(2H) on the spin-1/2 space."""
    return delta_rep("QH", Shape((HALF,)), 2)


@_memo("P")
def p_matrix() -> Operator:
    """The 4x4 matrix with middle block [[q^-1, -1], [-1, q]] on (1/2, 1/2)."""
    shape = Shape((HALF, HALF))
    one = LaurentPoly.one()
    entries = {
        (1, 1): Q(-1),
        (1, 2): -one,
        (2, 1): -one,
        (2, 2): Q(1),
    }
    return Operator(shape, shape, entries)
