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
R R^-1 = id and raises if that ever fails, which makes any upstream
corruption loud.

Derived operators:

- braided form  Rhat = swap . R  (shape (a,b) -> (b,a)) and its inverse;
- opposite form R21 = swap . R(b,a) . swap on (a,b);
- L^- (j) = R on (1/2, j) and L^+(j) = R21 on (1/2, j): the mixed matrices
  with a distinguished spin-1/2 first leg, defined from R rather than
  transcribed, so there is a single source of truth (the written 2x2 block
  forms are asserted in the tests instead);
- the 4x4 projector-like P with middle block [[q^-1, -1], [-1, q]], satisfying
  Rhat = q^(1/2) - q^(-1/2) P on two spin-1/2 legs.

`act_letters` is the one place a braid letter becomes a matrix: letter +i
acts on legs i - 1, i by Rhat at their current spins, letter -i by Rhat^-1,
and the spins travel with the strands.  Closed braids and the Askey-Wilson
conjugations both apply their braidings through it.

`_memo` keeps each builder's result in one module-level table under its tag
and the twice-spins of its arguments: ("R", 2j_1, 2j_2), likewise "Rinv",
"Rop", "bR" and "bRinv"; ("Lp", 2j), ("Lpi", 2j) and ("P",).  Each key is
written once, so concurrent readers are safe under the GIL.  `clear_cache`
exists for tests that inject corrupted matrices under these keys.
"""

from __future__ import annotations

from functools import reduce, wraps
from typing import Iterable

from .laurent import LaurentPoly, qint
from .report import Report
from .tensorop import HALF, Operator, Shape, ShapeError, Spin, act_adjacent, compose, embed, identity, swap
from .uqsu2 import mu as _mu, twice_spin_range

Q = LaurentPoly.q_power
V = LaurentPoly.v_power

_cache: dict[tuple, Operator] = {}


def clear_cache() -> None:
    _cache.clear()


def _memo(tag: str):
    """Memoize a builder of up to two spins in `_cache` under (tag, twice_j of each spin)."""

    def wrap(build):
        @wraps(build)
        def memoized(j1=None, j2=None):
            # Spelled out per arity: a cache hit is on the letter path.
            key = (tag,) if j1 is None else (tag, j1.twice_j) if j2 is None else (tag, j1.twice_j, j2.twice_j)
            op = _cache.get(key)
            if op is None:
                op = _cache[key] = build(*[j for j in (j1, j2) if j is not None])
            return op

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
    """Inverse of `r_matrix`, built by the bar substitution and then verified."""
    base = r_matrix(j1, j2)
    inv = Operator._raw(base.shape_in, base.shape_out, {rc: p.bar() for rc, p in base.entries.items()})
    if compose(base, inv) != identity(base.shape_in):
        raise RuntimeError(
            f"bar-substituted inverse failed the R R^-1 = id cross-check on {base.shape_in}; "
            "the braiding matrix construction is corrupted"
        )
    return inv


@_memo("Rop")
def r_opposite(j1: Spin, j2: Spin) -> Operator:
    """R21 (the flipped braiding element) represented on V_j1 (x) V_j2."""
    return compose(swap(j2, j1), compose(r_matrix(j2, j1), swap(j1, j2)))


@_memo("bR")
def braided_r(j1: Spin, j2: Spin) -> Operator:
    """Rhat = swap . R, mapping (j1, j2) to (j2, j1)."""
    return compose(swap(j1, j2), r_matrix(j1, j2))


@_memo("bRinv")
def braided_r_inv(j1: Spin, j2: Spin) -> Operator:
    """Inverse of braided_r(j1, j2), mapping (j2, j1) back to (j1, j2)."""
    return compose(r_inverse(j1, j2), swap(j2, j1))


def act_letters(letters: Iterable[int], target: Operator) -> Operator:
    """
    Apply signed braid letters bottom-up to the output legs of `target`:
    letter +i acts on legs i - 1, i by braided_r(a, b) and letter -i by
    braided_r_inv(b, a), with (a, b) the spins on those legs at that moment.
    """
    op = target
    for letter in letters:
        i = abs(letter) - 1
        factors = op.shape_out.factors
        if not 0 <= i < len(factors) - 1:
            raise ShapeError(f"letter {letter} needs legs {i}, {i + 1} of a {len(factors)}-leg shape")
        a, b = factors[i], factors[i + 1]
        op = act_adjacent(braided_r(a, b) if letter > 0 else braided_r_inv(b, a), i, op)
    return op


def monodromy(j1: Spin, j2: Spin) -> Operator:
    """R21 R12 on (j1, j2): the square of the braiding."""
    return compose(r_opposite(j1, j2), r_matrix(j1, j2))


# ---------------------------------------------------------------------------
# The mixed matrices with a spin-1/2 first leg, and the 4x4 P matrix.
# ---------------------------------------------------------------------------


def l_minus(j: Spin) -> Operator:
    """R with the first leg in the fundamental: acts on (1/2, j)."""
    return r_matrix(HALF, j)


@_memo("Lp")
def l_plus(j: Spin) -> Operator:
    """R21 with the first leg in the fundamental: acts on (1/2, j)."""
    return r_opposite(HALF, j)


def l_minus_inv(j: Spin) -> Operator:
    return r_inverse(HALF, j)


@_memo("Lpi")
def l_plus_inv(j: Spin) -> Operator:
    return compose(swap(j, HALF), compose(r_inverse(j, HALF), swap(HALF, j)))


def m_matrix() -> Operator:
    """diag(q, q^-1): the weight element on the spin-1/2 space."""
    return _mu(HALF)


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


# ---------------------------------------------------------------------------
# Verification suites.
# ---------------------------------------------------------------------------


def verify_yang_baxter(j1: Spin, j2: Spin, j3: Spin) -> Report:
    """R12 R13 R23 = R23 R13 R12 on (j1, j2, j3), with plain (non-braided) legs."""
    report = Report(f"yang-baxter {j1},{j2},{j3}")
    shape = Shape((j1, j2, j3))
    r12 = embed(r_matrix(j1, j2), (0, 1), shape)
    r13 = embed(r_matrix(j1, j3), (0, 2), shape)
    r23 = embed(r_matrix(j2, j3), (1, 2), shape)
    lhs = r12 @ r13 @ r23
    rhs = r23 @ r13 @ r12
    report.add("R12 R13 R23 = R23 R13 R12", lhs - rhs)
    return report


def verify_frt(general_twice_spins: tuple[int, ...] = (1, 2, 3)) -> Report:
    """
    The six exchange relations between R and the mixed matrices, as exact
    matrix identities.  The three with two fundamental legs run with the
    remaining leg at each requested spin; the three one-leg variants place the
    fundamental leg at each of the three positions in turn.
    """
    report = Report("frt")
    for tj in general_twice_spins:
        j = Spin(tj)

        shape = Shape((HALF, HALF, j))
        r12 = embed(r_matrix(HALF, HALF), (0, 1), shape)
        lm13 = embed(l_minus(j), (0, 2), shape)
        lm23 = embed(l_minus(j), (1, 2), shape)
        lp13 = embed(l_plus(j), (0, 2), shape)
        lp23 = embed(l_plus(j), (1, 2), shape)
        report.add(f"FRT1 j={j}", r12 @ lm13 @ lm23 - lm23 @ lm13 @ r12)
        report.add(f"FRT2 j={j}", r12 @ lp23 @ lp13 - lp13 @ lp23 @ r12)
        report.add(f"FRT3 j={j}", lm13 @ r12 @ lp23 - lp23 @ r12 @ lm13)

        shape4 = Shape((HALF, j, j))
        r23 = embed(r_matrix(j, j), (1, 2), shape4)
        lm13 = embed(l_minus(j), (0, 2), shape4)
        lm12 = embed(l_minus(j), (0, 1), shape4)
        report.add(f"RLL4 j={j}", r23 @ lm13 @ lm12 - lm12 @ lm13 @ r23)

        shape5 = Shape((j, j, HALF))
        r12g = embed(r_matrix(j, j), (0, 1), shape5)
        lp31 = embed(l_plus(j), (2, 0), shape5)
        lp32 = embed(l_plus(j), (2, 1), shape5)
        report.add(f"RLL5 j={j}", r12g @ lp31 @ lp32 - lp32 @ lp31 @ r12g)

        shape6 = Shape((j, HALF, j))
        lp21 = embed(l_plus(j), (1, 0), shape6)
        r13g = embed(r_matrix(j, j), (0, 2), shape6)
        lm23 = embed(l_minus(j), (1, 2), shape6)
        report.add(f"RLL6 j={j}", lp21 @ r13g @ lm23 - lm23 @ r13g @ lp21)
    return report


def monodromy_annihilator(j1: Spin, j2: Spin) -> Report:
    """
    The squared braiding R21 R12 is annihilated by the product of
    (B - q^(-2j1(j1+1) - 2j2(j2+1) + 2j(j+1))) over the decomposition range of
    j; checked as an exact matrix identity.
    """
    report = Report(f"monodromy {j1},{j2}")
    b = monodromy(j1, j2)
    shape = b.shape_in
    ta, tb = j1.twice_j, j2.twice_j
    spins = twice_spin_range(ta, tb)
    exponents = (-ta * (ta + 2) - tb * (tb + 2) + tj * (tj + 2) for tj in spins)  # of v
    prod = reduce(compose, (b - identity(shape) * V(e) for e in exponents))
    report.add("annihilating product", prod, note=f"eigenvalue exponents over 2j in {list(spins)}")
    return report
