"""
The diagram monoid of planar matchings, the state space of the bracket
polynomial.

A diagram on n strands is its pairing: a tuple of 2n boundary points in which
entry i is the point joined to i, bottom points 0..n-1 and top points
n..2n-1, both numbered left to right.  The pairing is a fixed-point-free
involution, and it is noncrossing against the circular boundary order (bottom
left to right, then top right to left), where a planar matching is exactly a
balanced bracket sequence.  The strand count of a diagram is len(pairing) // 2.

The product stacks each factor on top of the next; closed loops formed in
the middle are erased and counted, each contributing one factor of the loop
value `DELTA` = v^2 + v^-2 = q + q^-1 to the coefficient.  A product with the
identity diagram returns the other diagram without a walk.  `tl_mul` takes
any number of factors and multiplies them in one pass on integer cells,
{exponent: int} per diagram, from the last factor up; it builds polynomials
only for the result, so a braid word is one call.
`close_first` closes the leftmost strand around the left side of the
diagram, which is how loop-around-strands tangles are evaluated; `close_all`
closes every strand, one loop-counting walk per diagram.

`TLElement(...)` is where a caller's diagrams enter, and it checks each one.
What this module builds itself is valid by construction and skips those
checks through `TLElement._raw`: the identity and the hooks, products,
letters and one-strand closures.

Coefficients are Laurent polynomials in v, as on the quantum-trace route
(the hook E_i is the P matrix on legs i, i+1 of (1/2)^n); `braid_letter`
absorbs the writhe phase, so a word's closure is the invariant itself.
"""

from __future__ import annotations

from typing import Mapping

from .laurent import Immutable, LaurentPoly, accumulate_product, accumulate_terms, finalize, qint, summed
from .braid import BraidWord

# Loop value of one erased circle: q + q^-1, the trace of q^(2H) on spin 1/2.
DELTA = qint(2)


def _check_pairing(n: int, pairing) -> tuple[int, ...]:
    """`pairing` as a tuple, if it is a planar matching on n strands; ValueError otherwise."""
    pairing = tuple(pairing)
    pts = 2 * n
    if len(pairing) != pts:
        raise ValueError(f"pairing on {len(pairing)} points, expected {pts}")
    for i, p in enumerate(pairing):
        if not 0 <= p < pts or p == i or pairing[p] != i:
            raise ValueError(f"pairing is not a fixed-point-free involution: {pairing}")
    # Walk the boundary circle: bottom left to right, then top right to left.
    stack: list[int] = []
    for i in (*range(n), *range(pts - 1, n - 1, -1)):
        if stack and stack[-1] == i:
            stack.pop()
        else:
            stack.append(pairing[i])
    if stack:
        raise ValueError(f"pairing is not planar: {pairing}")
    return pairing


def identity_diagram(n: int) -> tuple[int, ...]:
    """Bottom i joined straight up to top n+i."""
    return tuple(range(n, 2 * n)) + tuple(range(n))


def hook_diagram(n: int, i: int) -> tuple[int, ...]:
    """Cup joining bottom i, i+1 and cap joining top i, i+1 (1-based i < n)."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"hook index {i} out of range for {n} strands")
    pairing = list(identity_diagram(n))
    a, b = i - 1, i
    pairing[a], pairing[b] = b, a
    pairing[n + a], pairing[n + b] = n + b, n + a
    return tuple(pairing)


def compose_matchings(top: tuple[int, ...], bottom: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """
    Stack `top` above `bottom` (gluing bottom's top row to top's bottom row);
    return the resulting matching and the number of erased middle loops.
    The identity on either side returns the other operand itself.
    """
    if len(top) != len(bottom):
        raise ValueError(f"cannot stack diagrams on {len(top) // 2} and {len(bottom) // 2} strands")
    n = len(top) // 2
    # A planar matching whose bottom points all run to the top is the identity.
    if not n or min(top[:n]) >= n:
        return bottom, 0
    if min(bottom[:n]) >= n:
        return top, 0
    visited = [False] * n  # middle interface points, indexed 0..n-1
    result = [-1] * (2 * n)
    for start in range(2 * n):
        if result[start] != -1:
            continue
        # Follow arcs until a boundary point of the product is reached.  Bottom
        # boundary points live in the bottom diagram; top boundary points share
        # their index with the top diagram's own numbering.
        in_top, point = start >= n, start
        while True:
            if in_top:
                end = top[point]
                if end >= n:
                    break
                visited[end] = True
                in_top, point = False, n + end
            else:
                end = bottom[point]
                if end < n:
                    break
                visited[end - n] = True
                in_top, point = True, end - n
        result[start] = end
        result[end] = start

    loops = 0
    for t in range(n):
        if visited[t]:
            continue
        loops += 1
        cur = t
        while not visited[cur]:
            visited[cur] = True
            step = top[cur]  # stays in the middle: step < n
            visited[step] = True
            nxt = bottom[n + step]  # back to the middle: nxt >= n
            cur = nxt - n
    return tuple(result), loops


class TLElement(Immutable):
    """A linear combination of n-strand diagrams (pairing tuples) with LaurentPoly coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[tuple[int, ...], LaurentPoly]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", summed((_check_pairing(n, diag), coeff) for diag, coeff in terms.items()))

    @staticmethod
    def _raw(n: int, canon: dict[tuple[int, ...], LaurentPoly]) -> TLElement:
        """Wrap canonical terms (n-strand diagrams, nonzero coefficients) without copying (internal)."""
        elem = TLElement.__new__(TLElement)
        object.__setattr__(elem, "n", n)
        object.__setattr__(elem, "terms", canon)
        return elem

    @classmethod
    def identity(cls, n: int) -> TLElement:
        return cls._raw(n, {identity_diagram(n): LaurentPoly.one()})

    @classmethod
    def hook(cls, n: int, i: int) -> TLElement:
        return cls._raw(n, {hook_diagram(n, i): LaurentPoly.one()})

    def __repr__(self) -> str:
        return f"<TLElement n={self.n}, {len(self.terms)} diagrams>"


def _delta_multiple(multiples: list[dict[int, int]], loops: int) -> dict[int, int]:
    """multiples[loops], where multiples[k] = multiples[0] * delta^k as raw terms, grown on demand."""
    while len(multiples) <= loops:
        acc: dict[int, int] = {}
        accumulate_terms(acc, multiples[-1], DELTA.terms)
        multiples.append({e: c for e, c in acc.items() if c})
    return multiples[loops]


def tl_mul(*factors: TLElement) -> TLElement:
    """
    The product of the factors, each stacked on top of the next; erased loops
    contribute delta each.  One pass from the last factor up carries integer
    cells {diagram: {exponent: int}}, dropping zeros after each factor, and
    builds the polynomials of the result only.
    """
    if not factors:
        raise ValueError("tl_mul needs at least one factor")
    *upper, last = factors
    n = last.n
    cells = {diag: coeff.terms for diag, coeff in last.terms.items()}
    for factor in reversed(upper):
        if factor.n != n:
            raise ValueError(f"cannot stack elements on {factor.n} and {n} strands")
        acc: dict[tuple[int, ...], dict[int, int]] = {}
        for da, ca in factor.terms.items():
            multiples = [ca.terms]
            for db, cb in cells.items():
                diag, loops = compose_matchings(da, db)
                accumulate_terms(acc.setdefault(diag, {}), _delta_multiple(multiples, loops), cb)
        cells = {}
        for diag, cell in acc.items():
            if 0 in cell.values():
                cell = {e: c for e, c in cell.items() if c}
            if cell:
                cells[diag] = cell
    return TLElement._raw(n, {diag: LaurentPoly._raw(cell) for diag, cell in cells.items()})


def braid_letter(n: int, letter: int) -> TLElement:
    """
    One crossing in v: v * id - v^-1 * hook if positive, v^-1 * id - v * hook
    if negative.  That is the bracket's smoothing at x = i v times the letter's
    writhe phase -i (i if negative), so the closed positive kink is v^3 DELTA.
    """
    if letter == 0 or not 1 <= abs(letter) <= n - 1:
        raise ValueError(f"letter {letter} out of range for {n} strands")
    e = 1 if letter > 0 else -1
    ident, hook = identity_diagram(n), hook_diagram(n, abs(letter))
    return TLElement._raw(n, {ident: LaurentPoly.v_power(e), hook: LaurentPoly._raw({-e: -1})})


def word_element(word: BraidWord) -> TLElement:
    """
    The image of a braid word in the diagram monoid (letters read bottom-up):
    one `tl_mul` over the chain of its letters, top letter first, on the
    identity, so the whole product runs in one pass on integer cells.
    """
    n = word.n_strands
    letters = {letter: braid_letter(n, letter) for letter in dict.fromkeys(word.letters)}
    return tl_mul(*(letters[letter] for letter in reversed(word.letters)), TLElement.identity(n))


def close_first(elem: TLElement) -> TLElement:
    """
    Close the leftmost strand (joining top 0 to bottom 0 around the left).
    A strand that ran straight through becomes an erased loop worth delta.
    """
    if elem.n == 0:
        raise ValueError("no strand left to close")
    n = elem.n
    kept = [i for i in range(2 * n) if i not in (0, n)]
    renumber = {point: k for k, point in enumerate(kept)}
    closed = []
    for pairing, coeff in elem.terms.items():
        joined = list(pairing)
        a, b = pairing[0], pairing[n]
        if a == n:
            coeff = coeff * DELTA
        else:  # the closing arc joins the partners of top 0 and bottom 0
            joined[a], joined[b] = b, a
        closed.append((tuple(renumber[joined[i]] for i in kept), coeff))
    return TLElement._raw(n - 1, summed(closed))


def _closure_loops(pairing: tuple[int, ...]) -> int:
    """
    Loops formed by the arcs of a diagram and the closure arcs top n+i -> bottom i.
    A walk leaves position `start` by its bottom point, leaves each position it
    arrives at by that position's other point, and ends at the start's top.
    """
    n = len(pairing) // 2
    seen = [False] * n
    loops = 0
    for start in range(n):
        if seen[start]:
            continue
        loops += 1
        point = start
        while (end := pairing[point]) != start + n:
            seen[end % n] = True
            point = (end + n) % (2 * n)
    return loops


def close_all(elem: TLElement) -> LaurentPoly:
    """Close every strand: the sum of coeff * delta^loops over the diagrams."""
    acc: dict[int, int] = {}
    powers = [LaurentPoly.one().terms]
    for diag, coeff in elem.terms.items():
        accumulate_product(acc, coeff, LaurentPoly._raw(_delta_multiple(powers, _closure_loops(diag))))
    return finalize(acc)
