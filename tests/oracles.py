"""
Independent brute-force oracles used to pin expected values.

These deliberately share no algorithmic machinery with the package internals
they check: the bracket oracle enumerates all 2^c crossing smoothings and
counts loops with a union-find over diagram segments (no diagram-monoid
composition), the two-strand torus oracle sums the Rosso-Jones closed form
over the fusion channels of the two colors rather than tracing matrices, the
weighted trace oracle visits every entry once with all its digits unraveled
instead of tracing one leg at a time, the R-matrix oracle sums the operator
expansion of R term by term instead of writing its closed-form entries, and
the closure oracle closes one strand at a time with `close_first` instead of
counting closure loops in one walk, the word oracle multiplies a braid word
one letter at a time, a two-factor `tl_mul` per letter, instead of in one
chain product, the trace-route products are the
paper's written products listed by hand instead of read from the index, the
iterated coproducts of E, F and q^(kH) are folded out of tensor products of
the one-leg generators instead of read from the per-column walk, the
coproduct Casimir is multiplied out of those folds instead of written entry
by entry, the traced product is formed on the whole auxiliary shape and
traced there instead of contracted leg by leg, a braiding conjugation is
every letter embedded and composed on both sides of a folded Casimir
instead of one packed pass over a two-sided column, the Askey-Wilson residuals
are summed one operator at a time instead of in one packed pass, and an
operator product is summed over the shared index row by column instead of
accumulated as packed integers per output cell, and an embedded operator is
written ambient column by ambient column, the digits of the touched legs
rewritten one at a time (`embed_by_digits`), instead of placed by strides.
Sums, scalings and tensor products are formed entry by entry
(`entrywise_sum`, `entrywise_kron`) wherever an oracle needs them, since
+, -, scalar * and kron of operators run on `combine` and `embed`, the
operations these oracles check.

Moved here from the package, because no route of the package uses them:

- `rep_e`, `rep_f`, `rep_qh` and `casimir`: the written one-leg matrices of
  E, F, q^(kH) and the Casimir (q - q^-1)^2 F E + q^(2H+1) + q^(-2H-1)
  multiplied out of them.  They are the one-leg entries [i] and q^(k m) read
  off the defining formulas, while `uqsu2` writes every generator and
  Casimir from one per-column walk over the legs, so the folds above no
  longer check that walk against itself;
- `as_scalar`, which reads an operator as c times the identity entry by
  entry;
- `unknot` and `hopf_link`, two literal braids, and
  `fusion_identity_residual`, the fusion rule [a+1][b+1] = sum [c+1] from
  q-integers alone;
- `verify_yang_baxter`, `verify_frt`, `monodromy` and
  `monodromy_annihilator`: the R-matrix layer's identities, each side
  embedded and multiplied out densely, so they share nothing with the one
  `act_adjacent` pass through which every route applies R;
- `poly_from_json` and `operator_from_json` (once `Operator.from_json`),
  which read back what `poly_to_json` and `Operator.to_json` write: no route
  reads that JSON, only the tests' round trips do.
- `writhe_breakdown` (once `braid.writhe`): the total writhe and the
  pairwise linking besides each component's self-writhe, which is all the
  ambient normalization reads (`braid.self_writhe`);
- `spin_twice_weights` and `shape_twice_weights` (once the `twice_weights`
  methods of `Spin` and `Shape`): the twice-weights 2j, 2j - 2, ..., -2j of
  one leg, summed factor by factor over a shape, where `uqsu2.twice_weights`
  reads each column's total from the per-column walk;
- `unravel` (once `Shape.unravel`): the digits of a basis index, which no
  route reads since `embed` builds its rows and columns leg by leg;
- `swap` (once in `tensorop`): the two-factor exchange, each basis pair
  looked up among the pairs of the exchanged shape, where `rmatrix` relabels
  the indices of R by the formula i d_b + k -> k d_a + i.

`full_twist_value` is the closed value of a power of the full twist from
the Clebsch-Gordan multiplicities and the Casimir scalar on each summand,
with no matrix.

`cyclotomic_coefficients` peels the coefficients of Habiro's cyclotomic
expansion of a knot off its normalized colored values, one exact division
per color, so every color past the ones that fix a coefficient is a
divisibility test that no closed form covers.

`loop_word` reads the spin-1/2 loop around a block of legs as a braid word
by the over/under rule, so a generator can be evaluated as a closed strand
through R letters and one partial trace, with no L+- product.

`tl_image` sends a diagram-monoid element to its operator on (1/2)^n, the
hook E_i going to the P matrix on legs i, i+1: each diagram's image is the
product of P matrices along a hook word that reaches it closing no loop, found
by a walk out of the identity, so no diagram's image is read off its pairing.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from itertools import product

from qlink.braid import BraidWord, ColoredBraid, components
from qlink.invariant import rt_invariant
from qlink.laurent import LaurentPoly, div_exact, qfact, qint
from qlink.report import Report
from qlink.rmatrix import (
    braided_r,
    braided_r_inv,
    l_minus,
    l_minus_inv,
    l_plus,
    l_plus_inv,
    m_matrix,
    p_matrix,
    r_matrix,
    r_opposite,
)
from qlink.tensorop import HALF, Operator, Shape, Spin, compose, embed, identity, partial_trace_first
from qlink.tl import TLElement, braid_letter, close_first, compose_matchings, hook_diagram, identity_diagram, tl_mul
from qlink.uqsu2 import twice_spin_range


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, a: int) -> int:
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def bracket_state_sum(word: BraidWord) -> LaurentPoly:
    """
    The closure bracket of a braid word by full smoothing enumeration: each
    crossing resolves into the straight-through or the hook smoothing with
    weights x^(+-1), every closed loop contributes -x^2 - x^(-2).
    """
    n = word.n_strands
    k = len(word.letters)
    delta = LaurentPoly({2: -1, -2: -1})
    total = LaurentPoly.zero()

    def node(level: int, position: int) -> int:
        return level * n + position

    for state in product((0, 1), repeat=k):
        uf = _UnionFind((k + 1) * n)
        exponent = 0
        for level, (letter, choice) in enumerate(zip(word.letters, state)):
            i = abs(letter) - 1
            hook = choice == 1
            exponent += (1 if not hook else -1) * (1 if letter > 0 else -1)
            for p in range(n):
                if p in (i, i + 1):
                    continue
                uf.union(node(level, p), node(level + 1, p))
            if hook:
                uf.union(node(level, i), node(level, i + 1))
                uf.union(node(level + 1, i), node(level + 1, i + 1))
            else:
                uf.union(node(level, i), node(level + 1, i))
                uf.union(node(level, i + 1), node(level + 1, i + 1))
        for p in range(n):
            uf.union(node(k, p), node(0, p))
        loops = len({uf.find(x) for x in range((k + 1) * n)})
        total = total + LaurentPoly.v_power(exponent) * delta**loops
    return total


def two_strand_torus_value(a: Spin, b: Spin, crossings: int) -> LaurentPoly:
    """
    Closure value of sigma_1^crossings on two strands colored (a, b), by the
    Rosso-Jones closed form: the sum over J in a (x) b of
    [2J+1] (eps_J q^(c(J) - c(a) - c(b)))^crossings, with eps_J = (-1)^(a+b-J)
    and c(j) = j(j+1).  `crossings` must be even unless a == b.
    """
    ta, tb = a.twice_j, b.twice_j
    total = LaurentPoly.zero()
    for tc in range(abs(ta - tb), ta + tb + 1, 2):
        # 2(c(J) - c(a) - c(b)) is the exponent of v = q^(1/2); it is an integer.
        exponent = (tc * (tc + 2) - ta * (ta + 2) - tb * (tb + 2)) // 2
        sign = -1 if (ta + tb - tc) // 2 * crossings % 2 else 1
        total = total + qint(tc + 1) * LaurentPoly.v_power(exponent * crossings) * sign
    return total


def full_twist_value(twice_spins, k: int) -> LaurentPoly:
    """
    Closure value of the k-th power of the full twist (sigma_1 ... sigma_(n-1))^n
    on strands of twice-spins `twice_spins`, which acts on each spin-J summand
    of the tensor product by the scalar q^(c(J) - sum c(j_i)), c(j) = j(j+1)
    (Reshetikhin-Turaev, CMP 127, 1990): the sum over J with multiplicity m_J
    of [2J+1] v^(k (2J(2J+2) - sum 2j_i(2j_i+2))).
    """
    mult = {0: 1}
    for t in twice_spins:
        grown: dict[int, int] = {}
        for tc, m in mult.items():
            for tn in twice_spin_range(tc, t):
                grown[tn] = grown.get(tn, 0) + m
        mult = grown
    base = sum(t * (t + 2) for t in twice_spins)
    total = LaurentPoly.zero()
    for tj, m in mult.items():
        total = total + qint(tj + 1) * LaurentPoly.v_power(k * (tj * (tj + 2) - base)) * m
    return total


def cyclotomic_coefficients(letters, n_strands: int, max_twice_spin: int) -> list[LaurentPoly]:
    """
    c_0, ..., c_N (N = max_twice_spin) of Habiro's expansion of the knot
    closing `letters`: J(n) = sum_k c_k prod_(i=1..k) {n+i}{n-i}, where n =
    2j + 1, J(n) is the ambient value at color j divided by [n], and {m} =
    v^(2m) - v^(-2m) (K. Habiro, Invent. Math. 171, 2008).  The color j
    fixes c_(n-1): the terms with k >= n vanish, so J(n) less the known
    terms is c_(n-1) times prod_(i=1..n-1) {n+i}{n-i}.  Every division is
    `div_exact`, which raises ValueError when it is not exact.
    """
    coefficients = []
    for twice_j in range(max_twice_spin + 1):
        n = twice_j + 1
        braid = ColoredBraid(BraidWord(n_strands, letters), [Spin(twice_j)] * n_strands)
        rest = div_exact(rt_invariant(braid, normalize=True), qint(n))
        product = LaurentPoly.one()
        for k, c in enumerate(coefficients):
            rest = rest - c * product
            product = product * _braces(n + k + 1) * _braces(n - k - 1)
        coefficients.append(div_exact(rest, product))
    return coefficients


def _braces(m: int) -> LaurentPoly:
    """{m} = v^(2m) - v^(-2m), for m > 0."""
    return LaurentPoly({2 * m: 1, -2 * m: -1})


def writhe_breakdown(braid: ColoredBraid) -> tuple[int, dict[int, int], dict[tuple[int, int], int]]:
    """
    (total, self, linking): each letter's sign attributed to the components
    (numbered as in `components`) of the two strands it crosses, as a
    self-writhe when they agree and to the sorted pair's linking otherwise.
    """
    comp_of = {s: ci for ci, comp in enumerate(components(braid)) for s in comp}
    occ = list(range(braid.n_strands))
    total, own, linking = 0, dict.fromkeys(set(comp_of.values()), 0), {}
    for letter in braid.word.letters:
        i = abs(letter) - 1
        sign = 1 if letter > 0 else -1
        c1, c2 = comp_of[occ[i]], comp_of[occ[i + 1]]
        total += sign
        if c1 == c2:
            own[c1] += sign
        else:
            key = (min(c1, c2), max(c1, c2))
            linking[key] = linking.get(key, 0) + sign
        occ[i], occ[i + 1] = occ[i + 1], occ[i]
    return total, own, linking


def close_all_by_strands(elem: TLElement) -> LaurentPoly:
    """Close the leftmost strand until none is left; the scalar on the empty diagram."""
    while elem.n:
        elem = close_first(elem)
    if not elem.terms:
        return LaurentPoly.zero()
    ((_, coeff),) = elem.terms.items()
    return coeff


def word_element_by_letters(word: BraidWord) -> TLElement:
    """The image of a braid word folded one letter at a time from the bottom up."""
    elem = TLElement.identity(word.n_strands)
    for letter in word.letters:
        elem = tl_mul(braid_letter(word.n_strands, letter), elem)
    return elem


@lru_cache(maxsize=None)
def _diagram_images(n: int) -> dict:
    """{diagram: its image} for every n-strand diagram, by a walk over hook words that close no loop."""
    shape = Shape((HALF,) * n)
    hooks = [(hook_diagram(n, i), embed(p_matrix(), (i - 1, i), shape)) for i in range(1, n)]
    images = {identity_diagram(n): identity(shape)}
    frontier = list(images)
    while frontier:
        diag = frontier.pop()
        for hook, p in hooks:
            top, loops = compose_matchings(hook, diag)
            if loops == 0 and top not in images:
                images[top] = compose(p, images[diag])
                frontier.append(top)
    return images


def tl_image(elem: TLElement) -> Operator:
    """The operator of `elem` on (1/2)^n, each hook E_i sent to the P matrix on legs i, i+1."""
    images = _diagram_images(elem.n)
    shape = Shape((HALF,) * elem.n)
    return entrywise_sum([(1, Operator(shape, shape, {})), *((c, images[d]) for d, c in elem.terms.items())])


def entrywise_full_trace(op, weights) -> LaurentPoly:
    """
    Tr(op . (w_0 (x) w_1 (x) ...)) entry by entry: an entry (r, c) contributes
    its value times w_t[c_t, r_t] on every factor t (None = identity).
    """
    shape = op.shape_in
    assert op.shape_out == shape and len(weights) == len(shape)
    total = LaurentPoly.zero()
    for (r, c), p in op.entries.items():
        rm = unravel(shape, r)
        cm = unravel(shape, c)
        contrib = p
        for t, w in enumerate(weights):
            if w is None:
                if rm[t] != cm[t]:
                    break
            else:
                wp = w.entries.get((cm[t], rm[t]))
                if wp is None:
                    break
                contrib = contrib * wp
        else:
            total = total + contrib
    return total


def entrywise_product(a: Operator, b: Operator) -> Operator:
    """a @ b with every entry summed as sum over k of a[r, k] * b[k, c]."""
    assert a.shape_in == b.shape_out
    entries = {}
    for r in range(a.shape_out.dim):
        for c in range(b.shape_in.dim):
            total = LaurentPoly.zero()
            for k in range(a.shape_in.dim):
                total = total + a.entry(r, k) * b.entry(k, c)
            entries[(r, c)] = total
    return Operator(b.shape_in, a.shape_out, entries)


def entrywise_sum(terms) -> Operator:
    """
    sum of scalar * op over the pairs (scalar, op) of `terms`, all between the
    same shapes, with every cell summed as polynomials; the first pair fixes
    the shapes.
    """
    (_, first), *_ = terms
    entries = {}
    for scalar, op in terms:
        assert (op.shape_in, op.shape_out) == (first.shape_in, first.shape_out)
        for rc, p in op.entries.items():
            entries[rc] = entries.get(rc, LaurentPoly.zero()) + p * scalar
    return Operator(first.shape_in, first.shape_out, entries)


def entrywise_kron(a: Operator, b: Operator) -> Operator:
    """The tensor product, entry (ra, ca) of a times entry (rb, cb) of b at (ra d_out_b + rb, ca d_in_b + cb)."""
    d_in_b, d_out_b = b.shape_in.dim, b.shape_out.dim
    entries = {}
    for (ra, ca), pa in a.entries.items():
        for (rb, cb), pb in b.entries.items():
            entries[(ra * d_out_b + rb, ca * d_in_b + cb)] = pa * pb
    return Operator(a.shape_in + b.shape_in, a.shape_out + b.shape_out, entries)


def embed_by_digits(op: Operator, positions, ambient: Shape) -> Operator:
    """
    `embed` read digit by digit: every column of `ambient` is split into its
    leg digits, op's column is the number the digits at `positions` spell in
    op's leg order, and each entry of that column of op writes its row's
    digits over those legs to give the ambient row.
    """
    out_factors = list(ambient.factors)
    for t, leg in enumerate(positions):
        out_factors[leg] = op.shape_out[t]
    shape_out = Shape(out_factors)

    def number(digits, dims):  # first digit slowest
        x = 0
        for digit, dim in zip(digits, dims):
            x = x * dim + digit
        return x

    row_digits = list(product(*(range(dim) for dim in op.shape_out.dims)))  # op's rows in index order
    entries = {}
    for col in product(*(range(dim) for dim in ambient.dims)):
        local_col = number([col[leg] for leg in positions], op.shape_in.dims)
        for (r, c), p in op.entries.items():
            if c != local_col:
                continue
            row = list(col)
            for leg, digit in zip(positions, row_digits[r]):
                row[leg] = digit
            entries[(number(row, shape_out.dims), number(col, ambient.dims))] = p
    return Operator(ambient, shape_out, entries)


def aw_residuals_by_products(q, one) -> dict:
    """
    The four Askey-Wilson residuals for an assignment of generators, built
    one operator at a time, with every sum and scaling entry by entry; the
    q-commutator is [X, Y]_q = q X Y - q^-1 Y X.
    """
    Q = LaurentPoly.q_power
    qq, qi = Q(1), Q(-1)
    q2, qi2 = Q(2), Q(-2)

    def qcomm(x: Operator, y: Operator) -> list:
        return [(qq, compose(x, y)), (-qi, compose(y, x))]

    s1 = entrywise_sum([(1, compose(q["1"], q["3"])), (1, compose(q["2"], q["123"]))])
    s2 = entrywise_sum([(1, compose(q["1"], q["2"])), (1, compose(q["3"], q["123"]))])
    s3 = entrywise_sum([(1, compose(q["2"], q["3"])), (1, compose(q["1"], q["123"]))])
    coeff = qq - qi
    res = {
        "AW1": entrywise_sum(qcomm(q["12"], q["23"]) + [(q2 - qi2, q["13"]), (-coeff, s1)]),
        "AW2": entrywise_sum(qcomm(q["23"], q["13"]) + [(q2 - qi2, q["12"]), (-coeff, s2)]),
        "AW3": entrywise_sum(qcomm(q["13"], q["12"]) + [(q2 - qi2, q["23"]), (-coeff, s3)]),
    }
    lhs4 = [
        (qq, compose(compose(q["12"], q["23"]), q["13"])),
        (q2, compose(q["12"], q["12"])),
        (qi2, compose(q["23"], q["23"])),
        (q2, compose(q["13"], q["13"])),
        (-qq, compose(q["12"], s2)),
        (-qi, compose(q["23"], s3)),
        (-qq, compose(q["13"], s1)),
    ]
    rhs4 = [
        ((qq + qi) * (qq + qi), one),
        (-1, compose(q["123"], q["123"])),
        (-1, compose(q["1"], q["1"])),
        (-1, compose(q["2"], q["2"])),
        (-1, compose(q["3"], q["3"])),
        (-1, compose(compose(q["1"], q["2"]), compose(q["3"], q["123"]))),
    ]
    res["AW4"] = entrywise_sum(lhs4 + [(-scalar, op) for scalar, op in rhs4])
    return res


# ---------------------------------------------------------------------------
# The written one-leg weights and generators, the leg exchange, and helpers no
# route of the package uses.
# ---------------------------------------------------------------------------


def spin_twice_weights(j: Spin) -> list[int]:
    """Twice-weights 2m of the spin-j basis in order: 2j, 2j - 2, ..., -2j."""
    return list(range(j.twice_j, -j.twice_j - 1, -2))


def unravel(shape: Shape, index: int) -> tuple[int, ...]:
    """The digits of a basis index of `shape`, one per factor, the first factor slowest."""
    digits = []
    for d in reversed(shape.dims):
        index, digit = divmod(index, d)
        digits.append(digit)
    return tuple(reversed(digits))


def shape_twice_weights(shape: Shape) -> list[int]:
    """Twice the total weight of every basis index of `shape`, in index order, summed factor by factor."""
    out = [0]
    for j in shape:
        out = [t + tm for t in out for tm in spin_twice_weights(j)]
    return out


def swap(a: Spin, b: Spin) -> Operator:
    """
    The two-factor exchange V_a (x) V_b -> V_b (x) V_a, |x> (x) |y> to
    |y> (x) |x>: each row is the place of the exchanged basis pair among the
    pairs of (b, a) in index order, with no index formula.
    """
    rows = {pair: row for row, pair in enumerate(product(range(b.dim), range(a.dim)))}
    cols = product(range(a.dim), range(b.dim))
    return Operator(Shape((a, b)), Shape((b, a)), {(rows[(y, x)], col): 1 for col, (x, y) in enumerate(cols)})


def rep_e(j: Spin) -> Operator:
    """E on the spin-j space: column i carries m = j - i and goes to row i - 1 times [j - m] = [i]."""
    shape = Shape((j,))
    return Operator(shape, shape, {(i - 1, i): qint(i) for i in range(1, j.twice_j + 1)})


def rep_f(j: Spin) -> Operator:
    """F on the spin-j space: column i goes to row i + 1 times [j + m] = [2j - i]."""
    shape = Shape((j,))
    return Operator(shape, shape, {(i + 1, i): qint(j.twice_j - i) for i in range(j.twice_j)})


def rep_qh(j: Spin, k: int) -> Operator:
    """q^(kH) on the spin-j space, diagonal with entries q^(k m) = v^(k 2m); k must be an integer."""
    if not isinstance(k, int):
        raise ValueError(f"power of q^H must be an integer, got {k!r}")
    shape = Shape((j,))
    return Operator(shape, shape, {(i, i): LaurentPoly.v_power(k * tm) for i, tm in enumerate(spin_twice_weights(j))})


def casimir(j: Spin) -> Operator:
    """(q - q^-1)^2 F E + q^(2H+1) + q^(-2H-1) on the spin-j space."""
    q = LaurentPoly.q_power
    return entrywise_sum([((q(1) - q(-1)) ** 2, rep_f(j) @ rep_e(j)), (q(1), rep_qh(j, 2)), (q(-1), rep_qh(j, -2))])


def as_scalar(op: Operator):
    """c if op equals c times the identity exactly, else None."""
    assert op.shape_in == op.shape_out
    if not op.entries:
        return LaurentPoly.zero()
    c = op.entries.get((0, 0))
    if c is None or len(op.entries) != op.shape_in.dim:
        return None
    if any(op.entries.get((i, i)) != c for i in range(op.shape_in.dim)):
        return None
    return c


def unknot(j: Spin) -> ColoredBraid:
    """The zero-writhe unknot: the closed identity 1-braid."""
    return ColoredBraid(BraidWord(1, ()), (j,))


def hopf_link(j1: Spin, j2: Spin) -> ColoredBraid:
    """The closure of the doubled crossing on two strands."""
    return ColoredBraid(BraidWord(2, (1, 1)), (j1, j2))


def fusion_identity_residual(twice_a: int, twice_b: int) -> LaurentPoly:
    """[a+1][b+1] minus the sum of [c+1] over the twice-spins c of V_(a/2) (x) V_(b/2)."""
    rhs = LaurentPoly.zero()
    for tc in range(abs(twice_a - twice_b), twice_a + twice_b + 1, 2):
        rhs = rhs + qint(tc + 1)
    return qint(twice_a + 1) * qint(twice_b + 1) - rhs


def loop_word(index: str) -> tuple[int, ...]:
    """
    The braid word of an auxiliary strand at position 0 that runs out across
    legs 1..top and back, top the highest leg the index names: going out,
    letter k is +k when leg k is in the block or the index has "~", and -k
    otherwise; coming back, from top down to 1, letter k is +k when leg k is
    in the block or the index has no "~", and -k otherwise.
    """
    block, tilde = {int(digit) for digit in index.rstrip("~")}, index.endswith("~")
    top = max(block)
    out = [k if k in block or tilde else -k for k in range(1, top + 1)]
    back = [k if k in block or not tilde else -k for k in range(top, 0, -1)]
    return tuple(out + back)


# ---------------------------------------------------------------------------
# The R-matrix layer's identity suites.
# ---------------------------------------------------------------------------


def monodromy(j1: Spin, j2: Spin) -> Operator:
    """R21 R12 on (j1, j2): the square of the braiding."""
    return compose(r_opposite(j1, j2), r_matrix(j1, j2))


def verify_yang_baxter(j1: Spin, j2: Spin, j3: Spin) -> Report:
    """R12 R13 R23 = R23 R13 R12 on (j1, j2, j3), with plain (non-braided) legs."""
    report = Report(f"yang-baxter {j1},{j2},{j3}")
    shape = Shape((j1, j2, j3))
    r12 = embed(r_matrix(j1, j2), (0, 1), shape)
    r13 = embed(r_matrix(j1, j3), (0, 2), shape)
    r23 = embed(r_matrix(j2, j3), (1, 2), shape)
    report.add("R12 R13 R23 = R23 R13 R12", r12 @ r13 @ r23 - r23 @ r13 @ r12)
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
    spins = range(abs(ta - tb), ta + tb + 1, 2)
    exponents = (-ta * (ta + 2) - tb * (tb + 2) + tj * (tj + 2) for tj in spins)  # of v
    prod = reduce(compose, (b - identity(shape) * LaurentPoly.v_power(e) for e in exponents))
    report.add("annihilating product", prod, note=f"eigenvalue exponents over 2j in {list(spins)}")
    return report


def r_matrix_expansion(j1, j2) -> Operator:
    """
    R on V_j1 (x) V_j2 as the operator sum over k of
    (q - q^-1)^k / [k]! q^(-k(k+1)/2) (F^k (x) E^k) (q^(kH) (x) q^(-kH)) q^(2 H (x) H),
    built from the represented generators with compose and `entrywise_kron`.
    """
    shape = Shape((j1, j2))
    v = LaurentPoly.v_power
    coeff = LaurentPoly.q_power(1) - LaurentPoly.q_power(-1)
    weights = [tm1 * tm2 for tm1 in spin_twice_weights(j1) for tm2 in spin_twice_weights(j2)]
    weight = Operator(shape, shape, {(i, i): v(w) for i, w in enumerate(weights)})  # q^(2 H (x) H)
    terms = [(1, Operator(shape, shape, {}))]
    f_pow, e_pow = identity(Shape((j1,))), identity(Shape((j2,)))
    for k in range(min(j1.twice_j, j2.twice_j) + 1):
        if k:
            f_pow = compose(rep_f(j1), f_pow)
            e_pow = compose(rep_e(j2), e_pow)
        # Every entry of E^k is [k]! times a q-binomial.
        fk, leg2 = qfact(k), e_pow.shape_in
        e_leg = Operator(leg2, leg2, {rc: div_exact(p, fk) for rc, p in e_pow.entries.items()})
        term = compose(entrywise_kron(f_pow, e_leg), entrywise_kron(rep_qh(j1, k), rep_qh(j2, -k)))
        terms.append((coeff**k * v(-k * (k + 1)), compose(term, weight)))
    return entrywise_sum(terms)


# The product inside each traced Askey-Wilson expression, left to right, as
# (builder, leg): the mixed-matrix builder applied to the spin of target leg
# `leg` (1..3 of the triple), acting on the auxiliary leg and that one.
TRACE_PRODUCTS = {
    "1": ((l_plus, 1), (l_minus, 1)),
    "12": ((l_plus, 1), (l_plus, 2), (l_minus, 2), (l_minus, 1)),
    "123": ((l_plus, 1), (l_plus, 2), (l_plus, 3), (l_minus, 3), (l_minus, 2), (l_minus, 1)),
    "2": ((l_plus, 1), (l_plus, 2), (l_minus, 2), (l_plus_inv, 1)),
    "23": ((l_plus, 1), (l_plus, 2), (l_plus, 3), (l_minus, 3), (l_minus, 2), (l_plus_inv, 1)),
    "13": ((l_plus, 1), (l_plus, 2), (l_plus, 3), (l_minus, 3), (l_plus_inv, 2), (l_minus, 1)),
    "13~": ((l_plus, 1), (l_minus_inv, 2), (l_plus, 3), (l_minus, 3), (l_minus, 2), (l_minus, 1)),
    "3": ((l_plus, 1), (l_plus, 2), (l_plus, 3), (l_minus, 3), (l_plus_inv, 2), (l_plus_inv, 1)),
}


def _one_leg(kind: str, j: Spin, power: int) -> Operator:
    if kind == "E":
        return rep_e(j)
    if kind == "F":
        return rep_f(j)
    return rep_qh(j, power)


def coproduct_fold(kind: str, shape: Shape, power: int = 1) -> Operator:
    """
    The iterated coproduct of one generator (kind "E", "F", or "QH" for
    q^(power H)) on `shape`, folded from the left out of krons: D(g) on
    head + (last,) is D(g)|head (x) q^-H + D(q^H)|head (x) g for g = E, F,
    and D(q^(kH))|head (x) q^(kH).
    """
    if len(shape) == 1:
        return _one_leg(kind, shape[0], power)
    head, last = Shape(shape.factors[:-1]), shape[-1]
    if kind == "QH":
        return entrywise_kron(coproduct_fold(kind, head, power), rep_qh(last, power))
    tail = entrywise_kron(coproduct_fold("QH", head), _one_leg(kind, last, power))
    return entrywise_sum([(1, entrywise_kron(coproduct_fold(kind, head), rep_qh(last, -1))), (1, tail)])


def casimir_fold(shape: Shape, span) -> Operator:
    """
    The Casimir of the contiguous legs `span`, as
    (q - q^-1)^2 D(F) D(E) + q D(q^(2H)) + q^-1 D(q^(-2H)) with each D folded
    out of krons on the block's legs, then embedded in `shape`.
    """
    span = tuple(span)
    sub = Shape(shape.factors[span[0] : span[-1] + 1])
    q = LaurentPoly.q_power
    fe = compose(coproduct_fold("F", sub), coproduct_fold("E", sub))
    block = entrywise_sum(
        [((q(1) - q(-1)) ** 2, fe), (q(1), coproduct_fold("QH", sub, 2)), (q(-1), coproduct_fold("QH", sub, -2))]
    )
    return embed(block, span, shape)


def aux_shape_trace(formula, shape: Shape) -> Operator:
    """
    The weighted first-leg trace of a trace-route product, given as (builder,
    leg) pairs: every factor embedded on the auxiliary shape (1/2,) + shape,
    multiplied out there, and the spin-1/2 leg traced against diag(q, q^-1).
    """
    aux = Shape((HALF,) + shape.factors)
    prod = reduce(compose, (embed(build(shape[leg - 1]), (0, leg), aux) for build, leg in formula))
    return partial_trace_first(prod, m_matrix())


def embedded_word(letters, shape: Shape) -> Operator:
    """
    The braid word `letters` on `shape` as one composed operator: letter +i
    is braided_r(a, b) and -i is braided_r_inv(b, a) with (a, b) the spins
    on legs i - 1, i by then, each embedded and composed onto the product.
    """
    word = identity(shape)
    for letter in letters:
        i = abs(letter) - 1
        a, b = word.shape_out[i], word.shape_out[i + 1]
        matrix = braided_r(a, b) if letter > 0 else braided_r_inv(b, a)
        word = compose(embed(matrix, (i, i + 1), word.shape_out), word)
    return word


def conjugation_sandwich(letters, span, shape: Shape) -> Operator:
    """
    W^-1 . C . W with W the braid word `letters` on `shape`, W^-1 the word of
    the negated letters in reverse order, and C the folded Casimir of the
    legs `span` of the shape W reaches.
    """
    word = embedded_word(letters, shape)
    inverse = embedded_word(tuple(-letter for letter in reversed(letters)), word.shape_out)
    return compose(inverse, compose(casimir_fold(word.shape_out, span), word))


def random_word(rng, n_strands: int, length: int) -> BraidWord:
    if n_strands < 2:
        return BraidWord(n_strands, ())
    letters = tuple(
        rng.choice((1, -1)) * rng.randint(1, n_strands - 1) for _ in range(length)
    )
    return BraidWord(n_strands, letters)


def random_colored_braid(rng, n_strands: int, length: int, max_twice_spin: int):
    """A random word with one random color per closure component."""
    from qlink.braid import underlying_permutation

    word = random_word(rng, n_strands, length)
    perm = underlying_permutation(word)
    colors: list = [None] * n_strands
    for s in range(n_strands):
        if colors[s] is None:
            spin = Spin(rng.randint(0, max_twice_spin))
            t = s
            while colors[t] is None:
                colors[t] = spin
                t = perm[t]
    return ColoredBraid(word, tuple(colors))


def poly_from_json(data) -> LaurentPoly:
    """The polynomial of `poly_to_json` rows; a row that is not [exponent, c, 1, 0, 1] with integer c is a ValueError."""
    terms = {}
    for row in data:
        if not (
            isinstance(row, list)
            and len(row) == 5
            and all(isinstance(x, int) for x in row)
            and row[2:] == [1, 0, 1]
        ):
            raise ValueError(f"polynomial row must be [exponent, c, 1, 0, 1] with integer c: {row!r}")
        terms[row[0]] = row[1]
    return LaurentPoly(terms)


def operator_from_json(data: dict) -> Operator:
    """The operator of `Operator.to_json`."""
    entries = {(int(r), int(c)): poly_from_json(p) for r, c, p in data["entries"]}
    return Operator(Shape.of(*data["shape_in"]), Shape.of(*data["shape_out"]), entries)
