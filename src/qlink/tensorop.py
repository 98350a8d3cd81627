"""
Shape-typed sparse linear operators between tensor products of spin spaces.

Conventions fixed here and relied on everywhere else:

- a spin is stored as its double `twice_j` (a non-negative int); the carrier
  space has dimension twice_j + 1;
- inside one factor the basis is ordered by descending weight,
  m = j, j-1, ..., -j, so the spin-1/2 weight matrix comes out as
  diag(q, q^-1) and the fundamental 4x4 braiding matrix matches its usual
  written form entry for entry;
- a multi-factor basis index is factor-major with the *first* factor slowest:
  index = ((i_0 * d_1 + i_1) * d_2 + i_2) * ...

Operators carry both an input and an output shape.  They coincide except
for braidings, which permute factors (V_a (x) V_b -> V_b (x) V_a), and the
shape bookkeeping is what keeps mixed-spin conjugations honest.  `embed` and
`kron` place only operators that keep their legs' spins; a braiding acts on
more legs than its own only through `act_adjacent`.

Entries are stored sparsely as {(row, col): LaurentPoly} with no zero entries,
so operator equality is exact.  Spins, shapes and operators are `Immutable`
values: equality compares their fields, and an operator, which holds a dict,
is not hashable.  Everything is pure.

The structural operations are the ones a route uses: identity, `embed`,
named sums of scaled products (`combine`), a word of two-leg steps
(`act_adjacent`), the weighted diagonal of such a word (`weighted_trace`)
and weighted traces.  `combine` is the one arithmetic kernel: `compose` is a
one-term call, `-`, the one operator on operators, is a one-sum call after a
check for equal operands, and `kron` composes two `embed`s.
`combine`, `act_adjacent` and `weighted_trace` are front ends of one packed
executor, `_packed_sums`: it computes on packed integers (a Kronecker
substitution: a polynomial becomes a base exponent and one int), each cell
keyed by the one int r m + c, and its docstring states the cell key, the
packing, the stride rule and the width proof.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Mapping, Optional, Sequence, Union

from .laurent import Immutable, LaurentPoly, as_poly, poly_to_json, summed


class ShapeError(ValueError):
    """Raised when operator shapes do not line up."""


class InputError(ValueError):
    """Raised for bad input; `field` names the input that carried it, such as "colors" or "strand"."""

    def __init__(self, message: str, field: Optional[str] = None):
        super().__init__(message)
        self.field = field


def parse_int(text: str) -> int:
    """
    The integer written in `text`: an optional sign and ASCII digits, with
    surrounding blanks allowed.  ValueError otherwise, also for the
    underscores and non-ASCII digits that int() would accept.
    """
    digits = text.strip()
    if not (digits[1:] if digits[:1] in ("+", "-") else digits).isdigit() or not digits.isascii():
        raise ValueError(f"not an integer: {text!r}")
    return int(digits)


class Spin(Immutable):
    """A spin j stored as twice_j; dimension of the carrier space is twice_j + 1."""

    __slots__ = ("twice_j",)

    def __init__(self, twice_j: int):
        if twice_j < 0:
            raise ValueError(f"twice_j must be non-negative, got {twice_j}")
        object.__setattr__(self, "twice_j", twice_j)

    @property
    def dim(self) -> int:
        return self.twice_j + 1

    @classmethod
    def parse(cls, text: str) -> Spin:
        """Parse '0', '1', '1/2', '3/2', ... into a Spin; a bad text is quoted in the InputError."""
        num, slash, den = text.strip().partition("/")
        if slash and den.strip() != "2":
            raise InputError(f"spin denominator must be 2: {text!r}")
        try:
            twice_j = parse_int(num) if slash else 2 * parse_int(num)
        except ValueError:
            raise InputError(f"not a spin: {text!r}") from None
        if twice_j < 0:
            raise InputError(f"spin must be non-negative: {text!r}")
        return cls(twice_j)

    def __str__(self) -> str:
        return str(self.twice_j // 2) if self.twice_j % 2 == 0 else f"{self.twice_j}/2"


def parse_spins(text: str) -> tuple[Spin, ...]:
    """The comma-separated spins written in `text`, each read by `Spin.parse`; blank text lists none."""
    return tuple(Spin.parse(item) for item in text.split(",")) if text.strip() else ()


HALF = Spin(1)


class Shape(Immutable):
    """An ordered list of tensor factors with their dimensions and index strides (first factor slowest)."""

    __slots__ = ("factors", "dims", "dim", "_strides")

    def __init__(self, factors: Iterable[Spin]):
        fs = tuple(factors)
        object.__setattr__(self, "factors", fs)
        dims = tuple(s.dim for s in fs)
        object.__setattr__(self, "dims", dims)
        strides = [1] * len(dims)
        total = 1
        for i in range(len(dims) - 1, -1, -1):
            strides[i] = total
            total *= dims[i]
        object.__setattr__(self, "_strides", tuple(strides))
        object.__setattr__(self, "dim", total)

    @classmethod
    def of(cls, *twice_js: int) -> Shape:
        return cls(Spin(t) for t in twice_js)

    def __len__(self) -> int:
        return len(self.factors)

    def __getitem__(self, i):
        return self.factors[i]

    def __add__(self, other: Shape) -> Shape:
        return Shape(self.factors + other.factors)

    def twice_list(self) -> list[int]:
        return [s.twice_j for s in self.factors]

    def strides(self) -> tuple[int, ...]:
        return self._strides

    def __str__(self) -> str:
        return "(" + ", ".join(str(s) for s in self.factors) + ")"

    def __repr__(self) -> str:
        return f"Shape.of({', '.join(str(s.twice_j) for s in self.factors)})"


EMPTY_SHAPE = Shape(())


class Operator(Immutable):
    """
    A sparse matrix of LaurentPoly entries from shape_in to shape_out.  Its
    `_index`, None until `_packed_sums` first reads the operator, keeps what
    the packed executor derives from the entries: their bounds and gap, and
    per stride and width their packed cells and, once the operator is read
    as a left operand, its columns (see `_indexed`).
    """

    __slots__ = ("shape_in", "shape_out", "entries", "_index")

    def __init__(self, shape_in: Shape, shape_out: Shape, entries: Mapping[tuple[int, int], Union[LaurentPoly, int]]):
        canon: dict[tuple[int, int], LaurentPoly] = {}
        for (r, c), p in entries.items():
            p = as_poly(p)
            if p:
                canon[(r, c)] = p
        object.__setattr__(self, "shape_in", shape_in)
        object.__setattr__(self, "shape_out", shape_out)
        object.__setattr__(self, "entries", canon)
        object.__setattr__(self, "_index", None)

    @staticmethod
    def _raw(shape_in: Shape, shape_out: Shape, canon: dict[tuple[int, int], LaurentPoly]) -> Operator:
        op = Operator.__new__(Operator)
        object.__setattr__(op, "shape_in", shape_in)
        object.__setattr__(op, "shape_out", shape_out)
        object.__setattr__(op, "entries", canon)
        object.__setattr__(op, "_index", None)
        return op

    # -- queries -----------------------------------------------------------

    def is_square(self) -> bool:
        return self.shape_in == self.shape_out

    def is_zero(self) -> bool:
        return not self.entries

    def nnz(self) -> int:
        return len(self.entries)

    def entry(self, row: int, col: int) -> LaurentPoly:
        return self.entries.get((row, col), LaurentPoly.zero())

    # -- linear structure ----------------------------------------------------

    def __sub__(self, other: Operator) -> Operator:
        if self == other:  # the passing residual of a check, with no packing
            return Operator._raw(self.shape_in, self.shape_out, {})
        return combine(self.shape_in, self.shape_out, {"difference": ((1, self), (-1, other))})["difference"]

    def __repr__(self) -> str:
        return f"<Operator {self.shape_in}->{self.shape_out}, nnz={len(self.entries)}>"

    # -- serialization -------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "shape_in": self.shape_in.twice_list(),
            "shape_out": self.shape_out.twice_list(),
            "entries": [[r, c, poly_to_json(p)] for (r, c), p in sorted(self.entries.items())],
        }


# ---------------------------------------------------------------------------
# Constructors and structural operations.
# ---------------------------------------------------------------------------


def identity(shape: Shape) -> Operator:
    one = LaurentPoly.one()
    return Operator._raw(shape, shape, {(i, i): one for i in range(shape.dim)})


UNIT = identity(EMPTY_SHAPE)  # the 1x1 left operand of a term scalar * a


def kron(a: Operator, b: Operator) -> Operator:
    """Tensor product of two operators that keep their legs' spins: a embedded on the first legs, b on the rest."""
    shape, na = a.shape_in + b.shape_in, len(a.shape_in)
    return compose(embed(a, range(na), shape), embed(b, range(na, len(shape)), shape))


def compose(a: Operator, b: Operator) -> Operator:
    """Matrix product a @ b (b applied first to vectors): the one-term `combine`."""
    return combine(b.shape_in, a.shape_out, {"product": ((1, a, b),)})["product"]


def combine(shape_in: Shape, shape_out: Shape, sums: Mapping[str, Iterable[tuple]]) -> dict[str, Operator]:
    """
    The named sums of `sums`, in order, each over terms scalar * a or
    scalar * (a @ b), written (scalar, a) or (scalar, a, b) with an int or
    LaurentPoly scalar.  An operand is an Operator or the name of an earlier
    sum of the call, and every term maps shape_in to shape_out.  Returns, by
    name, the sums that no later sum reads; a sum that one reads stays packed
    and is never decoded.  All sums run in one `_packed_sums` call: a term
    scalar * (a @ b) is the step (scalar, a, b, 1, a's input dimension) and a
    term scalar * a the step (scalar, UNIT, a, 1, 1).
    """
    plan = []  # the steps of each sum, as `_packed_sums` takes them
    position: dict[str, int] = {}  # sum name -> its place in plan
    read = set()  # the sums a later sum reads
    for name, terms in sums.items():
        steps = []
        for scalar, *operands in terms:
            refs, ends = [], []
            for x in operands:
                if isinstance(x, str):
                    if x not in position:
                        raise ValueError(f"sum {name!r} reads {x!r}, which is not an earlier sum")
                    read.add(x)
                    refs.append(position[x])
                    ends.append((shape_in, shape_out))
                else:
                    refs.append(x)
                    ends.append((x.shape_in, x.shape_out))
            (a_in, term_out), *right = ends
            term_in = a_in
            if right:
                ((term_in, b_out),) = right
                if a_in != b_out:
                    raise ShapeError(f"cannot compose: left expects {a_in}, right produces {b_out}")
            if term_in != shape_in or term_out != shape_out:
                raise ShapeError(f"term maps {term_in}->{term_out}, the sum {shape_in}->{shape_out}")
            if not scalar:
                continue
            scalar = {0: scalar} if isinstance(scalar, int) else scalar.terms
            scalar = None if scalar == {0: 1} else scalar
            steps.append((scalar, *refs, 1, a_in.dim) if right else (scalar, UNIT, *refs, 1, 1))
        position[name] = len(plan)
        plan.append(steps)
    entries = _packed_sums(plan, shape_in.dim)
    return {name: Operator._raw(shape_in, shape_out, entries[k]) for name, k in position.items() if name not in read}


def embed(op: Operator, positions: Sequence[int], ambient: Shape) -> Operator:
    """
    Extend `op`, which keeps its legs' spins, by the identity to an operator
    on `ambient`, with factor t of `op` living at ambient position
    positions[t].  Positions must be distinct but need not be adjacent or
    sorted.  The ambient index of each index of `op` is built once, leg by
    leg; entry (r, c) lands on (index[r] + o, index[c] + o) for the offset o
    of every digit of the other legs.  An operator that changes its legs'
    spins, such as a braiding, is refused: it acts through `act_adjacent`.
    """
    positions = tuple(positions)
    n = len(ambient)
    if not op.is_square():
        raise ShapeError(f"embed places an operator that keeps its legs' spins, not {op.shape_in}->{op.shape_out}; use act_adjacent")
    if len(positions) != len(op.shape_in):
        raise ShapeError(f"{len(positions)} positions for an operator on {len(op.shape_in)} factors")
    if len(set(positions)) != len(positions):
        raise ShapeError(f"positions must be distinct, got {positions}")
    for t, pos in enumerate(positions):
        if not 0 <= pos < n:
            raise ShapeError(f"position {pos} outside ambient of {n} factors")
        if ambient[pos] != op.shape_in[t]:
            raise ShapeError(f"operator factor {t} has spin {op.shape_in[t]} but ambient slot {pos} has {ambient[pos]}")
    if positions == tuple(range(n)):  # op already acts on all of `ambient`, in order
        return op
    strides = ambient.strides()
    index, offsets = [0], [0]
    for p, d in zip(positions, op.shape_in.dims):  # digit by digit, first leg slowest
        index = [x + i * strides[p] for x in index for i in range(d)]
    for u in (u for u in range(n) if u not in positions):
        offsets = [o + i * strides[u] for o in offsets for i in range(ambient.dims[u])]
    entries = {(index[r] + o, index[c] + o): p for (r, c), p in op.entries.items() for o in offsets}
    return Operator._raw(ambient, ambient, entries)


def act_adjacent(steps: Sequence[tuple[int, Operator]], target: Operator) -> Operator:
    """
    Apply the two-leg operators of `steps` = [(i, op), ...] in order to the
    output legs of `target`, without building any operator on the whole
    shape; its test oracle, embed_by_digits in tests/oracles.py, places each
    op on the whole shape and composes it on, step by step.  Each `op`
    acts on legs i, i + 1 of the shape left by the steps before it and must
    keep their total dimension d (a braiding maps (a, b) to (b, a)), so every
    other leg keeps its stride.  The word is one `_packed_sums` call with one
    one-step sum (None, op, the sum before it or the target, t, d) per
    letter, t the stride of leg i + 1.
    """
    if not steps:
        return target
    plan, factors = _adjacent_plan(steps, target)
    return Operator._raw(target.shape_in, Shape(factors), _packed_sums(plan, target.shape_in.dim)[-1])


def weighted_trace(steps: Sequence[tuple[int, Operator]], target: Operator, offsets: Sequence[Sequence[int]]) -> LaurentPoly:
    """
    sum_r sum_(o in offsets[r]) v^o B_rr, with B = act_adjacent(steps, target)
    square, from the same plan, but the last letter writes only diagonal
    cells and no cell is decoded into a polynomial of its own.  An empty word
    reads the diagonal of `target`, as the step (None, UNIT, target, 1, 1).
    """
    plan, factors = _adjacent_plan(steps, target)
    if tuple(factors) != target.shape_in.factors:
        raise ShapeError(f"weighted_trace requires a square operator, got {target.shape_in}->{Shape(factors)}")
    return _packed_sums(plan or [((None, UNIT, target, 1, 1),)], target.shape_in.dim, offsets)


def _adjacent_plan(steps: Sequence[tuple[int, Operator]], target: Operator) -> tuple[list, list[Spin]]:
    """The `_packed_sums` plan of `act_adjacent`, after checking each step, and the factors the word leaves."""
    factors = list(target.shape_out.factors)
    dims = [f.dim for f in factors]
    plan = []
    prev = target
    for k, (i, op) in enumerate(steps):
        if not 0 <= i < len(factors) - 1:
            raise ShapeError(f"no adjacent legs {i}, {i + 1} in a shape of {len(factors)} factors")
        if op.shape_in.factors != (factors[i], factors[i + 1]):
            raise ShapeError(f"operator expects {op.shape_in}, legs {i}, {i + 1} of {Shape(factors)} differ")
        d = op.shape_in.dim
        if op.shape_out.dim != d:
            raise ShapeError(f"operator changes the dimension of legs {i}, {i + 1}: {op.shape_in}->{op.shape_out}")
        t = 1
        for dim in dims[i + 2 :]:
            t *= dim
        plan.append(((None, op, prev, t, d),))
        prev = k
        factors[i : i + 2] = op.shape_out.factors
        dims[i : i + 2] = op.shape_out.dims
    return plan, factors


def _packed_sums(plan: list, m: int, trace: Optional[Sequence[Sequence[int]]] = None) -> Union[list, LaurentPoly]:
    """
    The sums of `plan`, in order, each a sequence of steps (scalar, a, b, t,
    d) meaning scalar * a acting on b, all from shape_in of dimension m.  b
    is an Operator or the place in `plan` of an earlier sum; a is one too,
    and d is its input dimension; scalar is an {exponent: coefficient}
    dict, or None for 1.  Inside the call a cell (r, c) is keyed by the one
    int r m + c, so a row stride t is the key stride t m.  a is indexed by
    local column: its entry (lr, lc) meets each cell of b whose key k has
    (k // t m) % d = lc, that is in a row r with (r // t) % d = lc, and
    moves it to the key k + (lr - lc) t m, row r + (lr - lc) t in the same
    column.  So t = 1 is the product a @ b,
    and t the stride of leg i + 1 applies a two-leg a to legs i, i + 1 of b.
    Returns per sum its entries {(row, col): LaurentPoly}, or None for a sum
    that a later one reads: that one stays packed and is freed once its last
    reader has run.  Given `trace`, exponent offsets per row, the last sum
    computes only its diagonal cells, and the call returns the one
    polynomial sum_r sum_(o in trace[r]) v^o B_rr of that sum B instead: of
    the contributions of a cell (r, c), only the one that lands on the key
    of (c, c) is computed.

    Packing (a Kronecker substitution, D. Harvey 2009): the polynomial
    sum_k d_k v^(e + s k) is the pair (e, sum_k d_k 2^(w k)) with balanced
    digits |d_k| < 2^(w - 1), so an entry times a cell is one int product
    and adding into a cell one int sum, shifted into line when the bases
    differ.  Every Operator is packed by one rule: its index keeps, per
    (s, w), its `_cells` from its first read at (s, w) and, from its first
    read there as an a, the `_columns` read from those cells, since d is
    always its input dimension.  So a memoized braid letter is bounded once
    and packed once per (s, w) per process, not once per word.  A scalar is
    folded into the columns of a once per step, and each returned cell is
    decoded once, at the end: into a polynomial of its own, or, for a trace,
    digit by digit into the one sum.  Packed cells are never added to each
    other, since the width bounds one cell.

    Stride: s is the gcd of the gaps of every Operator (the gcd of the
    exponent gaps inside its entries, kept in its index) and of every
    scalar: 4 for every braided matrix, as v^4 = q^2, and 1 when all are
    monomials.  It is never taken across polynomials, whose bases can differ
    by 1 when the colors are mixed.  If two contributions to one cell have
    bases whose gap s does not divide, the whole plan runs once more at
    s = 1, which divides every gap, keeping no cell from the failed pass.

    Width: with ent(x) the largest l1 norm of an entry of x and row(x) the
    largest sum of those norms along a row (a two-leg a at any stride has
    the bounds of a; both kept in an Operator's index), a step bounds the
    entries of its sum by |scalar| row(a) ent(b) and the rows by |scalar|
    row(a) row(b), |scalar| being its l1 norm.  A sum adds up the bounds of
    its steps, and w is (the largest entry bound of any sum).bit_length() +
    1 rounded up to a whole byte: any larger w is proven too, and the
    rounding keeps few (s, w) per letter.  No
    coefficient of a cell, nor of a partial sum, exceeds its sum's entry
    bound, so a packed cell is 0 exactly when its polynomial is, and zero
    cells are dropped as they arise.
    """
    gaps = set()  # the gap of every Operator and every scalar, for the stride
    bounds = []  # (ent, row) of each sum
    last = {}  # place of a sum that a later one reads -> place of its last reader
    for k, steps in enumerate(plan):
        ent_k = row_k = 0
        for scalar, a, b, _, _ in steps:
            if b.__class__ is int:
                last[b] = k
                ent_b, row_b = bounds[b]
            else:
                ent_b, row_b, gap, _ = b._index or _indexed(b)
                gaps.add(gap)
            if a.__class__ is int:
                last[a] = k
                row_a = bounds[a][1]
            else:
                _, row_a, gap, _ = a._index or _indexed(a)
                gaps.add(gap)
            if scalar is not None:
                gaps.add(_gap([scalar]))
                row_a *= sum(map(abs, scalar.values()))
            ent_k += row_a * ent_b
            row_k += row_a * row_b
        bounds.append((ent_k, row_k))
    frees = [()] * len(plan)  # per sum: the sums to free once it has run
    for x, k in last.items():
        frees[k] += (x,)
    w = (max([ent for ent, _ in bounds], default=0).bit_length() + 8) // 8 * 8
    s = gcd(*gaps) or 1
    done = _packed_pass(plan, frees, s, w, m, trace is not None)
    if done is None:
        s = 1
        done = _packed_pass(plan, frees, s, w, m, trace is not None)
    if trace is None:
        return [cells and {divmod(key, m): LaurentPoly._raw(dict(_digits(e, n, s, w))) for key, (e, n) in cells.items()} for cells in done]
    terms = {}
    for key, (e, n) in done[-1].items():  # the cell (r, r) has the key r (m + 1)
        offsets = trace[key // (m + 1)]
        for x, digit in _digits(e, n, s, w):
            for o in offsets:
                terms[x + o] = terms.get(x + o, 0) + digit
    return LaurentPoly._raw({x: c for x, c in terms.items() if c})


def _packed_pass(plan: list, frees: list[tuple[int, ...]], s: int, w: int, m: int, diagonal: bool) -> Optional[list]:
    """
    One pass of `_packed_sums` at stride s and width w: the packed cells
    {r m + c: (e, N)} of each sum, None for a freed one, or None at the
    first two contributions to one cell whose bases differ by a gap that s
    does not divide.  The Operators of `plan` are indexed, and each reads
    its cells, and as an a its columns, from its store (`_stored`).  If
    `diagonal`, the last sum computes only its cells (c, c).
    """
    done = []
    m1 = m + 1
    for k, (steps, freed) in enumerate(zip(plan, frees)):
        diagonal_k = diagonal and k == len(plan) - 1
        acc = {}
        for scalar, a, b, t, d in steps:
            cells = done[b] if b.__class__ is int else _stored(b, s, w)[0]
            if a.__class__ is int:
                cols = _columns(done[a], d)
            else:
                kept = _stored(a, s, w)
                cols = kept[1]
                if cols is None:
                    cols = kept[1] = _columns(kept[0], d)
            if scalar is not None:
                es, ns = _pack(scalar, s, w)
                cols = [[(dl, e + es, n * ns) for dl, e, n in col] for col in cols]
            T = t * m
            for key, (e0, n0) in cells.items():
                if diagonal_k:  # the one key this cell may reach: (c, c), c its column
                    to = key % m * m1
                for dl, e, n in cols[key // T % d]:
                    rc = key + dl * T
                    if diagonal_k and rc != to:
                        continue
                    e += e0
                    n *= n0
                    prev = acc.get(rc)
                    if prev is None:
                        acc[rc] = (e, n)
                        continue
                    pe, pn = prev
                    if e != pe:  # the contribution at the higher base shifts onto the lower one
                        shift, rem = divmod(abs(e - pe), s)
                        if rem:
                            return None
                        if e > pe:
                            e, n = pe, n << shift * w
                        else:
                            pn <<= shift * w
                    n += pn
                    if n:
                        acc[rc] = (e, n)
                    else:  # the contributions cancel
                        del acc[rc]
        done.append(acc)
        for x in freed:
            done[x] = None
    return done


def _cells(op: Operator, s: int, w: int) -> dict[int, tuple[int, int]]:
    """The entries of `op` packed at stride s and width w, {r d + c: (e, N)} with d its input dimension."""
    d = op.shape_in.dim
    return {r * d + c: _pack(p.terms, s, w) for (r, c), p in op.entries.items()}


def _columns(cells: dict[int, tuple[int, int]], d: int) -> list[list[tuple[int, int, int]]]:
    """An operand's packed `cells` {lr d + lc: (e, N)} by local column lc < d: [(lr - lc, e, N), ...]."""
    cols = [[] for _ in range(d)]
    for key, cell in cells.items():
        lr, lc = divmod(key, d)
        cols[lc].append((lr - lc, *cell))
    return cols


def _indexed(op: Operator) -> tuple[int, int, int, dict]:
    """
    The index of `op`, filled on first use and kept in its `_index` slot:
    (ent, row, gap, store) with ent the largest l1 norm of an entry, row
    the largest sum of those norms along a row, gap the `_gap` of its
    entries, and store {(s, w): [cells, columns or None]}, which `_stored`
    fills.  The index lives and dies with the operator.
    """
    largest, rows = 0, {}
    for (r, _), p in op.entries.items():
        norm = sum(map(abs, p.terms.values()))
        if norm > largest:
            largest = norm
        rows[r] = rows.get(r, 0) + norm
    index = (largest, max(rows.values(), default=0), _gap([p.terms for p in op.entries.values()]), {})
    object.__setattr__(op, "_index", index)
    return index


def _stored(op: Operator, s: int, w: int) -> list:
    """
    The store entry of the indexed `op` at (s, w), [its `_cells`, its
    `_columns` or None]: the cells are packed on its first read at (s, w),
    and `_packed_pass` adds the columns on its first read there as an a.
    """
    store = op._index[3]
    kept = store.get((s, w))
    if kept is None:
        kept = store[s, w] = [_cells(op, s, w), None]
    return kept


def _gap(polys: list[dict[int, int]]) -> int:
    """The gcd of the exponent gaps inside each {exponent: coefficient} of `polys`: 0 if all are monomials."""
    return gcd(*[e - low for terms in polys if len(terms) > 1 for low in (min(terms),) for e in terms])


def _pack(terms: dict[int, int], s: int, w: int) -> tuple[int, int]:
    """(e, sum_k d_k 2^(w k)) for the terms d_k v^(e + s k)."""
    low = min(terms)
    n = 0
    for e, c in terms.items():
        n += c << (e - low) // s * w
    return low, n


def _digits(e: int, n: int, s: int, w: int):
    """The nonzero terms (exponent, digit) of a cell `_pack` wrote: a digit of w bits at or above 2^(w - 1) is negative and carries 1."""
    half = 1 << (w - 1)
    mask = (1 << w) - 1
    while n:
        digit = n & mask
        n >>= w
        if digit >= half:
            digit -= mask + 1
            n += 1
        if digit:
            yield e, digit
        e += s


# ---------------------------------------------------------------------------
# Traces.
# ---------------------------------------------------------------------------


def _require_square(op: Operator, what: str):
    if not op.is_square():
        raise ShapeError(f"{what} requires a square operator, got {op.shape_in}->{op.shape_out}")


def _trace_leg(op: Operator, leg: int, weight: Optional[Operator]) -> Operator:
    """
    Tr_leg(op . (id (x) weight (x) id)): trace out factor `leg` against
    `weight` (identity if None).  Each index splits into (high, leg digit,
    low) by that leg's stride; the result acts on the remaining factors.
    """
    shape = op.shape_in
    w = None
    if weight is not None:
        if weight.shape_in != Shape((shape[leg],)) or not weight.is_square():
            got = f"{weight.shape_in}->{weight.shape_out}"
            raise ShapeError(f"factor {leg} weight must act on ({shape[leg]},), got {got}")
        w = weight.entries
    d = shape.dims[leg]
    s = shape.strides()[leg]
    terms = []
    for (r, c), p in op.entries.items():
        rh, rl = divmod(r, s)
        rh, a = divmod(rh, d)
        ch, cl = divmod(c, s)
        ch, k = divmod(ch, d)
        if w is None:
            if a != k:
                continue
        else:
            wp = w.get((k, a))
            if wp is None:
                continue
            p = p * wp
        terms.append(((rh * s + rl, ch * s + cl), p))
    rest = Shape(shape.factors[:leg] + shape.factors[leg + 1 :])
    return Operator._raw(rest, rest, summed(terms))


def _require_factor(op: Operator, what: str):
    _require_square(op, what)
    if len(op.shape_in) == 0:
        raise ShapeError("cannot trace a factorless operator")


def partial_trace_first(op: Operator, weight: Optional[Operator] = None) -> Operator:
    """
    Tr_1(op . (weight (x) id)): trace out the first factor against `weight`
    (identity if None); the result acts on the remaining factors.
    """
    _require_factor(op, "partial_trace_first")
    return _trace_leg(op, 0, weight)


def partial_trace_last(op: Operator, weight: Optional[Operator] = None) -> Operator:
    """Mirror of `partial_trace_first` on the last factor."""
    _require_factor(op, "partial_trace_last")
    return _trace_leg(op, len(op.shape_in) - 1, weight)


def full_trace(op: Operator, weights: Sequence[Optional[Operator]]) -> LaurentPoly:
    """
    Tr(op . (w_0 (x) w_1 (x) ...)) with one weight per factor (None = identity).
    """
    _require_square(op, "full_trace")
    if len(weights) != len(op.shape_in):
        raise ShapeError(f"{len(weights)} weights for {len(op.shape_in)} factors")
    for leg in range(len(weights) - 1, -1, -1):
        op = _trace_leg(op, leg, weights[leg])
    return op.entry(0, 0)
