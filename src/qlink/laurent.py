"""
Exact Laurent-polynomial arithmetic in the variable v = q^(1/2), with integer
coefficients.

Working in v rather than q keeps everything inside a genuine Laurent ring:
half-integer powers of q (the q^(1/2) prefactor of the fundamental R-matrix,
the framing factor q^(3/2) of a spin-1/2 kink, ...) are integer powers of v,
so fractional exponents never arise.  Every value the package computes --
invariants, R-matrix entries, Casimirs, Askey-Wilson residuals -- lies in
Z[v, v^-1], so coefficients are plain Python ints: exact division either
divides or raises, and nothing rational or imaginary is ever stored.  The
diagram monoid computes over v too; the bracket's own variable x meets v only
in `phase_mul`, the substitution x -> i*v merged with the writhe phase, which
is integral term by term and reads the bracket off an invariant value.

A polynomial is a dict {exponent: coefficient} holding no zero coefficients,
so equality is exact dict equality.  Exponents and coefficients are
arbitrary-precision ints (q-factorials overflow machine words almost
immediately).  The ring operations take polynomials only, and a polynomial
equals no int: an int enters through `LaurentPoly.const` or `as_poly`.  The
canonical ascending-exponent ordering only matters for printing and
serialization.

All values are immutable; every operation returns a fresh polynomial, so
sharing across threads is safe.  `Immutable`, the base of every value class
in the package, lives here because every such class imports this module; so
does `summed`, the one sum of polynomials keyed by a diagram, a matrix cell
or a weight sector.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Hashable, Iterable, Mapping, Union


class Immutable:
    """
    Base of the package's value classes.  Each subclass lists its slots in
    `__slots__` and sets each once, through object.__setattr__; a later
    assignment or deletion raises AttributeError.  A slot whose name starts
    with "_" is a cache derived from the others (a Shape's strides, an
    Operator's index), set in the constructor or on first use; the public
    slots, `_fields`, are the value's fields.  Equality, hashing and repr are
    read from the fields alone, as a dataclass would write them: a value
    equals one of the same class with equal fields, hashes as its fields
    (TypeError if one is a dict or list) and prints as Class(field=value,
    ...), whether its caches are filled or not.  So a LaurentPoly, Operator
    or TLElement, each holding a dict, is not hashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if not name.startswith("_"))
        cls._values = attrgetter(*cls._fields)  # the field values; a tuple from two fields on

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # `del value.name` passes no value

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class LaurentPoly(Immutable):
    """Laurent polynomial in v with int coefficients, in canonical form; equality and hashing are `Immutable`'s."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int]):
        for exp, c in terms.items():
            if not isinstance(c, int):
                raise TypeError(f"Laurent coefficients are ints, got {type(c).__name__} {c!r}")
            if not isinstance(exp, int):
                raise TypeError(f"Laurent exponents are ints, got {type(exp).__name__} {exp!r}")
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c})

    @staticmethod
    def _raw(canon: dict[int, int]) -> LaurentPoly:
        """Wrap an already-canonical dict without copying (internal)."""
        p = LaurentPoly.__new__(LaurentPoly)
        object.__setattr__(p, "terms", canon)
        return p

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _P_ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _P_ONE

    @classmethod
    def const(cls, c: int) -> LaurentPoly:
        return cls({0: c})

    @classmethod
    def v_power(cls, k: int) -> LaurentPoly:
        """v^k."""
        return cls._raw({k: 1})

    @classmethod
    def q_power(cls, n: int) -> LaurentPoly:
        """q^n = v^(2n)."""
        return cls._raw({2 * n: 1})

    # -- queries -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.terms)
        for exp, c in other.terms.items():
            s = out.get(exp, 0) + c
            if s:
                out[exp] = s
            else:
                del out[exp]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + -other

    def __mul__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        acc: dict[int, int] = {}
        accumulate_product(acc, self, other)
        return LaurentPoly._raw({e: c for e, c in acc.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError(f"negative power {n} of {self}")
        result = _P_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- substitutions -----------------------------------------------------

    def bar(self) -> LaurentPoly:
        """The bar involution v -> v^(-1)."""
        return LaurentPoly._raw({-e: c for e, c in self.terms.items()})

    # -- presentation --------------------------------------------------------

    def sorted_terms(self) -> list[tuple[int, int]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts: list[str] = []
        for exp, c in self.sorted_terms():
            parts.append(_term_str(exp, c, first=not parts))
        return "".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly('{self}')"


def _term_str(exp: int, c: int, first: bool) -> str:
    # Negative coefficients render through " - " (or a leading "-").
    mag = abs(c)
    coeff_s = "" if mag == 1 else str(mag)
    if exp == 0:
        body = coeff_s if coeff_s else "1"
    else:
        var = "v" if exp == 1 else f"v^{exp}"
        body = coeff_s + var
    if first:
        return ("-" if c < 0 else "") + body
    return (" - " if c < 0 else " + ") + body


_P_ZERO = LaurentPoly._raw({})
_P_ONE = LaurentPoly._raw({0: 1})


def accumulate_terms(acc: dict[int, int], a_terms: Mapping[int, int], b_terms: Mapping[int, int]) -> None:
    """acc += a*b on raw {exponent: coefficient} dicts (zeros may remain in acc)."""
    for e1, c1 in a_terms.items():
        for e2, c2 in b_terms.items():
            e = e1 + e2
            acc[e] = acc.get(e, 0) + c1 * c2


def accumulate_product(acc: dict[int, int], a: LaurentPoly, b: LaurentPoly) -> None:
    """acc += a*b, accumulating raw coefficients (zeros may remain in acc)."""
    accumulate_terms(acc, a.terms, b.terms)


def finalize(acc: dict[int, int]) -> LaurentPoly:
    """Canonicalize an accumulator filled by `accumulate_product` or `accumulate_terms`."""
    return LaurentPoly._raw({e: c for e, c in acc.items() if c})


def as_poly(c: Union[LaurentPoly, int]) -> LaurentPoly:
    """A checked constructor's coefficient: an int is the constant.  The ring operations take polynomials only."""
    if isinstance(c, LaurentPoly):
        return c
    if isinstance(c, int):
        return LaurentPoly.const(c)
    raise TypeError(f"coefficients are LaurentPoly or int, got {type(c).__name__} {c!r}")


def summed(items: Iterable[tuple[Hashable, LaurentPoly]]) -> dict:
    """{key: polynomial} with the polynomials of equal keys summed and zeros dropped."""
    canon = {}
    for key, p in items:
        prev = canon.get(key)
        if prev is None:
            if p:
                canon[key] = p
        else:
            s = prev + p
            if s:
                canon[key] = s
            else:
                del canon[key]
    return canon


# ---------------------------------------------------------------------------
# q-combinatorics.  q = v^2 throughout.
# ---------------------------------------------------------------------------


def qint(n: int, shift: int = 0) -> LaurentPoly:
    """The q-integer [n] = (q^n - q^-n)/(q - q^-1), times v^shift; [-n] = -[n]."""
    if n == 0:
        return _P_ZERO
    if n < 0:
        return -qint(-n, shift)
    return LaurentPoly._raw({shift + 2 * k: 1 for k in range(-(n - 1), n, 2)})


def qfact(n: int) -> LaurentPoly:
    """The q-factorial [n]! = [n][n-1]...[1], with [0]! = 1."""
    if n < 0:
        raise ValueError(f"q-factorial undefined for negative n = {n}")
    out = _P_ONE
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


# ---------------------------------------------------------------------------
# Substitutions connecting the bracket variable x to v.
# ---------------------------------------------------------------------------


def phase_mul(p: LaurentPoly, w: int) -> LaurentPoly:
    """
    Read p in the bracket variable x, substitute x -> i*v and multiply by the
    writhe phase (-i)^w: x^e goes to i^(e-w) v^e, which is +-v^e when e - w is
    even.  An odd e - w leaves an imaginary coefficient, which no invariant
    value has, so it raises ArithmeticError as a pipeline fault.  The map is
    its own inverse: a second call at the same w gives p back.
    """
    out = {}
    for e, c in p.terms.items():
        k = e - w
        if k & 1:
            raise ArithmeticError(f"complex residue: x^{e} under the writhe phase (-i)^{w} in {p}")
        out[e] = -c if k & 2 else c
    return LaurentPoly._raw(out)


def subst_x_iv(p: LaurentPoly) -> LaurentPoly:
    """Reinterpret p in the variable x and substitute x -> i*v, so x^n -> i^n v^n."""
    return phase_mul(p, 0)


def div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Exact quotient a/b in Z[v, v^-1]; raises ValueError if b does not divide a."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a:
        return _P_ZERO
    b_lo, b_hi = min(b.terms), max(b.terms)
    # Any exact quotient has exponents within [min(a) - b_lo, max(a) - b_hi].
    min_qexp = min(a.terms) - b_lo
    lead = b.terms[b_hi]
    rem = dict(a.terms)
    quot: dict[int, int] = {}
    while rem:
        r_hi = max(rem)
        qexp = r_hi - b_hi
        if qexp < min_qexp:
            raise ValueError("polynomials do not divide exactly")
        qc, r = divmod(rem[r_hi], lead)
        if r:
            raise ValueError("polynomials do not divide exactly over the integers")
        quot[qexp] = qc
        for e, c in b.terms.items():
            tgt = e + qexp
            s = rem.get(tgt, 0) - qc * c
            if s:
                rem[tgt] = s
            elif tgt in rem:
                del rem[tgt]
    return LaurentPoly._raw(quot)


# ---------------------------------------------------------------------------
# Serialization: a polynomial is a JSON array of [exponent, c, 1, 0, 1] rows
# sorted by exponent.  A row has the layout [exponent, re_num, re_den, im_num,
# im_den] of a Gaussian-rational coefficient, so files written in that wire
# format stay valid.
# ---------------------------------------------------------------------------


def poly_to_json(p: LaurentPoly) -> list[list[int]]:
    return [[e, c, 1, 0, 1] for e, c in p.sorted_terms()]
