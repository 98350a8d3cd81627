"""
Exact colored link invariants of the q-deformed su(2) algebra.

The package computes closure invariants of colored braids two ways: as
weighted quantum traces of represented braidings, and (for fundamental
colors) through the diagram-monoid bracket polynomial; both live over an
exact Laurent ring in v = q^(1/2).  On top of the invariants it verifies, as
exact polynomial-matrix identities, that the intermediate Casimir operators
on threefold tensor products realize the Askey-Wilson algebra, by a coproduct
route and an independent partial-trace route.
"""

from .laurent import (
    LaurentPoly,
    div_exact,
    phase_mul,
    poly_from_json,
    poly_to_json,
    qfact,
    qint,
    qpoch,
    subst_x_iv,
)
from .tensorop import (
    HALF,
    InputError,
    Operator,
    Shape,
    ShapeError,
    Spin,
    as_scalar,
    compose,
    embed,
    full_trace,
    identity,
    kron,
    partial_trace_first,
    partial_trace_last,
    permute,
)
from .braid import (
    BraidError,
    BraidWord,
    ColoredBraid,
    WritheBreakdown,
    cable_component,
    components,
    delete_component,
    disjoint_union,
    parse,
    parse_colored,
    underlying_permutation,
    writhe,
)
from .tl import PlanarMatching, TLElement, tl_mul
from .invariant import (
    cs_invariant_fundamental,
    kauffman_bracket,
    rt_invariant,
    verify_factorization,
    verify_framing,
    verify_markov,
    verify_recursion,
    verify_skein,
)
from .report import Check, Report

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "qint",
    "qfact",
    "qpoch",
    "subst_x_iv",
    "phase_mul",
    "div_exact",
    "poly_to_json",
    "poly_from_json",
    "Spin",
    "Shape",
    "Operator",
    "ShapeError",
    "InputError",
    "HALF",
    "identity",
    "kron",
    "compose",
    "permute",
    "embed",
    "partial_trace_first",
    "partial_trace_last",
    "full_trace",
    "as_scalar",
    "BraidWord",
    "ColoredBraid",
    "BraidError",
    "WritheBreakdown",
    "parse",
    "parse_colored",
    "underlying_permutation",
    "components",
    "writhe",
    "disjoint_union",
    "cable_component",
    "delete_component",
    "PlanarMatching",
    "TLElement",
    "tl_mul",
    "rt_invariant",
    "kauffman_bracket",
    "cs_invariant_fundamental",
    "verify_framing",
    "verify_recursion",
    "verify_factorization",
    "verify_skein",
    "verify_markov",
    "Check",
    "Report",
    "__version__",
]
