"""
Per-layer tracing by wrapping public qlink functions at run time.

Nothing under src/ changes: `Tracer.install` replaces, in a freshly imported
set of qlink modules, each traced function by a wrapper that times the call
and adds it, with its layer and its nearest traced caller, to in-memory
aggregates.  The same function object is replaced under every module name it
was imported into (`from .tensorop import compose` in four modules, for
instance), so calls between modules are seen.

A span's self time is its duration minus the time its traced children took.
A group's time counts only its outermost spans, so a recursive function or a
traced function that calls another one of the same group is not counted twice.
Counts are kept as histograms, not lists, so a run of millions of polynomial
products stays small in memory.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

# (module, attribute, group).  "Class.method" names are patched on the class.
# Every laurent and tl function that does real work is listed, so that the
# self time of those layers is measured; elsewhere only what a metric needs.
TRACED = (
    ("laurent", "accumulate_product", "laurent.product"),
    ("laurent", "finalize", "laurent.other"),
    ("laurent", "LaurentPoly.__mul__", "laurent.other"),
    ("laurent", "LaurentPoly.__rmul__", "laurent.other"),
    ("laurent", "LaurentPoly.__add__", "laurent.other"),
    ("laurent", "LaurentPoly.__radd__", "laurent.other"),
    ("laurent", "LaurentPoly.__sub__", "laurent.other"),
    ("laurent", "LaurentPoly.__neg__", "laurent.other"),
    ("laurent", "LaurentPoly.__pow__", "laurent.other"),
    ("laurent", "LaurentPoly.bar", "laurent.other"),
    ("laurent", "div_exact", "laurent.other"),
    ("laurent", "qint", "laurent.other"),
    ("laurent", "qfact", "laurent.other"),
    ("laurent", "subst_x_iv", "laurent.other"),
    ("laurent", "phase_mul", "laurent.other"),
    ("tensorop", "compose", "tensorop.compose"),
    ("tensorop", "kron", "tensorop.kron"),
    ("tensorop", "embed", "tensorop.embed"),
    ("tensorop", "full_trace", "tensorop.trace"),
    ("tensorop", "partial_trace_first", "tensorop.trace"),
    ("tensorop", "partial_trace_last", "tensorop.trace"),
    ("uqsu2", "iterated_casimir", "uqsu2.casimir"),
    ("uqsu2", "casimir_rep", "uqsu2.casimir"),
    ("uqsu2", "delta_rep", "uqsu2.casimir"),
    ("rmatrix", "r_matrix", "rmatrix.build"),
    ("rmatrix", "r_inverse", "rmatrix.build"),
    ("braid", "parse_any", "braid.parse"),
    ("braid", "parse", "braid.parse"),
    ("braid", "parse_colored", "braid.parse"),
    ("tl", "tl_mul", "tl.mul"),
    ("tl", "word_element", "tl.other"),
    ("tl", "close_first", "tl.other"),
    ("tl", "close_all", "tl.other"),
    ("tl", "braid_letter", "tl.other"),
    ("invariant", "rt_invariant", "invariant.rt"),
    ("invariant", "braid_operator", "invariant.braid_operator"),
    ("aw", "q_elem", "aw.q_elem"),
    ("aw", "q_elem_trace", "aw.q_elem_trace"),
    ("aw", "aw_residuals", "aw.residual"),
)

# Operand-size buckets (terms of the larger operand) for the Kronecker-packing gate.
OPERAND_BUCKETS = (1, 4, 16, 64, 256)


def coeff_bits(c) -> int:
    """Largest bit length among the integer parts of one coefficient."""
    if isinstance(c, int):
        return c.bit_length()
    parts = (c.re, c.im) if hasattr(c, "re") else (c,)
    best = 0
    for x in parts:
        if isinstance(x, int):
            best = max(best, x.bit_length())
        else:
            best = max(best, int(x.numerator).bit_length(), int(x.denominator).bit_length())
    return best


def percentile(hist: Counter, share: float) -> float:
    """The share-quantile (nearest rank) of a histogram {value: count}; 0 when empty."""
    total = sum(hist.values())
    if not total:
        return 0.0
    rank = max(1, -(-share * total // 1))
    seen = 0
    for value in sorted(hist):
        seen += hist[value]
        if seen >= rank:
            return float(value)
    return float(max(hist))


class _Frame:
    __slots__ = ("name", "child_s", "children")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0
        self.children = 0


class Tracer:
    def __init__(self):
        self.stack: list[_Frame] = []
        self.reset()

    def reset(self) -> None:
        """Zero every aggregate; installed wrappers keep recording into this tracer."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)  # by layer
        self.group_s: defaultdict = defaultdict(float)  # outermost spans only
        self.active: Counter = Counter()  # open spans per group
        self.rmatrix_builds = 0
        self.rmatrix_build_s = 0.0
        self.coeff_mults = 0
        self.mul_terms: Counter = Counter()
        self.operand_hist: Counter = Counter()
        self.coeff_bits_max = 0
        self.compose_nnz: Counter = Counter()
        self.dim_max = 0
        self.tl_states_max = 0
        self.rt_trace_s = 0.0
        self.letters = 0
        self.letter_embeds = 0

    # -- installation -------------------------------------------------------

    def install(self, q) -> None:
        """Wrap every traced function in the module namespace `q`."""
        modules = [getattr(q, name) for name in vars(q)]
        for mod_name, attr, group in TRACED:
            mod = getattr(q, mod_name)
            name = f"{mod_name}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(name, mod_name, group, cls.__dict__[meth]))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, mod_name, group, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)
                    elif isinstance(value, dict):  # dispatch tables such as cli._VARIANTS
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper

    def _wrap(self, name: str, layer: str, group: str, fn):
        tracer = self
        stack = self.stack
        hook = getattr(self, "_on_" + name.replace(".", "_").strip("_"), None)
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = _Frame(name)
            stack.append(frame)
            tracer.active[group] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                tracer.active[group] -= 1
                tracer.calls[name] += 1
                tracer.self_s[layer] += dt - frame.child_s
                if not tracer.active[group]:
                    tracer.group_s[group] += dt
                if parent is not None:
                    parent.child_s += dt
                    parent.children += 1
            if hook is not None:
                hook(args, result, dt, frame, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-function hooks -------------------------------------------------

    def _on_laurent_accumulate_product(self, args, result, dt, frame, parent):
        a, b = args[1].terms, args[2].terms
        la, lb = len(a), len(b)
        self.coeff_mults += la * lb
        big = a if la >= lb else b
        size = len(big)
        self.mul_terms[size] += 1
        for edge in OPERAND_BUCKETS:
            if size <= edge:
                self.operand_hist[edge] += 1
                break
        else:
            self.operand_hist["more"] += 1
        for c in a.values():
            self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(c))
        for c in b.values():
            self.coeff_bits_max = max(self.coeff_bits_max, coeff_bits(c))

    def _on_tensorop_compose(self, args, result, dt, frame, parent):
        self.compose_nnz[result.nnz()] += 1
        self.dim_max = max(self.dim_max, result.shape_in.dim, result.shape_out.dim)

    def _on_tensorop_kron(self, args, result, dt, frame, parent):
        self.dim_max = max(self.dim_max, result.shape_in.dim, result.shape_out.dim)

    def _on_tensorop_embed(self, args, result, dt, frame, parent):
        self.dim_max = max(self.dim_max, result.shape_in.dim, result.shape_out.dim)
        if parent is not None and parent.name == "invariant.braid_operator":
            self.letter_embeds += 1

    def _on_tensorop_full_trace(self, args, result, dt, frame, parent):
        if parent is not None and parent.name == "invariant.rt_invariant":
            self.rt_trace_s += dt

    def _on_rmatrix_r_matrix(self, args, result, dt, frame, parent):
        # A cached call returns without calling anything traced; a cold one builds.
        if frame.children:
            self.rmatrix_builds += 1
            if not self.active["rmatrix.build"]:
                self.rmatrix_build_s += dt

    _on_rmatrix_r_inverse = _on_rmatrix_r_matrix

    def _on_tl_tl_mul(self, args, result, dt, frame, parent):
        self.tl_states_max = max(self.tl_states_max, len(result.terms))

    def _on_invariant_braid_operator(self, args, result, dt, frame, parent):
        self.letters += len(args[0].word.letters)

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over everything traced so far (times in seconds)."""
        return {
            "laurent.mul_calls": self.calls["laurent.accumulate_product"],
            "laurent.coeff_mults": self.coeff_mults,
            "laurent.mul_terms_p50": percentile(self.mul_terms, 0.5),
            "laurent.mul_terms_p90": percentile(self.mul_terms, 0.9),
            "laurent.coeff_bits_max": self.coeff_bits_max,
            "laurent.self_s": self.self_s["laurent"],
            "tensorop.compose_calls": self.calls["tensorop.compose"],
            "tensorop.compose_s": self.group_s["tensorop.compose"],
            "tensorop.compose_nnz_p90": percentile(self.compose_nnz, 0.9),
            "tensorop.dim_max": self.dim_max,
            "tensorop.embed_s": self.group_s["tensorop.embed"],
            "tensorop.trace_s": self.group_s["tensorop.trace"],
            "uqsu2.casimir_s": self.group_s["uqsu2.casimir"],
            "rmatrix.build_calls": self.rmatrix_builds,
            "rmatrix.build_s": self.rmatrix_build_s,
            "braid.parse_s": self.group_s["braid.parse"],
            "tl.mul_calls": self.calls["tl.tl_mul"],
            "tl.states_max": self.tl_states_max,
            "tl.self_s": self.self_s["tl"],
            "invariant.braid_operator_s": self.group_s["invariant.braid_operator"],
            "invariant.trace_s": self.rt_trace_s,
            "invariant.letter_hit_ratio": 1.0 - self.letter_embeds / self.letters if self.letters else 0.0,
            "aw.q_elem_s": self.group_s["aw.q_elem"],
            "aw.q_elem_trace_s": self.group_s["aw.q_elem_trace"],
            "aw.residual_s": self.group_s["aw.residual"],
        }

    def operand_shares(self) -> dict[str, float]:
        """
        The histogram of the larger operand's term count, as shares of all
        polynomial products: information for the Kronecker-packing gate, not a
        metric, since its buckets have no better direction.
        """
        total = sum(self.operand_hist.values())
        labels = [f"le{edge}" for edge in OPERAND_BUCKETS] + [f"gt{OPERAND_BUCKETS[-1]}"]
        keys = list(OPERAND_BUCKETS) + ["more"]
        return {label: self.operand_hist[key] / total if total else 0.0 for label, key in zip(labels, keys)}
