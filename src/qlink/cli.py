"""
Command-line entry point.

Three subcommands, designed for consumption by test harnesses: `invariant`
evaluates a closed braid (quantum-trace, bracket, or combined route),
`rmatrix` dumps a represented two-leg braiding matrix as JSON, and `verify`
runs the identity suites.  Output is deterministic and byte-identical for
identical inputs; JSON objects are emitted with sorted keys.

Exit codes: 0 all requested checks passed (or value computed), 1 usage error,
2 at least one check failed, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import aw, invariant, rmatrix
from .braid import BraidError, BraidWord, ColoredBraid, component_color, components, parse_any
from .laurent import poly_to_json
from .report import Report
from .tensorop import Shape, ShapeError, Spin

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise UsageError(message)


def _dump_json(data) -> str:
    return json.dumps(data, indent=2, sort_keys=True)


def _read_braid(args, braid_flag: str = "--braid", colors_flag: str = "--colors") -> object:
    text = args.braid
    if os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise UsageError(f"{braid_flag}: cannot read {text!r}: {exc}") from None
    colors = None
    if args.colors is not None:
        colors = tuple(_parse_spins(args.colors, colors_flag))
    try:
        return parse_any(text, colors)
    except BraidError as exc:
        raise BraidError(f"{braid_flag}: {exc}") from None


def _require_colored(parsed, colors_flag: str = "--colors") -> ColoredBraid:
    if isinstance(parsed, ColoredBraid):
        return parsed
    raise UsageError(f"this operation needs strand colors (inline or via {colors_flag})")


def _require_index(flag: str, index: int, count: int) -> None:
    if not 0 <= index < count:
        raise UsageError(f"{flag}: no {flag[2:]} {index}; braid has {count}")


def _require_half_colors(args, braid: ColoredBraid, message: str) -> None:
    """Reject a non-fundamental strand, naming the flag its colors came from."""
    if any(c.twice_j != 1 for c in braid.colors):
        raise UsageError(f"{'--braid' if args.colors is None else '--colors'}: {message}")


def _require_strands(suite: str, braid: ColoredBraid) -> None:
    if braid.n_strands < 2:
        raise UsageError(f"--braid: {suite} needs at least 2 strands, got {braid.n_strands}")


def _as_word(args, parsed) -> BraidWord:
    if isinstance(parsed, BraidWord):
        return parsed
    _require_half_colors(args, parsed, "the bracket routes only accept color 1/2 on every strand")
    return parsed.word


def _parse_spins(text: str, flag: str, expected: Optional[int] = None) -> list[Spin]:
    try:
        spins = [Spin.parse(p) for p in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"{flag}: {exc}") from None
    if expected is not None and len(spins) != expected:
        raise UsageError(f"{flag}: expected {expected} comma-separated spins, got {len(spins)}")
    return spins


def _cmd_invariant(args) -> int:
    parsed = _read_braid(args)
    if args.method == "rt":
        braid = _require_colored(parsed)
        value = invariant.rt_invariant(braid, normalize=args.normalize == "ambient")
    elif args.method == "bracket":
        value = invariant.kauffman_bracket(_as_word(args, parsed))
    else:  # cs
        value = invariant.cs_invariant_fundamental(_as_word(args, parsed))
    if args.output == "json":
        print(_dump_json({"method": args.method, "text": str(value), "value": poly_to_json(value)}))
    else:
        print(value)
    return EXIT_OK


_VARIANTS = {
    "plain": rmatrix.r_matrix,
    "inverse": rmatrix.r_inverse,
    "braided": rmatrix.braided_r,
    "braided-inverse": rmatrix.braided_r_inv,
    "opposite": rmatrix.r_opposite,
}


def _cmd_rmatrix(args) -> int:
    j1, j2 = _parse_spins(args.spins, "--spins", expected=2)
    op = _VARIANTS[args.variant](j1, j2)
    if args.output == "text":
        lines = [f"shape: {op.shape_in} -> {op.shape_out}"]
        for (r, c), p in sorted(op.entries.items()):
            lines.append(f"[{r},{c}] {p}")
        print("\n".join(lines))
    else:
        print(_dump_json(op.to_json()))
    return EXIT_OK


def _aw_report(args) -> Report:
    shape = None
    if args.spins:
        shape = Shape(tuple(_parse_spins(args.spins, "--spins", expected=3)))
    suite = args.suite_name
    if suite in ("relations", "routes", "expansion", "spectrum", "all") and shape is None:
        raise UsageError(f"--spins is required for suite {suite!r}")
    if suite == "relations":
        return aw.verify_aw(shape)
    if suite == "routes":
        return aw.verify_routes(shape)
    if suite == "expansion":
        return aw.verify_expansion(shape)
    if suite == "p-props":
        return aw.verify_p_propositions()
    if suite == "tl-iso":
        return aw.verify_tl_iso()
    if suite == "spectrum":
        return aw.verify_spectra(shape)
    report = aw.verify_all(shape)
    report.extend(aw.verify_p_propositions())
    report.extend(aw.verify_tl_iso())
    return report


def _braid_report(args) -> Report:
    braid = _require_colored(_read_braid(args))
    if args.suite == "skein":
        _require_half_colors(args, braid, "the two-term exchange needs every strand in color 1/2")
        _require_strands("skein", braid)
        return invariant.verify_skein(braid)
    if args.suite == "framing":
        _require_index("--strand", args.strand, braid.n_strands)
        return invariant.verify_framing(braid, strand=args.strand)
    if args.suite == "recursion":
        comps = components(braid)
        _require_index("--component", args.component, len(comps))
        color = component_color(braid, comps[args.component])
        if color.twice_j < 1:
            raise UsageError(f"--component: component {args.component} has color {color}; recursion needs at least 1/2")
        return invariant.verify_recursion(braid, args.component)
    if args.suite == "markov":
        _require_strands("markov", braid)
        return invariant.verify_markov(braid)
    if not args.braid2:  # factorization
        raise UsageError("factorization needs --braid2")
    second_args = argparse.Namespace(braid=args.braid2, colors=args.colors2)
    second = _require_colored(_read_braid(second_args, "--braid2", "--colors2"), "--colors2")
    return invariant.verify_factorization(braid, second)


def _cmd_verify(args) -> int:
    report = _aw_report(args) if args.suite == "aw" else _braid_report(args)
    if args.output == "json":
        print(_dump_json(report.to_json()))
    else:
        print(report.summary())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def build_parser() -> _Parser:
    parser = _Parser(prog="qlink", description="Exact colored link invariants and identity suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_inv = sub.add_parser("invariant", help="evaluate a closed braid")
    p_inv.add_argument("--braid", required=True, help="braid text/JSON, or a path to a file holding it")
    p_inv.add_argument("--colors", help="comma-separated strand colors, e.g. 1/2,1,3/2")
    p_inv.add_argument("--method", choices=("rt", "bracket", "cs"), required=True)
    p_inv.add_argument("--normalize", choices=("ambient",), help="divide out per-component self-writhe framing")
    p_inv.add_argument("--output", choices=("text", "json"), default="text")
    p_inv.set_defaults(func=_cmd_invariant)

    p_rm = sub.add_parser("rmatrix", help="dump a represented two-leg braiding matrix")
    p_rm.add_argument("--spins", required=True, help="two comma-separated spins, e.g. 1/2,1")
    p_rm.add_argument("--variant", choices=tuple(_VARIANTS), default="plain")
    p_rm.add_argument("--output", choices=("json", "text"), default="json")
    p_rm.set_defaults(func=_cmd_rmatrix)

    p_ver = sub.add_parser("verify", help="run an identity suite")
    p_ver.add_argument(
        "suite",
        choices=("skein", "framing", "recursion", "factorization", "markov", "aw"),
    )
    p_ver.add_argument("--braid", help="braid text/JSON or file (braid-level suites)")
    p_ver.add_argument("--colors", help="colors for --braid")
    p_ver.add_argument("--braid2", help="second braid (factorization)")
    p_ver.add_argument("--colors2", help="colors for --braid2")
    p_ver.add_argument("--strand", type=int, default=0, help="strand index (framing)")
    p_ver.add_argument("--component", type=int, default=0, help="component index (recursion)")
    p_ver.add_argument("--spins", help="three comma-separated spins (aw suites)")
    p_ver.add_argument(
        "--suite",
        dest="suite_name",
        choices=("relations", "routes", "expansion", "p-props", "tl-iso", "spectrum", "all"),
        default="all",
        help="which aw suite to run",
    )
    p_ver.add_argument("--output", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.func is _cmd_verify and args.suite != "aw" and args.braid is None:
            raise UsageError(f"--braid is required for suite {args.suite!r}")
        return args.func(args)
    except ShapeError as exc:
        # Shape mismatches mean a library-level inconsistency, not bad flags.
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (UsageError, BraidError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the exit-code contract wants a catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
