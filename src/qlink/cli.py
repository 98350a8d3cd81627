"""
Command-line entry point.

Three subcommands, designed for consumption by test harnesses: `invariant`
evaluates a closed braid (quantum-trace, bracket, or combined route),
`rmatrix` dumps a represented two-leg braiding matrix as JSON, and `verify`
runs the identity suites.  Output is deterministic and byte-identical for
identical inputs; JSON objects are emitted with sorted keys.  Each handler
imports the modules its subcommand runs, so a process loads no other: the
quantum-trace route loads neither `tl` nor `aw`, only `verify aw` loads `aw`,
and only a subcommand that reads a braid loads `braid`; of the `verify aw`
suites, only `tl-iso` and `all` (the default) load `braid` and `tl`.

Exit codes: 0 all requested checks passed (or value computed), 1 bad input
(the message names the flag that carried it), 2 at least one check failed,
3 any other failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from .laurent import poly_to_json
from .tensorop import InputError, Shape, Spin, parse_int, parse_spins

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CHECK_FAILED = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); route through our codes
        raise InputError(message)


def _index(text: str) -> int:
    """An index flag's value: an optional sign and ASCII digits (int() also takes 1_0 and non-ASCII digits)."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _dump_json(data) -> str:
    import json

    return json.dumps(data, indent=2, sort_keys=True)


def _named(exc: InputError, args, braid_flag: str = "--braid", colors_flag: str = "--colors") -> InputError:
    """
    `exc` led by the flag that carried its field.  Colors name `colors_flag`
    when they were given there and `braid_flag` when they came inline; an
    error without a field already names its flag and passes through.
    """
    if exc.field is None:
        return exc
    if exc.field == "colors" and getattr(args, colors_flag[2:], None) is not None:
        flag = colors_flag
    elif exc.field in ("braid", "colors"):
        flag = braid_flag
    else:
        flag = f"--{exc.field}"
    return InputError(f"{flag}: {exc}")


def _read_braid(text: str, colors: Optional[str]) -> object:
    from .braid import parse_any

    if os.path.isfile(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read {text!r}: {exc}", "braid") from None
    return parse_any(text, None if colors is None else _parse_spins(colors, "colors"))


def _require_colored(parsed, colors_flag: str = "--colors"):
    from .braid import ColoredBraid

    if isinstance(parsed, ColoredBraid):
        return parsed
    raise InputError(f"this operation needs strand colors (inline or via {colors_flag})")


def _as_word(parsed):
    from .braid import BraidWord

    if isinstance(parsed, BraidWord):
        return parsed
    from .invariant import fundamental_word

    return fundamental_word(parsed, "the bracket route")


def _parse_spins(text: str, field: str, expected: Optional[int] = None) -> tuple[Spin, ...]:
    try:
        spins = parse_spins(text)
    except InputError as exc:
        raise InputError(str(exc), field) from None
    if expected is not None and len(spins) != expected:
        raise InputError(f"expected {expected} comma-separated spins, got {len(spins)}", field)
    return spins


def _cmd_invariant(args) -> int:
    from . import invariant

    if args.normalize is not None and args.method != "rt":
        raise InputError(f"--normalize applies only to --method rt, not {args.method!r}")
    parsed = _read_braid(args.braid, args.colors)
    if args.method == "rt":
        braid = _require_colored(parsed)
        value = invariant.rt_invariant(braid, normalize=args.normalize == "ambient")
    elif args.method == "bracket":
        value = invariant.kauffman_bracket(_as_word(parsed))
    else:  # cs
        value = invariant.cs_invariant_fundamental(_as_word(parsed))
    if args.output == "json":
        print(_dump_json({"method": args.method, "text": str(value), "value": poly_to_json(value)}))
    else:
        print(value)
    return EXIT_OK


# Each `rmatrix --variant`: the rmatrix function that builds it.
_VARIANTS = {
    "plain": "r_matrix",
    "inverse": "r_inverse",
    "braided": "braided_r",
    "braided-inverse": "braided_r_inv",
    "opposite": "r_opposite",
}


def _cmd_rmatrix(args) -> int:
    from . import rmatrix

    j1, j2 = _parse_spins(args.spins, "spins", expected=2)
    op = getattr(rmatrix, _VARIANTS[args.variant])(j1, j2)
    if args.output == "text":
        lines = [f"shape: {op.shape_in} -> {op.shape_out}"]
        for (r, c), p in sorted(op.entries.items()):
            lines.append(f"[{r},{c}] {p}")
        print("\n".join(lines))
    else:
        print(_dump_json(op.to_json()))
    return EXIT_OK


# Each `verify aw --suite`: the aw functions whose reports it joins, in order.
# Those in _AW_SHAPELESS take no argument; the others take the --spins shape.
_AW_SUITES = {
    "relations": ("verify_aw",),
    "routes": ("verify_routes",),
    "expansion": ("verify_expansion",),
    "p-props": ("verify_p_propositions",),
    "tl-iso": ("verify_tl_iso",),
    "spectrum": ("verify_spectra",),
    "all": ("verify_all", "verify_p_propositions", "verify_tl_iso"),
}
_AW_SHAPELESS = ("verify_p_propositions", "verify_tl_iso")


def _aw_report(args):
    from . import aw

    names = _AW_SUITES[args.suite_name]
    shape = None
    if args.spins:
        shape = Shape(_parse_spins(args.spins, "spins", expected=3))
    elif any(name not in _AW_SHAPELESS for name in names):
        raise InputError(f"--spins is required for suite {args.suite_name!r}")
    reports = [getattr(aw, name)() if name in _AW_SHAPELESS else getattr(aw, name)(shape) for name in names]
    for other in reports[1:]:
        reports[0].extend(other)
    return reports[0]


def _braid_report(args):
    from . import invariant

    braid = _require_colored(_read_braid(args.braid, args.colors))
    if args.suite == "skein":
        return invariant.verify_skein(braid)
    if args.suite == "framing":
        return invariant.verify_framing(braid, strand=args.strand)
    if args.suite == "recursion":
        return invariant.verify_recursion(braid, args.component)
    if args.suite == "markov":
        return invariant.verify_markov(braid)
    if not args.braid2:  # factorization
        raise InputError("factorization needs --braid2")
    try:
        second = _require_colored(_read_braid(args.braid2, args.colors2), "--colors2")
    except InputError as exc:
        raise _named(exc, args, "--braid2", "--colors2") from None
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
    p_ver.add_argument("--strand", type=_index, default=0, help="strand index (framing)")
    p_ver.add_argument("--component", type=_index, default=0, help="component index (recursion)")
    p_ver.add_argument("--spins", help="three comma-separated spins (aw suites)")
    p_ver.add_argument(
        "--suite",
        dest="suite_name",
        choices=tuple(_AW_SUITES),
        default="all",
        help="which aw suite to run",
    )
    p_ver.add_argument("--output", choices=("text", "json"), default="text")
    p_ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if args.func is _cmd_verify and args.suite != "aw" and args.braid is None:
            raise InputError(f"--braid is required for suite {args.suite!r}")
        return args.func(args)
    except InputError as exc:
        print(f"usage error: {_named(exc, args)}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - the exit-code contract wants a catch-all
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
