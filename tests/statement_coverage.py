"""
Statement coverage of src/qlink by the tier-1 tests, with no dependency
beyond pytest.

Runs the tier-1 suite in this process under a `sys.settrace` hook that
records the lines run in src/qlink, then lists every statement (each
`ast.stmt` but a docstring) that never ran: a simple statement ran if one of
its lines did, a compound one if a line of its header or one of its own
statements did.  It exits 1 if a test fails, if a statement that never ran
is missing from ALLOWED, which gives the reason for each, or if an entry of
ALLOWED ran after all.  Hypothesis is seeded, so the list is the same on
every run.  Pytest does not collect this file.

    PYTHONPATH=src python tests/statement_coverage.py [extra pytest arguments]
"""

from __future__ import annotations

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "qlink"

# "module.qualname: first line of the statement" -> why no tier-1 test runs it.
ALLOWED = {
    "invariant._rmatrix: from . import rmatrix": "runs only in a fresh process; the tests import rmatrix first",
}


DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def statements(tree: ast.Module, module: str):
    """(key, node, own lines, nested statements) of every statement in `tree`, outermost first."""

    def walk(body, qualname, documented):
        for i, node in enumerate(body):
            if documented and i == 0 and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str):
                    continue  # a docstring
            blocks = [getattr(node, field, []) for field in ("body", "orelse", "finalbody")]
            blocks += [clause.body for clause in [*getattr(node, "handlers", ()), *getattr(node, "cases", ())]]
            nested = [child for block in blocks for child in block]
            first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
            own = set(range(first, node.end_lineno + 1))
            for child in nested:
                own -= set(range(child.lineno, child.end_lineno + 1))
            yield f"{qualname}: {ast.unparse(node).splitlines()[0]}", node, own, nested
            inner = f"{qualname}.{node.name}" if isinstance(node, DEFS) else qualname
            for block in blocks:
                yield from walk(block, inner, isinstance(node, DEFS))

    yield from walk(tree.body, module, True)


def run_tests(args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Pytest's exit status on the tier-1 suite and the (file, line) pairs it ran in src/qlink."""
    ran: set[tuple[str, int]] = set()
    prefix = f"{SRC}/"

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def start(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.settrace(start)
    try:
        status = pytest.main(["-q", "-W", "error", "-p", "no:cacheprovider", "--hypothesis-seed=0", *args])
    finally:
        sys.settrace(None)
    loaded = sys.modules.get("qlink")
    if loaded is None or not loaded.__file__.startswith(prefix):
        raise SystemExit(f"qlink was not imported from {SRC}; run with PYTHONPATH=src")
    return status, ran


def never_run(ran: set[tuple[str, int]]) -> dict[str, tuple[str, int]]:
    """{key: (file, line)} of every statement in src/qlink that never ran."""
    missed = {}
    for path in sorted(SRC.glob("*.py")):
        lines = {line for name, line in ran if name == str(path)}
        done: set[int] = set()  # the ids of the statements that ran
        for key, node, own, nested in reversed(list(statements(ast.parse(path.read_text()), path.stem))):
            if own & lines or any(id(child) in done for child in nested):  # nested statements come first
                done.add(id(node))
            else:
                missed[key] = (str(path.relative_to(SRC.parents[1])), node.lineno)
    return missed


def main() -> int:
    status, ran = run_tests(sys.argv[1:])
    missed = never_run(ran)
    unexpected = missed.keys() - ALLOWED.keys()
    stale = sorted(ALLOWED.keys() - missed.keys())
    print(f"statements never run: {len(missed)}, {len(missed) - len(unexpected)} of them allowed")
    for key in sorted(missed, key=missed.get):
        path, line = missed[key]
        print(f"  {path}:{line}: {key}" + ("   <- not allowed" if key in unexpected else ""))
    for key in stale:
        print(f"  allowed but run: {key}")
    return 1 if status or unexpected or stale else 0


if __name__ == "__main__":
    sys.exit(main())
