"""
Reach of src/qlink by the traffic the package serves, not by the tests: the
commands of README's "Command line" block and the first 600 ops of each
benchmark workload at seeds 0 and 5.

Everything runs in this process under the `sys.settrace` hook of
`statement_coverage`, which records the lines run in src/qlink.  A README
command and a cli op run through `cli.main` in process, not in a child
process.  The workloads are read from perfbench/workloads.py; each op is
built and run as the benchmark does, with its workload's `prepare`, and then
passed to its workload's `check`, which runs untraced.  A README command
passes when it exits 0 and prints the value of its "# -> " line, if it has
one.  The script prints every statement of src/qlink that no op ran (the
statements of `statement_coverage.never_run`) and the names that only
perfbench's pins keep alive.  It exits 1 if an op fails its check, if no op
enters a function or method of src/qlink (top-level or of a top-level class,
not a dunder) whose name perfbench does not pin and ALLOWED does not list,
if an ALLOWED entry is stale, or if no other top-level statement names a
top-level class or assigned name, which line tracing cannot see.  Pytest
does not collect this file.

    PYTHONPATH=src python tests/traffic_coverage.py
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import io
import itertools
import shlex
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

from statement_coverage import SRC, check_imported, module_runs, never_run, recorder

ROOT = SRC.parents[1]
OPS = 600
SEEDS = (0, 5)
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)

# "module.qualname" of a function or method no op enters -> why it stays.
ALLOWED = {
    "cli._Parser.error": "argparse calls it only on a bad command line",
    "cli._named": "runs only when an input is bad",
    "tl._check_pairing": "the checked TLElement constructor's input check; every route builds through _raw",
    "laurent.LaurentPoly.const": "a checked constructor, the input boundary the tests and oracles build through",
    "laurent.LaurentPoly.zero": "a checked constructor, the input boundary the tests and oracles build through",
    "tensorop.Operator.entry": "only full_trace reads it, and perfbench pins full_trace",
}


def pins() -> set[str]:
    """Every "module.name[.attribute...]" prefix of a TRACED entry or a q.<module>.<name>... chain in perfbench/*.py."""
    paths = []
    for path in (ROOT / "perfbench").glob("*.py"):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in n.targets):
                paths += [[module, *attr.split(".")] for module, attr, _ in ast.literal_eval(n.value)]
            chain, root = [], n
            while isinstance(root, ast.Attribute):
                chain.insert(0, root.attr)
                root = root.value
            if isinstance(root, ast.Name) and root.id == "q":
                paths.append(chain)
    return {".".join(parts[:i]) for parts in paths for i in range(2, len(parts) + 1)}


def unentered(ran: set[tuple[str, int]]) -> list[str]:
    """The "module.qualname" of each function, top-level or a top-level class's, and no dunder, whose body never ran."""
    names = []
    for path, tree, _, done in module_runs(ran):
        holders = [(path.stem, tree)] + [(f"{path.stem}.{c.name}", c) for c in tree.body if isinstance(c, ast.ClassDef)]
        for qualname, holder in holders:
            for node in holder.body:
                if not isinstance(node, FUNCS) or node.name.startswith("__") and node.name.endswith("__"):
                    continue
                if not any(id(s) in done for s in node.body):
                    names.append(f"{qualname}.{node.name}")
    return names


def unnamed() -> tuple[int, list[str]]:
    """The count of top-level classes and assigned names in src/qlink, and each that no other top-level statement names."""
    tops = [(path.stem, node) for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body]
    spelled = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}
    mentions = [{getattr(n, spelled[type(n)]) for n in ast.walk(node) if type(n) in spelled} for _, node in tops]
    defined = []  # (module, name, index of its statement in tops)
    for i, (stem, node) in enumerate(tops):
        if isinstance(node, ast.ClassDef):
            defined.append((stem, node.name, i))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined += [(stem, n.id, i) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    missing = [f"{stem}.{name}" for stem, name, i in defined if not any(name in m for j, m in enumerate(mentions) if j != i)]
    return len(defined), missing


def readme_commands() -> list[tuple[list[str], str | None]]:
    """(argv, the output its "# -> " line gives, or None) of every qlink line of README's command block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("\n## Command line\n", 1)[1].split("\n```\n", 1)[0]
    commands = []
    for line in block.splitlines():
        if line.startswith("qlink "):
            commands.append((shlex.split(line[len("qlink ") :]), None))
        elif line.startswith("# -> ") and commands:
            commands[-1] = (commands[-1][0], line[len("# -> ") :])
    return commands


def in_process(q, argv) -> tuple[int, str]:
    """The exit code and stdout of `cli.main` on `argv`."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = q.cli.main(list(argv))
    return code, out.getvalue()


def main() -> int:
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)

    ran: set[tuple[str, int]] = set()
    hook = recorder(ran)
    sys.settrace(hook)
    q = SimpleNamespace(
        **{path.stem: importlib.import_module(f"qlink.{path.stem}") for path in SRC.glob("*.py") if path.stem != "__init__"}
    )
    sys.settrace(None)
    check_imported()

    failures = []
    for argv, want in readme_commands():
        sys.settrace(hook)
        code, out = in_process(q, argv)
        sys.settrace(None)
        if code != 0 or (want is not None and out.rstrip("\n") != want):
            failures.append(f"README: qlink {shlex.join(argv)} exited {code} and printed {out!r}")
    for name, workload_class in workloads.WORKLOADS.items():
        for seed in SEEDS:
            workload = workload_class()
            specs = list(itertools.islice(itertools.chain.from_iterable(workload.rounds(seed)), OPS))
            sys.settrace(hook)
            workload.prepare(q, seed)
            sys.settrace(None)
            for op in specs:
                sys.settrace(hook)
                try:
                    built = workload.build(q, op)
                    result = in_process(q, built) if name == "cli" else workload.run(q, built)
                except Exception as exc:  # a failed op, reported below
                    result = exc
                finally:
                    sys.settrace(None)
                if isinstance(result, Exception) or not workload.check(q, op, result):
                    failures.append(f"{name}, seed {seed}: {op!r} gave {result!r}")
            print(f"{name}, seed {seed}: {len(specs)} ops")

    missed = never_run(ran)
    print(f"statements no op ran: {len(missed)}")
    for key in sorted(missed, key=missed.get):
        path, line = missed[key]
        print(f"  {path}:{line}: {key}")
    pinned = pins()
    not_entered = unentered(ran)
    defined, not_named = unnamed()
    unreached = [name for name in not_entered + not_named if name not in pinned and name not in ALLOWED]
    stale = sorted(ALLOWED.keys() - (set(not_entered) - pinned))
    pinned_only = sorted(pinned.intersection(not_entered + not_named))
    print(f"names only perfbench's pins keep alive: {len(pinned_only)}")
    for name in pinned_only:
        print(f"  {name}")
    print(f"functions and methods no op enters: {len(not_entered)}; ALLOWED lists {len(ALLOWED)}")
    print(f"top-level classes and assignments no other statement names: {len(not_named)} of {defined}")
    for name in unreached:
        print(f"  not reached: {name}")
    for name in stale:
        print(f"  stale ALLOWED entry: {name}")
    print(f"ops that failed their check: {len(failures)}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures or unreached or stale else 0


if __name__ == "__main__":
    sys.exit(main())
