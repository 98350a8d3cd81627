"""
Statement coverage of src/qlink by the traffic the package serves, not by the
tests: the commands of README's "Command line" block and the first 600 ops of
each benchmark workload at seeds 0 and 5.

Everything runs in this process under the `sys.settrace` hook of
`statement_coverage`, which records the lines run in src/qlink.  A README
command and a cli op run through `cli.main` in process, not in a child
process.  The workloads are read from perfbench/workloads.py; each op is
built and run as the benchmark does, with its workload's `prepare`, and then
passed to its workload's `check`, which runs untraced.  A README command
passes when it exits 0 and prints the value of its "# -> " line, if it has
one.  The script prints every statement of src/qlink that no op ran (the
statements of `statement_coverage.never_run`) and exits 1 if an op fails its
check.  Pytest does not collect this file.

    PYTHONPATH=src python tests/traffic_coverage.py
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import itertools
import shlex
import sys
from contextlib import redirect_stdout
from types import SimpleNamespace

from statement_coverage import SRC, check_imported, never_run, recorder

ROOT = SRC.parents[1]
OPS = 600
SEEDS = (0, 5)


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
    print(f"ops that failed their check: {len(failures)}")
    for failure in failures:
        print(f"  {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
