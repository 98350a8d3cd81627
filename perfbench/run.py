"""
The qlink benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload colored-braids --seed 3 --seconds 20 --trace 0

Run it from the root of a checkout; it imports qlink from ./src and from
nowhere else, and fails (exit 2) when ./src/qlink is missing.  The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  The line before it records the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS, Cli

MODULES = ("laurent", "tensorop", "uqsu2", "rmatrix", "braid", "tl", "report", "invariant", "aw", "cli")
SETUP_REPEATS = 5
# A run stops early, on a round boundary, once this much wall time has passed.
WALL_LIMIT_S = 150.0
# Whole rounds in each half of a traced run.  The traced run does a fixed
# amount of work, so its counts depend only on the seed and the program, and
# its times are the time that work takes; about 8 s per half on the seed code.
TRACE_ROUNDS = {"fundamental-corpus": 20, "colored-braids": 6, "aw-sweep": 1, "cli": 4}
# Op times are rescaled to a fixed interpreter speed (see `calibrate`): on a
# shared 2-CPU virtual machine the interpreter's speed swings up to 2x for
# seconds at a time, in CPU time as well as wall time, and a 20 s run cannot
# average that out.  REFERENCE_KERNEL_S is the kernel's usual time there.
CALIBRATE_EVERY_S = 0.2
REFERENCE_KERNEL_S = 0.0012
# Per-layer metrics that only the cli workload measures.
CLI_LAYER = ("cli.import_s", "cli.main_s", "cli.process_overhead_s")


def fresh_import(src: Path) -> SimpleNamespace:
    """Import every qlink module anew from `src`, with empty module caches."""
    for name in [m for m in sys.modules if m == "qlink" or m.startswith("qlink.")]:
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("qlink")
    if Path(pkg.__file__).resolve().parent != (src / "qlink").resolve():
        raise RuntimeError(f"qlink was imported from {pkg.__file__}, not from {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"qlink.{m}") for m in MODULES})


def _kernel() -> None:
    # Exact-rational products accumulated into a dict: the same interpreter
    # work as a Laurent-polynomial product, with no qlink code involved.
    acc: dict = {}
    terms = [(e, Fraction(e + 3, 2 * e + 5)) for e in range(-8, 8)]
    for e1, c1 in terms:
        for e2, c2 in terms:
            prev = acc.get(e1 + e2)
            acc[e1 + e2] = c1 * c2 if prev is None else prev + c1 * c2


def calibrate() -> float:
    """The current speed of this interpreter on this host, relative to the reference."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return REFERENCE_KERNEL_S / best


def setup(workload, src: Path, seed: int, tracer: Tracer | None = None):
    """
    Import, generate the first round of inputs, and cold-build the R-matrices.
    The returned time is rescaled to the reference speed.
    """
    speed = calibrate()
    t0 = time.perf_counter()
    q = fresh_import(src)
    if tracer is not None:
        tracer.install(q)
    rounds = workload.rounds(seed)
    first = next(rounds)
    workload.prepare(q, seed)
    dt = time.perf_counter() - t0
    speed = (speed + calibrate()) / 2
    return q, itertools.chain([first], rounds), dt * speed


def measure(workload, q, rounds, seconds: float, deadline: float, on_op=None) -> dict:
    """
    Closed loop, one client: run whole rounds until `seconds` of op time have
    been spent, the rounds run out, or the wall clock passes `deadline`.  Only
    `run` is timed; building the inputs and checking the results happen outside
    the timed region.  The interpreter speed is measured again before the first
    op and after every CALIBRATE_EVERY_S of op time; each op time is rescaled by
    the mean of the measurements on either side.
    """
    latencies: list[float] = []
    raw: list[float] = []
    pending: list[float] = []
    factors: list[float] = []
    failed = 0
    busy = 0.0
    speed = calibrate()

    def rescale_pending():
        nonlocal speed
        new = calibrate()
        factor = (speed + new) / 2
        latencies.extend(dt * factor for dt in pending)
        factors.append(factor)
        pending.clear()
        speed = new

    next_calibration = CALIBRATE_EVERY_S
    for rnd in rounds:
        for spec in rnd:
            built = workload.build(q, spec)
            t0 = time.perf_counter()
            try:
                result = workload.run(q, built)
                error = None
            except Exception as exc:  # an exception is a failed op, not a crash
                result, error = None, exc
            dt = time.perf_counter() - t0
            busy += dt
            raw.append(dt)
            pending.append(dt)
            if busy >= next_calibration:
                rescale_pending()
                next_calibration = busy + CALIBRATE_EVERY_S
            ok = error is None
            if ok:
                try:
                    ok = bool(workload.check(q, spec, result))
                except Exception as exc:
                    ok, error = False, exc
            if not ok:
                failed += 1
                if failed <= 3:
                    print(f"failed op {spec!r}: {error!r}", file=sys.stderr)
            if on_op is not None:
                on_op(spec, dt)
        if busy >= seconds or time.perf_counter() >= deadline:
            break
    rescale_pending()
    return {
        "latencies": latencies,
        "attempted": len(latencies),
        "failed": failed,
        "busy_s": sum(latencies),
        "raw_latencies": raw,
        "mean_factor": statistics.fmean(factors),
    }


def nearest_rank(sorted_values: list[float], share: float) -> float:
    rank = max(1, -(-share * len(sorted_values) // 1))
    return sorted_values[int(rank) - 1]


def end_to_end(stats: dict, setup_times: list[float], children_rss: bool) -> dict:
    lat = sorted(stats["latencies"])
    who = resource.RUSAGE_CHILDREN if children_rss else resource.RUSAGE_SELF
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (stats["attempted"] / stats["busy_s"], "1/s"),
        "op_p50_ms": (1000 * nearest_rank(lat, 0.5), "ms"),
        "op_p90_ms": (1000 * nearest_rank(lat, 0.9), "ms"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ops_ok_ratio": ((stats["attempted"] - stats["failed"]) / stats["attempted"], "ratio"),
    }


class CliReplica:
    """
    For the traced cli run: after each process, run cli.main in-process on the
    same argv from a fresh import (cold caches), timing the import and the call.
    """

    def __init__(self, workload: Cli, src: Path, tracer: Tracer | None):
        self.workload, self.src, self.tracer = workload, src, tracer
        self.process_s = self.import_s = self.main_s = 0.0

    def __call__(self, argv, process_dt: float) -> None:
        t0 = time.perf_counter()
        q = fresh_import(self.src)
        self.import_s += time.perf_counter() - t0
        if self.tracer is not None:
            self.tracer.install(q)
        self.main_s += self.workload.replica(q, argv)
        self.process_s += process_dt


def environment(root: Path, q) -> dict:
    """Information recorded with every result; none of it is a metric."""
    coeff = next(iter(q.laurent.qint(1).terms.values()))
    rational = getattr(coeff, "re", coeff)
    commit = "unknown"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py")))
    return {
        "python": platform.python_version(),
        "rational_backend": f"{type(rational).__module__}.{type(rational).__qualname__}",
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_lines": src_lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    src = root / "src"
    deadline = time.perf_counter() + WALL_LIMIT_S
    workload = WORKLOADS[name]()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        q, rounds, dt = setup(workload, src, seed)
        setup_times.append(dt)
    env = environment(root, q)

    if not trace:
        stats = measure(workload, q, rounds, seconds, deadline)
        metrics = end_to_end(stats, setup_times, children_rss=name == "cli")
        # Unscaled figures, so that every rescaled time can be audited.
        env["raw_ops_per_s"] = stats["attempted"] / sum(stats["raw_latencies"])
        env["raw_op_p50_ms"] = 1000 * nearest_rank(sorted(stats["raw_latencies"]), 0.5)
        env["mean_speed_factor"] = stats["mean_factor"]
        return env, {"attempted": stats["attempted"], "failed": stats["failed"], "metrics": metrics}

    # Traced run: TRACE_ROUNDS[name] rounds untraced for the baseline rate,
    # then the same rounds again after a fresh set-up with tracing installed.
    # Only rmatrix.build_* keep what the traced set-up did; every other layer
    # metric covers the traced rounds alone.
    is_cli = name == "cli"
    fixed = TRACE_ROUNDS[name]
    base_replica = CliReplica(workload, src, None) if is_cli else None
    base = measure(workload, q, itertools.islice(rounds, fixed), float("inf"), deadline, on_op=base_replica)
    tracer = Tracer()
    q, rounds, _ = setup(workload, src, seed, tracer=tracer)
    setup_layer = tracer.metrics()
    tracer.reset()
    traced_replica = CliReplica(workload, src, tracer) if is_cli else None
    traced = measure(workload, q, itertools.islice(rounds, fixed), float("inf"), deadline, on_op=traced_replica)

    layer = tracer.metrics()
    for key in ("rmatrix.build_calls", "rmatrix.build_s"):
        layer[key] += setup_layer[key]
    env["laurent_operand_share"] = tracer.operand_shares()
    if is_cli:
        n_base = base["attempted"]
        layer["cli.import_s"] = base_replica.import_s
        layer["cli.main_s"] = base_replica.main_s
        layer["cli.process_overhead_s"] = base_replica.process_s - base_replica.import_s - base_replica.main_s
        # Tracing acts on the in-process replica only; compare its per-call rate.
        layer["trace.ops_ratio"] = (base_replica.main_s / n_base) / (traced_replica.main_s / traced["attempted"])
    else:
        for key in CLI_LAYER:
            layer[key] = 0.0
        layer["trace.ops_ratio"] = (traced["attempted"] / traced["busy_s"]) / (base["attempted"] / base["busy_s"])
    units = layer_units()
    metrics = {key: (value, units[key]) for key, value in layer.items()}
    attempted = base["attempted"] + traced["attempted"]
    failed = base["failed"] + traced["failed"]
    return env, {"attempted": attempted, "failed": failed, "metrics": metrics}


def layer_units() -> dict:
    with open(Path(__file__).resolve().parent.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qlink" / "__init__.py").is_file():
        print(f"error: no qlink sources under {root / 'src'}; run from the root of a qlink checkout", file=sys.stderr)
        return 2
    env, result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    correct = result["failed"] == 0
    print(json.dumps({"env": env, "workload": args.workload, "seed": args.seed}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
