"""
The benchmark's own tests: seeded inputs, negative controls, metric names.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _plain(value) -> bool:
    if isinstance(value, (tuple, list)):
        return all(_plain(v) for v in value)
    return value is None or isinstance(value, (int, str))


def _first_rounds(name: str, seed: int, count: int = 3):
    gen = workloads.WORKLOADS[name]().rounds(seed)
    return [next(gen) for _ in range(count)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    first = _first_rounds(name, 5)
    assert first == _first_rounds(name, 5)
    assert first != _first_rounds(name, 6)
    assert _plain(first), "the program must receive only plain generated data"


def test_workload_names_match_benchmark_json():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


def _run_main(monkeypatch, capsys, *argv):
    monkeypatch.chdir(ROOT)
    code = run.main(list(argv))
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return code, json.loads(last)


def test_clean_run_reports_every_end_to_end_metric(monkeypatch, capsys):
    code, out = _run_main(monkeypatch, capsys, "--workload", "colored-braids", "--seed", "0", "--seconds", "0.5")
    round_size = len(next(workloads.ColoredBraids().rounds(0)))
    assert code == 0 and out["correct"] and out["failed"] == 0 and out["attempted"] >= round_size
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert out["metrics"]["ops_ok_ratio"]["value"] == 1.0


def _traced(monkeypatch, capsys, seconds: str, rounds: int = 2) -> dict:
    monkeypatch.setitem(run.TRACE_ROUNDS, "fundamental-corpus", rounds)
    code, out = _run_main(
        monkeypatch, capsys, "--workload", "fundamental-corpus", "--seed", "1", "--seconds", seconds, "--trace", "1"
    )
    assert code == 0 and out["correct"]
    return {k: v["value"] for k, v in out["metrics"].items()}


def test_traced_run_reports_every_per_layer_metric(monkeypatch, capsys):
    metrics = _traced(monkeypatch, capsys, "0.4")
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["laurent.mul_calls"] > 0 and metrics["tl.mul_calls"] > 0
    assert 0 < metrics["trace.ops_ratio"] <= 1.5


def test_layer_counts_do_not_depend_on_the_time_budget(monkeypatch, capsys):
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units.items() if unit != "s" and name != "trace.ops_ratio"]
    short, long = _traced(monkeypatch, capsys, "0.1"), _traced(monkeypatch, capsys, "30")
    assert {k: short[k] for k in counts} == {k: long[k] for k in counts}
    # More rounds is more work.
    more = _traced(monkeypatch, capsys, "0.1", rounds=3)
    assert more["laurent.mul_calls"] > short["laurent.mul_calls"]


def _corrupt_fundamental_r_matrix(q):
    """Scale one entry of the spin-1/2 R-matrix, as acceptance criterion 14 does."""
    q.rmatrix.clear_cache()
    q.invariant.clear_cache()
    half = q.tensorop.HALF
    clean = q.rmatrix.r_matrix(half, half)
    entries = dict(clean.entries)
    key = sorted(entries)[0]
    entries[key] = entries[key] * q.laurent.LaurentPoly.v_power(2)
    q.rmatrix._cache[("R", 1, 1)] = q.tensorop.Operator(clean.shape_in, clean.shape_out, entries)


def test_corrupted_r_matrix_fails_ops(monkeypatch, capsys):
    original = run.setup

    def corrupting_setup(*args, **kwargs):
        q, rounds, dt = original(*args, **kwargs)
        _corrupt_fundamental_r_matrix(q)
        return q, rounds, dt

    monkeypatch.setattr(run, "setup", corrupting_setup)
    code, out = _run_main(monkeypatch, capsys, "--workload", "fundamental-corpus", "--seed", "0", "--seconds", "0.2")
    assert code != 0 and not out["correct"]
    assert out["failed"] > 0
    assert out["metrics"]["ops_ok_ratio"]["value"] < 1.0


def test_wrong_pinned_digest_fails_ops(monkeypatch, capsys):
    pinned = workloads.load_pinned()
    wrong = dict(pinned["colored-braids"], round0=["0" * 16] * len(pinned["colored-braids"]["round0"]))
    monkeypatch.setattr(workloads, "load_pinned", lambda: {"colored-braids": wrong})
    code, out = _run_main(monkeypatch, capsys, "--workload", "colored-braids", "--seed", "0", "--seconds", "0.2")
    assert code != 0 and not out["correct"]
    assert out["failed"] == len(wrong["round0"])
    assert out["metrics"]["ops_ok_ratio"]["value"] < 1.0


def test_refuses_to_run_without_sources(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "cli", "--seconds", "1"]) == 2
