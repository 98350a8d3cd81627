import io
import json
import pathlib
from contextlib import redirect_stderr, redirect_stdout

import pytest

from qlink import aw, cli, invariant, rmatrix
from qlink.laurent import LaurentPoly
from qlink.tensorop import HALF, Operator

GOLDEN = pathlib.Path(__file__).parent / "golden"


def clear_all_caches():
    rmatrix.clear_cache()
    invariant.clear_cache()
    aw.clear_cache()


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class TestInvariantCommand:
    def test_hopf_text(self):
        code, out, _ = run(
            ["invariant", "--braid", "n=2; 1 1", "--colors", "1/2,1/2", "--method", "rt"]
        )
        assert code == 0
        assert out.strip() == "v^-6 + v^-2 + v^2 + v^6"

    def test_unknot_three_halves(self):
        code, out, _ = run(["invariant", "--braid", "n=1;", "--colors", "3/2", "--method", "rt"])
        assert code == 0
        assert out.strip() == "v^-6 + v^-2 + v^2 + v^6"

    def test_bracket_method(self):
        code, out, _ = run(["invariant", "--braid", "n=1;", "--method", "bracket"])
        assert code == 0
        assert out.strip() == "-v^-2 - v^2"

    def test_cs_equals_rt_for_fundamental(self):
        _, cs_out, _ = run(["invariant", "--braid", "n=2; 1 1 1", "--method", "cs"])
        _, rt_out, _ = run(
            ["invariant", "--braid", "n=2; 1 1 1", "--colors", "1/2,1/2", "--method", "rt"]
        )
        assert cs_out == rt_out

    def test_normalized_variant(self):
        _, out, _ = run(
            [
                "invariant",
                "--braid",
                "n=2; 1",
                "--colors",
                "1/2,1/2",
                "--method",
                "rt",
                "--normalize",
                "ambient",
            ]
        )
        assert out.strip() == "v^-2 + v^2"

    def test_braid_file_input(self, tmp_path):
        path = tmp_path / "braid.txt"
        path.write_text("n=2; 1 1; colors=1/2,1/2", encoding="utf-8")
        code, out, _ = run(["invariant", "--braid", str(path), "--method", "rt"])
        assert code == 0
        assert out.strip() == "v^-6 + v^-2 + v^2 + v^6"

    def test_missing_colors_is_usage_error(self):
        code, _, err = run(["invariant", "--braid", "n=2; 1 1", "--method", "rt"])
        assert code == 1
        assert "colors" in err

    def test_bad_letter_is_usage_error(self):
        code, _, _ = run(["invariant", "--braid", "n=2; 5", "--method", "cs"])
        assert code == 1

    @pytest.mark.parametrize(
        "braid,field",
        [
            ('{"n": 2}', "letters"),
            ('{"n": 2, "letters": [1, 1], "colors": "1/2"}', "colors"),
            ('{"n": 1, "letters": [], "colors": [1]}', "colors"),
        ],
    )
    def test_malformed_json_braid_is_usage_error(self, braid, field):
        code, _, err = run(["invariant", "--braid", braid, "--method", "rt"])
        assert code == 1
        assert f"field '{field}'" in err

    @pytest.mark.parametrize(
        "argv,name",
        [
            (
                ["invariant", "--braid", "n=2; 1 1; colors=1/2,1/2; colors=1,1", "--method", "rt"],
                "--braid: more than one colors= section",
            ),
            (["invariant", "--braid", '{"n": 2, "letters": [1, 1]', "--method", "cs"], "--braid: braid JSON"),
            (
                ["verify", "factorization", "--braid", "n=1;", "--colors", "1"]
                + ["--braid2", '{"n": 2, "letters": [1]', "--colors2", "1/2,1/2"],
                "--braid2: braid JSON:",
            ),
        ],
    )
    def test_bad_braid_input_is_named(self, argv, name):
        code, out, err = run(argv)
        assert code == 1
        assert out == ""
        assert name in err

    @pytest.mark.parametrize(
        "argv,flag,item",
        [
            (["invariant", "--braid", "n=2; 1 1", "--colors", "1/2,", "--method", "rt"], "--colors", "''"),
            (["invariant", "--braid", "n=2; 1 1; colors=1/2,x", "--method", "rt"], "colors", "'x'"),
            (["verify", "aw", "--spins", "1/2,1/2,a"], "--spins", "'a'"),
        ],
    )
    def test_bad_spin_is_named(self, argv, flag, item):
        code, _, err = run(argv)
        assert code == 1
        assert flag in err
        assert item in err
        assert "invalid literal" not in err

    def test_undecodable_braid_file_is_named(self, tmp_path):
        path = tmp_path / "braid.txt"
        path.write_bytes(b"\xff\xfe")
        code, out, err = run(["invariant", "--braid", str(path), "--method", "cs"])
        assert code == 1
        assert out == ""
        assert f"--braid: cannot read {str(path)!r}" in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["invariant", "--braid", "n=2; 1 1", "--colors", "", "--method", "rt"], "--colors: not a spin: ''"),
            (
                ["verify", "factorization", "--braid", "n=1;", "--colors", "1/2"]
                + ["--braid2", "n=1;", "--colors2", ""],
                "--colors2: not a spin: ''",
            ),
            (
                ["verify", "factorization", "--braid", "n=1;", "--colors", "1/2", "--braid2", "n=1;"],
                "via --colors2",
            ),
        ],
    )
    def test_bad_colors_flag_is_named(self, argv, message):
        code, out, err = run(argv)
        assert code == 1
        assert out == ""
        assert message in err

    def test_complex_residue_exits_three(self, monkeypatch):
        # An odd power of x left in a bracket cannot be carried onto the v axis.
        monkeypatch.setattr(invariant, "kauffman_bracket", lambda word: LaurentPoly.v_power(1))
        code, _, err = run(["invariant", "--braid", "n=1;", "--method", "cs"])
        assert code == 3
        assert "complex residue" in err


class TestRMatrixCommand:
    def test_json_round_trips_to_operator(self):
        code, out, _ = run(["rmatrix", "--spins", "1/2,1/2"])
        assert code == 0
        assert Operator.from_json(json.loads(out)) == rmatrix.r_matrix(HALF, HALF)

    def test_braided_variant_shape(self):
        code, out, _ = run(["rmatrix", "--spins", "1/2,1", "--variant", "braided"])
        data = json.loads(out)
        assert data["shape_in"] == [1, 2]
        assert data["shape_out"] == [2, 1]

    def test_text_output(self):
        code, out, _ = run(["rmatrix", "--spins", "0,1/2", "--output", "text"])
        assert code == 0
        assert out.splitlines()[0] == "shape: (0, 1/2) -> (0, 1/2)"


class TestVerifyCommand:
    def test_aw_all_suites_exit_zero(self):
        for suite in ("relations", "routes", "expansion", "spectrum"):
            code, out, _ = run(
                ["verify", "aw", "--spins", "1/2,1/2,1/2", "--suite", suite]
            )
            assert code == 0, (suite, out)
        for suite in ("p-props", "tl-iso"):
            code, _, _ = run(["verify", "aw", "--suite", suite])
            assert code == 0

    def test_aw_requires_spins_for_shape_suites(self):
        code, _, err = run(["verify", "aw", "--suite", "relations"])
        assert code == 1
        assert "spins" in err

    def test_braid_suites(self):
        code, _, _ = run(["verify", "skein", "--braid", "n=2; 1", "--colors", "1/2,1/2"])
        assert code == 0
        code, _, _ = run(
            ["verify", "framing", "--braid", "n=2; 1 1", "--colors", "1,1", "--strand", "1"]
        )
        assert code == 0
        code, _, _ = run(
            ["verify", "recursion", "--braid", "n=1;", "--colors", "1", "--component", "0"]
        )
        assert code == 0
        code, _, _ = run(
            [
                "verify",
                "factorization",
                "--braid",
                "n=1;",
                "--colors",
                "1/2",
                "--braid2",
                "n=2; 1 1",
                "--colors2",
                "1/2,1/2",
            ]
        )
        assert code == 0
        code, _, _ = run(["verify", "markov", "--braid", "n=3; 1 2 1; colors=1/2,1/2,1/2"])
        assert code == 0

    @pytest.mark.parametrize("suite", ["skein", "markov"])
    def test_one_strand_runs_no_check_and_is_usage_error(self, suite):
        code, out, err = run(["verify", suite, "--braid", "n=1;", "--colors", "1/2"])
        assert code == 1
        assert "PASS" not in out
        assert f"--braid: {suite} needs at least 2 strands, got 1" in err

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["verify", "recursion", "--braid", "n=1;", "--colors", "0"], "--component"),
            (["verify", "skein", "--braid", "n=2; 1 1", "--colors", "1,1"], "--colors"),
            (["invariant", "--braid", "n=2; 1", "--colors", "1,1", "--method", "cs"], "--colors"),
            (["invariant", "--braid", "n=2; 1", "--colors", "1,1", "--method", "bracket"], "--colors"),
            (["invariant", "--braid", "n=2; 1; colors=1,1", "--method", "cs"], "--braid"),
        ],
    )
    def test_unusable_input_names_its_flag(self, argv, flag):
        code, out, err = run(argv)
        assert code == 1
        assert out == ""
        assert f"usage error: {flag}: " in err

    def test_missing_braid_is_usage_error(self):
        code, _, _ = run(["verify", "skein"])
        assert code == 1

    def test_recursion_at_color_half(self):
        code, out, _ = run(
            ["verify", "recursion", "--braid", "n=2; 1 1", "--colors", "1,1/2", "--component", "1"]
        )
        assert code == 0
        assert "value(j=1/2) = value(cable(1/2,0))" in out

    def test_bad_strand_index_is_usage_error(self):
        code, _, err = run(
            ["verify", "framing", "--braid", "n=1;", "--colors", "1/2", "--strand", "7"]
        )
        assert code == 1
        assert "--strand" in err

    def test_bad_component_index_is_usage_error(self):
        code, _, err = run(
            ["verify", "recursion", "--braid", "n=1;", "--colors", "1", "--component", "5"]
        )
        assert code == 1
        assert "no component 5" in err
        assert "--component" in err

    def test_bad_spin_is_usage_error(self):
        code, _, _ = run(["rmatrix", "--spins", "1/3,1/2"])
        assert code == 1

    def test_failed_check_exits_two(self):
        clear_all_caches()
        good = rmatrix.r_matrix(HALF, HALF)
        bad = dict(good.entries)
        bad[(0, 0)] = bad[(0, 0)] * LaurentPoly.v_power(2)
        rmatrix._cache[("R", 1, 1)] = Operator(good.shape_in, good.shape_out, bad)
        try:
            code, out, _ = run(
                ["verify", "skein", "--braid", "n=2; 1", "--colors", "1/2,1/2"]
            )
            assert code == 2
            assert "FAIL" in out
        finally:
            clear_all_caches()

    def test_internal_error_exits_three(self):
        clear_all_caches()
        good = rmatrix.r_matrix(HALF, HALF)
        bad = dict(good.entries)
        bad[(1, 1)] = bad[(1, 1)] * LaurentPoly.v_power(2)
        rmatrix._cache[("R", 1, 1)] = Operator(good.shape_in, good.shape_out, bad)
        try:
            # The inverse cross-check trips, which is an internal failure.
            code, _, err = run(
                ["verify", "markov", "--braid", "n=2; -1 -1; colors=1/2,1/2"]
            )
            assert code == 3
            assert "internal error" in err
        finally:
            clear_all_caches()


class TestGoldenOutputs:
    @pytest.mark.parametrize(
        "name,argv",
        [
            ("rmatrix_half_half.json", ["rmatrix", "--spins", "1/2,1/2"]),
            (
                "invariant_hopf_rt.json",
                [
                    "invariant",
                    "--braid",
                    "n=2; 1 1",
                    "--colors",
                    "1/2,1/2",
                    "--method",
                    "rt",
                    "--output",
                    "json",
                ],
            ),
            (
                "verify_aw_relations.json",
                [
                    "verify",
                    "aw",
                    "--spins",
                    "1/2,1/2,1/2",
                    "--suite",
                    "relations",
                    "--output",
                    "json",
                ],
            ),
            (
                "verify_aw_all.json",
                ["verify", "aw", "--spins", "1/2,1,3/2", "--suite", "all", "--output", "json"],
            ),
            (
                "verify_aw_spectrum.json",
                ["verify", "aw", "--spins", "1/2,1,3/2", "--suite", "spectrum", "--output", "json"],
            ),
        ],
    )
    def test_byte_identical_golden(self, name, argv):
        code, out, _ = run(argv)
        assert code == 0
        golden = (GOLDEN / name).read_text(encoding="utf-8")
        assert out == golden
        # Determinism: a second run reproduces the bytes.
        code2, out2, _ = run(argv)
        assert (code2, out2) == (code, out)
