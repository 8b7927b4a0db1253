"""CLI behaviour: flags, payloads, exit codes, config handling."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dehnscope
from dehnscope.cli import main
from dehnscope.filling_solver import solve_direct, unimodular_completion


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestHolonomyCommand:
    def test_cusp_generator_is_parabolic_translation(self, capsys):
        code, out = run(capsys, "holonomy", "--a", "0,0", "--b", "0,1", "--m", "1", "--n", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"]["kind"] == "parabolic"
        assert payload["matrix"] == [[1.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_half_turn_is_elliptic(self, capsys):
        code, out = run(
            capsys, "holonomy", "--a", "0,3.14159265358979", "--b", "0,1", "--m", "1", "--n", "0"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classification"]["kind"] == "elliptic"
        assert abs(payload["classification"]["angle"] - math.pi) < 1e-9

    def test_missing_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["holonomy", "--a", "0,0", "--m", "1", "--n", "0"])
        assert err.value.code == 2

    def test_bad_complex_exits_2(self, capsys):
        code, _ = run(capsys, "holonomy", "--a", "zap", "--b", "0,1", "--m", "1", "--n", "0")
        assert code == 2
        for argv in (
            ["fill", "--a", "nan,0", "--b", "0,1"],
            ["fill", "--a", "nan,0", "--b", "0,1", "--classify"],
            ["holonomy", "--a", "0,0", "--b", "0,inf", "--m", "1", "--n", "0"],
            ["schwarzian", "--f", "log", "--z", "nan,1"],
            ["crosssection", "--a", "1,0", "--b", "0,1", "--x", "nan", "--y", "0", "--eps", "0.7"],
            ["schwarzian", "--f", "power:nan", "--z", "0,1"],
            ["schwarzian", "--f", "square", "--grid=-0.5:inf:3,0.25:3:2", "--format", "csv"],
            ["theta-check", "--f", "square", "--point", "nan,0.7,0.5"],
            ["crosssection", "--a", "1,0", "--b", "0,1", "--x", "1", "--y", "0", "--eps-grid", "0.1:inf:3"],
        ):
            assert main(argv) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and "must be finite" in captured.err


class TestFillCommand:
    def test_smooth_filling(self, capsys):
        code, out = run(
            capsys, "fill", "--a", "0,6.28318530717959", "--b", "0,1", "--classify"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["coordinates"]["x"] - 1.0) < 1e-9
        assert abs(payload["coordinates"]["y"]) < 1e-9
        assert payload["completion"]["kind"] == "smooth"

    def test_cusp(self, capsys):
        code, out = run(capsys, "fill", "--a", "0,0", "--b", "0,1")
        assert code == 0
        assert json.loads(out)["coordinates"] == {"type": "infinity"}

    def test_diagonal_class(self, capsys):
        code, out = run(capsys, "fill", "--a", "3.14159265358979,3.14159265358979", "--b", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["coordinates"]["x"] - 1.0) < 1e-8
        assert abs(payload["coordinates"]["y"] - 1.0) < 1e-8


class TestSequenceCommand:
    def test_basis_past_int64(self, capsys):
        # the second coordinate 5 + 2n of the (1, n) class passes 2^63 here
        n = 2**62
        code, out = run(capsys, "sequence", "--b", "0,1", "--p", "3", "--q", "5", "--n", f"{n}..{n}")
        assert code == 0
        (row,) = json.loads(out)
        (b11, b12), (b21, b22) = unimodular_completion(3, 5)
        a = solve_direct(1j, float(b11 + b12 * n), float(b21 + b22 * n)).a
        assert (row["a_re"], row["a_im"]) == (a.real, a.imag) and row["a_re"] > 0

    def test_csv_rows(self, capsys):
        code, out = run(
            capsys, "sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..10",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,a_re,a_im,cusp_residual"
        assert len(lines) == 11
        first = lines[1].split(",")
        assert abs(float(first[1]) - math.pi) < 1e-12
        assert abs(float(first[2]) - math.pi) < 1e-12

    def test_csv_json_payload_equality(self, capsys):
        _, csv_out = run(
            capsys, "sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..4",
            "--format", "csv",
        )
        _, json_out = run(
            capsys, "sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..4",
            "--format", "json",
        )
        rows = json.loads(json_out)
        lines = csv_out.strip().splitlines()[1:]
        for row, line in zip(rows, lines):
            vals = line.split(",")
            assert int(vals[0]) == row["n"]
            assert float(vals[1]) == row["a_re"]
            assert float(vals[2]) == row["a_im"]
            assert float(vals[3]) == row["cusp_residual"]


class TestSolveCommand:
    PATH = json.dumps(
        {"a_coeffs": [[0, 0], [1, 0]], "b_coeffs": [[0, 1]], "center": [0, 3], "radius": 5}
    )

    def test_converged_inline_path(self, capsys):
        code, out = run(
            capsys, "solve", "--path", self.PATH, "--x", "1", "--y", "1", "--w0", "0,3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"] is True
        assert abs(payload["w"][0] - math.pi) < 1e-9
        assert abs(payload["w"][1] - math.pi) < 1e-9

    def test_path_from_file(self, capsys, tmp_path):
        path_file = tmp_path / "path.json"
        path_file.write_text(self.PATH)
        code, out = run(
            capsys, "solve", "--path", str(path_file), "--x", "1", "--y", "1", "--w0", "0,3"
        )
        assert code == 0 and json.loads(out)["converged"]

    def test_nonconvergence_exits_1_with_payload(self, capsys):
        path = json.dumps(
            {
                "a_coeffs": [[0, 0], [1, 0]],
                "b_coeffs": [[0, 1], [0, 0], [0.01, 0]],
                "center": [0, 6],
                "radius": 2,
            }
        )
        code, out = run(
            capsys, "solve", "--path", path, "--x", "1", "--y", "0.1", "--w0", "1.5,6",
            "--max-iter", "1",
        )
        assert code == 1
        assert json.loads(out)["converged"] is False

    def test_zero_target_exits_2(self, capsys):
        code, _ = run(capsys, "solve", "--path", self.PATH, "--x", "0", "--y", "0", "--w0", "0,3")
        assert code == 2

    def test_malformed_path_exits_2(self, capsys):
        path = json.dumps({"a_coeffs": [[None, 0]], "b_coeffs": [[0, 1]], "center": [0, 3], "radius": 5})
        assert main(["solve", "--path", path, "--x", "1", "--y", "1", "--w0", "0,3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: cannot load path spec")

    def test_domain_exit_exits_1_with_payload(self, capsys):
        tight = json.dumps(
            {"a_coeffs": [[0, 0], [1, 0]], "b_coeffs": [[0, 1]], "center": [0, 20], "radius": 0.5}
        )
        code, out = run(
            capsys, "solve", "--path", tight, "--x", "1", "--y", "0", "--w0", "0,20"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["converged"] is False and "error" in payload


class TestCrosssectionCommand:
    def test_single_value(self, capsys):
        code, out = run(
            capsys, "crosssection", "--a", "1,0", "--b", "0,1", "--x", "1", "--y", "0",
            "--eps", "0.7",
        )
        assert code == 0
        assert abs(json.loads(out)["length"] - math.cosh(0.7)) < 1e-12

    def test_grid_sweep(self, capsys):
        code, out = run(
            capsys, "crosssection", "--a", "1,0", "--b", "0,1", "--x", "0", "--y", "1",
            "--eps-grid", "0.5:1.5:3", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "eps,length"
        eps, length = (float(v) for v in lines[2].split(","))
        assert abs(length - math.sinh(eps)) < 1e-12


class TestSchwarzianCommand:
    def test_log_at_i(self, capsys):
        code, out = run(capsys, "schwarzian", "--f", "log", "--z", "0,1")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["sc"][0] + 0.5) < 1e-12
        assert abs(payload["sc"][1]) < 1e-12
        assert abs(payload["norm"] - 0.5) < 1e-12

    def test_depth_over_grid(self, capsys):
        code, out = run(
            capsys, "schwarzian", "--f", "square", "--depth", "--grid=-0.5:0.5:21,0.25:3:40"
        )
        assert code == 0
        assert abs(json.loads(out)["injectivity_depth"] - math.acosh(1.5)) < 1e-6

    def test_grid_rows(self, capsys):
        code, out = run(
            capsys, "schwarzian", "--f", "square", "--grid", "0:1:2,1:2:2", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "z_re,z_im,sc_re,sc_im,norm"
        assert len(lines) == 5
        assert lines[1].split(",")[:2] == ["0.0", "1.0"]
        code, out = run(capsys, "schwarzian", "--f", "square", "--grid", "0:1:2,1:2:2")
        rows = json.loads(out)
        assert code == 0 and out == json.dumps(rows, sort_keys=True) + "\n"
        assert [(r["z_re"], r["z_im"]) for r in rows] == [(0.0, 1.0), (0.0, 2.0), (1.0, 1.0), (1.0, 2.0)]
        for r in rows:
            sc = -1.5 / complex(r["z_re"], r["z_im"]) ** 2
            assert abs(complex(r["sc_re"], r["sc_im"]) - sc) < 1e-15
            assert abs(r["norm"] - r["z_im"] ** 2 * abs(sc)) < 1e-15

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_grid_error_leaves_stdout_empty(self, capsys, fmt):
        # z -> z^0 is constant: every grid point is critical
        code, out = run(capsys, "schwarzian", "--f", "power:0", "--grid", "0:1:2,1:2:2", "--format", fmt)
        assert code == 2 and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["schwarzian", "--f", "mobius:1,0,0,0,-1,0,0,1", "--z", "0,1"],
        ["schwarzian", "--f", "mobius:1,0,0,0,-1,0,0,1", "--depth", "--grid=-1:1:3,0.5:1.5:3"],
        ["theta-check", "--f", "mobius:1,0,0,0,-1,0,0,1", "--point", "0,0.6,0.8"],
    ],
    ids=["schwarzian-z", "schwarzian-depth", "theta-check-foot"],
)
def test_pole_of_mobius_map_exits_2(capsys, argv):
    # z -> z / (i - z): the pole i is the point, a grid point, or the foot of the point
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["holonomy", "--a", "1,0", "--b", "0,1", "--m", "1000", "--n", "0"],
        ["crosssection", "--a", "1,0", "--b", "0,1", "--x", "1", "--y", "0", "--eps", "1000"],
        ["fill", "--a", "1e-310,1e-310", "--b", "0,1"],
    ],
    ids=["holonomy-exp", "crosssection-cosh", "fill-coordinates"],
)
def test_overflow_exits_2(capsys, argv):
    # e^1000, cosh(1000) and 2*pi*i/a overflow: a usage error, not a failed solve
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ["schwarzian", "--f", "power:1e308", "--z", "0,1"],
        ["schwarzian", "--f", "power:1e308", "--z", "1,1"],
        ["schwarzian", "--f", "power:1e308", "--grid=-1:1:3,0.5:1.5:3", "--format", "csv"],
        ["schwarzian", "--f", "power:1e308", "--depth", "--grid=0:0:1,1:1:1"],
        ["theta-check", "--f", "power:1e308", "--point=-1,0.6,0.8"],
    ],
    ids=["z-nan", "z-jet-overflow", "grid", "depth", "theta-check-jet"],
)
def test_non_finite_schwarzian_exits_2(capsys, argv):
    # the Schwarzian of z -> z^(1e308) is NaN at z = i and overflows elsewhere
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Schwarzian" in captured.err and "not finite" in captured.err


class TestThetaCheckCommand:
    def test_square_report(self, capsys):
        code, out = run(
            capsys, "theta-check", "--f", "square", "--point", "0,0.96402758,0.26580222",
            "--h", "1e-4",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["measured"]) == 3
        assert len(payload["predicted"]) == 3
        assert abs(payload["depth"] - 2.0) < 1e-6

    def test_mobius_identity_values(self, capsys):
        code, out = run(
            capsys, "theta-check", "--f", "mobius:2,0,1,0,1,0,1,0",
            "--point", "0.3,0.7,0.5", "--h", "1e-4",
        )
        assert code == 0
        payload = json.loads(out)
        assert max(abs(v - 1.0) for v in payload["measured"]) < 1e-8


class TestCocycleCommand:
    def test_dimensions_and_values(self, capsys, tmp_path):
        ea = math.exp(0.5)
        rep_payload = {
            "generators": [
                [[ea, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0 / ea, 0.0]],
                [[math.cos(0.5), math.sin(0.5)], [0.0, 0.0], [0.0, 0.0], [math.cos(0.5), -math.sin(0.5)]],
            ],
            "relators": [[1, 2, -1, -2]],
        }
        rep_file = tmp_path / "rep.json"
        rep_file.write_text(json.dumps(rep_payload))
        values_payload = {
            "values": [
                [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]],
                [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
            ]
        }
        val_file = tmp_path / "values.json"
        val_file.write_text(json.dumps(values_payload))
        code, out = run(capsys, "cocycle", "--rep", str(rep_file), "--values", str(val_file))
        assert code == 0
        payload = json.loads(out)
        assert (payload["dim_z1"], payload["dim_b1"], payload["dim_h1"]) == (4, 2, 2)
        assert payload["is_cocycle"] is True

    def test_bad_file_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "nope.json"
        code, _ = run(capsys, "cocycle", "--rep", str(missing))
        assert code == 2

    REP = {"generators": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]], "relators": []}
    VALUES = {"values": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]]]}

    @pytest.mark.parametrize(
        "rep, values, what",
        [
            (REP, {"values": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}, "cocycle values"),
            (REP, {"values": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]]}, "cocycle values"),
            (REP, {"values": [[[None, 0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}, "cocycle values"),
            (REP, {"values": [[[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}, "cocycle values"),
            ({"generators": [[[None, 0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]}, VALUES, "representation"),
        ],
        ids=["values-3-entries", "values-5-entries", "values-null", "values-trace", "rep-null"],
    )
    def test_malformed_input_exits_2(self, capsys, tmp_path, rep, values, what):
        rep_file, val_file = tmp_path / "rep.json", tmp_path / "values.json"
        rep_file.write_text(json.dumps(rep))
        val_file.write_text(json.dumps(values))
        assert main(["cocycle", "--rep", str(rep_file), "--values", str(val_file)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: cannot load {what}")

    @pytest.mark.parametrize("tol, code", [("-1", 2), ("nan", 2), ("0", 0)])
    def test_tolerance_below_zero_exits_2(self, capsys, tmp_path, tol, code):
        rep_file, val_file = tmp_path / "rep.json", tmp_path / "values.json"
        rep_file.write_text(json.dumps(self.REP))
        val_file.write_text(json.dumps({"values": [[[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]]}))
        assert main(["cocycle", "--rep", str(rep_file), "--values", str(val_file), f"--tol={tol}"]) == code
        captured = capsys.readouterr()
        if code == 2:
            assert captured.out == "" and captured.err.startswith("error: ")
        else:
            assert json.loads(captured.out)["is_cocycle"] is True

    def test_coboundary_v_prints_the_matrix_entries(self, capsys, tmp_path):
        # g = diag(e^(1/2), e^(-1/2)) and z(g) = v - g v g^-1 for v = [[0, 1], [0, 0]]
        ea = math.exp(0.5)
        rep = {"generators": [[[ea, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0 / ea, 0.0]]], "relators": []}
        values = {"values": [[[0.0, 0.0], [1.0 - ea * ea, 0.0], [0.0, 0.0], [0.0, 0.0]]]}
        rep_file, val_file = tmp_path / "rep.json", tmp_path / "values.json"
        rep_file.write_text(json.dumps(rep))
        val_file.write_text(json.dumps(values))
        code, out = run(capsys, "cocycle", "--rep", str(rep_file), "--values", str(val_file))
        assert code == 0
        v = json.loads(out)["coboundary_v"]
        assert len(v) == 4 and v[3] == [-v[0][0], -v[0][1]]
        assert max(abs(x - y) for entry, want in zip(v, ([0, 0], [1, 0], [0, 0], [0, 0])) for x, y in zip(entry, want)) < 1e-12


class TestBilipschitzCommand:
    def test_reflexive_value(self, capsys):
        code, out = run(
            capsys, "bilipschitz", "--a1", "0.5,0.5", "--b1", "0,1", "--a2", "0.5,0.5",
            "--b2", "0,1", "--region", "0:1,0:1,1:2", "--samples", "64", "--seed", "3",
        )
        assert code == 0
        assert json.loads(out)["khat"] == 1.0


class TestConfig:
    def test_config_controls_output_format(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"output": "csv", "seed": 5}))
        code, out = run(
            capsys, "--config", str(cfg), "sequence", "--b", "0,1", "--p", "1", "--q", "0",
            "--n", "1..2",
        )
        assert code == 0
        assert out.splitlines()[0] == "n,a_re,a_im,cusp_residual"
        # a flag wins over the config file
        code, out = run(
            capsys, "--config", str(cfg), "sequence", "--b", "0,1", "--p", "1", "--q", "0",
            "--n", "1..2", "--format", "json",
        )
        assert code == 0 and len(json.loads(out)) == 2
        bilip = ["bilipschitz", "--a1", "0.1,0.6", "--b1", "0,1", "--a2", "0,0", "--b2", "0,1",
                 "--region", "0:1,0:1,1:2", "--samples", "64"]
        _, from_file = run(capsys, "--config", str(cfg), *bilip)
        _, from_flag = run(capsys, *bilip, "--seed", "5")
        _, flag_over_file = run(capsys, "--config", str(cfg), *bilip, "--seed", "0")
        _, default = run(capsys, *bilip)
        assert from_file == from_flag != default
        assert flag_over_file == default

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["solve", "--path", TestSolveCommand.PATH, "--x", "1", "--y", "1", "--w0", "0,3", "--tol", "0"],
             "newton_tol must be positive"),
            (["solve", "--path", TestSolveCommand.PATH, "--x", "1", "--y", "1", "--w0", "0,3", "--max-iter", "0"],
             "newton_max_iter must be >= 1"),
            (["theta-check", "--f", "square", "--point", "0.3,0.7,0.5", "--h", "0"],
             "fd_step must be positive"),
            (["fill", "--a", "1,1", "--b", "0,1", "--classify", "--tol", "nan"], "rational_tol must be positive"),
            (["solve", "--path", TestSolveCommand.PATH, "--x", "1", "--y", "1", "--w0", "0,3", "--tol", "inf"],
             "newton_tol must be positive and finite"),
            (["bilipschitz", "--a1", "0.1,0.6", "--b1", "0,1", "--a2", "0,0", "--b2", "0,1",
              "--region", "0:1,0:1,1:2", "--samples", "8", "--chart", "bogus"], "chart must be"),
            (["sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..3", "--format", "xml"],
             "output must be"),
        ],
        ids=["solve-tol", "solve-max-iter", "theta-check-h", "fill-tol-nan", "solve-tol-inf",
             "bilipschitz-chart", "sequence-format"],
    )
    def test_out_of_range_flag_exits_2_naming_field(self, capsys, argv, field):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and field in captured.err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..1000001"], "--n"),
            (["crosssection", "--a", "1,0", "--b", "0,1", "--x", "1", "--y", "0", "--eps-grid", "0.1:1:1000001"],
             "--eps-grid"),
            (["schwarzian", "--f", "square", "--grid=0:1:1000001,1:2:1", "--format", "csv"], "--grid"),
            (["schwarzian", "--f", "square", "--depth", "--grid=0:1:1,1:2:1000001"], "--grid"),
        ],
        ids=["sequence-n", "crosssection-eps-grid", "schwarzian-grid", "schwarzian-depth"],
    )
    def test_oversized_request_exits_2_naming_flag(self, capsys, argv, flag):
        # one value past the cap, refused before any list of that size is built
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{flag} asks for 1000001 values" in captured.err

    def test_huge_grid_is_refused_before_allocation(self, capsys):
        # the two axes alone would take 72.8 TiB
        assert main(["schwarzian", "--f", "square", "--depth", "--grid=0:1:10000000000000,1:2:2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--grid asks for 20000000000000 values" in captured.err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tolerances": {}}))
        code, _ = run(
            capsys, "--config", str(cfg), "fill", "--a", "0,0", "--b", "0,1"
        )
        assert code == 2

    @pytest.mark.parametrize(
        "data",
        [{"output": "xml"}, {"classify_tol": "1e-9"}, {"newton_max_iter": 2.5}, {"newton_max_iter": True}],
        ids=["output-xml", "classify-tol-str", "max-iter-float", "max-iter-bool"],
    )
    def test_bad_config_value_exits_2(self, capsys, tmp_path, data):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["--config", str(cfg), "fill", "--a", "0,0", "--b", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {next(iter(data))} must be" in captured.err


# Runs one command in a fresh interpreter; reports its exit code and whether numpy was imported.
_FRESH_CHILD = """
import json, sys
from dehnscope.cli import main
code = main(json.loads(sys.argv[1]))
sys.stderr.write(json.dumps({"code": code, "numpy": "numpy" in sys.modules}) + "\\n")
"""


def _fresh_run(*args):
    path = os.pathsep.join(filter(None, [str(Path(dehnscope.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stderr.splitlines()[-1])


class TestNumpyOnlyForArrays:
    """Commands that compute on numbers never import numpy."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["holonomy", "--a", "0,3.14159265358979", "--b", "0,1", "--m", "1", "--n", "0"],
            ["fill", "--a", "0,6.28318530717959", "--b", "0,1", "--classify"],
            ["sequence", "--b", "0,1", "--p", "1", "--q", "0", "--n", "1..10", "--format", "csv"],
            ["solve", "--path", TestSolveCommand.PATH, "--x", "1", "--y", "1", "--w0", "0,3"],
            ["crosssection", "--a", "1,0", "--b", "0,1", "--x", "1", "--y", "0", "--eps", "0.7"],
            ["schwarzian", "--f", "identity", "--z", "0,1"],
            ["schwarzian", "--f", "square", "--z", "0.5,1"],
            ["schwarzian", "--f", "log", "--z", "0,1"],
            ["schwarzian", "--f", "power:1.7,0.2", "--z", "0.5,1"],
            ["schwarzian", "--f", "mobius:2,0,1,0,1,0,1,0", "--z", "0.5,1"],
        ],
        ids=["holonomy", "fill", "sequence", "solve", "crosssection-eps", "schwarzian-identity",
             "schwarzian-square", "schwarzian-log", "schwarzian-power", "schwarzian-mobius"],
    )
    def test_number_command_runs_without_numpy(self, argv):
        assert _fresh_run("-c", _FRESH_CHILD, json.dumps(argv)) == {"code": 0, "numpy": False}

    def test_array_command_imports_numpy(self):
        # the control: the same probe sees numpy once a command builds arrays
        argv = ["bilipschitz", "--a1", "0.1,0.6", "--b1", "0,1", "--a2", "0,0", "--b2", "0,1",
                "--region", "0:1,0:1,1:2", "--samples", "8"]
        assert _fresh_run("-c", _FRESH_CHILD, json.dumps(argv)) == {"code": 0, "numpy": True}

    def test_importing_the_package_does_not_import_numpy(self):
        probe = 'import json, sys, dehnscope; sys.stderr.write(json.dumps({"numpy": "numpy" in sys.modules}))'
        assert _fresh_run("-c", probe) == {"numpy": False}
