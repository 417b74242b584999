"""End-to-end command line tests: exit codes, golden bytes, schemas."""

import hashlib
import json
import math

import pytest

from mzpair.cli import CSV_HEADER, _to_json, main

# Frozen byte-for-byte outputs; any serialization change must be deliberate.
GOLDEN_EV = """\
{
  "schema_version": "1",
  "command": "ev",
  "inputs": {
    "r": 0.5,
    "bomb": true
  },
  "outputs": {
    "p_c": 0.5625,
    "p_d": 0.1875,
    "p_exploded": 0.25,
    "retest_efficiency": 0.428571428571
  }
}
"""

GOLDEN_PHASE = """\
{
  "schema_version": "1",
  "command": "phase",
  "inputs": {
    "r": 0.5,
    "phi": 0.0,
    "place_u1": false,
    "place_u2": false
  },
  "outputs": {
    "joint": {
      "p_c1_c2": 1.0,
      "p_c1_d2": 0.0,
      "p_d1_c2": 0.0,
      "p_d1_d2": 0.0
    },
    "marginals": {
      "p_c1": 1.0,
      "p_d1": 0.0,
      "p_c2": 1.0,
      "p_d2": 0.0
    }
  }
}
"""

# sha256 of the default-grid sweep CSV and of the default optimize report,
# recorded before the amplitude engine was batched; a changed digest means a
# changed summation order somewhere, not a new golden.
SWEEP_DEFAULT_SHA256 = "a3ff2fe235aa7f3a193547a5ffa7958ac950b68a491419ddfd6104fb6aa46397"
OPTIMIZE_DEFAULT_SHA256 = "1fcd5d94d7a2ded025a7b3aa2879ff9426362a1f44b1474d43277f3ea6e58dc6"

PI_TEXT = "3.141592653589793"
# sqrt((2 - sqrt(2)) / 2), the ratio that nulls the joint bright port at phi = pi
TUNED_R_TEXT = "0.5411961001461969"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


class TestGoldenOutput:
    def test_ev_with_bomb(self, capsys):
        code, out, err = run_cli(capsys, ["ev", "--r", "0.5", "--bomb"])
        assert code == 0
        assert err == ""
        assert out == GOLDEN_EV

    def test_phase_at_zero(self, capsys):
        code, out, err = run_cli(capsys, ["phase", "--r", "0.5", "--phi", "0"])
        assert code == 0
        assert out == GOLDEN_PHASE

    def test_repeat_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, ["bell", "--r", "0.4", "--phi", "2.0"])
        _, second, _ = run_cli(capsys, ["bell", "--r", "0.4", "--phi", "2.0"])
        assert first == second

    def test_json_flag_is_a_no_op(self, capsys):
        _, plain, _ = run_cli(capsys, ["ev", "--r", "0.5", "--bomb"])
        _, flagged, _ = run_cli(capsys, ["ev", "--r", "0.5", "--bomb", "--json"])
        assert plain == flagged

    def test_output_round_trips_through_json(self, capsys):
        for argv in (
            ["ev", "--r", "0.5", "--bomb"],
            ["phase", "--r", "0.7", "--phi", "1.25", "--place-u1"],
            ["bell", "--r", "0.3", "--phi", "0"],
            ["gravity", "--mass", "1e-14", "--length", "1e-4", "--distance", "1e-6"],
        ):
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            assert _to_json(json.loads(out)) + "\n" == out

    def test_envelope_key_order(self, capsys):
        data = run_json(capsys, ["ev", "--r", "0.25"])
        assert list(data) == ["schema_version", "command", "inputs", "outputs"]
        assert data["schema_version"] == "1"
        assert data["command"] == "ev"


class TestEv:
    def test_near_balanced_flag_rate(self, capsys):
        data = run_json(capsys, ["ev", "--r", "0.7071", "--bomb"])
        assert abs(data["outputs"]["p_d"] - 0.25) <= 1e-4
        assert abs(data["outputs"]["p_exploded"] - 0.5) <= 1e-3

    def test_no_bomb_is_bright(self, capsys):
        data = run_json(capsys, ["ev", "--r", "0.5"])
        assert data["outputs"]["p_c"] == 1.0
        assert data["outputs"]["p_d"] == 0.0
        assert data["outputs"]["p_exploded"] == 0.0

    def test_out_of_range_ratio_exits_2(self, capsys):
        code, out, err = run_cli(capsys, ["ev", "--r", "1.5"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_missing_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["ev"])
        assert excinfo.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["warp"])
        assert excinfo.value.code == 2


class TestAnnihilation:
    def test_joint_dark_rate_near_balanced(self, capsys):
        data = run_json(capsys, ["annihilation", "--r", "0.7071"])
        joint = data["outputs"]["joint"]
        assert abs(joint["p_dplus_dminus"] - 0.0625) <= 1e-4
        assert abs(joint["p_gamma"] - 0.25) <= 1e-3
        assert abs(sum(joint.values()) - 1.0) <= 1e-9

    def test_paired_detectors_stay_silent(self, capsys):
        data = run_json(
            capsys, ["annihilation", "--r", "0.5", "--place-u-plus", "--place-u-minus"]
        )
        joint = data["outputs"]["joint"]
        assert joint["p_uplus_uminus"] == 0.0
        assert abs(sum(joint.values()) - 1.0) <= 1e-9
        assert abs(data["outputs"]["marginals"]["p_uplus"] - 0.1875) <= 1e-9


class TestPhase:
    def test_precisely_tuned_port_is_dark(self, capsys):
        data = run_json(capsys, ["phase", "--r", TUNED_R_TEXT, "--phi", PI_TEXT])
        assert data["outputs"]["joint"]["p_c1_c2"] < 1e-12

    def test_five_decimal_tuning_leaves_residual_light(self, capsys):
        # rounding the tuned ratio to five decimals leaves ~1.4e-10 in the port
        data = run_json(capsys, ["phase", "--r", "0.54120", "--phi", "3.14159265"])
        assert data["outputs"]["joint"]["p_c1_c2"] < 1e-9

    def test_tuned_joint_detector_rate(self, capsys):
        data = run_json(
            capsys,
            ["phase", "--r", "0.54120", "--phi", "3.14159265", "--place-u1", "--place-u2"],
        )
        assert abs(data["outputs"]["joint"]["p_u1_u2"] - 0.0857) <= 5e-4

    def test_degrees_flag_matches_radians(self, capsys):
        _, from_degrees, _ = run_cli(
            capsys, ["phase", "--r", "0.6", "--phi", "180", "--degrees"]
        )
        _, from_radians, _ = run_cli(capsys, ["phase", "--r", "0.6", "--phi", PI_TEXT])
        assert from_degrees == from_radians


class TestBell:
    def test_optimum_report(self, capsys):
        data = run_json(capsys, ["bell", "--r", "0.5830902", "--phi", PI_TEXT])
        outputs = data["outputs"]
        assert list(outputs) == [
            "p_u1_u2",
            "p_u1_not_c2",
            "p_not_c1_u2",
            "p_c1_c2",
            "violation",
            "lhv_feasible",
            "lhv_infeasibility",
            "qubit_paradox_max",
            "golden_identity_ok",
        ]
        assert abs(outputs["violation"] - 0.0990) <= 1e-3
        assert outputs["lhv_feasible"] is False
        assert outputs["lhv_infeasibility"] > 1e-9
        assert abs(outputs["qubit_paradox_max"] - 0.0902) <= 1e-4
        assert outputs["golden_identity_ok"] is True

    def test_uncoupled_point_is_local(self, capsys):
        data = run_json(capsys, ["bell", "--r", "0.3", "--phi", "0"])
        assert data["outputs"]["violation"] <= 0.0
        assert data["outputs"]["lhv_feasible"] is True


class TestSweep:
    ARGS = [
        "sweep",
        "--r-min", "0.3",
        "--r-max", "0.5",
        "--r-steps", "3",
        "--phi-min", "0",
        "--phi-max", PI_TEXT,
        "--phi-steps", "4",
    ]

    def test_csv_layout_and_summary(self, capsys, tmp_path):
        out_path = tmp_path / "grid.csv"
        data = run_json(capsys, self.ARGS + ["--out", str(out_path)])
        raw = out_path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode("utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3 * 4 + 1
        rows = [line.split(",") for line in lines[1:]]
        assert all(len(row) == 5 for row in rows)
        assert rows[0][0] == "0.3"
        parsed = [[float(field) for field in row] for row in rows]
        for row in parsed:
            if row[1] == 0.0:
                assert row[4] < 0.0
        assert data["outputs"]["rows"] == 12
        assert data["outputs"]["out_path"] == str(out_path)
        best = max(row[4] for row in parsed)
        assert abs(data["outputs"]["argmax"]["violation"] - best) <= 1e-9

    def test_deterministic_bytes(self, capsys, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        _, out_a, _ = run_cli(capsys, self.ARGS + ["--out", str(first)])
        _, out_b, _ = run_cli(capsys, self.ARGS + ["--out", str(second)])
        assert first.read_bytes() == second.read_bytes()
        assert out_a.replace(str(first), "X") == out_b.replace(str(second), "X")

    def test_unwritable_path_exits_3(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "grid.csv"
        code, out, err = run_cli(capsys, self.ARGS + ["--out", str(target)])
        assert code == 3
        assert err.startswith("i/o error:")

    def test_default_grid_csv_is_pinned(self, capsys, tmp_path):
        out_path = tmp_path / "default.csv"
        data = run_json(capsys, ["sweep", "--out", str(out_path)])
        raw = out_path.read_bytes()
        assert data["outputs"]["rows"] == 200 * 200
        assert len(raw) == 3_018_750
        assert hashlib.sha256(raw).hexdigest() == SWEEP_DEFAULT_SHA256

    def test_bad_grid_exits_2(self, capsys, tmp_path):
        argv = ["sweep", "--r-min", "0.6", "--r-max", "0.5", "--out", str(tmp_path / "x.csv")]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert err.startswith("error:")


class TestOptimize:
    def test_default_search_hits_the_optimum(self, capsys):
        data = run_json(capsys, ["optimize"])
        outputs = data["outputs"]
        assert abs(outputs["violation_star"] - 0.0990) <= 1e-4
        assert abs(outputs["r_star"] - 0.58309) <= 1e-4
        assert abs(outputs["phi_star"] - math.pi) <= 1e-6
        assert outputs["at_boundary"] is False
        assert outputs["iterations"] > 0

    def test_default_report_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, ["optimize"])
        assert code == 0 and err == ""
        assert json.loads(out)["outputs"]["iterations"] == 40197
        assert hashlib.sha256(out.encode()).hexdigest() == OPTIMIZE_DEFAULT_SHA256

    def test_bad_tolerance_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["optimize", "--refine-tol", "0"])
        assert code == 2
        assert err.startswith("error:")


class TestGravity:
    BASE = ["gravity", "--mass", "1e-14", "--length", "1e-4", "--distance", "1e-6"]

    def test_hand_computed_phase(self, capsys):
        data = run_json(capsys, self.BASE)
        outputs = data["outputs"]
        # G m^2 L / (hbar d) = 6.6743e-43 / 1.054571817e-40
        assert math.isclose(outputs["phi"], 6.3289193703e-3, rel_tol=1e-9)
        assert outputs["at_boundary"] is True
        assert outputs["violation_at_phi"] < 0.0

    def test_doubling_mass_quadruples_phi(self, capsys):
        single = run_json(capsys, self.BASE)
        double = run_json(
            capsys, ["gravity", "--mass", "2e-14", "--length", "1e-4", "--distance", "1e-6"]
        )
        assert math.isclose(double["outputs"]["phi"], 4.0 * single["outputs"]["phi"], rel_tol=1e-9)

    @pytest.mark.parametrize(
        "flags",
        [
            # hbar * distance underflows to 0
            ["--mass", "1e300", "--length", "1e300", "--distance", "1e-300"],
            # the phase overflows to inf
            ["--mass", "1e200", "--length", "1e200", "--distance", "1e-10"],
        ],
    )
    def test_extreme_floats_exit_2_without_traceback(self, capsys, flags):
        code, out, err = run_cli(capsys, ["gravity"] + flags)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("mass", ["--mass=0", "--mass=-1e-14"])
    def test_nonpositive_mass_exits_2(self, capsys, mass):
        code, _, err = run_cli(
            capsys, ["gravity", mass, "--length", "1e-4", "--distance", "1e-6"]
        )
        assert code == 2
        assert err.startswith("error:")
