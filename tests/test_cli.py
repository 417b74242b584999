"""End-to-end command line tests: exit codes, golden bytes, schemas."""

import hashlib
import json
import math
import time
import tracemalloc

import pytest

from mzpair import explore
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

GOLDEN_ANNIHILATION = """\
{
  "schema_version": "1",
  "command": "annihilation",
  "inputs": {
    "r": 0.5,
    "place_u_plus": true,
    "place_u_minus": true
  },
  "outputs": {
    "joint": {
      "p_uplus_uminus": 0.0,
      "p_uplus_cminus": 0.140625,
      "p_uplus_dminus": 0.046875,
      "p_cplus_uminus": 0.140625,
      "p_cplus_cminus": 0.31640625,
      "p_cplus_dminus": 0.10546875,
      "p_dplus_uminus": 0.046875,
      "p_dplus_cminus": 0.10546875,
      "p_dplus_dminus": 0.03515625,
      "p_gamma": 0.0625
    },
    "marginals": {
      "p_uplus": 0.1875,
      "p_cplus": 0.5625,
      "p_dplus": 0.1875,
      "p_uminus": 0.1875,
      "p_cminus": 0.5625,
      "p_dminus": 0.1875
    }
  }
}
"""

# The fixed-phase search behind gravity: one phase pins r to the upper
# edge, the other (phi near pi) lands on an interior optimum.
GOLDEN_GRAVITY = """\
{
  "schema_version": "1",
  "command": "gravity",
  "inputs": {
    "mass": 1e-14,
    "length": 0.0001,
    "distance": 1e-06
  },
  "outputs": {
    "phi": 0.00632891937032,
    "best_r": 0.95,
    "violation_at_phi": -0.185493372846,
    "at_boundary": true
  }
}
"""

GOLDEN_GRAVITY_NEAR_PI = """\
{
  "schema_version": "1",
  "command": "gravity",
  "inputs": {
    "mass": 2.23e-13,
    "length": 0.0001,
    "distance": 1e-06
  },
  "outputs": {
    "phi": 3.14730831366,
    "best_r": 0.583090597661,
    "violation_at_phi": 0.0990025284751,
    "at_boundary": false
  }
}
"""

# sha256 of the default-grid sweep CSV, recorded before the amplitude engine
# was batched, and of the default optimize report, recorded with the zoom-grid
# refinement; a changed digest means a changed summation order or refinement
# schedule somewhere, not a new golden.
SWEEP_DEFAULT_SHA256 = "a3ff2fe235aa7f3a193547a5ffa7958ac950b68a491419ddfd6104fb6aa46397"
OPTIMIZE_DEFAULT_SHA256 = "f22ff432083db2cc30d53ce545e3fb61509ec2742dba6832cc26d44e2c694ed0"

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

    def test_annihilation_with_both_detectors(self, capsys):
        argv = ["annihilation", "--r", "0.5", "--place-u-plus", "--place-u-minus"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert out == GOLDEN_ANNIHILATION

    @pytest.mark.parametrize(
        "mass, golden",
        [("1e-14", GOLDEN_GRAVITY), ("2.23e-13", GOLDEN_GRAVITY_NEAR_PI)],
    )
    def test_gravity(self, capsys, mass, golden):
        argv = ["gravity", "--mass", mass, "--length", "1e-4", "--distance", "1e-6"]
        code, out, err = run_cli(capsys, argv)
        assert code == 0 and err == ""
        assert out == golden

    def test_repeat_runs_are_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, ["bell", "--r", "0.4", "--phi", "2.0"])
        _, second, _ = run_cli(capsys, ["bell", "--r", "0.4", "--phi", "2.0"])
        assert first == second

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

    def test_optimum_infeasibility_text(self, capsys):
        # The phase-1 objective over the membership system, normalization row included.
        code, out, _ = run_cli(capsys, ["bell", "--r", "0.5830902", "--phi", PI_TEXT])
        assert code == 0
        assert '\n    "lhv_infeasibility": 0.990105601877,\n' in out

    def test_uncoupled_point_is_local(self, capsys):
        data = run_json(capsys, ["bell", "--r", "0.3", "--phi", "0"])
        assert data["outputs"]["violation"] <= 0.0
        assert data["outputs"]["lhv_feasible"] is True



class TestPhaseResolution:
    """A phase at or beyond 2**25 radians, or a non-finite one, names no phase."""

    SMALL_GRID = ["--r-min", "0.3", "--r-max", "0.5", "--r-steps", "2", "--phi-steps", "2"]

    @pytest.mark.parametrize(
        "flags",
        [
            ["bell", "--r", "0.5", "--phi", "1e300"],
            ["phase", "--r", "0.5", "--phi", "1e300"],
            ["phase", "--r", "0.5", "--phi=-1e300"],
            ["phase", "--r", "0.5", "--phi", str(2.0**25)],
            ["phase", "--r", "0.5", "--phi", "2e9", "--degrees"],
            ["sweep", "--phi-max", "1e300"],
            ["sweep", "--phi-min=-1e300", "--phi-max=0"],
            # a finite computed phase of 6.3e17 radians
            ["gravity", "--mass", "1e-3", "--length", "1", "--distance", "1"],
            ["phase", "--r", "0.5", "--phi", "nan"],
            ["bell", "--r", "0.5", "--phi", "nan"],
            ["sweep", "--phi-min", "nan"],
        ],
    )
    def test_unresolvable_phase_exits_2_without_traceback(self, capsys, tmp_path, flags):
        out_path = tmp_path / "grid.csv"
        argv = flags + ["--out", str(out_path)] if flags[0] == "sweep" else flags
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: phase")
        assert "Traceback" not in err
        assert "array(" not in err
        assert not out_path.exists()

    @pytest.mark.parametrize("phi", ["1e6", "-1e6", repr(math.nextafter(2.0**25, 0.0))])
    def test_large_resolvable_phase_runs(self, capsys, tmp_path, phi):
        for flags in (
            ["bell", "--r", "0.5", f"--phi={phi}"],
            ["phase", "--r", "0.5", f"--phi={phi}"],
        ):
            assert run_json(capsys, flags)["command"] == flags[0]
        low, high = sorted((0.0, float(phi)))
        argv = ["sweep", *self.SMALL_GRID, f"--phi-min={low!r}", f"--phi-max={high!r}"]
        data = run_json(capsys, argv + ["--out", str(tmp_path / "grid.csv")])
        assert data["outputs"]["rows"] == 4


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

    def test_bad_grid_leaves_an_existing_file_alone(self, capsys, tmp_path):
        out_path = tmp_path / "kept.csv"
        out_path.write_bytes(b"earlier contents\n")
        grids = [
            ["--r-min", "0.6", "--r-max", "0.5"],
            # Inside (0, 1), but t rounds to 1 at the first ratio ...
            ["--r-min", "1e-9"],
            # ... or the last computed ratio is exactly 1.0.
            ["--r-min", "0.07826364263456777", "--r-max", "0.9999999999999999", "--r-steps", "325"],
        ]
        for bounds in grids:
            code, out, err = run_cli(capsys, ["sweep", *bounds, "--out", str(out_path)])
            assert code == 2, bounds
            assert out == ""
            assert err.startswith("error: "), err
            assert out_path.read_bytes() == b"earlier contents\n"

    @pytest.mark.parametrize("axis", ["--r-steps", "--phi-steps"])
    def test_steps_above_the_ceiling_exit_2_before_allocating(self, capsys, tmp_path, axis):
        out_path = tmp_path / "grid.csv"
        argv = ["sweep", axis, str(explore.MAX_STEPS + 1), "--out", str(out_path)]
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: need at most {explore.MAX_STEPS} steps per axis")
        assert not out_path.exists()
        # An axis of MAX_STEPS floats alone would take about 32 MB.
        assert peak < 1024 * 1024

    def test_failed_scan_keeps_the_rows_written_so_far(self, capsys, tmp_path, monkeypatch):
        real_run_pair = explore.run_pair

        def leaky_run_pair(batch):
            readout = real_run_pair(batch)
            if batch.bs.r > 0.35:  # from the second r row on
                readout.prob(("U", "D"))[...] += 1e-9  # a view into the readout
            return readout

        monkeypatch.setattr(explore, "run_pair", leaky_run_pair)
        out_path = tmp_path / "grid.csv"
        code, out, err = run_cli(capsys, self.ARGS + ["--out", str(out_path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: middle terms")
        lines = out_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert [line.split(",")[0] for line in lines[1:]] == ["0.3"] * 4

    def test_memory_does_not_grow_with_the_grid(self, capsys, tmp_path):
        def peak(r_steps):
            argv = ["sweep", "--r-steps", str(r_steps), "--phi-steps", "50"]
            tracemalloc.start()
            try:
                code, _, _ = run_cli(capsys, argv + ["--out", str(tmp_path / "grid.csv")])
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                assert code == 0

        peak(3)  # fill the engine's caches first
        assert peak(160) - peak(10) < 64 * 1024


class TestOptimize:
    @staticmethod
    def assert_on_the_optimum(outputs):
        assert abs(outputs["violation_star"] - 0.0990) <= 1e-4
        assert abs(outputs["r_star"] - 0.58309) <= 1e-4
        assert abs(outputs["phi_star"] - math.pi) <= 1e-6
        assert outputs["at_boundary"] is False
        assert outputs["iterations"] > 0

    def test_default_search_hits_the_optimum(self, capsys):
        self.assert_on_the_optimum(run_json(capsys, ["optimize"])["outputs"])

    @pytest.mark.parametrize("tol", ["5e-324", "1e-200"])
    def test_tiny_tolerance_stays_within_budget(self, capsys, tol):
        # refinement rounds grow with log(span / tol), not with 1 / tol
        start = time.perf_counter()
        outputs = run_json(capsys, ["optimize", "--refine-tol", tol])["outputs"]
        assert time.perf_counter() - start < 5.0
        self.assert_on_the_optimum(outputs)

    def test_default_report_is_pinned(self, capsys):
        code, out, err = run_cli(capsys, ["optimize"])
        assert code == 0 and err == ""
        assert json.loads(out)["outputs"]["iterations"] == 40896
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
