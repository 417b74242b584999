"""Tests of the benchmark itself.

A smoke run at tiny sizes must print every named metric with its unit, and
each output check must fire on deliberately corrupted output::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import statistics
import subprocess
import sys

import pytest

import run as bench

bench.import_package()

import checks  # noqa: E402
import workloads  # noqa: E402
from mzpair import bell, explore  # noqa: E402
from mzpair.state import BeamSplitterParams  # noqa: E402
from spans import Tracer  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def tiny(name, tmp_path, monkeypatch):
    if name == "optimize-default":
        grid = explore.SweepGrid(0.05, 0.95, 12, 0.0, 2.0 * math.pi, 12)
        monkeypatch.setattr(explore, "DEFAULT_GRID", grid)
        return workloads.OptimizeDefault(1, str(tmp_path))
    if name == "sweep-grid":
        return workloads.SweepGrid(1, str(tmp_path), r_steps=4, phi_steps=5)
    return workloads.BellPoints(1, str(tmp_path), n_points=24)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_prints_every_metric(name, trace, tmp_path, monkeypatch):
    result = bench.run(tiny(name, tmp_path, monkeypatch), 0.0, trace, setup_repeats=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        key: metric["unit"] for key, metric in result["metrics"].items()
    }
    if not trace:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_traced_self_times_account_for_the_wall(tmp_path, monkeypatch):
    result = bench.run(tiny("bell-points", tmp_path, monkeypatch), 0.0, True, setup_repeats=1)
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert metrics["simplex.solve_phase1.calls"] == 24
    assert metrics["experiments.pipelines_per_point"] == 4.0
    assert 0.0 <= metrics["trace.remainder_s"] < metrics["trace.wall_s"]
    assert metrics["explore.scan_points"] == 0


def test_traced_optimize_splits_scan_and_refinement(tmp_path, monkeypatch):
    result = bench.run(tiny("optimize-default", tmp_path, monkeypatch), 0.0, True, setup_repeats=1)
    metrics = {key: metric["value"] for key, metric in result["metrics"].items()}
    assert metrics["explore.scan_points"] == 12 * 12
    assert metrics["explore.refine_points"] > 0
    assert metrics["experiments.run_pair.calls"] == 4 * (12 * 12 + metrics["explore.refine_points"])
    assert metrics["simplex.solve_phase1.calls"] == 0


def test_tracer_counts_calls_and_restores_every_name():
    import mzpair

    modules = [m for n, m in sys.modules.items() if n == "mzpair" or n.startswith("mzpair.")]
    before = [dict(vars(m)) for m in modules]
    from_tables = vars(bell.BehaviorTable)["from_tables"]
    tracer = Tracer()
    with tracer.installed():
        assert explore.violation_at is not before[modules.index(explore)]["violation_at"]
        explore.violation_at(0.58, math.pi)
        bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.5), 1.0)
    assert [dict(vars(m)) for m in modules] == before
    assert vars(bell.BehaviorTable)["from_tables"] is from_tables
    assert mzpair.run_pair is before[modules.index(mzpair)]["run_pair"]
    assert tracer.stats["explore.violation_at"][0] == 1
    assert tracer.stats["experiments.run_pair"][0] == 8
    assert tracer.stats["state.measure"][0] == 8
    assert tracer.stats["bell.from_tables"][0] == 1
    assert tracer.missing == []


def test_inputs_come_from_the_seed_only(tmp_path):
    a = workloads.BellPoints(5, str(tmp_path)).points
    assert a == workloads.BellPoints(5, str(tmp_path)).points
    assert a != workloads.BellPoints(6, str(tmp_path)).points
    assert workloads.SweepGrid(5, "x").argv == workloads.SweepGrid(5, "x").argv
    assert workloads.SweepGrid(5, "x").argv != workloads.SweepGrid(6, "x").argv


def test_percentile_matches_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    cuts = statistics.quantiles(values, n=20, method="inclusive")
    assert bench.percentile(values, 0.95) == pytest.approx(cuts[18])
    assert bench.percentile(values, 0.5) == statistics.median(values)
    assert bench.percentile([7.0], 0.95) == 7.0


# --- each check fires on corrupted output -------------------------------


def _swept(tmp_path):
    workload = workloads.SweepGrid(2, str(tmp_path), r_steps=3, phi_steps=4)
    done = workload.run_pass()
    assert done.failed == 0, done.errors
    with open(workload.path, encoding="utf-8", newline="") as handle:
        return workload, handle.read()


def _csv_errors(workload, text):
    return checks.check_sweep_csv(
        text.splitlines(keepends=True), workload.r_values, workload.phi_values
    )


def test_sweep_check_fires_on_a_flipped_digit(tmp_path):
    workload, text = _swept(tmp_path)
    assert _csv_errors(workload, text) == []
    lines = text.splitlines(keepends=True)
    fields = lines[2].split(",")
    digit = fields[2][2]  # third character of p_u1u2, e.g. "6.25e-06" or "0.0123"
    fields[2] = fields[2][:2] + ("1" if digit != "1" else "2") + fields[2][3:]
    lines[2] = ",".join(fields)
    assert any("p_u1u2" in e for e in _csv_errors(workload, "".join(lines)))


def test_sweep_check_fires_on_layout(tmp_path):
    workload, text = _swept(tmp_path)
    assert _csv_errors(workload, text.replace("\n", "\r\n"))
    assert _csv_errors(workload, text.replace("p_c1c2", "p_c1_c2", 1))
    assert _csv_errors(workload, text.rsplit("\n", 2)[0] + "\n")  # last row dropped


def test_byte_stability_fires_on_changed_bytes(tmp_path):
    workload, _ = _swept(tmp_path)
    workload._first_digest = "0" * 64
    assert "csv bytes differ from the first pass" in workload.run_pass().errors
    workload._first_stdout = "{}"
    assert "stdout differs from the first pass" in workload.run_pass().errors


def test_optimize_check_fires_off_target():
    good = {
        "outputs": {
            "r_star": 0.583090160044,
            "phi_star": 3.14159265712,
            "violation_star": 0.0990105601877,
            "iterations": 40197,
            "at_boundary": False,
        }
    }
    assert checks.check_optimize_stdout(json.dumps(good)) == []
    for key, value in (
        ("r_star", 0.58329),
        ("phi_star", math.pi + 2e-6),
        ("violation_star", 0.0992),
        ("at_boundary", True),
    ):
        bad = {"outputs": dict(good["outputs"], **{key: value})}
        assert checks.check_optimize_stdout(json.dumps(bad)), key
    assert checks.check_optimize_stdout("not json")


def _bell_point(r, phi):
    behavior = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
    report = bell.bell_violation(behavior, check_lhv=False)
    membership = bell.lhv_membership(behavior)
    A, b = bell.membership_system(behavior)
    assert checks.check_bell_point(r, phi, report, membership, A, b) == []
    return report, membership, A, b


def test_bell_check_fires_on_a_flipped_certificate():
    r, phi = 0.58309, math.pi
    report, membership, A, b = _bell_point(r, phi)
    assert not membership.feasible and report.violation > 0.09
    flipped = dataclasses.replace(membership, certificate=tuple(-y for y in membership.certificate))
    errors = checks.check_bell_point(r, phi, report, flipped, A, b)
    assert any("y.b" in e for e in errors)
    claimed = dataclasses.replace(membership, feasible=True, weights=(1.0,) + (0.0,) * 35)
    errors = checks.check_bell_point(r, phi, report, claimed, A, b)
    assert any("feasible verdict" in e for e in errors)


def test_bell_check_fires_on_bad_weights_and_terms():
    r, phi = 0.3, 0.4
    report, membership, A, b = _bell_point(r, phi)
    assert membership.feasible
    weights = list(membership.weights)
    weights[weights.index(max(weights))] -= 1e-6
    bad = dataclasses.replace(membership, weights=tuple(weights))
    assert any("residual" in e for e in checks.check_bell_point(r, phi, report, bad, A, b))
    for field in ("p_u1u2", "p_u1_notc2", "p_c1c2", "violation"):
        shifted = dataclasses.replace(report, **{field: getattr(report, field) + 1e-9})
        assert checks.check_bell_point(r, phi, shifted, membership, A, b), field


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bell-points", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert proc.stdout == ""
