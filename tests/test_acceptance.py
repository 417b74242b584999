"""Acceptance gate: the package's headline numbers, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; each test
checks both the value and its runtime budget.
"""

import math
import random
import time

from test_oracle_equivalence import compare_on_plans

from mzpair.bell import (
    behavior_from_phase_setup,
    bell_violation,
    enumerate_deterministic_strategies,
    hardy_constants,
    lhv_membership,
)
from mzpair.experiments import (
    Coupling,
    ExperimentConfig,
    PairBatch,
    ev_retest_efficiency,
    run_ev,
    run_pair,
    run_phase,
)
from mzpair.explore import SweepGrid, find_max_violation
from mzpair.state import BeamSplitterParams


def _report(label, ok, detail):
    print(f"[acceptance] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


def test_01_ev_dark_port():
    start = time.perf_counter()
    rng = random.Random(101)
    worst = 0.0
    for _ in range(50):
        bs = BeamSplitterParams.from_r(rng.uniform(0.01, 0.99))
        quiet = run_ev(bs, bomb_present=False)
        worst = max(worst, abs(quiet.prob("C") - 1.0), quiet.prob("D"))
        armed = run_ev(bs, bomb_present=True)
        worst = max(worst, abs(armed.prob("D") - bs.t * bs.t * bs.r * bs.r))
    elapsed = time.perf_counter() - start
    _report(
        "ev dark port",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst error {worst:.3e}, {elapsed:.2f}s",
    )


def test_02_annihilation_quadruple():
    start = time.perf_counter()
    bs = BeamSplitterParams.balanced()
    coupling = Coupling.annihilation()
    dist = run_pair(
        PairBatch.of(
            ExperimentConfig(bs=bs, coupling=coupling),
            ExperimentConfig(bs=bs, coupling=coupling, u1=True, u2=True),
            ExperimentConfig(bs=bs, coupling=coupling, u2=True),
            ExperimentConfig(bs=bs, coupling=coupling, u1=True),
        )
    )
    plain, paired, minus_only, plus_only = (dist.row(k) for k in range(4))
    worst = max(
        abs(plain.prob(("D", "D")) - 1.0 / 16.0),
        paired.prob(("U", "U")),
        minus_only.prob(("D", "C")) + minus_only.prob(("D", "D")),
        plus_only.prob(("C", "D")) + plus_only.prob(("D", "D")),
    )
    elapsed = time.perf_counter() - start
    _report(
        "annihilation quadruple",
        worst <= 1e-12 and elapsed < 1.0,
        f"worst error {worst:.3e}, {elapsed:.2f}s",
    )


def test_03_tuned_phase_point():
    start = time.perf_counter()
    bs = BeamSplitterParams.from_r_squared((2.0 - math.sqrt(2.0)) / 2.0)
    dist = run_pair(
        PairBatch.of(
            ExperimentConfig(bs=bs, coupling=Coupling.phase(math.pi)),
            ExperimentConfig(bs=bs, coupling=Coupling.phase(math.pi), u1=True, u2=True),
        )
    )
    dark, loud = dist.row(0), dist.row(1)
    p_cc = dark.prob(("C", "C"))
    p_uu = loud.prob(("U", "U"))
    closed_form = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
    ok = p_cc < 1e-12 and abs(p_uu - 0.0857) <= 5e-4 and abs(p_uu - closed_form) <= 1e-12
    elapsed = time.perf_counter() - start
    _report(
        "tuned phase point",
        ok and elapsed < 1.0,
        f"p_cc {p_cc:.3e}, p_uu {p_uu:.10f}, {elapsed:.2f}s",
    )


def test_04_middle_terms_vanish():
    start = time.perf_counter()
    grid = SweepGrid(0.05, 0.95, 50, 0.0, 2.0 * math.pi, 50)
    worst = 0.0
    for r in grid.r_values():
        bs = BeamSplitterParams.from_r(r)
        for phi in grid.phi_values():
            coupling = Coupling.phase(phi)
            one = run_phase(ExperimentConfig(bs=bs, coupling=coupling, u1=True))
            two = run_phase(ExperimentConfig(bs=bs, coupling=coupling, u2=True))
            worst = max(worst, one.prob(("U", "D")), two.prob(("D", "U")))
    elapsed = time.perf_counter() - start
    _report(
        "middle terms vanish",
        worst < 1e-12 and elapsed < 4.0,
        f"worst term {worst:.3e} on 50x50, {elapsed:.2f}s",
    )


def test_05_violation_optimum():
    start = time.perf_counter()
    opt = find_max_violation()
    elapsed = time.perf_counter() - start
    ok = (
        abs(opt.violation_star - 0.0990) <= 1e-4
        and abs(opt.r_star - 0.58309) <= 1e-4
        and abs(opt.phi_star - math.pi) <= 1e-6
        and elapsed < 2.0
    )
    _report(
        "violation optimum",
        ok,
        f"v {opt.violation_star:.6f} at r {opt.r_star:.6f}, phi {opt.phi_star:.8f}, {elapsed:.2f}s",
    )


def test_06_reference_constants():
    consts = hardy_constants()
    tau = (1.0 + math.sqrt(5.0)) / 2.0
    tuned = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
    ok = (
        abs(consts.qubit_max - tau**-5) <= 1e-12
        and abs(consts.qubit_max - 0.0902) <= 1e-4
        and consts.golden_check
        and tuned < consts.qubit_max
    )
    _report(
        "reference constants",
        ok,
        f"qubit max {consts.qubit_max:.10f}, tuned {tuned:.10f}",
    )


def test_07_local_model_suite():
    start = time.perf_counter()
    worst_strategy = max(
        bell_violation(s.behavior(), check_lhv=False).violation
        for s in enumerate_deterministic_strategies()
    )
    mixed = lhv_membership(behavior_from_phase_setup(BeamSplitterParams.from_r(0.5), 0.0))
    quantum = lhv_membership(
        behavior_from_phase_setup(BeamSplitterParams.from_r(0.5830902), math.pi)
    )
    elapsed = time.perf_counter() - start
    ok = (
        worst_strategy <= 1e-12
        and mixed.feasible
        and mixed.residual < 1e-9
        and not quantum.feasible
        and quantum.certificate is not None
        and elapsed < 10.0
    )
    _report(
        "local-model suite",
        ok,
        f"36 strategies max {worst_strategy:.3e}, recombination {mixed.residual:.3e}, "
        f"leftover mass {quantum.infeasibility:.3e}, {elapsed:.2f}s",
    )


def test_08_oracle_equivalence():
    start = time.perf_counter()
    worst_amp, worst_prob, worst_norm = compare_on_plans(1000, 424242)
    elapsed = time.perf_counter() - start
    worst = max(worst_amp, worst_prob, worst_norm)
    _report(
        "oracle equivalence",
        worst <= 1e-12 and elapsed < 10.0,
        f"worst over 1000 pipelines {worst:.3e}, {elapsed:.2f}s",
    )


def test_09_retest_efficiency():
    start = time.perf_counter()
    rng = random.Random(909)
    worst = 0.0
    # The 100-round sum truncates the geometric tail at (t^4)^100, which
    # stays below 1e-12 only for r above ~0.36; hence the sample floor.
    for _ in range(20):
        bs = BeamSplitterParams.from_r(rng.uniform(0.4, 0.99))
        dist = run_ev(bs, bomb_present=True)
        flagged, live = 0.0, 1.0
        for _ in range(100):
            flagged += live * dist.prob("D")
            live *= dist.prob("C")
        worst = max(worst, abs(flagged - ev_retest_efficiency(bs)))
    limit_gap = abs(ev_retest_efficiency(BeamSplitterParams.from_r(0.01)) - 0.5)
    elapsed = time.perf_counter() - start
    _report(
        "retest efficiency",
        worst <= 1e-12 and limit_gap <= 5e-5 and elapsed < 1.0,
        f"worst error {worst:.3e}, limit gap {limit_gap:.3e}, {elapsed:.2f}s",
    )
