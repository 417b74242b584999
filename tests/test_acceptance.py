"""Acceptance gate: the package's headline numbers, one pass/fail line each.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; each test
checks both the value and its runtime budget.
"""

import math
import random
import time

from closed_forms import splitter_amplitudes
from test_oracle_equivalence import compare_on_plans

from mzpair.bell import (
    behavior_from_phase_setup,
    bell_violation,
    enumerate_deterministic_strategies,
    hardy_constants,
    lhv_membership,
)
from mzpair.experiments import (
    SETTINGS,
    PairBatch,
    ev_retest_efficiency,
    run_ev,
    run_pair,
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
    bs = BeamSplitterParams(**splitter_amplitudes(0.5))
    dist = run_pair(PairBatch.of(bs, annihilate=True))
    placements = [(False, False), (True, True), (False, True), (True, False)]
    plain, paired, minus_only, plus_only = (dist.row(SETTINGS.index(p)) for p in placements)
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
    bs = BeamSplitterParams(**splitter_amplitudes((2.0 - math.sqrt(2.0)) / 2.0))
    dist = run_pair(PairBatch.of(bs, phi=math.pi))
    dark, loud = dist.row(SETTINGS.index((False, False))), dist.row(SETTINGS.index((True, True)))
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
            dist = run_pair(PairBatch.of(bs, phi=phi))
            one = dist.row(SETTINGS.index((True, False)))
            two = dist.row(SETTINGS.index((False, True)))
            worst = max(worst, one.prob(("U", "D")), two.prob(("D", "U")))
    elapsed = time.perf_counter() - start
    _report(
        "middle terms vanish",
        worst < 1e-12 and elapsed < 4.0,
        f"worst term {worst:.3e} on 50x50, {elapsed:.2f}s",
    )


def closed_form_optimum():
    """``(r*, v*)``: the violation peaks at phi = pi, where p_u1u2 = x^2 and
    p_c1c2 = (-2x^2 + 4x - 1)^2 with x = r^2; their difference has the
    derivative -2 (8x^3 - 24x^2 + 19x - 4), whose root in (1/4, 1/2) is x*."""
    lo, hi = 0.25, 0.5  # the cubic rises from -0.625 to 0.5 between them
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if 8.0 * mid**3 - 24.0 * mid**2 + 19.0 * mid - 4.0 < 0.0:
            lo = mid
        else:
            hi = mid
    x = 0.5 * (lo + hi)
    return math.sqrt(x), x * x - (-2.0 * x * x + 4.0 * x - 1.0) ** 2


def test_05_violation_optimum():
    # Bounds: refinement stops once its box half-width is within refine_tol
    # = 1e-8, and near the peak (d2v/dr2 = -14.8, d2v/dphi2 = -0.49) the
    # ~1e-16 rounding of v leaves r undetermined over ~4e-9 and phi over
    # ~2e-8; so r within 5e-8 and phi within 1e-7.  A point at both limits
    # falls 14.8/2 * (5e-8)**2 + 0.49/2 * (1e-7)**2 = 2.1e-14 below v*; no
    # simulated v may exceed v* beyond rounding.
    r_star, v_star = closed_form_optimum()  # 0.583090158789221, 0.0990105601877365
    start = time.perf_counter()
    opt = find_max_violation()
    elapsed = time.perf_counter() - start
    dr, dphi, dv = opt.r_star - r_star, opt.phi_star - math.pi, opt.violation_star - v_star
    ok = -3e-14 <= dv <= 1e-15 and abs(dr) <= 5e-8 and abs(dphi) <= 1e-7 and elapsed < 1.0
    _report(
        "violation optimum",
        ok,
        f"v {opt.violation_star:.6f} at r {opt.r_star:.6f}, phi {opt.phi_star:.8f}; "
        f"dv {dv:.1e}, dr {dr:.1e}, dphi {dphi:.1e} from the closed form, {elapsed:.2f}s",
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
