"""Tests for sweeps, the refinement search, and dark-port tuning."""

import math
import random

import numpy as np
import pytest

from mzpair import explore
from mzpair.bell import behavior_from_phase_setup, bell_violation
from mzpair.experiments import (
    Coupling,
    ExperimentConfig,
    PairBatch,
    dark_port_coefficient,
    run_pair,
)
from mzpair.explore import (
    DEFAULT_GRID,
    MIDDLE_TERM_TOL,
    SweepGrid,
    check_middle_terms,
    find_dark_port_tuning,
    find_max_violation,
    find_max_violation_at_phi,
    sweep,
    violation_at,
)
from mzpair.state import BeamSplitterParams, PipelineError

ATOL = 1e-12

TUNED_R_SQUARED = (2.0 - math.sqrt(2.0)) / 2.0


def closed_form_violation(r_squared):
    # p(U1,U2) - p(C1,C2) at phi = pi, in terms of x = r^2:
    # x^2 - (x^2 + 2x(1-x) - (1-x)^2)^2 = x^2 - (2x^2 - 4x + 1)^2
    x = np.asarray(r_squared)
    return x * x - (2.0 * x * x - 4.0 * x + 1.0) ** 2


class TestSweepGrid:
    def test_values_are_inclusive_and_even(self):
        grid = SweepGrid(0.1, 0.9, 5, 0.0, 1.0, 3)
        rs = grid.r_values()
        assert len(rs) == 5
        assert rs[0] == 0.1
        assert abs(rs[-1] - 0.9) <= ATOL
        assert all(b - a > 0 for a, b in zip(rs, rs[1:]))
        phis = grid.phi_values()
        assert len(phis) == 3
        assert phis[0] == 0.0
        assert abs(phis[1] - 0.5) <= ATOL

    def test_default_grid(self):
        assert DEFAULT_GRID == SweepGrid(0.05, 0.95, 200, 0.0, 2.0 * math.pi, 200)

    @pytest.mark.parametrize(
        "args",
        [
            (0.0, 0.9, 5, 0.0, 1.0, 3),
            (0.5, 0.4, 5, 0.0, 1.0, 3),
            (0.1, 1.0, 5, 0.0, 1.0, 3),
            (0.1, 0.9, 1, 0.0, 1.0, 3),
            (0.1, 0.9, 5, 1.0, 0.5, 3),
            (0.1, 0.9, 5, 0.0, math.inf, 3),
            (0.1, 0.9, 5, 0.0, 1.0, 1),
        ],
    )
    def test_rejects_bad_bounds(self, args):
        with pytest.raises(ValueError):
            SweepGrid(*args)


class TestSweep:
    GRID = SweepGrid(0.3, 0.7, 4, 0.0, 2.0 * math.pi, 5)

    def test_deterministic(self):
        assert sweep(self.GRID) == sweep(self.GRID)

    def test_row_major_ordering(self):
        cells = sweep(self.GRID)
        assert len(cells) == 20
        rs = self.GRID.r_values()
        phis = self.GRID.phi_values()
        for i, cell in enumerate(cells):
            assert cell.r == rs[i // 5]
            assert cell.phi == phis[i % 5]

    def test_cells_match_closed_forms(self):
        for cell in sweep(self.GRID):
            bs = BeamSplitterParams.from_r(cell.r)
            assert abs(cell.p_u1u2 - cell.r**4) <= ATOL
            assert abs(cell.p_c1c2 - abs(dark_port_coefficient(bs, cell.phi)) ** 2) <= ATOL
            # middle terms are already asserted tiny cell by cell
            assert abs(cell.violation - (cell.p_u1u2 - cell.p_c1c2)) <= 3e-12

    def test_zero_phase_never_violates(self):
        for cell in sweep(self.GRID):
            if cell.phi == 0.0:
                assert cell.violation < 0.0

    def test_violation_at_matches_behavior_route(self):
        # One definition of the inequality: both routes give the same bits.
        def report(r, phi):
            behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
            return bell_violation(behavior, check_lhv=False)

        rng = random.Random(33)
        for _ in range(50):
            r, phi = rng.uniform(0.05, 0.95), rng.uniform(-2.0 * math.pi, 4.0 * math.pi)
            assert violation_at(r, phi) == report(r, phi).violation
        for cell in sweep(self.GRID):
            expected = report(cell.r, cell.phi)
            assert cell.p_u1u2 == expected.p_u1u2
            assert cell.p_c1c2 == expected.p_c1c2
            assert cell.violation == expected.violation


def test_default_grid_argmax_lands_near_the_optimum():
    cells = sweep(DEFAULT_GRID)
    assert len(cells) == 200 * 200
    best = max(cells, key=lambda cell: cell.violation)
    assert abs(best.violation - 0.0990) <= 2e-3
    assert abs(best.r - 0.58309) <= 0.01
    assert abs(best.phi - math.pi) <= 0.05


class TestMiddleTermCheck:
    PHIS = [0.5, 1.5, 2.5]

    def test_vanishing_terms_pass(self):
        zeros = np.zeros(3)
        check_middle_terms(0.4, self.PHIS, zeros, np.full(3, MIDDLE_TERM_TOL))

    @pytest.mark.parametrize("side", [0, 1])
    def test_nonzero_term_names_the_point(self, side):
        terms = [np.zeros(3), np.zeros(3)]
        terms[side][1] = 2.0 * MIDDLE_TERM_TOL
        with pytest.raises(PipelineError, match="r=0.4, phi=1.5"):
            check_middle_terms(0.4, self.PHIS, *terms)

    def test_simulated_terms_go_through_the_check(self, monkeypatch):
        real_run_pair = explore.run_pair

        def leaky_run_pair(batch):
            readout = real_run_pair(batch)
            readout.prob(("U", "D"))[...] += 1e-9  # a view into the table
            return readout

        monkeypatch.setattr(explore, "run_pair", leaky_run_pair)
        with pytest.raises(PipelineError, match="middle terms .* at r=0.5, phi=1.0"):
            violation_at(0.5, 1.0)

    def test_nan_term_fails(self):
        with pytest.raises(PipelineError, match="phi=0.5"):
            check_middle_terms(0.4, self.PHIS, np.array([math.nan, 0.0, 0.0]), np.zeros(3))


class TestFindMaxViolation:
    GRID = SweepGrid(0.40, 0.75, 36, 2.2, 4.2, 41)

    def test_refines_to_the_optimum(self):
        opt = find_max_violation(self.GRID)
        assert abs(opt.violation_star - 0.0990) <= 1e-4
        assert abs(opt.r_star - 0.58309) <= 1e-4
        assert abs(opt.phi_star - math.pi) <= 1e-6
        assert not opt.at_boundary
        assert opt.iterations > 0

    def test_never_below_the_coarse_scan(self):
        opt = find_max_violation(self.GRID)
        coarse_best = max(cell.violation for cell in sweep(self.GRID))
        assert opt.violation_star >= coarse_best - 1e-15

    def test_reported_value_matches_reported_point(self):
        opt = find_max_violation(self.GRID)
        assert abs(opt.violation_star - violation_at(opt.r_star, opt.phi_star)) <= 1e-15

    def test_flags_a_boundary_argmax(self):
        opt = find_max_violation(SweepGrid(0.1, 0.2, 11, 0.5, 1.0, 11))
        assert opt.at_boundary
        assert opt.violation_star < 0.0
        assert 0.1 <= opt.r_star <= 0.2
        assert 0.5 <= opt.phi_star <= 1.0

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 0.5])
    def test_rejects_bad_refine_tol(self, tol):
        with pytest.raises(ValueError, match="refine_tol"):
            find_max_violation(self.GRID, refine_tol=tol)


class TestFixedPhaseRefinement:
    def test_dense_scan_agrees_at_pi(self):
        # independent 1-D argmax at 1e-6 resolution from the closed form
        rs = np.arange(0.55, 0.61, 1e-6)
        values = closed_form_violation(rs * rs)
        r_hat = rs[np.argmax(values)]
        opt = find_max_violation_at_phi(math.pi)
        assert abs(opt.r_star - r_hat) <= 2e-6
        assert abs(opt.violation_star - float(values.max())) <= 1e-9
        assert not opt.at_boundary

    def test_cubic_stationarity_agrees_at_pi(self):
        # d/dx of the closed form vanishes at the root of 8x^3 - 24x^2 + 19x - 4
        roots = np.roots([8.0, -24.0, 19.0, -4.0])
        (x_star,) = [float(x.real) for x in roots if abs(x.imag) < 1e-12 and 0.3 < x.real < 0.4]
        opt = find_max_violation_at_phi(math.pi)
        assert abs(opt.r_star - math.sqrt(x_star)) <= 1e-6
        assert abs(opt.violation_star - float(closed_form_violation(x_star))) <= 1e-9

    def test_small_phase_pins_to_the_upper_edge(self):
        opt = find_max_violation_at_phi(0.05)
        assert opt.at_boundary
        assert opt.r_star >= 0.94
        assert opt.violation_star < 0.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="refine_tol"):
            find_max_violation_at_phi(math.pi, refine_tol=0.0)
        with pytest.raises(ValueError, match="r_min"):
            find_max_violation_at_phi(math.pi, r_min=0.9, r_max=0.2)


class TestDarkPortTuning:
    def test_half_turn_recovers_the_tuned_ratio(self):
        r = find_dark_port_tuning(math.pi)
        assert r is not None
        assert abs(r * r - TUNED_R_SQUARED) <= 1e-10

    def test_tuned_ratio_darkens_the_simulated_port(self):
        r = find_dark_port_tuning(math.pi)
        bs = BeamSplitterParams.from_r(r)
        assert abs(dark_port_coefficient(bs, math.pi)) ** 2 <= ATOL
        config = ExperimentConfig(bs=bs, coupling=Coupling.phase(math.pi))
        dist = run_pair(PairBatch.of(config)).row(0)
        assert dist.prob(("C", "C")) <= ATOL

    def test_odd_half_turns_work_too(self):
        r = find_dark_port_tuning(3.0 * math.pi)
        assert r is not None
        assert abs(r * r - TUNED_R_SQUARED) <= 1e-10

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi / 2.0, math.pi + 0.1])
    def test_untunable_phases_return_none(self, phi):
        assert find_dark_port_tuning(phi) is None
