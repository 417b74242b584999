"""Tests for sweeps, the refinement search, and dark-port tuning."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from closed_forms import dark_port_coefficient, dark_port_tuning

from mzpair import explore
from mzpair.bell import behavior_from_phase_setup, bell_violation
from mzpair.experiments import SETTINGS, PairBatch, run_pair
from mzpair.explore import (
    DEFAULT_GRID,
    MAX_STEPS,
    MIDDLE_TERM_TOL,
    SweepGrid,
    check_middle_terms,
    find_max_violation,
    find_max_violation_at_phi,
    first_max,
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


def sweep_cells(grid):
    """Every cell of ``sweep(grid)`` as ``(r, phi, p_u1u2, p_c1c2, violation)``, row-major."""
    return [
        (r, phi, *values)
        for r, phis, p1, p4, v in sweep(grid)
        for phi, *values in zip(phis, p1.tolist(), p4.tolist(), v.tolist())
    ]


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
        assert grid.r_values(1, 3) == rs[1:3]
        assert grid.r_values(3, 99) == rs[3:]

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
            (0.1, 0.9, MAX_STEPS + 1, 0.0, 1.0, 3),
            (0.1, 0.9, 5, 0.0, 1.0, MAX_STEPS + 1),
            # Bounds inside (0, 1) whose end ratios are no splitter: t rounds
            # to 1 at r = 1e-9, and the last computed ratio is exactly 1.0.
            (1e-9, 0.9, 5, 0.0, 1.0, 3),
            (0.07826364263456777, 0.9999999999999999, 325, 0.0, 1.0, 3),
        ],
    )
    def test_rejects_bad_bounds(self, args):
        with pytest.raises(ValueError):
            SweepGrid(*args)


class TestSweep:
    GRID = SweepGrid(0.3, 0.7, 4, 0.0, 2.0 * math.pi, 5)

    def test_deterministic(self):
        first, second = list(sweep(self.GRID)), list(sweep(self.GRID))
        assert len(first) == len(second) == 4
        for a, b in zip(first, second):
            assert a[:2] == b[:2]
            assert all(x.tobytes() == y.tobytes() for x, y in zip(a[2:], b[2:]))

    def test_row_major_ordering(self):
        cells = sweep_cells(self.GRID)
        assert len(cells) == 20
        rs = self.GRID.r_values()
        phis = self.GRID.phi_values()
        for i, (r, phi, *_) in enumerate(cells):
            assert r == rs[i // 5]
            assert phi == phis[i % 5]

    @pytest.mark.parametrize("steps", [(2, MAX_STEPS), (MAX_STEPS, 2)])
    def test_first_blocks_at_the_step_ceiling_take_little_memory(self, steps):
        grid = SweepGrid(0.1, 0.9, steps[0], 0.0, 1.0, steps[1])
        tracemalloc.start()
        try:
            blocks = list(itertools.islice(sweep(grid), 3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = explore.SCAN_BLOCK
        if steps[1] == MAX_STEPS:
            expected = [grid.phi_values(i, i + n) for i in (0, n, 2 * n)]
            assert [block[1] for block in blocks] == expected
        else:
            assert [block[0] for block in blocks] == grid.r_values(0, 3)
        # A whole axis of MAX_STEPS floats alone would take about 32 MB.
        assert peak < 2 * 1024 * 1024

    def test_cells_match_closed_forms(self):
        for r, phi, p_u1u2, p_c1c2, violation in sweep_cells(self.GRID):
            bs = BeamSplitterParams.from_r(r)
            assert abs(p_u1u2 - r**4) <= ATOL
            assert abs(p_c1c2 - abs(dark_port_coefficient(bs.r, bs.t, phi)) ** 2) <= ATOL
            # middle terms are already asserted tiny cell by cell
            assert abs(violation - (p_u1u2 - p_c1c2)) <= 3e-12

    def test_zero_phase_never_violates(self):
        for _, phi, _, _, violation in sweep_cells(self.GRID):
            if phi == 0.0:
                assert violation < 0.0

    def test_violation_at_matches_behavior_route(self):
        # One definition of the inequality: both routes give the same bits.
        def report(r, phi):
            behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
            return bell_violation(behavior, check_lhv=False)

        rng = random.Random(33)
        for _ in range(50):
            r, phi = rng.uniform(0.05, 0.95), rng.uniform(-2.0 * math.pi, 4.0 * math.pi)
            assert violation_at(r, phi) == report(r, phi).violation
        for r, phi, p_u1u2, p_c1c2, violation in sweep_cells(self.GRID):
            expected = report(r, phi)
            assert p_u1u2 == expected.p_u1u2
            assert p_c1c2 == expected.p_c1c2
            assert violation == expected.violation


def test_default_grid_argmax_lands_near_the_optimum():
    count, (r, phi, _, _, violation) = first_max(sweep(DEFAULT_GRID))
    assert count == 200 * 200
    assert abs(violation - 0.0990) <= 2e-3
    assert abs(r - 0.58309) <= 0.01
    assert abs(phi - math.pi) <= 0.05


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
            readout.prob(("U", "D"))[...] += 1e-9  # a view into the readout
            return readout

        monkeypatch.setattr(explore, "run_pair", leaky_run_pair)
        with pytest.raises(PipelineError, match="middle terms .* at r=0.5, phi=1.0"):
            violation_at(0.5, 1.0)

        # A refinement batch gives every point its own ratio: the message names
        # the ratio and phase of the leaking point, here the batch's last.
        leaked = []

        def leaky_refinement(batch):
            readout = real_run_pair(batch)
            if np.ndim(batch.bs.r):
                points = batch.runs
                readout.prob(("U", "D"))[points - 1 :: points] += 1e-9
                leaked.append((float(batch.bs.r[points - 1]), float(batch.phi[points - 1])))
            return readout

        monkeypatch.setattr(explore, "run_pair", leaky_refinement)
        with pytest.raises(PipelineError, match="middle terms") as failure:
            find_max_violation(TestFindMaxViolation.GRID)
        ((r, phi),) = leaked
        assert str(failure.value).endswith(f" at r={r!r}, phi={phi!r}")

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
        _, (_, _, _, _, coarse_best) = first_max(sweep(self.GRID))
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

    def test_a_refinement_below_the_coarse_best_raises(self, monkeypatch):
        def worse(best, *args):
            return (0.3, 0.0, best[2]), 0

        _, (_, _, _, _, coarse_best) = first_max(sweep(self.GRID))
        monkeypatch.setattr(explore, "_zoom", worse)
        named = rf"refined violation -?[0-9.e-]+ .* fell below the coarse best {coarse_best!r}"
        with pytest.raises(RuntimeError, match=named):
            find_max_violation(self.GRID)

    def test_zoom_keeps_its_centre_on_a_tie(self):
        # The zoom moves only on a strict improvement: a point of its grid
        # that ties the best violation leaves the best point where it is.
        r, phi, r_half, phi_half = 0.5, 3.0, 0.05, 0.1
        rs = r + r_half * explore._ZOOM_OFFSETS
        phis = phi + phi_half * explore._ZOOM_OFFSETS
        _, (r_k, phi_k, _, _, v_k) = first_max(
            explore._points(np.repeat(rs, len(phis)), np.tile(phis, len(rs)))
        )
        assert (r_k, phi_k) != (r, phi)
        ranges = (explore.R_CLAMP_LO, explore.R_CLAMP_HI), (0.0, 2.0 * math.pi)
        # A tol below the larger half-width, but not below it shrunk once: one round.
        best, evals = explore._zoom((r, phi, v_k), r_half, phi_half, *ranges, tol=phi_half / 2)
        assert best == (r, phi, v_k)
        assert evals == explore.ZOOM_POINTS**2

    @pytest.mark.parametrize("tol", [0.0, -1e-9, 0.5])
    def test_rejects_bad_refine_tol(self, tol):
        with pytest.raises(ValueError, match="refine_tol"):
            find_max_violation(self.GRID, refine_tol=tol)

    @pytest.mark.parametrize(
        "grid",
        [SweepGrid(1e-5, 5e-4, 3, 0.0, 1.0, 3), SweepGrid(1e-4, 0.9995, 2, 0.0, 1.0, 3)],
    )
    def test_rejects_a_grid_without_a_searchable_row(self, grid):
        with pytest.raises(ValueError, match=rf"\[{grid.r_min!r}, {grid.r_max!r}\]"):
            find_max_violation(grid)


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

    @pytest.mark.parametrize("r_steps", [1, 0, -3])
    def test_rejects_too_few_steps(self, r_steps):
        with pytest.raises(ValueError, match=rf"got {r_steps} over \[0.05, 0.95\]"):
            find_max_violation_at_phi(math.pi, r_steps=r_steps)

    @pytest.mark.parametrize("r_min, r_max", [(1e-5, 5e-4), (0.9995, 0.9999)])
    def test_rejects_a_range_outside_the_clamp(self, r_min, r_max):
        with pytest.raises(ValueError, match=rf"got 200 over \[{r_min!r}, {r_max!r}\]"):
            find_max_violation_at_phi(math.pi, r_min=r_min, r_max=r_max)

    def test_range_inside_the_clamp_keeps_its_optimum_inside(self):
        opt = find_max_violation_at_phi(math.pi, r_min=0.2, r_max=0.3, r_steps=7)
        assert 0.2 <= opt.r_star <= 0.3
        assert opt.iterations > 7


class TestDarkPortTuning:
    def test_half_turn_recovers_the_tuned_ratio(self):
        r = dark_port_tuning(math.pi)
        assert r is not None
        assert abs(r * r - TUNED_R_SQUARED) <= 1e-10

    def test_tuned_ratio_darkens_the_simulated_port(self):
        r = dark_port_tuning(math.pi)
        bs = BeamSplitterParams.from_r(r)
        assert abs(dark_port_coefficient(bs.r, bs.t, math.pi)) ** 2 <= ATOL
        dist = run_pair(PairBatch.of(bs, phi=math.pi)).row(SETTINGS.index((False, False)))
        assert dist.prob(("C", "C")) <= ATOL

    def test_odd_half_turns_work_too(self):
        r = dark_port_tuning(3.0 * math.pi)
        assert r is not None
        assert abs(r * r - TUNED_R_SQUARED) <= 1e-10

    @pytest.mark.parametrize("phi", [0.0, 1.0, math.pi / 2.0, math.pi + 0.1])
    def test_untunable_phases_return_none(self, phi):
        assert dark_port_tuning(phi) is None
