"""Tests for behaviors, the four-term inequality, and local-model membership."""

import dataclasses
import hashlib
import math
import random
import struct

import numpy as np
import pytest
from closed_forms import splitter_amplitudes

from mzpair import bell
from mzpair.bell import (
    CELLS,
    FEASIBILITY_TOL,
    SETTINGS,
    BehaviorTable,
    LocalStrategy,
    behavior_from_phase_setup,
    bell_violation,
    enumerate_deterministic_strategies,
    hardy_constants,
    lhv_membership,
    membership_system,
    side_outcomes,
)
from mzpair.experiments import PairBatch, run_pair
from mzpair.simplex import solve_phase1
from mzpair.state import GAMMA, BeamSplitterParams, Readout

ATOL = 1e-12

OPT_R = 0.5830902
OPT_PHI = math.pi
TUNED_R_SQUARED = (2.0 - math.sqrt(2.0)) / 2.0
TUNED_JOINT_PROB = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0


def optimum_behavior():
    return behavior_from_phase_setup(BeamSplitterParams.from_r(OPT_R), OPT_PHI)


def optimum_mixed_to_excess(excess):
    """The optimum behavior mixed with a local one, so its lifting exceeds 2 by ``excess``.

    The local behavior is a deterministic strategy on which the optimum's
    violated lifting is tight, and no lifting exceeds 2 on it, so the
    mixture's largest excess is the optimum's, scaled by its share.
    """
    optimum = optimum_behavior()
    y = np.asarray(lhv_membership(optimum).certificate)
    w, bound = y[:-1], -y[-1]
    tight = next(
        cells
        for cells in (s.behavior().cells for s in enumerate_deterministic_strategies())
        if w @ cells == bound
    )
    share = excess / (w @ optimum.cells - bound)
    cells = share * optimum.cells + (1.0 - share) * tight
    return BehaviorTable.from_tables(
        {s: {o: float(p) for (t, o), p in zip(CELLS, cells) if t == s} for s in SETTINGS}
    )


# Certificate faults, each breaking one half of the Farkas test.  b and A
# both end in a row of ones, so adding c to y's last entry adds c to y.b and
# to every y.A_j: -1 takes y.b below 0 (every excess here is under 1) and
# keeps y.A <= 0; +0.5 keeps y.b positive and takes max(y.A) past tol.
CERTIFICATE_FAULTS = {
    "y.b": lambda y: np.append(y[:-1], y[-1] - 1.0),
    "y.A": lambda y: np.append(y[:-1], y[-1] + 0.5),
}


def faulted(fault, y, behavior):
    """``y`` with ``fault``, checked to fail only the half of the test it names."""
    A, b = membership_system(behavior)
    bad = CERTIFICATE_FAULTS[fault](np.asarray(y))
    passes = (float(bad @ b) > 0.0, float(np.max(bad @ A)) <= FEASIBILITY_TOL)
    assert passes == ((False, True) if fault == "y.b" else (True, False))
    return bad


def test_side_outcomes():
    assert side_outcomes(True) == ("U", "C", "D")
    assert side_outcomes(False) == ("C", "D")


class TestBehaviorTable:
    def _product_tables(self):
        present = {"U": 0.2, "C": 0.5, "D": 0.3}
        absent = {"C": 0.6, "D": 0.4}
        tables = {}
        for setting in SETTINGS:
            m1 = present if setting[0] else absent
            m2 = present if setting[1] else absent
            tables[setting] = {
                (o1, o2): p1 * p2 for o1, p1 in m1.items() for o2, p2 in m2.items()
            }
        return tables

    def test_product_table_accessors(self):
        behavior = BehaviorTable.from_tables(self._product_tables())
        assert abs(behavior.prob((True, False), ("U", "C")) - 0.2 * 0.6) <= ATOL
        assert abs(behavior.marginal(0, True, False)["U"] - 0.2) <= ATOL
        assert abs(behavior.marginal(1, False, True)["C"] - 0.6) <= ATOL
        assert behavior.no_signaling_residual() <= 1e-9

    def test_rejects_missing_setting(self):
        tables = self._product_tables()
        del tables[(False, False)]
        with pytest.raises(ValueError, match="missing table"):
            BehaviorTable.from_tables(tables)

    def test_rejects_negative_probability(self):
        tables = self._product_tables()
        tables[(True, True)][("C", "C")] = -0.01
        with pytest.raises(ValueError, match="negative probability"):
            BehaviorTable.from_tables(tables)

    def test_rejects_impossible_outcome(self):
        tables = self._product_tables()
        tables[(False, True)][("U", "C")] = 0.1
        with pytest.raises(ValueError, match="impossible"):
            BehaviorTable.from_tables(tables)

    def test_rejects_nan_impossible_outcome(self):
        tables = self._product_tables()
        tables[(False, True)][("U", "C")] = math.nan
        with pytest.raises(ValueError, match="impossible"):
            BehaviorTable.from_tables(tables)

    def test_rejects_nan_cell(self):
        tables = self._product_tables()
        tables[(True, True)][("U", "U")] = math.nan
        named = r"non-finite probability nan at \(True, True\)/\('U', 'U'\)"
        with pytest.raises(ValueError, match=named):
            BehaviorTable.from_tables(tables)

    @pytest.mark.parametrize("value", [math.inf, -math.inf])
    def test_rejects_infinite_cell(self, value):
        tables = self._product_tables()
        tables[(False, True)][("D", "C")] = value
        tables[(False, False)][("C", "C")] = math.nan  # a later cell is not the one named
        named = rf"non-finite probability {value!r} at \(False, True\)/\('D', 'C'\)"
        with pytest.raises(ValueError, match=named):
            BehaviorTable.from_tables(tables)

    @pytest.mark.parametrize(
        "value, named",
        [
            (math.inf, r"non-finite probability inf at \(True, True\)/\('U', 'U'\)"),
            (1e308, r"setting \(True, True\) sums to inf"),
        ],
    )
    def test_rejects_infinite_or_overflowing_cells(self, value, named):
        # No NaN to cut the checks short, and with warnings as errors an
        # infinity or overflow reaching any product would fail this too.
        tables = self._product_tables()
        tables[(True, True)][("U", "U")] = value
        tables[(True, True)][("C", "C")] = value
        with pytest.raises(ValueError, match=named):
            BehaviorTable.from_tables(tables)

    def test_rejects_unnormalized_block(self):
        tables = self._product_tables()
        tables[(True, True)][("C", "C")] += 0.2
        with pytest.raises(ValueError, match="sums to"):
            BehaviorTable.from_tables(tables)

    def test_rejects_signaling_table(self):
        tables = {
            (True, True): {("C", "C"): 1.0},
            (True, False): {("C", "C"): 1.0},
            (False, True): {("C", "C"): 1.0},
            (False, False): {("C", "D"): 1.0},
        }
        with pytest.raises(ValueError, match="no-signaling"):
            BehaviorTable.from_tables(tables)

    def test_rejects_small_marginal_shift(self):
        # side 1's marginal moves by 1e-6 when side 2's detector is removed;
        # the block still sums to 1 and side 2's marginal stays put
        tables = self._product_tables()
        tables[(True, False)][("U", "C")] -= 1e-6
        tables[(True, False)][("C", "C")] += 1e-6
        with pytest.raises(ValueError, match="no-signaling violated: marginal shift 1"):
            BehaviorTable.from_tables(tables)

    @pytest.mark.parametrize(
        "excess, shift, message",
        [
            (0.3e-12, 0.0, None),
            # inside both tolerances, but too close to pass on one product alone
            (0.6e-12, 5e-10, None),
            (2e-12, 0.0, "sums to"),
            (0.0, 2e-9, "no-signaling violated"),
        ],
    )
    def test_tolerances_hold_at_their_edges(self, excess, shift, message):
        # (True, False) gains ``excess`` and moves ``shift`` of side 1's U to C.
        tables = self._product_tables()
        tables[(True, False)][("U", "C")] -= shift
        tables[(True, False)][("C", "C")] += shift + excess
        if message is None:
            behavior = BehaviorTable.from_tables(tables)
            assert behavior.prob((True, False), ("C", "C")) == tables[(True, False)][("C", "C")]
        else:
            with pytest.raises(ValueError, match=message):
                BehaviorTable.from_tables(tables)

    @pytest.mark.parametrize("value", [-1e-14, -1e-16])
    def test_small_negative_cells(self, value):
        # A deterministic table with one empty cell set slightly negative: its
        # block and marginals stay within tolerance, so only the cell's sign
        # decides; down to -1e-15 it is read as 0.
        tables = {s: {("C", "C"): 1.0} for s in SETTINGS}
        tables[(False, False)][("D", "D")] = value
        if value < -1e-15:
            named = r"negative probability -1e-14 at \(False, False\)"
            with pytest.raises(ValueError, match=named):
                BehaviorTable.from_tables(tables)
        else:
            assert BehaviorTable.from_tables(tables).prob((False, False), ("D", "D")) == 0.0

    def test_names_the_first_negative_cell(self):
        # The larger negative cell comes later in CELLS order, so it is not named.
        tables = self._product_tables()
        tables[(True, True)][("C", "C")] = -0.01
        tables[(False, False)][("D", "D")] = -0.5
        named = r"negative probability -0\.01 at \(True, True\)/\('C', 'C'\)"
        with pytest.raises(ValueError, match=named):
            BehaviorTable.from_tables(tables)

    def test_names_a_non_finite_cell_before_a_negative_one(self):
        tables = self._product_tables()
        tables[(True, True)][("U", "U")] = -0.2
        tables[(False, False)][("C", "C")] = math.inf
        named = r"non-finite probability inf at \(False, False\)/\('C', 'C'\)"
        with pytest.raises(ValueError, match=named):
            BehaviorTable.from_tables(tables)

    def test_names_the_first_unnormalized_setting(self):
        # Two blocks are off, which also shifts marginals: the block earlier
        # in SETTINGS order is named, and before any no-signaling violation.
        tables = self._product_tables()
        tables[(False, True)][("C", "C")] += 0.3
        tables[(True, False)][("C", "C")] += 0.1
        with pytest.raises(ValueError, match=r"^setting \(True, False\) sums to "):
            BehaviorTable.from_tables(tables)


def dict_no_signaling_residual(behavior):
    """The residual as the largest gap between two marginal dicts."""
    worst = 0.0
    for side in (0, 1):
        for own in (True, False):
            near = behavior.marginal(side, own, True)
            far = behavior.marginal(side, own, False)
            worst = max(worst, max(abs(near[o] - far[o]) for o in near))
    return worst


class TestSimulatedBehavior:
    def test_no_signaling_residual_matches_the_marginals(self):
        rng = random.Random(33)
        for _ in range(200):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            behavior = behavior_from_phase_setup(bs, rng.uniform(0.0, 2.0 * math.pi))
            residual = behavior.no_signaling_residual()
            assert abs(residual - dict_no_signaling_residual(behavior)) <= 1e-15

    def test_no_signaling_on_random_points(self):
        rng = random.Random(31)
        for _ in range(25):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            behavior = behavior_from_phase_setup(bs, rng.uniform(0.0, 2.0 * math.pi))
            assert behavior.no_signaling_residual() <= 1e-9

    def test_marginals_match_direct_runs(self):
        bs = BeamSplitterParams.from_r(0.47)
        phi = 2.2
        behavior = behavior_from_phase_setup(bs, phi)
        readout = run_pair(PairBatch.of(bs, phi=phi))
        for k, setting in enumerate(SETTINGS):
            direct = readout.row(k)
            for side in (0, 1):
                table = behavior.marginal(side, setting[side], setting[1 - side])
                raw = direct.marginal(side)
                for letter, p in table.items():
                    assert abs(p - raw.get(letter, 0.0)) <= ATOL

    def test_joint_sink_in_the_phase_setup_raises(self, monkeypatch):
        real = PairBatch.phase_settings

        def with_annihilation(bs, phis):
            batch = real(bs, phis)
            # annihilate is a run column: one entry per phase, not per row
            return dataclasses.replace(batch, annihilate=np.ones(len(batch.phi), dtype=bool))

        monkeypatch.setattr(PairBatch, "phase_settings", staticmethod(with_annihilation))
        with pytest.raises(RuntimeError, match="'gamma'"):
            behavior_from_phase_setup(BeamSplitterParams.from_r(0.47), 2.2)

    def test_outcome_outside_its_setting_raises(self, monkeypatch):
        def blocks_reversed(batch):
            # The four placement blocks in reverse order: (U, U) lands under
            # the setting with neither detector placed.
            readout = run_pair(batch)
            rows = np.arange(readout.probs.shape[1]).reshape(len(SETTINGS), -1)[::-1].ravel()
            return Readout(readout.probs[:, rows], readout.keys)

        monkeypatch.setattr(bell, "run_pair", blocks_reversed)
        with pytest.raises(ValueError, match="impossible under setting"):
            behavior_from_phase_setup(BeamSplitterParams.from_r(0.47), 2.2)

    def test_non_finite_stray_outcome_raises(self, monkeypatch):
        # A NaN on an outcome the setting cannot show, with every cell intact.
        def nan_stray(batch):
            readout = run_pair(batch)
            probs = readout.probs.copy()
            probs[readout.keys.index(("c", "absorbed")), SETTINGS.index((False, False))] = math.nan
            return Readout(probs, readout.keys)

        monkeypatch.setattr(bell, "run_pair", nan_stray)
        named = r"^outcome \('c', 'absorbed'\) impossible under setting \(False, False\)$"
        with pytest.raises(ValueError, match=named):
            behavior_from_phase_setup(BeamSplitterParams.from_r(0.47), 2.2)

    @pytest.mark.parametrize("gamma", [1e-20, 0.0])
    def test_joint_sink_is_reported_before_a_stray_outcome(self, monkeypatch, gamma):
        # The placement blocks reversed, as above, plus a gamma row: any
        # nonzero gamma probability, even far below the stray threshold, is
        # named first; an all-zero one leaves the stray outcome to be named.
        def reversed_with_gamma(batch):
            readout = run_pair(batch)
            rows = np.arange(readout.probs.shape[1]).reshape(len(SETTINGS), -1)[::-1].ravel()
            probs = np.vstack([readout.probs[:, rows], np.full((1, len(rows)), gamma)])
            return Readout(probs, readout.keys + (GAMMA,))

        monkeypatch.setattr(bell, "run_pair", reversed_with_gamma)
        bs = BeamSplitterParams.from_r(0.47)
        if gamma:
            with pytest.raises(RuntimeError, match="joint sink 'gamma' cannot occur"):
                behavior_from_phase_setup(bs, 2.2)
        else:
            named = r"^outcome \('c', 'absorbed'\) impossible under setting \(True, False\)$"
            with pytest.raises(ValueError, match=named):
                behavior_from_phase_setup(bs, 2.2)

    def test_zero_phase_factorizes(self):
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(0.44), 0.0)
        for setting in SETTINGS:
            m1 = behavior.marginal(0, setting[0], setting[1])
            m2 = behavior.marginal(1, setting[1], setting[0])
            for o1, p1 in m1.items():
                for o2, p2 in m2.items():
                    assert abs(behavior.prob(setting, (o1, o2)) - p1 * p2) <= ATOL


class TestBellViolation:
    def test_optimum_point(self):
        report = bell_violation(optimum_behavior())
        assert abs(report.violation - 0.0990) <= 1e-3
        assert report.p_u1_notc2 <= ATOL
        assert report.p_notc1_u2 <= ATOL
        assert report.lhv_feasible is False

    def test_tuned_point_value(self):
        behavior = behavior_from_phase_setup(
            BeamSplitterParams(**splitter_amplitudes(TUNED_R_SQUARED)), math.pi
        )
        report = bell_violation(behavior, check_lhv=False)
        assert abs(report.violation - TUNED_JOINT_PROB) <= ATOL
        assert report.p_c1c2 <= ATOL

    def test_uncoupled_point_is_local(self):
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(0.3), 0.0)
        report = bell_violation(behavior)
        assert report.violation <= 0.0
        assert report.lhv_feasible is True

    def test_feasibility_never_coexists_with_violation(self):
        for r, phi in ((0.3, 0.0), (0.45, 2.0), (OPT_R, OPT_PHI), (0.7, math.pi)):
            report = bell_violation(behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi))
            assert not (report.lhv_feasible and report.violation > FEASIBILITY_TOL)

    def test_skipping_membership_leaves_none(self):
        report = bell_violation(optimum_behavior(), check_lhv=False)
        assert report.lhv_feasible is None


class TestDeterministicStrategies:
    def test_thirty_six_distinct_behaviors(self):
        strategies = enumerate_deterministic_strategies()
        assert len(strategies) == 36
        vectors = {tuple(s.behavior().cells) for s in strategies}
        assert len(vectors) == 36

    def test_every_strategy_satisfies_the_inequality(self):
        for strategy in enumerate_deterministic_strategies():
            report = bell_violation(strategy.behavior(), check_lhv=False)
            assert report.violation <= ATOL

    @pytest.mark.parametrize("index", [0, 7, 20, 35])
    def test_vertices_are_point_masses(self, index):
        strategies = enumerate_deterministic_strategies()
        membership = lhv_membership(strategies[index].behavior())
        assert membership.feasible
        assert membership.weights[index] >= 1.0 - 1e-9
        assert abs(sum(membership.weights) - 1.0) <= 1e-9

    def test_invalid_responses_rejected(self):
        with pytest.raises(ValueError, match="placed detector"):
            LocalStrategy(when_present="X", when_absent="C")
        with pytest.raises(ValueError, match="absent detector"):
            LocalStrategy(when_present="U", when_absent="U")


class TestMembershipSystem:
    def test_shapes(self):
        A, b = membership_system(optimum_behavior())
        assert A.shape == (26, 36)
        assert b.shape == (26,)
        assert b[-1] == 1.0
        assert np.all(A[-1] == 1.0)
        # each strategy occupies one cell per setting, plus the norm row
        assert np.all(A.sum(axis=0) == 5.0)

    def test_behavior_vector_length(self):
        assert optimum_behavior().cells.shape == (25,)

    def test_columns_are_the_strategy_behaviors(self):
        A, _ = membership_system(optimum_behavior())
        columns = [s.behavior().cells for s in enumerate_deterministic_strategies()]
        expected = np.vstack([np.column_stack(columns), np.ones(len(columns))])
        assert A.dtype == expected.dtype
        assert A.tobytes() == expected.tobytes()


class TestLhvMembership:
    def test_uncoupled_behavior_recombines(self):
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(0.3), 0.0)
        membership = lhv_membership(behavior)
        assert membership.feasible
        assert membership.residual <= 1e-9
        assert membership.infeasibility <= FEASIBILITY_TOL
        assert len(membership.weights) == 36
        assert min(membership.weights) >= 0.0
        assert membership.certificate is None

    def test_random_mixtures_recombine(self):
        strategies = enumerate_deterministic_strategies()
        rng = random.Random(32)
        for _ in range(5):
            weights = [rng.random() for _ in range(36)]
            total = sum(weights)
            weights = [w / total for w in weights]
            tables = {setting: {} for setting in SETTINGS}
            for w, strategy in zip(weights, strategies):
                for setting in SETTINGS:
                    outcome = (
                        strategy.side1.outcome(setting[0]),
                        strategy.side2.outcome(setting[1]),
                    )
                    tables[setting][outcome] = tables[setting].get(outcome, 0.0) + w
            membership = lhv_membership(BehaviorTable.from_tables(tables))
            assert membership.feasible
            assert membership.residual <= 1e-9

    def test_optimum_behavior_is_outside(self):
        behavior = optimum_behavior()
        membership = lhv_membership(behavior)
        assert not membership.feasible
        assert membership.weights is None
        assert membership.infeasibility > FEASIBILITY_TOL
        A, b = membership_system(behavior)
        y = np.asarray(membership.certificate)
        assert y.shape == (26,)
        assert float(y @ b) > FEASIBILITY_TOL
        assert float(np.max(A.T @ y)) <= FEASIBILITY_TOL

    def test_violated_lifting_decides_without_the_simplex(self, monkeypatch):
        behavior = optimum_behavior()
        A, b = membership_system(behavior)
        objective = solve_phase1(A, b).objective

        def unreachable(A, b, **kwargs):
            raise AssertionError("the simplex ran")

        monkeypatch.setattr(bell, "solve_phase1", unreachable)
        membership = lhv_membership(behavior)
        assert not membership.feasible and membership.iterations == 0
        assert membership.certificate is lhv_membership(behavior).certificate
        assert float(np.asarray(membership.certificate) @ b) > 0.39
        monkeypatch.undo()
        assert membership.infeasibility == objective
        assert dataclasses.replace(membership, iterations=1).infeasibility == objective

    @pytest.mark.parametrize(
        "excess, decided_by",
        [
            (0.5 * FEASIBILITY_TOL, "simplex"),
            (FEASIBILITY_TOL + 0.5 * bell._LIFTING_MARGIN, "simplex"),
            (FEASIBILITY_TOL + 2.0 * bell._LIFTING_MARGIN, "lifting"),
        ],
    )
    def test_verdicts_around_the_threshold_match_the_simplex(self, excess, decided_by):
        behavior = optimum_mixed_to_excess(excess)
        A, b = membership_system(behavior)
        simplex = solve_phase1(A, b, tol=FEASIBILITY_TOL)
        membership = lhv_membership(behavior)
        assert membership.feasible == simplex.feasible
        assert membership.infeasibility == simplex.objective
        assert (membership.iterations == 0) == (decided_by == "lifting")

    def test_seeded_verdicts_match_the_simplex(self):
        # Drawn like the bell-points benchmark, on a seed it does not use.
        rng = random.Random(2024)
        decided = 0
        for i in range(300):
            r, phi = (
                (rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi))
                if i % 2 == 0
                else (rng.uniform(0.50, 0.66), rng.uniform(math.pi - 0.5, math.pi + 0.5))
            )
            behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
            membership = lhv_membership(behavior)
            assert membership.feasible == solve_phase1(*membership_system(behavior)).feasible
            decided += membership.iterations == 0
        assert 100 < decided < 250

    def test_failing_certificate_raises(self, monkeypatch):
        # Non-local, but by less than the lifting threshold: the simplex decides.
        behavior = optimum_mixed_to_excess(FEASIBILITY_TOL + bell._LIFTING_MARGIN / 2)
        assert lhv_membership(behavior).iterations > 0
        real_solve = bell.solve_phase1
        for fault in CERTIFICATE_FAULTS:

            def tampered(A, b, **kwargs):
                result = real_solve(A, b, **kwargs)
                return dataclasses.replace(
                    result, certificate=faulted(fault, result.certificate, behavior)
                )

            monkeypatch.setattr(bell, "solve_phase1", tampered)
            with pytest.raises(RuntimeError, match="Farkas certificate fails"):
                lhv_membership(behavior)

    def test_failing_lifting_certificate_raises(self, monkeypatch):
        behavior = optimum_behavior()
        y = lhv_membership(behavior).certificate
        k = bell._LIFTING_CERTIFICATES.index(y)
        for fault in CERTIFICATE_FAULTS:
            certificates = list(bell._LIFTING_CERTIFICATES)
            certificates[k] = tuple(faulted(fault, y, behavior))
            with monkeypatch.context() as patch:
                patch.setattr(bell, "_LIFTING_CERTIFICATES", tuple(certificates))
                with pytest.raises(RuntimeError, match="Farkas certificate fails"):
                    lhv_membership(behavior)

    def test_failing_weights_raise(self, monkeypatch):
        real_solve = bell.solve_phase1

        def perturbed(A, b, **kwargs):
            result = real_solve(A, b, **kwargs)
            return dataclasses.replace(result, x=result.x + 1e-6)

        monkeypatch.setattr(bell, "solve_phase1", perturbed)
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(0.3), 0.0)
        with pytest.raises(RuntimeError, match=r"local-model weights fail: max\|A w - b\|"):
            lhv_membership(behavior)


def bell_points(seed, count):
    """Points drawn as the bell-points benchmark draws them.

    Half are uniform over the plane, half near the maximal violation at
    (0.583, pi), so both verdicts and both deciders occur.
    """
    rng = random.Random(seed)
    return [
        (rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        if i % 2 == 0
        else (rng.uniform(0.50, 0.66), rng.uniform(math.pi - 0.5, math.pi + 0.5))
        for i in range(count)
    ]


def verdict_bytes(verdict):
    """A verdict as float bytes: flag, pivots, leftover mass, then weights or certificate."""
    values = [float(verdict.feasible), float(verdict.iterations), verdict.infeasibility]
    if verdict.feasible:
        values += [*verdict.weights, verdict.residual]
    else:
        values += verdict.certificate
    return struct.pack(f"<{len(values)}d", *values)


# sha256 of the cells and verdict bytes of bell_points(2026, 300), recorded
# before the one-run engine path and the behavior checks were trimmed: the
# whole bell path keeps every byte, not only the simplex.
VERDICTS_SHA256 = "f6ad6a9ef1a8c02f92add01d2aeedf0316e3572f303fcfdd527beaf3cd399c8e"


def test_bell_path_keeps_its_bytes():
    digest = hashlib.sha256()
    verdicts = set()
    for r, phi in bell_points(2026, 300):
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
        verdict = lhv_membership(behavior)
        verdicts.add((verdict.feasible, verdict.iterations > 0))
        digest.update(behavior.cells.tobytes())
        digest.update(verdict_bytes(verdict))
    # feasible verdicts from the simplex and infeasible ones from a lifting both occur
    assert {(True, True), (False, False)} <= verdicts
    assert digest.hexdigest() == VERDICTS_SHA256


class TestLogicalInequality:
    def test_tuned_point_excess(self):
        # The excess of the four statement probabilities over N - 1 is the
        # violation term for term: p1 + (1 - p2) + (1 - p3) + (1 - p4) - 3.
        behavior = behavior_from_phase_setup(
            BeamSplitterParams(**splitter_amplitudes(TUNED_R_SQUARED)), math.pi
        )
        excess = bell_violation(behavior, check_lhv=False).violation
        assert abs(excess - TUNED_JOINT_PROB) <= 1e-9


class TestHardyConstants:
    def test_values(self):
        consts = hardy_constants()
        assert abs(consts.qubit_max - (5.0 * math.sqrt(5.0) - 11.0) / 2.0) <= 1e-15
        assert abs(consts.qubit_max - 0.0902) <= 1e-4
        assert consts.golden_check is True

    def test_tuned_probability_stays_below_ceiling(self):
        consts = hardy_constants()
        assert TUNED_JOINT_PROB < consts.qubit_max
