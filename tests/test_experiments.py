"""Tests for the experiment runners and their closed forms."""

import dataclasses
import math
import random

import numpy as np
import pytest
from closed_forms import dark_port_coefficient, splitter_amplitudes

from mzpair.experiments import (
    GRAVITATIONAL_CONSTANT,
    HBAR,
    SETTINGS,
    GravityParams,
    PairBatch,
    ev_retest_efficiency,
    gravity_phase,
    run_ev,
    run_pair,
    run_pair_state,
)
from mzpair.state import OUTCOME_KEYS, C, BeamSplitterParams

ATOL = 1e-12

TUNED_R_SQUARED = (2.0 - math.sqrt(2.0)) / 2.0
TUNED_JOINT_PROB = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
BALANCED = BeamSplitterParams(**splitter_amplitudes(0.5))


class TestRunEv:
    def test_no_bomb_is_all_bright(self):
        rng = random.Random(11)
        for _ in range(25):
            bs = BeamSplitterParams.from_r(rng.uniform(0.01, 0.99))
            dist = run_ev(bs, bomb_present=False)
            assert abs(dist.prob("C") - 1.0) <= ATOL
            assert dist.prob("D") <= ATOL
            assert dist.prob("exploded") == 0.0

    def test_bomb_outcome_split(self):
        rng = random.Random(12)
        for _ in range(25):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            dist = run_ev(bs, bomb_present=True)
            r_sq, t_sq = bs.r * bs.r, bs.t * bs.t
            assert abs(dist.prob("exploded") - r_sq) <= ATOL
            assert abs(dist.prob("C") - t_sq * t_sq) <= ATOL
            assert abs(dist.prob("D") - t_sq * r_sq) <= ATOL
            assert abs(sum(dist.probabilities.values()) - 1.0) <= ATOL

    def test_balanced_bomb_quarters(self):
        dist = run_ev(BALANCED, bomb_present=True)
        assert abs(dist.prob("exploded") - 0.5) <= ATOL
        assert abs(dist.prob("C") - 0.25) <= ATOL
        assert abs(dist.prob("D") - 0.25) <= ATOL


class TestRetestEfficiency:
    def test_balanced_is_one_third(self):
        eff = ev_retest_efficiency(BALANCED)
        assert abs(eff - 1.0 / 3.0) <= ATOL

    def test_matches_round_by_round_simulation(self):
        # 100 rounds truncate the geometric tail at (t^4)^100, which stays
        # below 1e-12 only for r above ~0.36; hence the sample floor.
        rng = random.Random(13)
        for _ in range(20):
            bs = BeamSplitterParams.from_r(rng.uniform(0.4, 0.99))
            dist = run_ev(bs, bomb_present=True)
            p_flag, p_retest = dist.prob("D"), dist.prob("C")
            flagged, live = 0.0, 1.0
            for _ in range(100):
                flagged += live * p_flag
                live *= p_retest
            assert abs(flagged - ev_retest_efficiency(bs)) <= ATOL

    def test_approaches_half_for_weak_reflection(self):
        eff = ev_retest_efficiency(BeamSplitterParams.from_r(0.01))
        assert abs(eff - 0.5) <= 5e-5

    def test_monotone_in_transmission(self):
        weak = ev_retest_efficiency(BeamSplitterParams.from_r(0.2))
        strong = ev_retest_efficiency(BeamSplitterParams.from_r(0.6))
        assert weak > strong


class TestAnnihilationPair:
    def _run(self, bs, u1=False, u2=False):
        return run_pair(PairBatch.of(bs, annihilate=True)).row(SETTINGS.index((u1, u2)))

    def test_joint_dark_clicks_and_gamma(self):
        rng = random.Random(14)
        for _ in range(20):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            dist = self._run(bs)
            r_sq, t_sq = bs.r * bs.r, bs.t * bs.t
            assert abs(dist.prob(("D", "D")) - r_sq * r_sq * t_sq * t_sq) <= ATOL
            assert abs(dist.prob("gamma") - r_sq * r_sq) <= ATOL
            assert abs(sum(dist.probabilities.values()) - 1.0) <= ATOL

    def test_balanced_sixteenth(self):
        dist = self._run(BALANCED)
        assert abs(dist.prob(("D", "D")) - 1.0 / 16.0) <= ATOL
        assert abs(dist.prob("gamma") - 0.25) <= ATOL

    def test_detector_on_minus_shields_plus_dark_port(self):
        # A quiet in-arm detector on one side forbids the far dark port.
        dist = self._run(BALANCED, u2=True)
        assert dist.prob(("D", "C")) + dist.prob(("D", "D")) <= ATOL

    def test_detector_on_plus_shields_minus_dark_port(self):
        dist = self._run(BALANCED, u1=True)
        assert dist.prob(("C", "D")) + dist.prob(("D", "D")) <= ATOL

    def test_paired_detectors_never_both_fire(self):
        rng = random.Random(15)
        for _ in range(10):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            dist = self._run(bs, u1=True, u2=True)
            assert dist.prob(("U", "U")) == 0.0
            # each detector alone still fires at the surviving single-arm rate
            r_sq, t_sq = bs.r * bs.r, bs.t * bs.t
            assert abs(dist.marginal(0).get("U", 0.0) - r_sq * t_sq) <= ATOL


class TestPhasePair:
    def _run(self, bs, phi, u1=False, u2=False):
        return run_pair(PairBatch.of(bs, phi=phi)).row(SETTINGS.index((u1, u2)))

    def test_zero_phase_is_all_bright(self):
        dist = self._run(BeamSplitterParams.from_r(0.37), 0.0)
        assert abs(dist.prob(("C", "C")) - 1.0) <= ATOL

    def test_joint_detector_rate_is_fourth_power(self):
        rng = random.Random(16)
        for _ in range(20):
            r = rng.uniform(0.05, 0.95)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            dist = self._run(BeamSplitterParams.from_r(r), phi, u1=True, u2=True)
            assert abs(dist.prob(("U", "U")) - r**4) <= ATOL

    def test_firing_detector_forces_far_bright_port(self):
        rng = random.Random(17)
        for _ in range(10):
            r = rng.uniform(0.05, 0.95)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            one = self._run(BeamSplitterParams.from_r(r), phi, u1=True)
            assert one.prob(("U", "D")) <= ATOL
            two = self._run(BeamSplitterParams.from_r(r), phi, u2=True)
            assert two.prob(("D", "U")) <= ATOL

    def test_tuned_point_blocks_joint_bright_port(self):
        bs = BeamSplitterParams(**splitter_amplitudes(TUNED_R_SQUARED))
        dark = self._run(bs, math.pi)
        assert dark.prob(("C", "C")) <= ATOL
        loud = self._run(bs, math.pi, u1=True, u2=True)
        assert abs(loud.prob(("U", "U")) - TUNED_JOINT_PROB) <= ATOL
        assert abs(loud.prob(("U", "U")) - 0.0857) <= 5e-4


class TestReadoutRows:
    # A row lists sinks before ports on each side and the joint sink last;
    # OutcomeDistribution.marginal adds the outcomes in this order.
    def test_annihilation_with_both_detectors(self):
        bs = BeamSplitterParams.from_r(0.37)
        dist = run_pair(PairBatch.of(bs, annihilate=True)).row(SETTINGS.index((True, True)))
        assert list(dist.probabilities) == [
            ("U", "C"), ("U", "D"),
            ("C", "U"), ("C", "C"), ("C", "D"),
            ("D", "U"), ("D", "C"), ("D", "D"),
            "gamma",
        ]  # fmt: skip

    def test_phase_with_the_first_detector(self):
        bs = BeamSplitterParams.from_r(0.37)
        dist = run_pair(PairBatch.of(bs, phi=1.0)).row(SETTINGS.index((True, False)))
        assert list(dist.probabilities) == [
            ("U", "C"),
            ("C", "C"), ("C", "D"),
            ("D", "C"), ("D", "D"),
        ]  # fmt: skip


class TestDarkPortCoefficient:
    def test_matches_simulated_joint_bright_amplitude(self):
        rng = random.Random(18)
        draws = [(rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(100)]
        r, phi = np.array(draws).T
        bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
        state = run_pair_state(PairBatch.of(bs, phi=phi))
        absent = SETTINGS.index((False, False)) * len(draws)
        for amp, (ratio, angle) in zip(state.amplitude((C, C))[absent:], draws):
            bs = BeamSplitterParams.from_r(ratio)
            expected = dark_port_coefficient(bs.r, bs.t, angle)
            assert abs(amp - expected) <= ATOL

    def test_zero_phase_is_minus_one(self):
        rng = random.Random(19)
        for _ in range(20):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            assert abs(dark_port_coefficient(bs.r, bs.t, 0.0) - (-1.0)) <= ATOL

    def test_probability_is_squared_magnitude(self):
        bs = BeamSplitterParams.from_r(0.52)
        phi = 2.31
        dist = run_pair(PairBatch.of(bs, phi=phi)).row(SETTINGS.index((False, False)))
        assert abs(dist.prob(("C", "C")) - abs(dark_port_coefficient(bs.r, bs.t, phi)) ** 2) <= ATOL


class TestPairBatch:
    BS = BeamSplitterParams.from_r(0.5)
    PER_ROW_BS = BeamSplitterParams(t=np.array([0.8, 0.6, 0.6]), r=np.array([0.6, 0.8, 0.8]))

    def test_columns_describe_runs_only(self):
        # Every run is measured under all four placements, so no column names one.
        assert [field.name for field in dataclasses.fields(PairBatch)] == [
            "bs",
            "phi",
            "annihilate",
        ]

    # columns are (phi, annihilate); None when PairBatch.of must raise
    @pytest.mark.parametrize(
        "bs, kwargs, columns",
        [
            pytest.param(BS, {}, ([0.0], [False]), id="all-shared"),
            pytest.param(
                BS, {"phi": 1.5, "annihilate": True}, ([1.5], [True]), id="shared-values"
            ),
            pytest.param(PER_ROW_BS, {}, ([0.0] * 3, [False] * 3), id="per-row-bs"),
            pytest.param(
                BS,
                {"phi": [0.0, 2.0], "annihilate": True},
                ([0.0, 2.0], [True, True]),
                id="per-row-phi",
            ),
            pytest.param(
                BS, {"phi": [0.0, 1.0], "annihilate": [True, False, True]}, None, id="mismatch"
            ),
            pytest.param(PER_ROW_BS, {"phi": [0.0, 1.0]}, None, id="bs-mismatch"),
            pytest.param(BS, {"phi": []}, None, id="no-row"),
        ],
    )
    def test_of_builds_one_column_per_field(self, bs, kwargs, columns):
        if columns is None:
            with pytest.raises(ValueError):
                PairBatch.of(bs, **kwargs)
            return
        batch = PairBatch.of(bs, **kwargs)
        assert batch.bs is bs
        assert batch.runs == len(columns[0])
        for name, expected in zip(("phi", "annihilate"), columns):
            assert getattr(batch, name).tolist() == expected, name

    @pytest.mark.parametrize("ratios", [[0.6, 0.8, 0.8], [0.6]], ids=["3-ratios", "1-ratio"])
    def test_phase_settings_needs_one_ratio_per_phase(self, ratios):
        r = np.array(ratios)
        bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
        with pytest.raises(ValueError, match=f"got {len(ratios)} ratios for 2 phases"):
            PairBatch.phase_settings(bs, [0.0, 1.0])

    def test_phase_settings_needs_a_phase(self):
        with pytest.raises(ValueError, match="need at least one run, got 0"):
            PairBatch.phase_settings(self.BS, [])

    # changes to a 2-run phase_settings batch, and the message each must raise
    @pytest.mark.parametrize(
        "changes, message",
        [
            pytest.param({"bs": PER_ROW_BS}, "got 3 ratios for 2 phases", id="bs"),
            pytest.param({"annihilate": np.zeros(8, bool)}, "got 8 for 2 phases", id="annihilate"),
            pytest.param({"phi": np.zeros(3)}, "got 2 for 3 phases", id="phi"),
            pytest.param(
                {"phi": np.zeros(0), "annihilate": np.zeros(0, bool)},
                "need at least one run, got 0",
                id="no-run",
            ),
        ],
    )
    def test_direct_construction_checks_column_lengths(self, changes, message):
        batch = PairBatch.phase_settings(self.BS, [0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(batch, **changes)
        columns = {name: getattr(batch, name) for name in ("bs", "phi", "annihilate")}
        with pytest.raises(ValueError, match=message):
            PairBatch(**(columns | changes))

    def test_rows_repeat_the_runs(self):
        # Row k * runs + j is run j under SETTINGS[k], with the bits of that
        # run alone under the same placements.
        r = np.array([0.3, 0.58309, 0.9])
        bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
        batch = PairBatch(bs, np.array([0.0, 2.5, -1.0]), np.array([True, False, True]))
        state = run_pair_state(batch)
        readout = run_pair(batch)
        assert state.rows == readout.probs.shape[1] == 4 * 3
        for j in range(3):
            alone = PairBatch.of(
                BeamSplitterParams.from_r(r[j]), phi=batch.phi[j], annihilate=batch.annihilate[j]
            )
            single, single_readout = run_pair_state(alone), run_pair(alone)
            for k in range(len(SETTINGS)):
                i = k * 3 + j
                for key in set(state.keys) | set(single.keys):
                    ours, theirs = state.amplitude(key)[i], single.amplitude(key)[k]
                    assert ours.tobytes() == theirs.tobytes(), (i, key)
                for outcome in OUTCOME_KEYS:
                    ours, theirs = readout.prob(outcome)[i], single_readout.prob(outcome)[k]
                    assert ours.tobytes() == theirs.tobytes(), (i, outcome)


class TestCoupling:
    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError, match="finite"):
            run_pair(PairBatch.of(BALANCED, phi=math.inf))


class TestGravityPhase:
    def test_hand_value(self):
        params = GravityParams(mass_kg=1e-14, interaction_length_m=1e-4, separation_m=1e-6)
        # G * m^2 * L / (hbar * d) = 6.6743e-43 / 1.054571817e-40
        assert math.isclose(gravity_phase(params), 0.0063289193703153935, rel_tol=1e-12)

    def test_scaling_laws(self):
        base = GravityParams(mass_kg=2e-14, interaction_length_m=3e-4, separation_m=5e-7)
        phi = gravity_phase(base)
        doubled_mass = GravityParams(4e-14, base.interaction_length_m, base.separation_m)
        assert math.isclose(gravity_phase(doubled_mass), 4.0 * phi, rel_tol=1e-12)
        doubled_length = GravityParams(base.mass_kg, 6e-4, base.separation_m)
        assert math.isclose(gravity_phase(doubled_length), 2.0 * phi, rel_tol=1e-12)
        doubled_gap = GravityParams(base.mass_kg, base.interaction_length_m, 1e-6)
        assert math.isclose(gravity_phase(doubled_gap), 0.5 * phi, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"mass_kg": 0.0, "interaction_length_m": 1e-4, "separation_m": 1e-6},
            {"mass_kg": 1e-14, "interaction_length_m": -1e-4, "separation_m": 1e-6},
            {"mass_kg": 1e-14, "interaction_length_m": 1e-4, "separation_m": math.nan},
        ],
    )
    def test_rejects_nonpositive_inputs(self, kwargs):
        with pytest.raises(ValueError, match="positive"):
            GravityParams(**kwargs)

    @pytest.mark.parametrize(
        "mass, length, gap, message",
        [
            (1e300, 1e300, 1e-300, "hbar \\* distance"),
            (1e200, 1e200, 1e-10, "not finite"),
        ],
    )
    def test_rejects_float_underflow_and_overflow(self, mass, length, gap, message):
        with pytest.raises(ValueError, match=message):
            gravity_phase(GravityParams(mass, length, gap))

    def test_constants_pinned(self):
        assert GRAVITATIONAL_CONSTANT == 6.67430e-11
        assert HBAR == 1.054571817e-34
