"""Tests for the experiment runners and their closed forms."""

import math
import random

import pytest

from mzpair.experiments import (
    GRAVITATIONAL_CONSTANT,
    HBAR,
    Coupling,
    ExperimentConfig,
    GravityParams,
    PairBatch,
    dark_port_coefficient,
    ev_retest_efficiency,
    gravity_phase,
    run_annihilation,
    run_ev,
    run_pair,
    run_pair_state,
    run_phase,
)
from mzpair.state import C, BeamSplitterParams

ATOL = 1e-12

TUNED_R_SQUARED = (2.0 - math.sqrt(2.0)) / 2.0
TUNED_JOINT_PROB = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0


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
            assert abs(dist.total() - 1.0) <= ATOL

    def test_balanced_bomb_quarters(self):
        dist = run_ev(BeamSplitterParams.balanced(), bomb_present=True)
        assert abs(dist.prob("exploded") - 0.5) <= ATOL
        assert abs(dist.prob("C") - 0.25) <= ATOL
        assert abs(dist.prob("D") - 0.25) <= ATOL


class TestRetestEfficiency:
    def test_balanced_is_one_third(self):
        eff = ev_retest_efficiency(BeamSplitterParams.balanced())
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
    def _config(self, bs, u1=False, u2=False):
        return ExperimentConfig(bs=bs, coupling=Coupling.annihilation(), u1=u1, u2=u2)

    def test_joint_dark_clicks_and_gamma(self):
        rng = random.Random(14)
        for _ in range(20):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            dist = run_annihilation(self._config(bs))
            r_sq, t_sq = bs.r * bs.r, bs.t * bs.t
            assert abs(dist.prob(("D", "D")) - r_sq * r_sq * t_sq * t_sq) <= ATOL
            assert abs(dist.prob("gamma") - r_sq * r_sq) <= ATOL
            assert abs(dist.total() - 1.0) <= ATOL

    def test_balanced_sixteenth(self):
        dist = run_annihilation(self._config(BeamSplitterParams.balanced()))
        assert abs(dist.prob(("D", "D")) - 1.0 / 16.0) <= ATOL
        assert abs(dist.prob("gamma") - 0.25) <= ATOL

    def test_detector_on_minus_shields_plus_dark_port(self):
        # A quiet in-arm detector on one side forbids the far dark port.
        dist = run_annihilation(self._config(BeamSplitterParams.balanced(), u2=True))
        assert dist.prob(("D", "C")) + dist.prob(("D", "D")) <= ATOL

    def test_detector_on_plus_shields_minus_dark_port(self):
        dist = run_annihilation(self._config(BeamSplitterParams.balanced(), u1=True))
        assert dist.prob(("C", "D")) + dist.prob(("D", "D")) <= ATOL

    def test_paired_detectors_never_both_fire(self):
        rng = random.Random(15)
        for _ in range(10):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            dist = run_annihilation(self._config(bs, u1=True, u2=True))
            assert dist.prob(("U", "U")) == 0.0
            # each detector alone still fires at the surviving single-arm rate
            r_sq, t_sq = bs.r * bs.r, bs.t * bs.t
            assert abs(dist.marginal(0).get("U", 0.0) - r_sq * t_sq) <= ATOL

    def test_rejects_wrong_coupling(self):
        config = ExperimentConfig(bs=BeamSplitterParams.balanced(), coupling=Coupling.phase(1.0))
        with pytest.raises(ValueError, match="expected annihilation"):
            run_annihilation(config)


class TestPhasePair:
    def _config(self, bs, phi, u1=False, u2=False):
        return ExperimentConfig(bs=bs, coupling=Coupling.phase(phi), u1=u1, u2=u2)

    def test_zero_phase_is_all_bright(self):
        dist = run_phase(self._config(BeamSplitterParams.from_r(0.37), 0.0))
        assert abs(dist.prob(("C", "C")) - 1.0) <= ATOL

    def test_joint_detector_rate_is_fourth_power(self):
        rng = random.Random(16)
        for _ in range(20):
            r = rng.uniform(0.05, 0.95)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            dist = run_phase(self._config(BeamSplitterParams.from_r(r), phi, u1=True, u2=True))
            assert abs(dist.prob(("U", "U")) - r**4) <= ATOL

    def test_firing_detector_forces_far_bright_port(self):
        rng = random.Random(17)
        for _ in range(10):
            r = rng.uniform(0.05, 0.95)
            phi = rng.uniform(0.0, 2.0 * math.pi)
            one = run_phase(self._config(BeamSplitterParams.from_r(r), phi, u1=True))
            assert one.prob(("U", "D")) <= ATOL
            two = run_phase(self._config(BeamSplitterParams.from_r(r), phi, u2=True))
            assert two.prob(("D", "U")) <= ATOL

    def test_tuned_point_blocks_joint_bright_port(self):
        bs = BeamSplitterParams.from_r_squared(TUNED_R_SQUARED)
        dark = run_phase(self._config(bs, math.pi))
        assert dark.prob(("C", "C")) <= ATOL
        loud = run_phase(self._config(bs, math.pi, u1=True, u2=True))
        assert abs(loud.prob(("U", "U")) - TUNED_JOINT_PROB) <= ATOL
        assert abs(loud.prob(("U", "U")) - 0.0857) <= 5e-4

    def test_none_coupling_matches_zero_phase(self):
        bs = BeamSplitterParams.from_r(0.61)
        plain = run_pair(PairBatch.of(ExperimentConfig(bs=bs, coupling=Coupling.none()))).row(0)
        phased = run_phase(self._config(bs, 0.0))
        keys = set(plain.probabilities) | set(phased.probabilities)
        for key in keys:
            assert abs(plain.prob(key) - phased.prob(key)) <= ATOL

    def test_rejects_wrong_coupling(self):
        config = ExperimentConfig(bs=BeamSplitterParams.balanced(), coupling=Coupling.none())
        with pytest.raises(ValueError, match="expected phase"):
            run_phase(config)


class TestDarkPortCoefficient:
    def test_matches_simulated_joint_bright_amplitude(self):
        rng = random.Random(18)
        configs = [
            ExperimentConfig(
                bs=BeamSplitterParams.from_r(rng.uniform(0.05, 0.95)),
                coupling=Coupling.phase(rng.uniform(0.0, 2.0 * math.pi)),
            )
            for _ in range(100)
        ]
        state = run_pair_state(PairBatch.of(*configs))
        for amp, config in zip(state.amplitude((C, C)), configs):
            assert abs(amp - dark_port_coefficient(config.bs, config.coupling.phi)) <= ATOL

    def test_zero_phase_is_minus_one(self):
        rng = random.Random(19)
        for _ in range(20):
            bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
            assert abs(dark_port_coefficient(bs, 0.0) - (-1.0)) <= ATOL

    def test_probability_is_squared_magnitude(self):
        bs = BeamSplitterParams.from_r(0.52)
        phi = 2.31
        dist = run_phase(ExperimentConfig(bs=bs, coupling=Coupling.phase(phi)))
        assert abs(dist.prob(("C", "C")) - abs(dark_port_coefficient(bs, phi)) ** 2) <= ATOL


class TestCoupling:
    def test_kinds(self):
        assert Coupling.none().kind == "none"
        assert Coupling.annihilation().kind == "annihilation"
        assert Coupling.phase(1.5).phi == 1.5

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="coupling kind"):
            Coupling("dispersive")

    def test_rejects_non_finite_phase(self):
        with pytest.raises(ValueError, match="finite"):
            Coupling.phase(math.inf)

    def test_normalized_phi_folds_into_one_turn(self):
        assert abs(Coupling.phase(3.0 * math.pi).normalized_phi - math.pi) <= ATOL
        assert abs(Coupling.phase(-0.5 * math.pi).normalized_phi - 1.5 * math.pi) <= ATOL


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
