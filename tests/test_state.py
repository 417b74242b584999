"""Unit tests for the label-array amplitude engine."""

import cmath
import math
import random

import numpy as np
import pytest

from mzpair.state import (
    ABSORBED,
    C,
    D,
    EXPLODED,
    GAMMA,
    NONE,
    S,
    U,
    V,
    BeamSplitterParams,
    JointState,
    OutcomeDistribution,
    PipelineError,
    apply_absorber,
    apply_annihilation_coupling,
    apply_bs1,
    apply_bs2,
    apply_phase_coupling,
    measure,
)

ATOL = 1e-12


def random_params(rng):
    return BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))


class TestBeamSplitterParams:
    def test_from_r_satisfies_normalization(self):
        rng = random.Random(7)
        for _ in range(50):
            params = random_params(rng)
            assert abs(params.t**2 + params.r**2 - 1.0) <= ATOL

    @pytest.mark.parametrize("r", [0.0, 1.0, -0.3, 1.5])
    def test_from_r_rejects_out_of_range(self, r):
        with pytest.raises(ValueError, match="reflection amplitude"):
            BeamSplitterParams.from_r(r)

    def test_rejects_unnormalized_pair(self):
        with pytest.raises(ValueError, match="t\\^2 \\+ r\\^2"):
            BeamSplitterParams(t=0.5, r=0.5)

    def test_balanced_is_symmetric(self):
        params = BeamSplitterParams.balanced()
        assert params.t == params.r

    def test_convention_matrices_are_unitary(self):
        # The two splitter maps, written as 2x2 matrices on (u, v) and (c, d).
        rng = random.Random(21)
        eye = np.eye(2)
        for _ in range(25):
            p = random_params(rng)
            bs1 = np.array([[1j * p.r, p.t], [p.t, 1j * p.r]])
            bs2 = np.array([[p.r, 1j * p.t], [1j * p.t, p.r]])
            for mat in (bs1, bs2):
                assert np.max(np.abs(mat.conj().T @ mat - eye)) <= ATOL


class TestApplyBs1:
    def test_balanced_amplitudes(self):
        state = apply_bs1(JointState.single(), 0, BeamSplitterParams.balanced())
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert abs(state.amplitude((U, NONE)) - 1j * inv_sqrt2) <= ATOL
        assert abs(state.amplitude((V, NONE)) - inv_sqrt2) <= ATOL

    def test_reflected_magnitude_is_r(self):
        params = BeamSplitterParams.from_r(0.1)
        state = apply_bs1(JointState.single(), 0, params)
        assert abs(abs(state.amplitude((U, NONE))) - 0.1) <= ATOL
        assert abs(state.norm_squared() - 1.0) <= ATOL

    def test_pair_gives_product_state(self):
        params = BeamSplitterParams.from_r(0.3)
        state = apply_bs1(apply_bs1(JointState.pair(), 0, params), 1, params)
        t, r = params.t, params.r
        assert abs(state.amplitude((U, U)) - (-(r * r))) <= ATOL
        assert abs(state.amplitude((U, V)) - 1j * r * t) <= ATOL
        assert abs(state.amplitude((V, U)) - 1j * r * t) <= ATOL
        assert abs(state.amplitude((V, V)) - t * t) <= ATOL

    def test_rejects_reapplication(self):
        params = BeamSplitterParams.balanced()
        state = apply_bs1(JointState.single(), 0, params)
        with pytest.raises(PipelineError, match="first splitter"):
            apply_bs1(state, 0, params)

    def test_rejects_missing_particle(self):
        with pytest.raises(PipelineError):
            apply_bs1(JointState.single(), 1, BeamSplitterParams.balanced())

    def test_rejects_bad_particle_index(self):
        with pytest.raises(ValueError, match="particle index"):
            apply_bs1(JointState.single(), 2, BeamSplitterParams.balanced())


class TestApplyBs2:
    def test_undisturbed_interferometer_is_bright(self):
        # s -> i r u + t v -> i (r^2 + t^2) c: port d cancels exactly.
        params = BeamSplitterParams.from_r(0.3)
        state = apply_bs2(apply_bs1(JointState.single(), 0, params), 0, params)
        assert abs(state.amplitude((C, NONE)) - 1j) <= ATOL
        assert state.amplitude((D, NONE))[0] == 0.0  # cancelled and pruned
        dist = measure(state)
        assert abs(dist.prob("C") - 1.0) <= ATOL
        assert dist.prob("D") <= ATOL

    def test_u_input_splits_r_it(self):
        params = BeamSplitterParams.balanced()
        state = apply_bs2(JointState.of({(U, NONE): 1.0}), 0, params)
        assert abs(state.amplitude((C, NONE)) - params.r) <= ATOL
        assert abs(state.amplitude((D, NONE)) - 1j * params.t) <= ATOL

    def test_norm_preserved_on_random_valid_states(self):
        rng = random.Random(99)
        for _ in range(50):
            params = random_params(rng)
            raw = {}
            for key in ((U, U), (U, V), (V, U), (V, V), (ABSORBED, V), (U, EXPLODED), GAMMA):
                raw[key] = complex(rng.gauss(0, 1), rng.gauss(0, 1))
            norm = math.sqrt(sum(abs(a) ** 2 for a in raw.values()))
            state = JointState.of({k: a / norm for k, a in raw.items()})
            out = apply_bs2(apply_bs2(state, 0, params), 1, params)
            assert abs(out.norm_squared() - 1.0) <= ATOL

    def test_rejects_source_amplitude(self):
        with pytest.raises(PipelineError, match="second splitter"):
            apply_bs2(JointState.single(), 0, BeamSplitterParams.balanced())

    def test_sinks_pass_through(self):
        params = BeamSplitterParams.balanced()
        state = JointState.of({(EXPLODED, NONE): 1.0})
        out = apply_bs2(state, 0, params)
        assert out.amplitude((EXPLODED, NONE)) == 1.0


class TestPhaseCoupling:
    def _product(self, params):
        return apply_bs1(apply_bs1(JointState.pair(), 0, params), 1, params)

    def test_rotates_only_joint_vv(self):
        params = BeamSplitterParams.from_r(0.4)
        state = self._product(params)
        phi = 1.234
        out = apply_phase_coupling(state, phi)
        t, r = params.t, params.r
        assert abs(out.amplitude((V, V)) - t * t * cmath.exp(1j * phi)) <= ATOL
        # Everything off (v, v) is carried over bit-identically.
        for key in ((U, U), (U, V), (V, U)):
            assert out.amplitude(key) == state.amplitude(key)

    def test_identity_at_zero_and_full_turn(self):
        params = BeamSplitterParams.balanced()
        state = self._product(params)
        assert np.array_equal(apply_phase_coupling(state, 0.0).amps, state.amps)
        out = apply_phase_coupling(state, 2.0 * math.pi)
        assert abs(out.amplitude((V, V)) - state.amplitude((V, V))) <= ATOL

    def test_rotation_matches_the_scalar_complex_product(self):
        # Per row, the same bits as multiplying by cmath.exp(1j * phi) in Python.
        rng = random.Random(23)
        params = BeamSplitterParams.from_r(0.45)
        phis = [rng.uniform(-20.0, 20.0) for _ in range(500)]
        state = apply_bs1(apply_bs1(JointState.pair(len(phis)), 0, params), 1, params)
        out = apply_phase_coupling(state, np.array(phis))
        vv = complex(state.amplitude((V, V))[0])
        for phi, amp in zip(phis, out.amplitude((V, V))):
            assert complex(amp) == vv * cmath.exp(1j * phi)

    @pytest.mark.parametrize("phi", [math.inf, math.nan])
    def test_rejects_non_finite_phase(self, phi):
        params = BeamSplitterParams.balanced()
        with pytest.raises(ValueError, match="finite"):
            apply_phase_coupling(self._product(params), phi)

    def test_norm_preserved(self):
        params = BeamSplitterParams.from_r(0.6)
        out = apply_phase_coupling(self._product(params), 2.5)
        assert abs(out.norm_squared() - 1.0) <= ATOL

    def test_requires_both_particles_internal(self):
        with pytest.raises(PipelineError, match="internal arms"):
            apply_phase_coupling(JointState.pair(), 1.0)
        with pytest.raises(PipelineError, match="internal arms"):
            apply_phase_coupling(JointState.of({(U, NONE): 1.0}), 1.0)


class TestAnnihilationCoupling:
    def _product(self, params):
        return apply_bs1(apply_bs1(JointState.pair(), 0, params), 1, params)

    def test_moves_joint_uu_to_gamma(self):
        params = BeamSplitterParams.from_r(0.3)
        out = apply_annihilation_coupling(self._product(params))
        r, t = params.r, params.t
        assert out.amplitude((U, U))[0] == 0.0
        assert abs(out.amplitude(GAMMA) - (-(r * r))) <= ATOL
        assert abs(out.amplitude((U, V)) - 1j * r * t) <= ATOL
        assert abs(out.norm_squared() - 1.0) <= ATOL
        # wait-free check on the sink probability
        assert abs(abs(out.amplitude(GAMMA)) ** 2 - r**4) <= ATOL

    def test_without_overlap_is_identity(self):
        state = JointState.of({(U, V): 0.6, (V, U): 0.8j})
        out = apply_annihilation_coupling(state)
        assert np.array_equal(out.amps, state.amps)

    def test_requires_internal_pair(self):
        with pytest.raises(PipelineError, match="internal arms"):
            apply_annihilation_coupling(JointState.pair())


class TestAbsorber:
    def test_bomb_in_u_arm(self):
        params = BeamSplitterParams.from_r(0.5)
        state = apply_bs1(JointState.single(), 0, params)
        out = apply_absorber(state, 0, U, EXPLODED)
        assert abs(out.amplitude((EXPLODED, NONE)) - 1j * params.r) <= ATOL
        assert abs(out.amplitude((V, NONE)) - params.t) <= ATOL

    def test_keeps_partner_label(self):
        state = JointState.of({(U, V): 1.0})
        out = apply_absorber(state, 0, U)
        assert out.amplitude((ABSORBED, V)) == 1.0

    def test_nothing_on_arm_is_identity(self):
        state = JointState.of({(V, V): 1.0})
        out = apply_absorber(state, 0, U)
        assert np.array_equal(out.amps, state.amps)

    def test_gamma_passes_through(self):
        state = JointState.of({GAMMA: 0.6, (V, V): 0.8})
        out = apply_absorber(state, 0, V)
        assert out.amplitude(GAMMA) == 0.6

    @pytest.mark.parametrize("arm", [S, C, "x"])
    def test_invalid_arm_rejected(self, arm):
        state = JointState.of({(U, V): 1.0})
        with pytest.raises(ValueError, match="absorber arm"):
            apply_absorber(state, 0, arm)

    def test_invalid_sink_rejected(self):
        state = JointState.of({(U, V): 1.0})
        with pytest.raises(ValueError, match="absorber sink"):
            apply_absorber(state, 0, U, sink=C)

    def test_rejects_terminal_particle(self):
        state = JointState.of({(C, V): 1.0})
        with pytest.raises(PipelineError, match="between the splitters"):
            apply_absorber(state, 0, U)


class TestMeasure:
    def test_joint_outcome_labels(self):
        state = JointState.of(
            {(C, D): 0.5, (ABSORBED, C): 0.5, (EXPLODED, D): 0.5, GAMMA: 0.5}
        )
        dist = measure(state)
        assert abs(dist.prob(("C", "D")) - 0.25) <= ATOL
        assert abs(dist.prob(("U", "C")) - 0.25) <= ATOL
        assert abs(dist.prob(("exploded", "D")) - 0.25) <= ATOL
        assert abs(dist.prob("gamma") - 0.25) <= ATOL

    def test_single_outcome_labels(self):
        state = JointState.of({(C, NONE): 1j * math.sqrt(0.5), (EXPLODED, NONE): math.sqrt(0.5)})
        dist = measure(state)
        assert abs(dist.prob("C") - 0.5) <= ATOL
        assert abs(dist.prob("exploded") - 0.5) <= ATOL

    @pytest.mark.parametrize("label", [S, U, V])
    def test_rejects_internal_amplitude(self, label):
        with pytest.raises(PipelineError, match="cannot measure"):
            measure(JointState.of({(label, NONE): 1.0}))

    def test_marginals_from_joint_table(self):
        dist = OutcomeDistribution.of({("C", "D"): 0.25, ("D", "D"): 0.25, "gamma": 0.5})
        assert abs(dist.marginal(0)["C"] - 0.25) <= ATOL
        assert abs(dist.marginal(1)["D"] - 0.5) <= ATOL
        assert "gamma" not in dist.marginal(0)


class TestOutcomeDistribution:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="sum to"):
            OutcomeDistribution.of({"C": 0.5})

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative probability"):
            OutcomeDistribution.of({"C": 1.0, "D": -1e-3})

    def test_clamps_tiny_negative_to_zero(self):
        dist = OutcomeDistribution.of({"C": 1.0, "D": -5e-16})
        assert dist.prob("D") == 0.0


def test_prune_drops_tiny_amplitudes():
    state = JointState.of({(C, NONE): 1.0, (D, NONE): 1e-16})
    assert state.amplitude((D, NONE))[0] == 0.0
