"""Unit tests for the key-column amplitude engine."""

import cmath
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from closed_forms import splitter_amplitudes

from mzpair.experiments import SETTINGS, PairBatch, run_pair, run_pair_state
from mzpair.state import (
    ABSORBED,
    OUTCOME_KEYS,
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
BALANCED = BeamSplitterParams(**splitter_amplitudes(0.5))


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
        assert BALANCED.t == BALANCED.r

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
        state = apply_bs1(JointState.single(), 0, BALANCED)
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        assert abs(state.amplitude((U, NONE)) - 1j * inv_sqrt2) <= ATOL
        assert abs(state.amplitude((V, NONE)) - inv_sqrt2) <= ATOL

    def test_reflected_magnitude_is_r(self):
        params = BeamSplitterParams.from_r(0.1)
        state = apply_bs1(JointState.single(), 0, params)
        assert abs(abs(state.amplitude((U, NONE))) - 0.1) <= ATOL
        assert abs((np.abs(state.amps) ** 2).sum(0) - 1.0) <= ATOL

    def test_pair_gives_product_state(self):
        params = BeamSplitterParams.from_r(0.3)
        state = apply_bs1(apply_bs1(JointState.pair(), 0, params), 1, params)
        t, r = params.t, params.r
        assert abs(state.amplitude((U, U)) - (-(r * r))) <= ATOL
        assert abs(state.amplitude((U, V)) - 1j * r * t) <= ATOL
        assert abs(state.amplitude((V, U)) - 1j * r * t) <= ATOL
        assert abs(state.amplitude((V, V)) - t * t) <= ATOL

    def test_rejects_reapplication(self):
        params = BALANCED
        state = apply_bs1(JointState.single(), 0, params)
        with pytest.raises(PipelineError, match="first splitter"):
            apply_bs1(state, 0, params)

    def test_rejects_missing_particle(self):
        with pytest.raises(PipelineError):
            apply_bs1(JointState.single(), 1, BALANCED)

    def test_rejects_bad_particle_index(self):
        with pytest.raises(ValueError, match="particle index"):
            apply_bs1(JointState.single(), 2, BALANCED)


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
        params = BALANCED
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
            assert abs((np.abs(out.amps) ** 2).sum(0) - 1.0) <= ATOL

    def test_rejects_source_amplitude(self):
        with pytest.raises(PipelineError, match="second splitter"):
            apply_bs2(JointState.single(), 0, BALANCED)

    def test_sinks_pass_through(self):
        params = BALANCED
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
        params = BALANCED
        state = self._product(params)
        out = apply_phase_coupling(state, 0.0)
        assert out.keys == state.keys
        assert np.array_equal(out.amps, state.amps)
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

    @pytest.mark.parametrize(
        "phi, found",
        [
            pytest.param(math.inf, "inf in row 0", id="inf"),
            pytest.param(math.nan, "nan in row 0", id="nan"),
            pytest.param([0.0, 1.0, -2.0, math.nan, math.inf], "nan in row 3", id="per-row"),
        ],
    )
    def test_rejects_non_finite_phase(self, phi, found):
        params = BALANCED
        state = apply_bs1(apply_bs1(JointState.pair(5), 0, params), 1, params)
        with pytest.raises(ValueError, match=f"must be finite, got {found}$"):
            apply_phase_coupling(state, phi)

    def test_norm_preserved(self):
        params = BeamSplitterParams.from_r(0.6)
        out = apply_phase_coupling(self._product(params), 2.5)
        assert abs((np.abs(out.amps) ** 2).sum(0) - 1.0) <= ATOL

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
        out = apply_annihilation_coupling(self._product(params), [True])
        r, t = params.r, params.t
        assert out.amplitude((U, U))[0] == 0.0
        assert abs(out.amplitude(GAMMA) - (-(r * r))) <= ATOL
        assert abs(out.amplitude((U, V)) - 1j * r * t) <= ATOL
        assert abs((np.abs(out.amps) ** 2).sum(0) - 1.0) <= ATOL
        # wait-free check on the sink probability
        assert abs(abs(out.amplitude(GAMMA)) ** 2 - r**4) <= ATOL

    def test_without_overlap_is_identity(self):
        state = JointState.of({(U, V): 0.6, (V, U): 0.8j})
        out = apply_annihilation_coupling(state, [True])
        assert out.keys == state.keys
        assert np.array_equal(out.amps, state.amps)

    def test_requires_internal_pair(self):
        with pytest.raises(PipelineError, match="internal arms"):
            apply_annihilation_coupling(JointState.pair(), [True])

    @pytest.mark.parametrize("mask", [[True], [True, False]])
    def test_rejects_a_mask_of_the_wrong_length(self, mask):
        params = BeamSplitterParams.from_r(0.3)
        state = apply_bs1(apply_bs1(JointState.pair(3), 0, params), 1, params)
        message = f"need one mask entry per row, got {len(mask)} for 3 rows"
        with pytest.raises(ValueError, match=message):
            apply_annihilation_coupling(state, np.array(mask))


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
        assert out.keys == state.keys
        assert np.array_equal(out.amps, state.amps)

    @pytest.mark.parametrize("mask", [[True], [True, False]])
    def test_rejects_a_mask_of_the_wrong_length(self, mask):
        state = apply_bs1(JointState.single(3), 0, BeamSplitterParams.from_r(0.3))
        message = f"need one mask entry per row, got {len(mask)} for 3 rows"
        with pytest.raises(ValueError, match=message):
            apply_absorber(state, 0, U, rows=np.array(mask))

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

    @pytest.mark.parametrize("drift, raises", [(1e-9, True), (-1e-9, True), (1e-13, False)])
    def test_norm_drift_is_checked_to_norm_tol(self, drift, raises):
        # 1e-9 lies far above NORM_TOL (1e-12) but below any loose bound
        # such as 1e-6; 1e-13 lies within it.
        state = JointState.of({(C, D): math.sqrt(0.5), (D, C): math.sqrt(0.5 + drift)})
        if raises:
            with pytest.raises(ValueError, match=r"probabilities sum to .* in row 0"):
                measure(state)
        else:
            assert abs(measure(state).probs.sum() - 1.0) <= 2e-13

    @pytest.mark.parametrize(
        "amps, found",
        [
            pytest.param([[complex(math.nan), 2.0]], "nan in row 0", id="nan"),
            pytest.param([[complex(math.inf), 1.0]], "inf in row 0", id="inf"),
            # A NaN row is named even where another row drifts further.
            pytest.param([[2.0, complex(math.nan)]], "nan in row 1", id="nan-after-drift"),
        ],
    )
    def test_non_finite_total_is_named(self, amps, found):
        state = JointState(np.array(amps, dtype=complex), ((C, C),))
        with pytest.raises(ValueError, match=f"probabilities sum to {found}, expected 1"):
            measure(state)

    def test_unlisted_outcome_reads_zero(self):
        readout = measure(JointState.of({(C, C): 1.0}))
        assert readout.keys == ((C, C),)
        assert readout.prob(("D", "D")).tolist() == [0.0]
        assert readout.prob("gamma").tolist() == [0.0]

    def test_peak_memory_stays_below_a_dense_table(self):
        # An 800-row scan batch (200 phases under 4 settings) lists 9 keys.
        # measure squares the 18 real components (800 * 18 * 8 = 115,200 B)
        # and keeps one probability per key (57,600 B), about 190 kB with
        # the row sums and their drift.  The bound is what a dense
        # (rows, 8, 8) float table over every label pair would take on its
        # own, 800 * 64 * 8 B, so a readout that builds one cannot pass.
        bs = BeamSplitterParams.from_r(0.5)
        state = run_pair_state(PairBatch.phase_settings(bs, np.linspace(0.0, math.pi, 200)))
        assert state.amps.shape == (9, 800)
        measure(state)  # fill the plan caches first
        tracemalloc.start()
        try:
            measure(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 800 * 8 * 8 * 8

    def test_keys_are_contiguous_rows(self):
        # Each key's amplitudes and probabilities are one run of memory, so
        # the engine's products, sums and gathers stream over whole rows.
        bs = BeamSplitterParams.from_r(0.5)
        state = run_pair_state(PairBatch.phase_settings(bs, np.linspace(0.0, math.pi, 200)))
        assert state.amps.shape == (9, 800)
        for key in state.keys:
            column = state.amplitude(key)
            assert column.flags.c_contiguous and np.shares_memory(column, state.amps), key
        readout = measure(state)
        assert readout.probs.shape == (9, 800)
        listed = [outcome for outcome, key in OUTCOME_KEYS.items() if key in readout.keys]
        assert len(listed) == 9
        for outcome in listed:
            column = readout.prob(outcome)
            assert column.flags.c_contiguous and np.shares_memory(column, readout.probs), outcome

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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match=r"non-finite probability .* for outcome 'D'"):
            OutcomeDistribution.of({"C": 1.0, "D": bad})


def test_prune_drops_tiny_amplitudes():
    state = JointState.of({(C, NONE): 1.0, (D, NONE): 1e-16})
    assert state.amplitude((D, NONE))[0] == 0.0


class TestKeyColumns:
    def test_absorber_adds_to_amplitude_already_in_the_sink(self):
        state = JointState.of({(U, V): 0.6, (ABSORBED, V): 0.8j})
        out = apply_absorber(state, 0, U)
        assert out.amplitude((ABSORBED, V))[0] == 0.6 + 0.8j
        assert out.amplitude((U, V))[0] == 0.0

    def test_second_splitter_adds_to_amplitude_already_on_a_port(self):
        params = BeamSplitterParams.from_r(0.3)
        state = JointState.of({(U, NONE): 0.6, (C, NONE): 0.8})
        out = apply_bs2(state, 0, params)
        assert abs(out.amplitude((C, NONE))[0] - (0.6 * params.r + 0.8)) <= ATOL
        assert abs(out.amplitude((D, NONE))[0] - 0.6j * params.t) <= ATOL
        assert abs((np.abs(out.amps) ** 2).sum(0)[0] - (1.0 + 2 * 0.6 * 0.8 * params.r)) <= ATOL

    def test_phase_setup_lists_at_most_nine_keys(self):
        params = BeamSplitterParams.from_r(0.4)
        u1, u2 = np.array([[True, True, False, False], [True, False, True, False]])
        steps = [
            lambda s: apply_bs1(s, 0, params),
            lambda s: apply_bs1(s, 1, params),
            lambda s: apply_phase_coupling(s, 1.0),
            lambda s: apply_absorber(s, 0, U, ABSORBED, u1),
            lambda s: apply_absorber(s, 1, U, ABSORBED, u2),
            lambda s: apply_bs2(s, 0, params),
            lambda s: apply_bs2(s, 1, params),
        ]
        state = JointState.pair(4)
        for step in steps:
            state = step(state)
            assert len(state.keys) <= 9
            assert len(set(state.keys)) == len(state.keys)
        assert np.max(np.abs((np.abs(state.amps) ** 2).sum(0) - 1.0)) <= ATOL

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, complex(math.nan, 0.0), complex(0.0, math.inf)]
    )
    def test_non_finite_amplitude_rejected(self, bad):
        # NaN fails the prune test, so it used to be dropped silently.
        with pytest.raises(ValueError, match=r"non-finite amplitude .* for key \('c', 'c'\)"):
            JointState.of({(C, D): 1.0, (C, C): bad})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown keys"):
            JointState.of({(U, "x"): 1.0})

    @pytest.mark.parametrize("build", [JointState.single, JointState.pair])
    def test_zero_rows_rejected(self, build):
        with pytest.raises(ValueError, match="at least one row, got 0"):
            build(0)


def mixed_batches(seed):
    """A shared-ratio and a per-run-ratio batch of 150 runs each, mixing zero and
    nonzero phases and annihilation run by run, each with a drawn detector
    placement per run.

    Returns ``(batch, rows)`` pairs: ``rows[j]`` is the row ``k * 150 + j`` of
    the batch's four-placement state that holds run ``j`` under its placement
    ``SETTINGS[k]``.
    """
    rng = np.random.default_rng(seed)
    batches = []
    for bs in (BeamSplitterParams.from_r(0.58309), None):
        if bs is None:
            r = rng.uniform(0.02, 0.98, 150)
            bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
        phi = np.where(rng.random(150) < 0.3, 0.0, rng.uniform(-7.0, 7.0, 150))
        annihilate, u1, u2 = rng.random((3, 150)) < 0.4
        placed = np.array([SETTINGS.index(p) for p in zip(u1.tolist(), u2.tolist())])
        rows = placed * 150 + np.arange(150)
        batches.append((PairBatch.of(bs, phi=phi, annihilate=annihilate), rows))
    return batches


# Digests of the engine's bits on mixed_batches(2024), one placement per run,
# recorded on the row-major (rows, keys) engine, which ran each row under its
# own placement alone: a change of layout or loop keeps every byte.
MIXED_PROBS_SHA256 = "acc9e8a18968aeb605513f0964afa66b85191f71b2c02147f77fd684d227c096"
MIXED_AMPS_SHA256 = "85cbabd0ac5a83f3036ef703038b0545f588f23d37cbaf05f2a6915c40d8e25a"


def test_mixed_batches_keep_their_bits():
    probs, amps = hashlib.sha256(), hashlib.sha256()
    for batch, rows in mixed_batches(2024):
        every = run_pair_state(batch)
        state = JointState(every.amps.take(rows, 1), every.keys)
        readout = measure(state)
        for outcome in sorted(OUTCOME_KEYS, key=str):
            probs.update(readout.prob(outcome).tobytes())
        for key in sorted(state.keys, key=str):
            amps.update(repr(key).encode())
            amps.update(state.amplitude(key).tobytes())
    assert probs.hexdigest() == MIXED_PROBS_SHA256
    assert amps.hexdigest() == MIXED_AMPS_SHA256


def phase_settings_batches(seed):
    """A shared-ratio and a per-phase-ratio ``phase_settings`` batch of 60 phases.

    Both hold zero phases; the per-phase ratios reach ``r = 1e-3`` and
    ``r = 1e-9``, where the first splitters prune the ``(u, u)`` amplitude
    ``-1e-18``.
    """
    rng = np.random.default_rng(seed)
    phis = np.where(rng.random(60) < 0.25, 0.0, rng.uniform(-7.0, 7.0, 60))
    r = rng.uniform(0.02, 0.98, 60)
    r[:6] = [1e-9, 1e-9, 1e-3, 1e-3, 1.0001 * 1e-3, 2.0 * 1e-3]
    phis[:6:2] = 0.0
    # sqrt(1 - 1e-18) rounds to 1, which a splitter rejects; the float below
    # 1 keeps t^2 + r^2 within NORM_TOL of 1.
    t = np.minimum(np.sqrt(1.0 - r * r), np.nextafter(1.0, 0.0))
    per_phase = BeamSplitterParams(t=t, r=r)
    return [
        PairBatch.phase_settings(BeamSplitterParams.from_r(0.58309), phis),
        PairBatch.phase_settings(per_phase, phis),
    ]


# Digest of the final amplitudes (keys included) and the readout of
# phase_settings_batches(2025), recorded on the pipeline that ran every stage
# on all four settings' rows: running the setting-free stages once per phase
# keeps every byte.
PHASE_SETTINGS_SHA256 = "1e9905d4ef5bdb305b297600ecec593bf62715d2412361153dd9a8a5c962f1da"


def test_phase_settings_batches_keep_their_bits():
    digest = hashlib.sha256()
    for batch in phase_settings_batches(2025):
        state = run_pair_state(batch)
        for key in state.keys:
            digest.update(repr(key).encode())
            digest.update(state.amplitude(key).tobytes())
        readout = run_pair(batch)
        for outcome in sorted(OUTCOME_KEYS, key=str):
            digest.update(repr(outcome).encode())
            digest.update(readout.prob(outcome).tobytes())
    assert digest.hexdigest() == PHASE_SETTINGS_SHA256
