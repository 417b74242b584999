"""The label-array engine against the independent dense-matrix reference.

``dense_oracle`` rebuilds the same physics as full matrices over the whole
label space; agreement on randomized pipelines checks the engine's
bookkeeping (label slices, pruning, sink routing, batch rows) end to end.
"""

import math
import random

import dense_oracle as oracle
import numpy as np

from mzpair.experiments import (
    SETTINGS,
    Coupling,
    ExperimentConfig,
    PairBatch,
    run_pair,
    run_pair_state,
)
from mzpair.state import (
    GAMMA,
    NONE,
    BeamSplitterParams,
    JointState,
    apply_absorber,
    apply_annihilation_coupling,
    apply_bs1,
    apply_bs2,
    apply_phase_coupling,
    measure,
)

ATOL = 1e-12


def run_engine_plan(plan):
    """Drive the public operations through the same pipeline plan, as a batch of one."""
    bs = BeamSplitterParams.from_r(plan["r"])
    if plan["kind"] == "single":
        state = apply_bs1(JointState.single(), 0, bs)
        for particle, arm, sink in plan["absorbers"]:
            state = apply_absorber(state, particle, arm, sink)
        return apply_bs2(state, 0, bs)
    state = apply_bs1(apply_bs1(JointState.pair(), 0, bs), 1, bs)
    if plan["coupling"] == "annihilation":
        state = apply_annihilation_coupling(state)
    elif plan["coupling"] == "phase":
        state = apply_phase_coupling(state, plan["phi"])
    for particle, arm, sink in plan["absorbers"]:
        state = apply_absorber(state, particle, arm, sink)
    return apply_bs2(apply_bs2(state, 0, bs), 1, bs)


def max_amplitude_diff(plan, state, dense, row=0):
    if plan["kind"] == "single":
        return max(
            abs(dense.amplitude(label) - state.amplitude((label, NONE))[row])
            for label in oracle.LABELS
        )
    worst = abs(dense.gamma - state.amplitude(GAMMA)[row])
    for l1 in oracle.LABELS:
        for l2 in oracle.LABELS:
            worst = max(worst, abs(dense.amplitude(l1, l2) - state.amplitude((l1, l2))[row]))
    return worst


def max_probability_diff(readout, dense, row=0):
    ours = readout.row(row).probabilities
    reference = dense.probabilities()
    keys = set(ours) | set(reference)
    return max(abs(ours.get(k, 0.0) - reference.get(k, 0.0)) for k in keys)


def compare_on_plans(count, seed):
    """Worst (amplitude, probability, norm) discrepancies over random plans."""
    rng = random.Random(seed)
    worst_amp = worst_prob = worst_norm = 0.0
    for i in range(count):
        plan = oracle.random_single_plan(rng) if i % 2 == 0 else oracle.random_pair_plan(rng)
        dense = oracle.run_dense_plan(plan)
        state = run_engine_plan(plan)
        worst_amp = max(worst_amp, max_amplitude_diff(plan, state, dense))
        worst_prob = max(worst_prob, max_probability_diff(measure(state), dense))
        worst_norm = max(
            worst_norm,
            abs(float(state.norm_squared()[0]) - 1.0),
            abs(dense.norm_squared() - 1.0),
        )
    return worst_amp, worst_prob, worst_norm


def test_thousand_random_pipelines_agree():
    worst_amp, worst_prob, worst_norm = compare_on_plans(1000, 20260815)
    assert worst_amp <= ATOL
    assert worst_prob <= ATOL
    assert worst_norm <= ATOL


def random_batch(count, seed):
    """Configurations with mixed ratio, phase, detector setting and coupling kind."""
    rng = random.Random(seed)
    kinds = {
        "none": lambda phi: Coupling.none(),
        "annihilation": lambda phi: Coupling.annihilation(),
        "phase": Coupling.phase,
    }
    configs = []
    for _ in range(count):
        kind = rng.choice(sorted(kinds))
        u1, u2 = rng.choice(SETTINGS)
        bs = BeamSplitterParams.from_r(rng.uniform(0.05, 0.95))
        configs.append(ExperimentConfig(bs, kinds[kind](rng.uniform(0.0, 2.0 * math.pi)), u1, u2))
    return configs


def dense_plan(config):
    return {
        "kind": "pair",
        "r": config.bs.r,
        "coupling": config.coupling.kind,
        "phi": config.coupling.phi,
        "absorbers": [
            (particle, "u", "absorbed")
            for particle, placed in ((0, config.u1), (1, config.u2))
            if placed
        ],
    }


def test_mixed_batch_agrees_with_the_oracle_row_by_row():
    configs = random_batch(300, 8128)
    batch = PairBatch.of(*configs)
    state = run_pair_state(batch)
    readout = run_pair(batch)
    worst_amp = worst_prob = 0.0
    for row, config in enumerate(configs):
        plan = dense_plan(config)
        dense = oracle.run_dense_plan(plan)
        worst_amp = max(worst_amp, max_amplitude_diff(plan, state, dense, row))
        worst_prob = max(worst_prob, max_probability_diff(readout, dense, row))
    assert worst_amp <= ATOL
    assert worst_prob <= ATOL
    assert np.max(np.abs(state.norm_squared() - 1.0)) <= ATOL


def test_batch_rows_are_bit_identical_to_batches_of_one():
    configs = random_batch(120, 4099)
    state = run_pair_state(PairBatch.of(*configs))
    readout = run_pair(PairBatch.of(*configs))
    for row, config in enumerate(configs):
        alone = run_pair_state(PairBatch.of(config))
        assert state.amps[row].tobytes() == alone.amps[0].tobytes()
        assert state.gamma[row].tobytes() == alone.gamma[0].tobytes()
        assert readout.row(row) == run_pair(PairBatch.of(config)).row(0)


def test_annihilation_pipeline_with_both_absorbers():
    plan = {
        "kind": "pair",
        "r": 0.37,
        "coupling": "annihilation",
        "phi": 0.0,
        "absorbers": [(0, "u", "absorbed"), (1, "u", "absorbed")],
    }
    dense = oracle.run_dense_plan(plan)
    state = run_engine_plan(plan)
    assert max_amplitude_diff(plan, state, dense) <= ATOL
    assert max_probability_diff(measure(state), dense) <= ATOL


def test_tuned_phase_pipeline():
    plan = {
        "kind": "pair",
        "r": math.sqrt((2.0 - math.sqrt(2.0)) / 2.0),
        "coupling": "phase",
        "phi": math.pi,
        "absorbers": [],
    }
    dense = oracle.run_dense_plan(plan)
    state = run_engine_plan(plan)
    assert max_amplitude_diff(plan, state, dense) <= ATOL
    assert dense.probabilities().get(("C", "C"), 0.0) <= ATOL


def test_single_bomb_pipeline():
    plan = {"kind": "single", "r": 0.62, "absorbers": [(0, "u", "exploded")]}
    dense = oracle.run_dense_plan(plan)
    state = run_engine_plan(plan)
    assert max_amplitude_diff(plan, state, dense) <= ATOL
    assert max_probability_diff(measure(state), dense) <= ATOL
