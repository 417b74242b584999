"""The key-column engine against the independent dense-matrix reference.

``dense_oracle`` rebuilds the same physics as full matrices over the whole
label space; agreement on randomized pipelines checks the engine's
bookkeeping (label slices, pruning, sink routing, batch rows) end to end.
"""

import math
import random

import dense_oracle as oracle
import numpy as np
import pytest

from mzpair.experiments import SETTINGS, PairBatch, run_pair, run_pair_state
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
        state = apply_annihilation_coupling(state, [True])
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


def key_probability(readout, key):
    """Per-row probability of a key; a key the readout does not list reads as 0."""
    if key in readout.keys:
        return readout.probs[readout.keys.index(key)]
    return np.zeros(readout.probs.shape[1])


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
            abs(float((np.abs(state.amps[:, 0]) ** 2).sum()) - 1.0),
            abs(dense.norm_squared() - 1.0),
        )
    return worst_amp, worst_prob, worst_norm


def test_thousand_random_pipelines_agree():
    worst_amp, worst_prob, worst_norm = compare_on_plans(1000, 20260815)
    assert worst_amp <= ATOL
    assert worst_prob <= ATOL
    assert worst_norm <= ATOL


def random_runs(count, seed):
    """Twin runs ``(r, kind, phi)`` of mixed ratio, phase and coupling kind.

    ``phi`` is 0 unless the kind is ``"phase"``.
    """
    rng = random.Random(seed)
    runs = []
    for _ in range(count):
        kind = rng.choice(("annihilation", "none", "phase"))
        r = rng.uniform(0.05, 0.95)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        runs.append((r, kind, phi if kind == "phase" else 0.0))
    return runs


def pair_batch(runs):
    """The runs as engine columns: per-run ratios, or one shared ratio for a single run."""
    r, kind, phi = (np.array(column) for column in zip(*runs))
    if len(runs) == 1:
        bs = BeamSplitterParams.from_r(float(r[0]))
    else:
        bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
    return PairBatch.of(bs, phi=phi, annihilate=kind == "annihilation")


def dense_plan(run, setting):
    r, kind, phi = run
    return {
        "kind": "pair",
        "r": r,
        "coupling": kind,
        "phi": phi,
        "absorbers": [
            (particle, "u", "absorbed") for particle, placed in enumerate(setting) if placed
        ],
    }


def test_mixed_batch_agrees_with_the_oracle_row_by_row():
    # Every run under every placement: row k * runs + j is run j under SETTINGS[k].
    runs = random_runs(300, 8128)
    batch = pair_batch(runs)
    state = run_pair_state(batch)
    readout = run_pair(batch)
    assert state.rows == len(SETTINGS) * len(runs)
    worst_amp = worst_prob = 0.0
    for k, setting in enumerate(SETTINGS):
        for j, run in enumerate(runs):
            plan = dense_plan(run, setting)
            dense = oracle.run_dense_plan(plan)
            row = k * len(runs) + j
            worst_amp = max(worst_amp, max_amplitude_diff(plan, state, dense, row))
            worst_prob = max(worst_prob, max_probability_diff(readout, dense, row))
    assert worst_amp <= ATOL
    assert worst_prob <= ATOL
    assert np.max(np.abs((np.abs(state.amps) ** 2).sum(0) - 1.0)) <= ATOL


def test_batch_rows_are_bit_identical_to_batches_of_one():
    # A batch of one can list fewer keys than the batch it came from, so
    # compare every key either state or readout lists; an unlisted key reads as 0.
    runs = random_runs(120, 4099)
    state = run_pair_state(pair_batch(runs))
    readout = run_pair(pair_batch(runs))
    for j, run in enumerate(runs):
        alone = run_pair_state(pair_batch([run]))
        single = run_pair(pair_batch([run]))
        for k in range(len(SETTINGS)):
            row = k * len(runs) + j
            for key in set(state.keys) | set(alone.keys):
                ours, theirs = state.amplitude(key)[row], alone.amplitude(key)[k]
                assert ours.tobytes() == theirs.tobytes(), (row, key)
            assert state.gamma[row].tobytes() == alone.gamma[k].tobytes()
            for key in set(readout.keys) | set(single.keys):
                ours, theirs = key_probability(readout, key), key_probability(single, key)
                assert ours[row].tobytes() == theirs[k].tobytes(), (row, key)
            assert readout.row(row) == single.row(k)


@pytest.mark.parametrize("setting", SETTINGS, ids=["TT", "TF", "FT", "FF"])
def test_mixed_batch_rows_match_batches_of_one_under_every_placement(setting):
    # Each run of a batch is fanned out to all four placements, so each row
    # of a placement's block must carry the bits of its run alone under it.
    runs = random_runs(300, 5077)
    readout = run_pair(pair_batch(runs))
    k = SETTINGS.index(setting)
    for j, run in enumerate(runs):
        single = run_pair(pair_batch([run]))
        for key in set(readout.keys) | set(single.keys):
            ours, theirs = key_probability(readout, key), key_probability(single, key)
            assert ours[k * len(runs) + j].tobytes() == theirs[k].tobytes(), (j, key)


def test_strided_inputs_give_the_bytes_of_contiguous_ones():
    # numpy may pick a different complex loop for strided operands, and a
    # complex product once differed in the last bit between loop kinds.
    rng = np.random.default_rng(6007)
    phis = rng.uniform(-7.0, 7.0, 2 * 101)
    bs = BeamSplitterParams.from_r(0.43)
    strided = run_pair(PairBatch.phase_settings(bs, phis[::2]))
    contiguous = run_pair(PairBatch.phase_settings(bs, phis[::2].copy()))
    assert strided.keys == contiguous.keys
    assert strided.probs.tobytes() == contiguous.probs.tobytes()

    r = rng.uniform(0.01, 0.99, 120)
    t = np.sqrt(1.0 - r * r)
    annihilate = rng.random(120) < 0.5

    def per_run(pick):
        bs = BeamSplitterParams(t=pick(t), r=pick(r))
        return PairBatch(bs, pick(phis[:120]), pick(annihilate))

    strided = run_pair(per_run(lambda a: a[::2]))
    contiguous = run_pair(per_run(lambda a: a[::2].copy()))
    assert strided.keys == contiguous.keys
    assert strided.probs.tobytes() == contiguous.probs.tobytes()


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
