"""Property tests of the engine's physics: norm, periodicity, particle swap, no-signaling.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mzpair.bell import behavior_from_phase_setup  # noqa: E402
from mzpair.experiments import SETTINGS, PairBatch, run_pair, run_pair_state  # noqa: E402
from mzpair.state import NORM_TOL, OUTCOME_KEYS, BeamSplitterParams, Readout  # noqa: E402

ATOL = 1e-12

ratios = st.floats(0.01, 0.99)
phases = st.floats(-7.0, 7.0)


@st.composite
def runs(draw):
    """One twin run ``(r, phi, annihilate)``: its ratio and coupling kind."""
    kind = draw(st.sampled_from(["none", "annihilation", "phase"]))
    phi = draw(phases) if kind == "phase" else 0.0
    return draw(ratios), phi, kind == "annihilation"


def pair_batch(runs):
    r, phi, annihilate = (np.array(column) for column in zip(*runs))
    bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
    return PairBatch.of(bs, phi=phi, annihilate=annihilate)


batches = st.lists(runs(), min_size=1, max_size=12).map(pair_batch)


def swapped_rows(runs):
    """Per row of a batch's readout, the row of the same run with the placements exchanged."""
    blocks = np.arange(len(SETTINGS) * runs).reshape(len(SETTINGS), runs)
    return blocks[[SETTINGS.index((u2, u1)) for u1, u2 in SETTINGS]].ravel()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(batches)
def test_norm_is_conserved_over_mixed_batches(batch):
    state = run_pair_state(batch)
    assert np.max(np.abs((np.abs(state.amps) ** 2).sum(0) - 1.0)) <= NORM_TOL
    readout = run_pair(batch)
    totals = readout.probs.sum(axis=0)
    assert np.max(np.abs(totals - 1.0)) <= NORM_TOL


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios, phases)
def test_phase_is_periodic_in_two_pi(r, phi):
    bs = BeamSplitterParams.from_r(r)
    base = run_pair(PairBatch.phase_settings(bs, [phi]))
    turned = run_pair(PairBatch.phase_settings(bs, [phi + 2.0 * math.pi]))
    for outcome in OUTCOME_KEYS:
        assert np.max(np.abs(turned.prob(outcome) - base.prob(outcome))) <= ATOL, outcome


@settings(derandomize=True, max_examples=60, deadline=None)
@given(batches)
def test_swapping_the_particles_transposes_the_table(batch):
    # Both sides share one splitter, so exchanging the particles is
    # exchanging the detector placements: row i of the mirrored readout is
    # its run under the placements of row i swapped.
    readout = run_pair(batch)
    mirrored = Readout(readout.probs[:, swapped_rows(batch.runs)], readout.keys)
    pairs = [outcome for outcome in OUTCOME_KEYS if isinstance(outcome, tuple)]
    for a, b in pairs:
        assert np.max(np.abs(mirrored.prob((b, a)) - readout.prob((a, b)))) <= ATOL, (a, b)
    assert np.max(np.abs(mirrored.prob("gamma") - readout.prob("gamma"))) <= ATOL


@settings(derandomize=True, max_examples=60, deadline=None)
@given(ratios, phases)
def test_marginals_do_not_depend_on_the_far_setting(r, phi):
    behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
    assert behavior.no_signaling_residual() <= ATOL
    for side in (0, 1):
        for own in (True, False):
            placed = behavior.marginal(side, own, True)
            absent = behavior.marginal(side, own, False)
            assert max(abs(placed[o] - absent[o]) for o in placed) <= ATOL
