"""Property tests of the engine's physics: norm, periodicity, particle swap, no-signaling.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import dataclasses
import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mzpair.bell import behavior_from_phase_setup  # noqa: E402
from mzpair.experiments import SETTINGS, PairBatch, run_pair, run_pair_state  # noqa: E402
from mzpair.state import NORM_TOL, OUTCOME_KEYS, BeamSplitterParams  # noqa: E402

ATOL = 1e-12

ratios = st.floats(0.01, 0.99)
phases = st.floats(-7.0, 7.0)


@st.composite
def runs(draw):
    """One twin run ``(r, phi, annihilate, u1, u2)``: its ratio, coupling kind and placement."""
    kind = draw(st.sampled_from(["none", "annihilation", "phase"]))
    phi = draw(phases) if kind == "phase" else 0.0
    u1, u2 = draw(st.sampled_from(SETTINGS))
    return draw(ratios), phi, kind == "annihilation", u1, u2


def pair_batch(rows):
    r, phi, annihilate, u1, u2 = (np.array(column) for column in zip(*rows))
    bs = BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r)
    return PairBatch.of(bs, phi=phi, annihilate=annihilate, u1=u1, u2=u2)


batches = st.lists(runs(), min_size=1, max_size=12).map(pair_batch)


def swapped(batch):
    """The batch with its particles exchanged: the detector columns trade places."""
    return dataclasses.replace(batch, u1=batch.u2, u2=batch.u1)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(batches)
def test_norm_is_conserved_over_mixed_batches(batch):
    state = run_pair_state(batch)
    assert np.max(np.abs(state.norm_squared() - 1.0)) <= NORM_TOL
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
    readout = run_pair(batch)
    mirrored = run_pair(swapped(batch))
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
