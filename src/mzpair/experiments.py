"""The interferometer setups: single bomb test, annihilation pair, phase pair.

The bomb test runs first splitter, optional bomb, second splitter, readout.
A twin run is measured under all four in-arm detector placements at once,
and its result is those four placements: row ``k * runs + j`` of a batch's
state is run ``j`` under ``SETTINGS[k]``.  The first splitters and the
coupling, which come before any in-arm detector, act once per run; one
gather fans their state out to the four placements; and the second
splitters act on every placement.  The closed forms kept alongside (retest
efficiency, the gravitational phase) are the quantities the CLI reports.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .state import (
    ABSORBED,
    EXPLODED,
    U,
    BeamSplitterParams,
    JointState,
    OutcomeDistribution,
    Readout,
    apply_absorber,
    apply_annihilation_coupling,
    apply_bs1,
    apply_bs2,
    apply_phase_coupling,
    measure,
)

__all__ = [
    "GRAVITATIONAL_CONSTANT",
    "HBAR",
    "GravityParams",
    "SETTINGS",
    "PairBatch",
    "run_ev",
    "ev_retest_efficiency",
    "run_pair_state",
    "run_pair",
    "gravity_phase",
]

GRAVITATIONAL_CONSTANT = 6.67430e-11  # m^3 kg^-1 s^-2 (CODATA 2018)
HBAR = 1.054571817e-34  # J s (CODATA 2018)

# Detector placements (side 1, side 2); True when the in-arm detector is placed.
SETTINGS = ((True, True), (True, False), (False, True), (False, False))
_SETTING_COLUMNS = np.array(SETTINGS).T  # side 1's and side 2's placements over SETTINGS


@dataclass(frozen=True, eq=False)
class PairBatch:
    """Twin runs, as columns.

    A run is a splitter ratio, a joint phase and a coupling kind: entry
    ``j`` of ``phi`` and ``annihilate``, and of ``bs`` when it holds one
    ratio per run, describes run ``j``.  ``phi`` is zero for runs without a
    phase coupling (a zero phase leaves the amplitudes bit-identical), and
    ``annihilate`` marks the runs whose ``u`` arms annihilate.  Every run is
    measured under all four detector placements.  Columns of other lengths,
    or no run, raise ``ValueError``.
    """

    bs: BeamSplitterParams
    phi: np.ndarray
    annihilate: np.ndarray

    def __post_init__(self) -> None:
        runs = len(self.phi)
        if getattr(self.bs.r, "ndim", 0) and len(self.bs.r) != runs:  # np.ndim, unwrapped
            raise ValueError(
                f"need one splitter ratio per phase, got {len(self.bs.r)} ratios "
                f"for {runs} phases"
            )
        if len(self.annihilate) != runs:
            raise ValueError(
                f"need one annihilate entry per phase, got {len(self.annihilate)} "
                f"for {runs} phases"
            )
        if not runs:
            raise ValueError("need at least one run, got 0")

    @property
    def runs(self) -> int:
        return len(self.phi)

    @classmethod
    def of(cls, bs: BeamSplitterParams, *, phi=0.0, annihilate=False) -> "PairBatch":
        """Runs from columns each given as one value for every run or one per run.

        The batch has as many runs as the per-run arguments, one if there are
        none; ``bs`` is kept as given.  Per-run arguments of different
        lengths, or empty ones, raise ``ValueError``.
        """
        (runs,) = np.broadcast_shapes((1,), *map(np.shape, (bs.r, phi, annihilate)))
        return cls(bs, np.full(runs, phi, dtype=float), np.full(runs, annihilate, dtype=bool))

    @classmethod
    def phase_settings(cls, bs: BeamSplitterParams, phis) -> "PairBatch":
        """One phase-coupled run per phase: run ``j`` has the phase ``phis[j]``.

        ``bs`` is shared by every run, or holds one ratio per phase; any
        other count of ratios, or no phase, raises ``ValueError``.
        """
        phis = np.array(phis, dtype=float)
        return cls(bs, phis, np.zeros(len(phis), dtype=bool))


@dataclass(frozen=True)
class GravityParams:
    """Masses and geometry for a gravitationally induced coupling phase."""

    mass_kg: float
    interaction_length_m: float
    separation_m: float

    def __post_init__(self) -> None:
        for name in ("mass_kg", "interaction_length_m", "separation_m"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")


def run_ev(bs: BeamSplitterParams, bomb_present: bool) -> OutcomeDistribution:
    """Single interferometer, optionally with a triggering bomb in arm ``u``.

    Without the bomb the tuned device sends everything to ``C``.  With it,
    outcomes are ``exploded`` (r^2), ``C`` (t^4) and the interaction-free
    flag ``D`` (t^2 r^2).
    """
    state = JointState.single()
    state = apply_bs1(state, 0, bs)
    if bomb_present:
        state = apply_absorber(state, 0, U, EXPLODED)
    state = apply_bs2(state, 0, bs)
    return measure(state).row(0)


def ev_retest_efficiency(bs: BeamSplitterParams) -> float:
    """Fraction of live bombs eventually flagged when every ``C`` run is retried.

    Summing the geometric series of survive-and-retest rounds gives
    t^2 r^2 / (1 - t^4) = t^2 / (1 + t^2), approaching 1/2 as t -> 1.
    """
    t_sq = bs.t * bs.t
    return t_sq / (1.0 + t_sq)


@functools.lru_cache(maxsize=64)
def _fan_out(keys: tuple) -> tuple[tuple, np.ndarray]:
    """Plan the fan-out of a state listing ``keys`` to every detector placement.

    Returns the keys the in-arm detectors leave and, per key and placement
    (in ``SETTINGS`` order), the row of the prefix amplitudes it copies,
    counted from 1 with row 0 a row of zeros.  The plan is read off the
    absorbers themselves, run on a probe whose column ``k`` holds ``k + 1``
    in every placement, so :func:`apply_absorber` stays the only definition
    of where absorbed amplitude goes.  A state before the detectors lists no
    sink key, so the absorbers move and keep amplitude without adding any:
    each entry of the probe's result names one source.
    """
    probe = np.arange(1, len(keys) + 1).astype(complex)[:, None].repeat(len(SETTINGS), 1)
    state = JointState(probe, keys)
    for particle, placed in enumerate(_SETTING_COLUMNS):
        state = apply_absorber(state, particle, U, ABSORBED, placed)
    sources = state.amps.real.astype(np.intp)
    sources.setflags(write=False)  # shared by every caller through the cache
    return state.keys, sources


def run_pair_state(batch: PairBatch) -> JointState:
    """Final (pre-readout) joint states of a batch of twin runs, four rows per run.

    The first splitters and the coupling act once per run.  One gather then
    copies their state to every detector placement, placement-major: row
    ``k * runs + j`` is run ``j`` under ``SETTINGS[k]``.  The second
    splitters act on both sides of every placement, even where an in-arm
    detector is placed (the not-absorbed part of that side still propagates
    to ``C``/``D``).
    """
    runs = batch.runs
    state = JointState.pair(runs)
    state = apply_bs1(state, 0, batch.bs)
    state = apply_bs1(state, 1, batch.bs)
    # A coupling no run has is skipped; applying it would leave the state as is.
    if np.count_nonzero(batch.phi):
        state = apply_phase_coupling(state, batch.phi)
    if np.count_nonzero(batch.annihilate):
        state = apply_annihilation_coupling(state, batch.annihilate)
    keys, sources = _fan_out(state.keys)
    padded = np.concatenate((np.zeros((1, runs), dtype=complex), state.amps))
    state = JointState(padded.take(sources, 0).reshape(len(keys), -1), keys)
    bs = batch.bs
    if getattr(bs.r, "ndim", 0):
        bs = bs.tile(len(SETTINGS))
    state = apply_bs2(state, 0, bs)
    return apply_bs2(state, 1, bs)


def run_pair(batch: PairBatch) -> Readout:
    """Run a batch of twin runs of any coupling kinds and read out, four rows per run.

    Row ``k * runs + j`` is run ``j`` under ``SETTINGS[k]``, as in :func:`run_pair_state`.
    """
    return measure(run_pair_state(batch))


def gravity_phase(params: GravityParams) -> float:
    """Coupling phase acquired gravitationally: ``G m^2 L / (hbar d)``.

    Raises ``ValueError`` when extreme inputs push ``hbar d`` to zero or the
    phase out of the finite floats.
    """
    denominator = HBAR * params.separation_m
    if not (math.isfinite(denominator) and denominator > 0.0):
        raise ValueError(f"hbar * distance is not a positive finite float: {denominator!r}")
    phase = (
        GRAVITATIONAL_CONSTANT
        * params.mass_kg
        * params.mass_kg
        * params.interaction_length_m
        / denominator
    )
    if not math.isfinite(phase):
        raise ValueError(f"gravitational phase is not finite: {phase!r}")
    return phase
