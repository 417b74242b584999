"""The interferometer setups: single bomb test, annihilation pair, phase pair.

Each runner assembles the same pipeline (first splitters, the coupling if
any, the optional in-arm detectors, second splitters, readout) and returns
a normalized outcome table.  The closed forms kept alongside (retest
efficiency, the joint bright-port amplitude, the gravitational phase) are the
quantities the rest of the package reasons about.
"""

from __future__ import annotations

import cmath
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
    "dark_port_coefficient",
    "gravity_phase",
]

GRAVITATIONAL_CONSTANT = 6.67430e-11  # m^3 kg^-1 s^-2 (CODATA 2018)
HBAR = 1.054571817e-34  # J s (CODATA 2018)

# Detector placements (side 1, side 2); True when the in-arm detector is placed.
SETTINGS = ((True, True), (True, False), (False, True), (False, False))
_SETTING_COLUMNS = np.array(SETTINGS).T  # the u1 and u2 masks over SETTINGS


@dataclass(frozen=True, eq=False)
class PairBatch:
    """Twin runs as columns: entry ``k`` of every field describes row ``k``.

    ``phi`` is each row's joint phase, zero on rows without a phase coupling
    (a zero phase leaves the amplitudes bit-identical); ``annihilate``,
    ``u1`` and ``u2`` are boolean masks of the rows whose ``u`` arms
    annihilate and of the rows with each in-arm detector placed.
    """

    bs: BeamSplitterParams
    phi: np.ndarray
    annihilate: np.ndarray
    u1: np.ndarray
    u2: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.phi)

    @classmethod
    def of(
        cls, bs: BeamSplitterParams, *, phi=0.0, annihilate=False, u1=False, u2=False
    ) -> "PairBatch":
        """Twin runs from columns, each given as one value for every row or one per row.

        The batch has as many rows as the per-row arguments, one if there are
        none; ``bs`` is kept as given.  Per-row arguments of different
        lengths, or empty ones, raise ``ValueError``.
        """
        (rows,) = np.broadcast_shapes((1,), *map(np.shape, (bs.r, phi, annihilate, u1, u2)))
        if rows == 0:
            raise ValueError("a batch needs at least one row")
        return cls(
            bs,
            np.full(rows, phi, dtype=float),
            np.full(rows, annihilate, dtype=bool),
            np.full(rows, u1, dtype=bool),
            np.full(rows, u2, dtype=bool),
        )

    @classmethod
    def phase_settings(cls, bs: BeamSplitterParams, phis) -> "PairBatch":
        """Phase-coupled runs under every setting: row ``k * len(phis) + j``
        has the placements ``SETTINGS[k]`` and the phase ``phis[j]``.

        ``bs`` is shared by every row, or holds one ratio per phase, tiled
        over the settings as the phases are; any other count of ratios raises
        ``ValueError``.
        """
        phis = np.asarray(phis, dtype=float)
        u1, u2 = np.repeat(_SETTING_COLUMNS, len(phis), axis=1)
        no_annihilation = np.zeros(len(u1), dtype=bool)
        if isinstance(bs.r, np.ndarray):
            if bs.r.shape != phis.shape:
                raise ValueError(
                    f"need one splitter ratio per phase, got {bs.r.size} ratios "
                    f"for {phis.size} phases"
                )
            bs = BeamSplitterParams(
                t=np.concatenate((bs.t,) * len(SETTINGS)), r=np.concatenate((bs.r,) * len(SETTINGS))
            )
        return cls(bs, np.concatenate((phis,) * len(SETTINGS)), no_annihilation, u1, u2)


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


def run_pair_state(batch: PairBatch) -> JointState:
    """Final (pre-readout) joint states of a batch of twin runs.

    The second splitters act on both sides even when an in-arm detector is
    placed: the not-absorbed part of that side still propagates to ``C``/``D``.
    """
    state = JointState.pair(batch.rows)
    state = apply_bs1(state, 0, batch.bs)
    state = apply_bs1(state, 1, batch.bs)
    # A stage no row has is skipped; applying it would leave the state as is.
    if batch.phi.any():
        state = apply_phase_coupling(state, batch.phi)
    if batch.annihilate.any():
        state = apply_annihilation_coupling(state, batch.annihilate)
    if batch.u1.any():
        state = apply_absorber(state, 0, U, ABSORBED, batch.u1)
    if batch.u2.any():
        state = apply_absorber(state, 1, U, ABSORBED, batch.u2)
    state = apply_bs2(state, 0, batch.bs)
    state = apply_bs2(state, 1, batch.bs)
    return state


def run_pair(batch: PairBatch) -> Readout:
    """Run a batch of twin configurations of any coupling kinds and read out."""
    return measure(run_pair_state(batch))


def dark_port_coefficient(bs: BeamSplitterParams, phi: float) -> complex:
    """Closed-form joint bright-port amplitude of the phase-coupled pair.

    With no in-arm detectors the ``(C, C)`` amplitude collapses to
    ``-(r^4 + 2 r^2 t^2 + t^4 e^{i phi})``; at ``phi = 0`` this is exactly
    ``-1`` and every other joint outcome is dark.
    """
    r_sq = bs.r * bs.r
    t_sq = bs.t * bs.t
    return -(r_sq * r_sq + 2.0 * r_sq * t_sq + t_sq * t_sq * cmath.exp(1j * phi))


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
