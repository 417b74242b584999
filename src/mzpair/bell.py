"""Nonlocality analysis of the phase-coupled pair.

The measured object is a *behavior*: for every combination of in-arm
detector placements (the settings), the joint probability table over that
setting's outcomes.  On top of it live three views that must agree:

* the four-term inequality  p(U1,U2) - p(U1,!C2) - p(!C1,U2) - p(C1,C2) <= 0,
  satisfied by every local deterministic strategy;
* exact membership in the polytope spanned by the 36 deterministic
  strategies, decided by a small phase-1 simplex;
* the counting form: four statements whose probabilities cannot sum past
  N - 1 if some run makes them all true at once.

``!C`` (not-C) means the event {U, D} when the in-arm detector is placed and
{D} when it is absent.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .experiments import SETTINGS, PairBatch, run_pair
from .simplex import solve_phase1
from .state import BeamSplitterParams

__all__ = [
    "SETTINGS",
    "side_outcomes",
    "BehaviorTable",
    "BellReport",
    "LocalStrategy",
    "DeterministicStrategy",
    "LhvMembership",
    "behavior_from_phase_setup",
    "bell_violation",
    "enumerate_deterministic_strategies",
    "membership_system",
    "lhv_membership",
    "logical_inequality",
    "paradox_statement_probs",
    "hardy_constants",
    "HardyConstants",
]

NO_SIGNALING_TOL = 1e-9
FEASIBILITY_TOL = 1e-9
TABLE_NORM_TOL = 1e-12


def side_outcomes(present: bool) -> tuple[str, ...]:
    """Outcome letters one side can show under a given detector placement."""
    return ("U", "C", "D") if present else ("C", "D")


def _not_c(present: bool) -> tuple[str, ...]:
    return ("U", "D") if present else ("D",)


@dataclass(frozen=True)
class BehaviorTable:
    """Joint outcome probabilities for every detector placement combination."""

    tables: dict[tuple[bool, bool], dict[tuple[str, str], float]]

    @classmethod
    def from_tables(
        cls, tables: dict[tuple[bool, bool], dict[tuple[str, str], float]]
    ) -> "BehaviorTable":
        """Validate and canonicalize raw per-setting tables.

        Every admissible outcome is filled in (zero when missing), each
        setting block must be normalized, and the two marginals must not
        depend on the far side's setting.
        """
        full: dict[tuple[bool, bool], dict[tuple[str, str], float]] = {}
        for setting in SETTINGS:
            if setting not in tables:
                raise ValueError(f"missing table for setting {setting!r}")
            raw = tables[setting]
            complete: dict[tuple[str, str], float] = {}
            for o1 in side_outcomes(setting[0]):
                for o2 in side_outcomes(setting[1]):
                    p = raw.get((o1, o2), 0.0)
                    if p < -1e-15:
                        raise ValueError(f"negative probability {p!r} at {setting}/{(o1, o2)}")
                    complete[(o1, o2)] = max(p, 0.0)
            for outcome, p in raw.items():
                if outcome not in complete and p > 1e-15:
                    raise ValueError(f"outcome {outcome!r} impossible under setting {setting!r}")
            total = sum(complete.values())
            if abs(total - 1.0) > TABLE_NORM_TOL:
                raise ValueError(f"setting {setting!r} sums to {total!r}, expected 1")
            full[setting] = complete
        behavior = cls(full)
        residual = behavior.no_signaling_residual()
        if residual > NO_SIGNALING_TOL:
            raise ValueError(f"no-signaling violated: marginal shift {residual!r}")
        return behavior

    def prob(self, setting: tuple[bool, bool], outcome: tuple[str, str]) -> float:
        return self.tables[setting].get(outcome, 0.0)

    def marginal(self, side: int, own: bool, other: bool) -> dict[str, float]:
        """Distribution of one side's outcome, given both placements."""
        setting = (own, other) if side == 0 else (other, own)
        out = {o: 0.0 for o in side_outcomes(own)}
        for (o1, o2), p in self.tables[setting].items():
            out[o1 if side == 0 else o2] += p
        return out

    def no_signaling_residual(self) -> float:
        """Largest marginal shift caused by flipping the far side's setting."""
        worst = 0.0
        for side in (0, 1):
            for own in (True, False):
                near = self.marginal(side, own, True)
                far = self.marginal(side, own, False)
                worst = max(worst, max(abs(near[o] - far[o]) for o in near))
        return worst


def behavior_from_phase_setup(bs: BeamSplitterParams, phi: float) -> BehaviorTable:
    """Measure the phase-coupled pair under all four detector placements."""
    dist = run_pair(PairBatch.phase_settings(bs, [phi]))
    tables: dict[tuple[bool, bool], dict[tuple[str, str], float]] = {}
    for row, setting in enumerate(SETTINGS):
        table: dict[tuple[str, str], float] = {}
        for outcome, p in dist.row(row).probabilities.items():
            if not isinstance(outcome, tuple):
                raise RuntimeError(f"joint sink {outcome!r} cannot occur in the phase setup")
            table[outcome] = p
        tables[setting] = table
    return BehaviorTable.from_tables(tables)


@dataclass(frozen=True)
class BellReport:
    """The four inequality terms and their combination.

    ``lhv_feasible`` is None when the membership test was not run.
    """

    p_u1u2: float
    p_u1_notc2: float
    p_notc1_u2: float
    p_c1c2: float
    violation: float
    lhv_feasible: bool | None


def bell_violation(behavior: BehaviorTable, *, check_lhv: bool = True) -> BellReport:
    """Evaluate the four-term inequality; a positive violation rules out local models."""
    p1 = behavior.prob((True, True), ("U", "U"))
    p2 = sum(behavior.prob((True, False), ("U", o)) for o in _not_c(False))
    p3 = sum(behavior.prob((False, True), (o, "U")) for o in _not_c(False))
    p4 = behavior.prob((False, False), ("C", "C"))
    violation = p1 - p2 - p3 - p4
    feasible = lhv_membership(behavior).feasible if check_lhv else None
    return BellReport(p1, p2, p3, p4, violation, feasible)


@dataclass(frozen=True)
class LocalStrategy:
    """One side's fixed response to each detector placement."""

    when_present: str  # "U", "C" or "D"
    when_absent: str  # "C" or "D"

    def __post_init__(self) -> None:
        if self.when_present not in side_outcomes(True):
            raise ValueError(f"invalid response {self.when_present!r} for a placed detector")
        if self.when_absent not in side_outcomes(False):
            raise ValueError(f"invalid response {self.when_absent!r} for an absent detector")

    def outcome(self, present: bool) -> str:
        return self.when_present if present else self.when_absent


@dataclass(frozen=True)
class DeterministicStrategy:
    """A pair of local strategies, one per side."""

    side1: LocalStrategy
    side2: LocalStrategy

    def behavior(self) -> BehaviorTable:
        tables = {
            setting: {(self.side1.outcome(setting[0]), self.side2.outcome(setting[1])): 1.0}
            for setting in SETTINGS
        }
        return BehaviorTable.from_tables(tables)


def _local_strategies() -> tuple[LocalStrategy, ...]:
    return tuple(
        LocalStrategy(p, a) for p in side_outcomes(True) for a in side_outcomes(False)
    )


def enumerate_deterministic_strategies() -> tuple[DeterministicStrategy, ...]:
    """All 36 joint deterministic responses (6 per side), in a fixed order."""
    locals_ = _local_strategies()
    return tuple(DeterministicStrategy(s1, s2) for s1 in locals_ for s2 in locals_)


def behavior_vector(behavior: BehaviorTable) -> np.ndarray:
    """Flatten a behavior into the canonical constraint ordering."""
    values = []
    for setting in SETTINGS:
        for o1 in side_outcomes(setting[0]):
            for o2 in side_outcomes(setting[1]):
                values.append(behavior.prob(setting, (o1, o2)))
    return np.array(values)


@functools.cache
def _strategy_matrix() -> np.ndarray:
    columns = [behavior_vector(s.behavior()) for s in enumerate_deterministic_strategies()]
    return np.column_stack(columns)


def membership_system(behavior: BehaviorTable) -> tuple[np.ndarray, np.ndarray]:
    """Equality system ``A w = b`` whose nonnegative solutions are local models.

    Rows are the 25 outcome cells in canonical order plus an explicit
    normalization row (redundant, kept for clarity of intent).
    """
    A = _strategy_matrix()
    b = behavior_vector(behavior)
    A = np.vstack([A, np.ones(A.shape[1])])
    b = np.append(b, 1.0)
    return A, b


@dataclass(frozen=True)
class LhvMembership:
    """Outcome of the polytope membership test.

    ``weights`` align with :func:`enumerate_deterministic_strategies`;
    ``certificate`` aligns with the rows of :func:`membership_system`.
    """

    feasible: bool
    weights: tuple[float, ...] | None
    residual: float | None  # max |A w - b| at the returned weights
    infeasibility: float  # leftover phase-1 mass
    certificate: tuple[float, ...] | None
    iterations: int


def lhv_membership(behavior: BehaviorTable, *, tol: float = FEASIBILITY_TOL) -> LhvMembership:
    """Can a mixture of the 36 deterministic strategies reproduce this behavior?"""
    A, b = membership_system(behavior)
    result = solve_phase1(A, b, tol=tol)
    if result.feasible:
        weights = result.x
        residual = float(np.max(np.abs(A @ weights - b)))
        return LhvMembership(
            True, tuple(weights), residual, result.objective, None, result.iterations
        )
    return LhvMembership(
        False, None, None, result.objective, tuple(result.certificate), result.iterations
    )


def logical_inequality(probabilities) -> float:
    """Excess of ``sum(p)`` over ``N - 1`` for N statement probabilities.

    A positive excess means no assignment of truth values to a single run
    can make all N statements hold, yet the observed frequencies demand it.
    """
    probs = [float(p) for p in probabilities]
    if not probs:
        raise ValueError("need at least one statement probability")
    for p in probs:
        if p < -1e-12 or p > 1.0 + 1e-12:
            raise ValueError(f"statement probability out of range: {p!r}")
    return sum(probs) - (len(probs) - 1.0)


def paradox_statement_probs(behavior: BehaviorTable) -> list[float]:
    """Probabilities of the four statements behind the inequality.

    In order: both in-arm detectors fire; side 1 firing never meets not-C on
    side 2; not-C on side 1 never meets side 2 firing; the two bright ports
    never fire together.  Their excess over N - 1 equals the inequality
    violation term for term.
    """
    report = bell_violation(behavior, check_lhv=False)
    return [
        report.p_u1u2,
        1.0 - report.p_u1_notc2,
        1.0 - report.p_notc1_u2,
        1.0 - report.p_c1c2,
    ]


@dataclass(frozen=True)
class HardyConstants:
    qubit_max: float  # (5*sqrt(5) - 11) / 2
    golden_check: bool  # equals the inverse fifth power of the golden ratio


def hardy_constants() -> HardyConstants:
    """Reference ceiling for this paradox probability with two qubits.

    The maximum over all two-qubit states and measurements is
    ``(5*sqrt(5) - 11) / 2``, which is also ``tau**-5`` for the golden
    ratio ``tau``; the flag records that identity holding to 1e-12.
    """
    qubit_max = (5.0 * math.sqrt(5.0) - 11.0) / 2.0
    tau = (1.0 + math.sqrt(5.0)) / 2.0
    golden_check = abs(qubit_max - tau**-5) <= 1e-12
    return HardyConstants(qubit_max=qubit_max, golden_check=golden_check)
