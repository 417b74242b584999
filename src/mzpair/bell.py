"""Nonlocality analysis of the phase-coupled pair.

The measured object is a *behavior*: for every combination of in-arm
detector placements (the settings), the joint probability table over that
setting's outcomes.  On top of it live two views that must agree:

* the four-term inequality  p(U1,U2) - p(U1,!C2) - p(!C1,U2) - p(C1,C2) <= 0,
  satisfied by every local deterministic strategy;
* exact membership in the polytope spanned by the 36 deterministic
  strategies.  A behavior that violates one of the 72 liftings of CHSH by
  more than the tolerance plus a margin is outside, and that lifting is its
  Farkas certificate (``iterations`` 0); any other behavior goes to a small
  phase-1 simplex.  The printed ``lhv_infeasibility`` is the simplex's
  leftover mass either way, solved for when it is first read.

``!C`` (not-C) means the event {U, D} when the in-arm detector is placed and
{D} when it is absent.

A behavior is stored as its 25 admissible cells in the canonical order
``CELLS``.  This module alone knows that layout: :func:`behavior_cells`
gathers the cells from a batched readout's key columns, and
:func:`inequality_terms` is the one definition of the inequality, for a
single behavior or a whole scan.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .experiments import SETTINGS, PairBatch, run_pair
from .simplex import FEASIBILITY_TOL, solve_phase1
from .state import GAMMA, OUTCOME_KEYS, BeamSplitterParams, Readout

__all__ = [
    "SETTINGS",
    "CELLS",
    "side_outcomes",
    "BehaviorTable",
    "BellReport",
    "LocalStrategy",
    "DeterministicStrategy",
    "LhvMembership",
    "behavior_cells",
    "behavior_from_phase_setup",
    "inequality_terms",
    "bell_violation",
    "enumerate_deterministic_strategies",
    "membership_system",
    "lhv_membership",
    "hardy_constants",
    "HardyConstants",
]

NO_SIGNALING_TOL = 1e-9
TABLE_NORM_TOL = 1e-12


def side_outcomes(present: bool) -> tuple[str, ...]:
    """Outcome letters one side can show under a given detector placement."""
    return ("U", "C", "D") if present else ("C", "D")


def _outcomes(setting: tuple[bool, bool]) -> list[tuple[str, str]]:
    return [(o1, o2) for o1 in side_outcomes(setting[0]) for o2 in side_outcomes(setting[1])]


# The canonical layout of a behavior: its 25 admissible (setting, outcome)
# cells, setting by setting; _BLOCKS[setting] slices out one setting's cells.
CELLS = tuple((setting, outcome) for setting in SETTINGS for outcome in _outcomes(setting))
_CELL_INDEX = {cell: k for k, cell in enumerate(CELLS)}
_SETTING_OF = [setting for setting, _ in CELLS]
_BLOCKS = {
    s: slice(_SETTING_OF.index(s), _SETTING_OF.index(s) + _SETTING_OF.count(s)) for s in SETTINGS
}
# One row per side, own placement and letter: +1 on the cells whose sum is
# that letter's marginal with the far detector placed, -1 with it absent.
# _SHIFTS @ cells lists every marginal shift that no-signaling forbids.
_SHIFTS = np.array(
    [
        [
            (1.0 if setting[1 - side] else -1.0)
            if setting[side] == own and outcome[side] == letter
            else 0.0
            for setting, outcome in CELLS
        ]
        for side in (0, 1)
        for own in (True, False)
        for letter in side_outcomes(own)
    ]
)
# The row block of each cell's setting in a run_pair readout, which is placement-major.
_CELL_SETTING = np.array([SETTINGS.index(setting) for setting in _SETTING_OF])
# Every setting block's total and every marginal shift, as one product with
# the cells; _CHECKS @ cells - _TARGETS is zero for a valid behavior.
_CHECKS = np.vstack([[[float(s == setting) for s in _SETTING_OF] for setting in SETTINGS], _SHIFTS])
_TARGETS = np.array([1.0] * len(SETTINGS) + [0.0] * len(_SHIFTS))
# How close to zero every entry of that difference must be for a behavior to
# pass with no itemized check.  A block total or shift sums at most 25 cells
# of a table whose totals are near 1, so the product's sums and the itemized
# checks' own sums differ by under 1e-14: half the smaller tolerance leaves
# every behavior passed here inside both tolerances.
_CLEAR = TABLE_NORM_TOL / 2
# p(U1,U2), p(U1,!C2), p(!C1,U2), p(C1,C2); !C is {D} on a side whose detector is absent.
_TERM_CELLS = [
    _CELL_INDEX[((True, True), ("U", "U"))],
    _CELL_INDEX[((True, False), ("U", "D"))],
    _CELL_INDEX[((False, True), ("D", "U"))],
    _CELL_INDEX[((False, False), ("C", "C"))],
]


@functools.lru_cache(maxsize=64)
def _plan(keys: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a readout listing ``keys`` that hold each cell, and, ascending, all others.

    Rows are those of ``probs`` split by setting, ``(keys * settings, runs)``:
    key ``k`` under ``SETTINGS[s]`` is row ``k * len(SETTINGS) + s``.  A
    :func:`run_pair` readout of phase-coupled runs lists the key of every cell.
    """
    keyed = np.array([keys.index(OUTCOME_KEYS[outcome]) for _, outcome in CELLS])
    cells = keyed * len(SETTINGS) + _CELL_SETTING
    stray = np.ones(len(keys) * len(SETTINGS), dtype=bool)
    stray[cells] = False
    return cells, np.flatnonzero(stray)


def behavior_cells(readout: Readout) -> np.ndarray:
    """Canonical cells of a :func:`run_pair` readout of phase-coupled runs, one column per run."""
    blocks = readout.probs.reshape(len(readout.keys) * len(SETTINGS), -1)
    return blocks.take(_plan(readout.keys)[0], 0)


def inequality_terms(cells: np.ndarray) -> tuple:
    """The four inequality terms and ``p1 - p2 - p3 - p4``, from canonical cells on axis 0."""
    p1, p2, p3, p4 = (cells[k] for k in _TERM_CELLS)
    return p1, p2, p3, p4, p1 - p2 - p3 - p4


@dataclass(frozen=True, eq=False)
class BehaviorTable:
    """Joint outcome probabilities for every detector placement combination.

    ``cells[k]`` is the probability of ``CELLS[k]``.  Build one through
    :meth:`from_tables` or :func:`behavior_from_phase_setup`, which check it:
    every cell is finite, each setting block is normalized, and the two
    marginals do not depend on the far side's setting.
    """

    cells: np.ndarray

    @classmethod
    def from_tables(
        cls, tables: dict[tuple[bool, bool], dict[tuple[str, str], float]]
    ) -> "BehaviorTable":
        """Validate and canonicalize raw per-setting tables; a missing outcome is zero."""
        for setting in SETTINGS:
            if setting not in tables:
                raise ValueError(f"missing table for setting {setting!r}")
            for outcome, p in tables[setting].items():
                if (setting, outcome) not in _CELL_INDEX and not p <= 1e-15:
                    raise ValueError(f"outcome {outcome!r} impossible under setting {setting!r}")
        return cls._checked(np.array([tables[s].get(o, 0.0) for s, o in CELLS]))

    @classmethod
    def _checked(cls, cells: np.ndarray) -> "BehaviorTable":
        behavior = cls(np.maximum(cells, 0.0))
        behavior.cells.setflags(write=False)
        # Success path: one reduction for the lowest cell (NaN fails it) and
        # one product for every total and shift, of cells capped at 2 so no
        # infinity or overflow reaches it (a capped cell fails its total).
        # Whatever does not pass here is decided, and named, below.
        capped = np.minimum(behavior.cells, 2.0)
        if np.minimum.reduce(cells) >= -1e-15 and (
            np.maximum.reduce(np.abs(_CHECKS @ capped - _TARGETS)) <= _CLEAR
        ):
            return behavior
        k = int(np.argmin(np.isfinite(cells)))  # the first non-finite cell, if any
        if not math.isfinite(cells[k]):
            setting, outcome = CELLS[k]
            raise ValueError(f"non-finite probability {float(cells[k])!r} at {setting}/{outcome}")
        k = int(np.argmax(cells < -1e-15))  # the first negative cell, if any
        if cells[k] < -1e-15:
            setting, outcome = CELLS[k]
            raise ValueError(f"negative probability {float(cells[k])!r} at {setting}/{outcome}")
        for setting, block in _BLOCKS.items():
            total = sum(behavior.cells[block].tolist())
            if not (abs(total - 1.0) <= TABLE_NORM_TOL):
                raise ValueError(f"setting {setting!r} sums to {total!r}, expected 1")
        residual = behavior.no_signaling_residual()
        if not (residual <= NO_SIGNALING_TOL):
            raise ValueError(f"no-signaling violated: marginal shift {residual!r}")
        return behavior

    def prob(self, setting: tuple[bool, bool], outcome: tuple[str, str]) -> float:
        k = _CELL_INDEX.get((setting, outcome))
        return 0.0 if k is None else float(self.cells[k])

    def marginal(self, side: int, own: bool, other: bool) -> dict[str, float]:
        """Distribution of one side's outcome, given both placements."""
        setting = (own, other) if side == 0 else (other, own)
        out = {o: 0.0 for o in side_outcomes(own)}
        block = _BLOCKS[setting]
        for (_, outcome), p in zip(CELLS[block], self.cells[block].tolist()):
            out[outcome[side]] += p
        return out

    def no_signaling_residual(self) -> float:
        """Largest marginal shift caused by flipping the far side's setting."""
        return float(np.abs(_SHIFTS @ self.cells).max())


def behavior_from_phase_setup(bs: BeamSplitterParams, phi: float) -> BehaviorTable:
    """Measure the phase-coupled pair under all four detector placements."""
    readout = run_pair(PairBatch.phase_settings(bs, [phi]))
    if GAMMA in readout.keys and readout.prob("gamma").any():
        raise RuntimeError("joint sink 'gamma' cannot occur in the phase setup")
    strays = _plan(readout.keys)[1]
    stray = readout.probs.take(strays)  # one run: probs is (keys, settings), flat = _plan rows
    if not (np.maximum.reduce(stray, initial=0.0) <= 1e-15):  # a NaN fails too
        j = int(stray.argmax())
        column, k = divmod(int(strays[j]), len(SETTINGS))
        outcome, p = readout.keys[column], float(stray[j])
        raise ValueError(
            f"outcome {outcome!r} impossible under setting {SETTINGS[k]!r}: probability {p!r}"
        )
    return BehaviorTable._checked(behavior_cells(readout)[:, 0])


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
    p1, p2, p3, p4, violation = map(float, inequality_terms(behavior.cells))
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


@functools.cache
def _strategy_matrix() -> np.ndarray:
    """0/1 indicator of each strategy's outcome per cell, one column per strategy, plus ones."""
    strategies = enumerate_deterministic_strategies()
    rows = [
        [(s.side1.outcome(placed[0]), s.side2.outcome(placed[1])) == outcome for s in strategies]
        for placed, outcome in CELLS
    ]
    A = np.array(rows + [[True] * len(strategies)], dtype=float)
    A.setflags(write=False)
    return A


_ONE = np.ones(1)  # the right-hand side of the normalization row


def membership_system(behavior: BehaviorTable) -> tuple[np.ndarray, np.ndarray]:
    """Equality system ``A w = b`` whose nonnegative solutions are local models.

    Rows are the 25 outcome cells in canonical order plus the normalization
    row ``sum(w) = 1``.  The cell rows already imply it, so verdicts do not
    depend on it, but it is part of the phase-1 objective: without it the
    leftover mass reported as ``infeasibility`` changes.  ``A`` is shared
    and read-only.
    """
    return _strategy_matrix(), np.concatenate((behavior.cells, _ONE))


# The 72 liftings of CHSH (Pironio, J. Math. Phys. 46, 062112 (2005)), each
# as a Farkas vector y = (w, -2) over the rows of membership_system.  Each
# side reads +1 for one of its three placed-detector letters and for C when
# its detector is absent, -1 otherwise; w gives every cell the product of
# the two sides' signs, negated on one setting, then possibly negated
# throughout: 9 x 4 x 2 rows.  Every entry is +-1 but the -2, and w @ cells
# <= 2 for every local behavior, so y @ A <= 0 and y @ b is the excess.
_LIFTINGS = np.array(
    [
        [
            sign
            * (-1.0 if setting == minus else 1.0)
            * (1.0 if outcome[0] == (own1 if setting[0] else "C") else -1.0)
            * (1.0 if outcome[1] == (own2 if setting[1] else "C") else -1.0)
            for setting, outcome in CELLS
        ]
        + [-2.0]
        for own1 in side_outcomes(True)
        for own2 in side_outcomes(True)
        for minus in SETTINGS
        for sign in (1.0, -1.0)
    ]
)
_LIFTINGS.setflags(write=False)
# One certificate tuple per lifting, shared by every verdict it decides.
_LIFTING_CERTIFICATES = tuple(map(tuple, _LIFTINGS.tolist()))
# How far past ``FEASIBILITY_TOL`` a lifting's excess must reach to decide a verdict.
# Every entry of y is at most 1 and y @ A <= 0, so y is feasible for the
# phase-1 dual and the simplex's leftover mass is at least y @ b.  That sum
# of 26 terms of size <= 2 rounds by about 1e-14, and the leftover mass
# carries pivoting error of the same order; 1e-10 stays four orders clear
# of both, so the simplex would also find the mass above the tolerance.
_LIFTING_MARGIN = 1e-10


@dataclass(frozen=True)
class LhvMembership:
    """Outcome of the polytope membership test.

    ``weights`` align with :func:`enumerate_deterministic_strategies`;
    ``certificate`` aligns with the rows of :func:`membership_system`.
    A verdict that a lifting of CHSH decided has ``iterations`` 0.
    """

    feasible: bool
    weights: tuple[float, ...] | None
    residual: float | None  # max |A w - b| at the returned weights
    certificate: tuple[float, ...] | None
    iterations: int
    behavior: BehaviorTable = field(repr=False, compare=False)

    @functools.cached_property
    def infeasibility(self) -> float:
        """Leftover phase-1 mass, solved for when first read."""
        return solve_phase1(*membership_system(self.behavior)).objective


def lhv_membership(behavior: BehaviorTable) -> LhvMembership:
    """Can a mixture of the 36 deterministic strategies reproduce this behavior?

    A lifting of CHSH whose excess over its local bound 2 passes
    ``FEASIBILITY_TOL`` by a margin decides that no mixture can, with no
    simplex run; otherwise a phase-1 simplex decides.  A feasible verdict
    carries weights ``w`` with ``max|A w - b| <= FEASIBILITY_TOL``; an
    infeasible one carries a Farkas certificate ``y`` with ``y.b > 0`` and
    ``y.A <= FEASIBILITY_TOL``.  Both are checked here, and one that fails
    raises ``RuntimeError``.
    """
    A, b = membership_system(behavior)
    excess = _LIFTINGS @ b
    k = int(excess.argmax())
    if excess[k] > FEASIBILITY_TOL + _LIFTING_MARGIN:
        verdict = LhvMembership(False, None, None, _LIFTING_CERTIFICATES[k], 0, behavior)
    else:
        result = solve_phase1(A, b)
        if result.feasible:
            weights = result.x
            residual = float(np.maximum.reduce(np.abs(A @ weights - b)))
            if not residual <= FEASIBILITY_TOL:
                raise RuntimeError(f"local-model weights fail: max|A w - b| = {residual!r}")
            return LhvMembership(True, tuple(weights), residual, None, result.iterations, behavior)
        certificate = tuple(result.certificate)
        verdict = LhvMembership(False, None, None, certificate, result.iterations, behavior)
    y = np.array(verdict.certificate)
    yb, ya = float(y @ b), float(np.maximum.reduce(y @ A))
    if not (yb > 0.0 and ya <= FEASIBILITY_TOL):
        raise RuntimeError(f"Farkas certificate fails: y.b = {yb!r}, max(y.A) = {ya!r}")
    return verdict


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
