"""Exact-amplitude engine for batches of one- and two-particle interferometer states.

A state is a batch of label arrays.  Each particle sits on one per-particle
label (source ``s``, internal arms ``u``/``v``, detector ports ``c``/``d``,
or an absorbing sink), and ``amps[row, i, j]`` holds the complex amplitude of
particle 0 on ``LABELS[i]`` and particle 1 on ``LABELS[j]``.  Single-particle
states keep particle 1 on the ``NONE`` placeholder.  A pair that annihilates
jointly occupies the ``gamma`` sink, one complex scalar per row.  A single
run is a batch of one.

Conventions are fixed once so downstream golden values stay reproducible:

* every beamsplitter reflection picks up a factor ``i``, which makes both
  splitter maps unitary;
* the first splitter transmits with amplitude ``t`` (``s -> i r u + t v``)
  while the second has the roles swapped (``u -> r c + i t d``,
  ``v -> i t c + r d``), so an undisturbed interferometer delivers the
  particle to ``c`` and leaves ``d`` dark;
* free propagation phases along the arms are absorbed into the labels.

Every operation updates a few label slices elementwise, with the products
and sums a per-amplitude evaluation would make, in the same order; there are
no matrix products, so a row's bits do not depend on the batch it ran in.
Amplitudes below ``PRUNE_THRESHOLD`` are zeroed after every operation:
exactly cancelling paths leave rounding residue (5.55e-17 on the ``(c, d)``
amplitude at r = 0.5, phi = 0) that would otherwise print as a 3e-33
probability where the exact answer is 0.  An operation applied out of
pipeline order finds nonzero amplitude on a label it cannot act on and
raises :class:`PipelineError`.

All transformations are pure functions returning new states; nothing here
holds shared mutable state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "S",
    "U",
    "V",
    "C",
    "D",
    "ABSORBED",
    "EXPLODED",
    "NONE",
    "GAMMA",
    "LABELS",
    "PRUNE_THRESHOLD",
    "NORM_TOL",
    "PipelineError",
    "BeamSplitterParams",
    "JointState",
    "OutcomeDistribution",
    "Readout",
    "apply_bs1",
    "apply_bs2",
    "apply_phase_coupling",
    "apply_annihilation_coupling",
    "apply_absorber",
    "measure",
]

# Per-particle port labels.
S = "s"
U = "u"
V = "v"
C = "c"
D = "d"
ABSORBED = "absorbed"  # removed by an in-arm detector
EXPLODED = "exploded"  # removed by triggering the bomb

NONE = "-"  # placeholder second slot of a single-particle state
GAMMA = "gamma"  # joint sink: both particles annihilated

SINKS = (ABSORBED, EXPLODED)

LABELS = (S, U, V, C, D, ABSORBED, EXPLODED, NONE)
_INDEX = {label: i for i, label in enumerate(LABELS)}

PRUNE_THRESHOLD = 1e-15

NORM_TOL = 1e-12

Key = tuple[str, str] | str
Outcome = tuple[str, str] | str


class PipelineError(ValueError):
    """An operation was applied to a state it is not valid for."""


def _all(condition) -> bool:
    """Whether ``condition`` holds: a bool for shared floats, or every entry of an array."""
    return bool(condition.all()) if isinstance(condition, np.ndarray) else bool(condition)


@dataclass(frozen=True)
class BeamSplitterParams:
    """Real splitter amplitudes with ``t**2 + r**2 = 1``, both strictly positive.

    ``t`` is the transmission amplitude of the first splitter; the second
    splitter uses the same pair with the roles of ``t`` and ``r`` exchanged.
    Both are floats shared by every row of a batch, or arrays with one
    entry per row.
    """

    t: float | np.ndarray
    r: float | np.ndarray

    def __post_init__(self) -> None:
        t, r = self.t, self.r
        if not _all((0.0 < t) & (t < 1.0) & (0.0 < r) & (r < 1.0)):
            raise ValueError(
                f"t and r must lie strictly inside (0, 1), got t={self.t!r}, r={self.r!r}"
            )
        if not _all(abs(t * t + r * r - 1.0) <= NORM_TOL):
            raise ValueError(
                f"t^2 + r^2 must equal 1 within {NORM_TOL}, got t={self.t!r}, r={self.r!r}"
            )

    @classmethod
    def from_r(cls, r: float) -> "BeamSplitterParams":
        if not 0.0 < r < 1.0:
            raise ValueError(f"reflection amplitude must lie in (0, 1), got {r!r}")
        return cls(t=math.sqrt(1.0 - r * r), r=r)

    @classmethod
    def from_r_squared(cls, r_squared: float) -> "BeamSplitterParams":
        if not 0.0 < r_squared < 1.0:
            raise ValueError(f"reflectance must lie in (0, 1), got {r_squared!r}")
        return cls(t=math.sqrt(1.0 - r_squared), r=math.sqrt(r_squared))

    @classmethod
    def balanced(cls) -> "BeamSplitterParams":
        return cls.from_r_squared(0.5)

    @functools.cached_property
    def coefficients(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The splitter maps as the engine applies them to two-label slots.

        ``(i r, t)`` takes ``s`` to ``(u, v)``; ``(r, i t)`` and ``(i t, r)``
        take ``u`` and ``v`` to ``(c, d)``.  Each has shape (2, 1), or
        (rows, 2, 1) for per-row parameters.
        """
        it = 1j * self.t
        return _pair(1j * self.r, self.t), _pair(self.r, it), _pair(it, self.r)


@dataclass(frozen=True, eq=False)
class JointState:
    """A batch of joint states: label-pair amplitudes plus the ``gamma`` sink.

    ``amps`` has shape ``(rows, len(LABELS), len(LABELS))`` and ``gamma``
    shape ``(rows,)``, both complex.  ``support`` holds every key, a label
    pair or ``GAMMA``, that may carry amplitude in some row.  Operations
    track it from the keys they move, so it can over-cover where pruning
    zeroed a key; the pipeline-order checks and the operations use it to
    skip keys that are certainly empty.  Treat all three as read-only;
    operations always build a fresh state.
    """

    amps: np.ndarray
    gamma: np.ndarray
    support: frozenset[Key]

    @classmethod
    def _from(cls, rows: int, amplitudes: dict[Key, complex]) -> "JointState":
        kept = {key: v for key, v in amplitudes.items() if abs(v) >= PRUNE_THRESHOLD}
        size = len(LABELS)
        amps = np.zeros((rows, size, size), dtype=complex)
        gamma = np.zeros(rows, dtype=complex)
        for key, value in kept.items():
            if key == GAMMA:
                gamma[:] = value
            else:
                amps[:, _INDEX[key[0]], _INDEX[key[1]]] = value
        return cls(amps, gamma, frozenset(kept))

    @classmethod
    def single(cls, rows: int = 1) -> "JointState":
        """One particle at the source port, in every row."""
        return cls._from(rows, {(S, NONE): 1.0})

    @classmethod
    def pair(cls, rows: int = 1) -> "JointState":
        """Two particles, each at its own source port, in every row."""
        return cls._from(rows, {(S, S): 1.0})

    @classmethod
    def of(cls, amplitudes: dict[Key, complex]) -> "JointState":
        """A batch of one from an explicit amplitude map (pruned)."""
        return cls._from(1, amplitudes)

    @property
    def rows(self) -> int:
        return len(self.gamma)

    def amplitude(self, key: Key) -> np.ndarray:
        """Per-row amplitudes of a joint label pair, or of ``GAMMA``."""
        if key == GAMMA:
            return self.gamma
        return self.amps[:, _INDEX[key[0]], _INDEX[key[1]]]

    def norm_squared(self) -> np.ndarray:
        a, g = self.amps, self.gamma
        pairs = (a.real * a.real + a.imag * a.imag).sum(axis=(1, 2))
        return pairs + g.real * g.real + g.imag * g.imag


@dataclass(frozen=True)
class OutcomeDistribution:
    """Normalized probability table over terminal detector outcomes.

    Outcomes are per-side letters (``"U"``, ``"C"``, ``"D"``, ``"exploded"``)
    for single-particle runs, pairs of letters for twin runs, plus the
    ``"gamma"`` joint sink.
    """

    probabilities: dict[Outcome, float]

    @classmethod
    def of(cls, probabilities: dict[Outcome, float]) -> "OutcomeDistribution":
        cleaned: dict[Outcome, float] = {}
        for outcome, p in probabilities.items():
            if p < -1e-15:
                raise ValueError(f"negative probability {p!r} for outcome {outcome!r}")
            cleaned[outcome] = max(p, 0.0)
        total = sum(cleaned.values())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1 within {NORM_TOL}")
        return cls(cleaned)

    def prob(self, outcome: Outcome) -> float:
        return self.probabilities.get(outcome, 0.0)

    def total(self) -> float:
        return sum(self.probabilities.values())

    def marginal(self, side: int) -> dict[str, float]:
        """Per-side totals over pair outcomes; joint sinks are excluded."""
        if side not in (0, 1):
            raise ValueError(f"side must be 0 or 1, got {side!r}")
        out: dict[str, float] = {}
        for outcome, p in self.probabilities.items():
            if isinstance(outcome, tuple):
                out[outcome[side]] = out.get(outcome[side], 0.0) + p
        return out


_LETTER = {C: "C", D: "D", ABSORBED: "U", EXPLODED: "exploded"}
_LABEL_OF = {letter: label for label, letter in _LETTER.items()}
# (label indices, outcome) in the order a readout row lists its outcomes, and
# so the order in which marginals add them up: sinks first, then ports, as a
# pipeline with in-arm detectors on the u arms first produces them.
_TERMINAL = (ABSORBED, EXPLODED, C, D)
_ROW_OUTCOMES = tuple(
    (
        _INDEX[first],
        _INDEX[second],
        _LETTER[first] if second == NONE else (_LETTER[first], _LETTER[second]),
    )
    for first in _TERMINAL
    for second in _TERMINAL + (NONE,)
)


@dataclass(frozen=True, eq=False)
class Readout:
    """Born-rule probabilities of a batch of terminal states.

    ``table[row, i, j]`` is the probability of the label pair
    ``(LABELS[i], LABELS[j])`` and ``gamma[row]`` that of the joint sink.
    """

    table: np.ndarray
    gamma: np.ndarray

    def prob(self, outcome: Outcome) -> np.ndarray:
        """Per-row probability of an outcome, named as in :class:`OutcomeDistribution`."""
        if outcome == "gamma":
            return self.gamma
        if isinstance(outcome, tuple):
            first, second = _LABEL_OF[outcome[0]], _LABEL_OF[outcome[1]]
        else:
            first, second = _LABEL_OF[outcome], NONE
        return self.table[:, _INDEX[first], _INDEX[second]]

    def row(self, index: int) -> OutcomeDistribution:
        """One row's outcomes with nonzero probability, as an outcome table."""
        table = self.table[index].tolist()
        probs: dict[Outcome, float] = {}
        for i, j, outcome in _ROW_OUTCOMES:
            if table[i][j]:
                probs[outcome] = table[i][j]
        gamma = float(self.gamma[index])
        if gamma:
            probs["gamma"] = gamma
        return OutcomeDistribution(probs)


def _prune(amps: np.ndarray) -> np.ndarray:
    """Zero, in place, every amplitude of magnitude below ``PRUNE_THRESHOLD``."""
    amps[np.abs(amps) < PRUNE_THRESHOLD] = 0.0
    return amps


def _keys(first: tuple[str, ...], second: tuple[str, ...], gamma: bool) -> frozenset[Key]:
    """Keys with particle 0 on ``first`` and particle 1 on ``second``, and ``GAMMA`` if asked."""
    keys: set[Key] = {(a, b) for a in first for b in second}
    if gamma:
        keys.add(GAMMA)
    return frozenset(keys)


def _except(*excluded: str) -> tuple[str, ...]:
    return tuple(label for label in LABELS if label not in excluded)


# The keys each operation can act on; amplitude anywhere else is a pipeline-order bug.
_BS1_INPUT = (_keys((S,), LABELS, False), _keys(LABELS, (S,), False))
_BS2_INPUT = (_keys(_except(S, NONE), LABELS, True), _keys(LABELS, _except(S, NONE), True))
_ABSORBER_INPUT = (
    _keys(_except(S, C, D, NONE), LABELS, True),
    _keys(LABELS, _except(S, C, D, NONE), True),
)
_INTERNAL_PAIR = _keys((U, V), (U, V), False)
_TERMINAL_INPUT = _keys(_except(S, U, V), _except(S, U, V), True)


def _require(state: JointState, allowed: frozenset[Key], message: str, particle: int = 0) -> None:
    """Raise :class:`PipelineError` if any row has amplitude on a key outside ``allowed``.

    ``message`` may name ``{particle}``; it is formatted only on failure.
    """
    if state.support <= allowed:
        return
    for key in sorted(state.support - allowed, key=str):
        rows = np.flatnonzero(state.amplitude(key))
        if len(rows):
            where = message.format(particle=particle)
            raise PipelineError(f"{where}, found key {key!r} in row {rows[0]}")


def _check_particle(particle: int) -> None:
    if particle not in (0, 1):
        raise ValueError(f"particle index must be 0 or 1, got {particle!r}")


@functools.lru_cache(maxsize=1024)
def _flow(
    support: frozenset[Key],
    particle: int,
    sources: tuple[str, ...],
    targets: tuple[str, ...],
    emptied: bool = True,
) -> tuple[frozenset[Key], slice]:
    """Support after ``particle``'s amplitude on ``sources`` moves to ``targets``.

    Also returns the span of partner labels that amplitude can occupy; the
    operation computes only there, since everything outside it is 0.
    Pipelines revisit the same few supports, hence the cache.
    """
    moved = {key for key in support if key != GAMMA and key[particle] in sources}
    reached = {
        (label, key[1]) if particle == 0 else (key[0], label)
        for key in moved
        for label in targets
    }
    partners = [_INDEX[key[1 - particle]] for key in moved]
    span = slice(min(partners), max(partners) + 1) if partners else slice(0, 0)
    return (support - moved if emptied else support) | reached, span


def _facing(amps: np.ndarray, particle: int) -> np.ndarray:
    """View of ``amps`` with ``particle``'s label on axis 1 and its partner's on axis 2."""
    return amps if particle == 0 else amps.transpose(0, 2, 1)


def _labels(first: str, last: str) -> slice:
    """The labels from ``first`` through ``last`` in ``LABELS`` order."""
    return slice(_INDEX[first], _INDEX[last] + 1)


_ON_S, _ON_UV, _ON_CD = _labels(S, S), _labels(U, V), _labels(C, D)


def _pair(first, second) -> np.ndarray:
    """Coefficients for a two-label slot: shape (2, 1), or (rows, 2, 1) when per row."""
    return np.array([first, second], dtype=complex).T[..., None]


def _acting(state: JointState, rows: np.ndarray | None) -> np.ndarray:
    """Boolean mask of the rows an operation acts on; ``None`` means all of them."""
    return np.ones(state.rows, dtype=bool) if rows is None else np.asarray(rows, dtype=bool)


def apply_bs1(state: JointState, particle: int, params: BeamSplitterParams) -> JointState:
    """First splitter on one particle: ``s -> i*r*u + t*v``.

    The addressed particle must sit entirely on ``s``; anything else is a
    pipeline-order bug and raises :class:`PipelineError`.
    """
    _check_particle(particle)
    message = "first splitter expects particle {particle} on 's'"
    _require(state, _BS1_INPUT[particle], message, particle)
    support, span = _flow(state.support, particle, (S,), (U, V))
    amps = state.amps.copy()
    a = _facing(amps, particle)
    s = a[:, _ON_S, span]
    # Multiplying by i*r rounds each component once, exactly like
    # multiplying by i and then by r.
    a[:, _ON_UV, span] = _prune(s * params.coefficients[0])
    s[...] = 0.0
    return JointState(amps, state.gamma, support)


def apply_bs2(state: JointState, particle: int, params: BeamSplitterParams) -> JointState:
    """Second splitter on one particle: ``u -> r*c + i*t*d``, ``v -> i*t*c + r*d``.

    Amplitudes already on sinks or detector ports pass through untouched;
    amplitude still on ``s`` means the first splitter was skipped and raises.
    """
    _check_particle(particle)
    message = "second splitter cannot act on particle {particle}"
    _require(state, _BS2_INPUT[particle], message, particle)
    support, span = _flow(state.support, particle, (U, V), (C, D))
    amps = state.amps.copy()
    a = _facing(amps, particle)
    uv, cd = a[:, _ON_UV, span], a[:, _ON_CD, span]
    _, from_u, from_v = params.coefficients
    cd += uv[:, :1] * from_u
    cd += uv[:, 1:] * from_v
    _prune(cd)
    uv[...] = 0.0
    return JointState(amps, state.gamma, support)


def apply_phase_coupling(state: JointState, phi: float | np.ndarray) -> JointState:
    """Joint phase on the overlap: the ``(v, v)`` amplitude gains ``exp(i*phi)``.

    ``phi`` is one phase for every row or one per row; a zero phase leaves
    its row bit-identical, as do all amplitudes off ``(v, v)``.
    """
    _require(state, _INTERNAL_PAIR, "phase coupling requires both particles on the internal arms")
    phi = np.asarray(phi, dtype=float)
    if not np.isfinite(phi).all():
        raise ValueError(f"coupling phase must be finite, got {phi!r}")
    # numpy's complex exp evaluates libm's exp, cos and sin, as cmath.exp does.
    factor = np.exp(1j * phi)
    amps = state.amps.copy()
    vv = state.amplitude((V, V))
    # vv * factor in two products by a purely real and a purely imaginary
    # number, each exact to one rounding per component, so the sum has the
    # bits of the textbook complex product; numpy's own complex product may
    # fuse a multiply-add and change the last bit.
    rotated = vv * factor.real + vv * (1j * factor.imag)
    amps[:, _INDEX[V], _INDEX[V]] = _prune(rotated)
    return JointState(amps, state.gamma, state.support)


def apply_annihilation_coupling(
    state: JointState, rows: np.ndarray | None = None
) -> JointState:
    """Move the joint ``(u, u)`` amplitude into the ``gamma`` sink.

    ``rows`` is a boolean mask of the rows the coupling acts on; all by default.
    """
    _require(
        state, _INTERNAL_PAIR, "annihilation coupling requires both particles on the internal arms"
    )
    acting = _acting(state, rows)
    amps = state.amps.copy()
    uu = amps[:, _INDEX[U], _INDEX[U]]
    gamma = state.gamma.copy()
    np.add(gamma, uu, out=gamma, where=acting)
    _prune(gamma)
    np.copyto(uu, 0.0, where=acting)
    support = state.support
    if (U, U) in support:
        support = (support - {(U, U)} if rows is None else support) | {GAMMA}
    return JointState(amps, gamma, support)


def apply_absorber(
    state: JointState,
    particle: int,
    arm: str,
    sink: str = ABSORBED,
    rows: np.ndarray | None = None,
) -> JointState:
    """Absorb one particle's amplitude on ``arm`` into ``sink``.

    The partner particle's label is untouched, so which-path information is
    kept in the joint label pair.  The addressed particle must be on the
    internal arms or already in a sink.  ``rows`` is a boolean mask of the
    rows that carry the absorber; all by default.
    """
    _check_particle(particle)
    if arm not in (U, V):
        raise ValueError(f"absorber arm must be {U!r} or {V!r}, got {arm!r}")
    if sink not in SINKS:
        raise ValueError(f"absorber sink must be one of {SINKS}, got {sink!r}")
    _require(
        state,
        _ABSORBER_INPUT[particle],
        "absorber expects particle {particle} between the splitters",
        particle,
    )
    acting = _acting(state, rows)
    support, span = _flow(state.support, particle, (arm,), (sink,), rows is None)
    amps = state.amps.copy()
    a = _facing(amps, particle)
    on_arm, in_sink = a[:, _INDEX[arm], span], a[:, _INDEX[sink], span]
    acting = acting[:, None]
    np.add(in_sink, on_arm, out=in_sink, where=acting)
    _prune(in_sink)
    np.copyto(on_arm, 0.0, where=acting)
    return JointState(amps, state.gamma, support)


def measure(state: JointState) -> Readout:
    """Born-rule readout of a batch of fully terminal states.

    Raises :class:`PipelineError` if any amplitude is still on ``s``, ``u``
    or ``v``; detection happens only after both splitters have acted.
    """
    _require(state, _TERMINAL_INPUT, "cannot measure: amplitude left on an internal label")
    squares = state.amps.view(np.float64) ** 2
    table = squares[..., 0::2] + squares[..., 1::2]  # re*re + im*im
    g = state.gamma
    gamma = g.real * g.real + g.imag * g.imag
    total = table.sum(axis=(1, 2)) + gamma
    drift = np.abs(total - 1.0)
    if drift.max(initial=0.0) > NORM_TOL:
        row = int(drift.argmax())
        raise ValueError(
            f"probabilities sum to {float(total[row])!r} in row {row}, "
            f"expected 1 within {NORM_TOL}"
        )
    return Readout(table, gamma)
