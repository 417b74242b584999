"""Exact-amplitude engine for batches of one- and two-particle interferometer states.

A state is a batch of key columns.  Each particle sits on one per-particle
label (source ``s``, internal arms ``u``/``v``, detector ports ``c``/``d``,
or an absorbing sink); a key is a label pair, particle 0's label then
particle 1's, or the ``gamma`` sink that a pair which annihilates jointly
occupies.  ``amps[k, row]`` holds the complex amplitude of ``keys[k]``, so
each key's rows are one contiguous run of memory, and only the keys that can
hold amplitude are listed: a phase-setup pipeline never needs more than 9.
Single-particle states keep particle 1 on the ``NONE`` placeholder.  A
single run is a batch of one.  :func:`measure` keeps the layout: a
:class:`Readout` holds ``probs[k, row]``, the probability of ``keys[k]``.
This module alone maps outcome names to keys, in ``OUTCOME_KEYS``.

Conventions are fixed once so downstream golden values stay reproducible:

* every beamsplitter reflection picks up a factor ``i``, which makes both
  splitter maps unitary;
* the first splitter transmits with amplitude ``t`` (``s -> i r u + t v``)
  while the second has the roles swapped (``u -> r c + i t d``,
  ``v -> i t c + r d``), so an undisturbed interferometer delivers the
  particle to ``c`` and leaves ``d`` dark;
* free propagation phases along the arms are absorbed into the labels.

Every operation looks up a plan, cached per key tuple, of the columns it
moves and carries over.  It gathers the moved columns, forms the products
and sums a per-amplitude evaluation would make, in the same order, and
concatenates them with the carried columns; there are no matrix products,
so a row's bits do not depend on the batch it ran in.  Amplitudes below
``PRUNE_THRESHOLD`` are zeroed after every operation: exactly cancelling
paths leave rounding residue (5.55e-17 on the ``(c, d)`` amplitude at
r = 0.5, phi = 0) that would otherwise print as a 3e-33 probability where
the exact answer is 0.  An operation applied out of pipeline order finds
nonzero amplitude on a key it cannot act on and raises
:class:`PipelineError`.

Twin runs (``experiments.run_pair_state``) apply the first splitters and
the coupling once per run and copy that state to each detector placement
with one gather.  The gather is planned by running :func:`apply_absorber` on
a probe state, so the absorber stays the one definition of where absorbed
amplitude goes; the second splitters then act on every placement's rows,
and those four rows per run are the result.

All transformations are pure functions returning new states; nothing here
holds shared mutable state.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

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
    "OUTCOME_KEYS",
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

    ``coefficients`` holds the splitter maps as the engine applies them to
    two-label slots: ``(i r, t)`` takes ``s`` to ``(u, v)``; ``(r, i t)`` and
    ``(i t, r)`` take ``u`` and ``v`` to ``(c, d)``.  It is one array of
    shape (3, 2, 1, 1), or (3, 2, 1, rows) for per-row parameters.
    """

    t: float | np.ndarray
    r: float | np.ndarray
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

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
        it = 1j * t
        coefficients = np.array([1j * r, t, r, it, it, r], dtype=complex).reshape(3, 2, 1, -1)
        object.__setattr__(self, "coefficients", coefficients)

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

    def tile(self, reps: int) -> "BeamSplitterParams":
        """These parameters for ``reps`` copies of a batch's rows, as ``np.tile`` repeats them.

        Tiled ratios are the ratios already checked, and the coefficients are
        tiled from these, so neither is checked or computed again.
        """
        tiled = object.__new__(BeamSplitterParams)
        tiled.__dict__.update(
            t=np.tile(self.t, reps),
            r=np.tile(self.r, reps),
            coefficients=np.tile(self.coefficients, reps),
        )
        return tiled


@dataclass(frozen=True, eq=False)
class JointState:
    """A batch of joint states as key columns.

    ``amps`` has shape ``(len(keys), rows)``, complex; ``amps[k, row]`` is the
    amplitude of ``keys[k]``, a label pair or ``GAMMA``, and every other key
    has amplitude 0.  Operations derive the keys from the keys they move, so
    a key can read 0 in every row where pruning or a row mask emptied it.
    Treat both as read-only; operations always build a fresh state.
    """

    amps: np.ndarray
    keys: tuple[Key, ...]

    @classmethod
    def single(cls, rows: int = 1) -> "JointState":
        """One particle at the source port, in every row."""
        return _at_source(rows, (S, NONE))

    @classmethod
    def pair(cls, rows: int = 1) -> "JointState":
        """Two particles, each at its own source port, in every row."""
        return _at_source(rows, (S, S))

    @classmethod
    def of(cls, amplitudes: dict[Key, complex]) -> "JointState":
        """A batch of one from an explicit amplitude map (pruned); non-finite amplitudes raise."""
        for key, v in amplitudes.items():
            if not np.isfinite(v):  # a NaN would fail the prune test and vanish
                raise ValueError(f"non-finite amplitude {v!r} for key {key!r}")
        kept = {key: v for key, v in amplitudes.items() if abs(v) >= PRUNE_THRESHOLD}
        unknown = kept.keys() - _ALL_KEYS
        if unknown:
            raise ValueError(f"unknown keys {sorted(unknown, key=str)!r}")
        return cls(np.array(list(kept.values()), dtype=complex).reshape(-1, 1), tuple(kept))

    @property
    def rows(self) -> int:
        return self.amps.shape[1]

    @property
    def gamma(self) -> np.ndarray:
        """Per-row amplitudes of the joint sink."""
        return self.amplitude(GAMMA)

    def amplitude(self, key: Key) -> np.ndarray:
        """Per-row amplitudes of a joint label pair, or of ``GAMMA``."""
        if key in self.keys:
            return self.amps[self.keys.index(key)]
        return np.zeros(self.rows, dtype=complex)

    def norm_squared(self) -> np.ndarray:
        a = self.amps
        return (a.real * a.real + a.imag * a.imag).sum(axis=0)


@functools.lru_cache(maxsize=16)
def _at_source(rows: int, key: Key) -> JointState:
    """Amplitude 1 on ``key`` in every row.

    Operations never write to a state they are given, so one read-only
    state per row count serves every run that starts from it.
    """
    if rows < 1:
        raise ValueError(f"a state needs at least one row, got {rows}")
    amps = np.ones((1, rows), dtype=complex)
    amps.setflags(write=False)
    return JointState(amps, (key,))


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
            if not math.isfinite(p):
                raise ValueError(f"non-finite probability {p!r} for outcome {outcome!r}")
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
_TERMINAL = (ABSORBED, EXPLODED, C, D)
# (key, outcome) in the order a readout row lists its outcomes, and so the
# order in which marginals add them up: sinks first, then ports, as a
# pipeline with in-arm detectors on the u arms first produces them, and the
# joint sink last.
_ROW_OUTCOMES = tuple(
    ((first, second), _LETTER[first] if second == NONE else (_LETTER[first], _LETTER[second]))
    for first in _TERMINAL
    for second in _TERMINAL + (NONE,)
) + ((GAMMA, GAMMA),)
# The key that holds each outcome named as in OutcomeDistribution.
OUTCOME_KEYS = {outcome: key for key, outcome in _ROW_OUTCOMES}


@dataclass(frozen=True, eq=False)
class Readout:
    """Born-rule probabilities of a batch of terminal states, as key columns.

    ``probs`` has shape ``(len(keys), rows)``: ``probs[k, row]`` is the
    probability of ``keys[k]``, ``GAMMA`` included, and every key not listed
    has probability 0, as in :class:`JointState`.
    """

    probs: np.ndarray
    keys: tuple[Key, ...]

    def prob(self, outcome: Outcome) -> np.ndarray:
        """Per-row probability of an outcome, named as in :class:`OutcomeDistribution`."""
        key = OUTCOME_KEYS[outcome]
        if key in self.keys:
            return self.probs[self.keys.index(key)]
        return np.zeros(self.probs.shape[1])

    def row(self, index: int) -> OutcomeDistribution:
        """One row's outcomes with nonzero probability, as an outcome table."""
        values = dict(zip(self.keys, self.probs[:, index].tolist()))
        return OutcomeDistribution(
            {outcome: values[key] for key, outcome in _ROW_OUTCOMES if values.get(key)}
        )


# Zero-dimensional operands: numpy takes them without converting a Python scalar.
_ZERO = np.zeros((), dtype=complex)
_I = np.array(1j)
_PRUNE_BELOW = np.array(PRUNE_THRESHOLD)


def _prune(amps: np.ndarray) -> np.ndarray:
    """Zero, in place, every amplitude of magnitude below ``PRUNE_THRESHOLD``."""
    amps[np.abs(amps) < _PRUNE_BELOW] = 0.0
    return amps


def _keys(first: tuple[str, ...], second: tuple[str, ...], gamma: bool) -> frozenset[Key]:
    """Keys with particle 0 on ``first`` and particle 1 on ``second``, and ``GAMMA`` if asked."""
    keys: set[Key] = {(a, b) for a in first for b in second}
    if gamma:
        keys.add(GAMMA)
    return frozenset(keys)


def _except(*excluded: str) -> tuple[str, ...]:
    return tuple(label for label in LABELS if label not in excluded)


_ALL_KEYS = _keys(LABELS, LABELS, True)
# The keys each operation can act on; amplitude anywhere else is a pipeline-order bug.
_BS1_INPUT = (_keys((S,), LABELS, False), _keys(LABELS, (S,), False))
_BS2_INPUT = (_keys(_except(S, NONE), LABELS, True), _keys(LABELS, _except(S, NONE), True))
_ABSORBER_INPUT = (
    _keys(_except(S, C, D, NONE), LABELS, True),
    _keys(LABELS, _except(S, C, D, NONE), True),
)
_INTERNAL_PAIR = _keys((U, V), (U, V), False)
_TERMINAL_INPUT = _keys(_except(S, U, V), _except(S, U, V), True)


@functools.lru_cache(maxsize=1024)
def _strays(keys: tuple[Key, ...], allowed: frozenset[Key]) -> tuple[tuple[int, Key], ...]:
    """The columns of ``keys`` outside ``allowed``, in the order :func:`_require` checks them."""
    outside = [(k, key) for k, key in enumerate(keys) if key not in allowed]
    return tuple(sorted(outside, key=lambda column: str(column[1])))


def _require(
    state: JointState, strays: tuple[tuple[int, Key], ...], message: str, particle: int = 0
) -> None:
    """Raise :class:`PipelineError` if any row has amplitude in one of the ``strays`` columns.

    ``message`` may name ``{particle}``; it is formatted only on failure.
    """
    for column, key in strays:
        rows = np.flatnonzero(state.amps[column])
        if len(rows):
            where = message.format(particle=particle)
            raise PipelineError(f"{where}, found key {key!r} in row {rows[0]}")


def _mask(state: JointState, rows) -> np.ndarray:
    """``rows`` as a boolean mask, which must have one entry per row of ``state``."""
    acting = np.asarray(rows, dtype=bool)
    if acting.shape != (state.rows,):
        raise ValueError(f"need one mask entry per row, got {acting.size} for {state.rows} rows")
    return acting


def _check_particle(particle: int) -> None:
    if particle not in (0, 1):
        raise ValueError(f"particle index must be 0 or 1, got {particle!r}")


class _Route(NamedTuple):
    """Where an operation moves one particle's amplitude from ``sources`` to ``targets``.

    ``columns[n]`` are the input columns with the particle on ``sources[n]``,
    one per partner label that has it, and ``gathered`` all of them in that
    order.  Partners holding every source come first, ``shared`` of them,
    and ``whole`` says there are no others.  The moved amplitude is laid
    out targets-major over the partners; ``merged`` pairs positions in that
    layout with the input columns that already hold those keys.  The output
    keys are the ``carried`` input columns, then the sources if the
    operation leaves them in place, then the targets.  ``strays`` are the
    input columns the operation cannot act on.
    """

    keys: tuple[Key, ...]
    carried: np.ndarray
    columns: tuple[np.ndarray, ...]
    gathered: np.ndarray
    shared: int
    whole: bool
    merged: tuple[np.ndarray, np.ndarray] | None
    strays: tuple[tuple[int, Key], ...]


@functools.lru_cache(maxsize=1024)
def _route(
    keys: tuple[Key, ...],
    particle: int,
    sources: tuple[str, ...],
    targets: tuple[str, ...],
    allowed: frozenset[Key],
    emptied: bool = True,
) -> _Route:
    """Plan the move of ``particle``'s amplitude on ``sources`` to ``targets``.

    Pipelines revisit the same few key tuples, hence the cache.
    """

    def joint(own: str, partner: str) -> Key:
        return (own, partner) if particle == 0 else (partner, own)

    on = [
        [key[1 - particle] for key in keys if key != GAMMA and key[particle] == source]
        for source in sources
    ]
    shared = [partner for partner in on[0] if all(partner in other for other in on[1:])]
    partners = shared + [partner for one in on for partner in one if partner not in shared]
    column = {key: k for k, key in enumerate(keys)}
    moved = [[joint(s, p) for p in partners if joint(s, p) in column] for s in sources]
    reached = [joint(target, p) for target in targets for p in partners]
    merged = [(at, column[key]) for at, key in enumerate(reached) if key in column]
    leaving = {key for one in moved for key in one} | set(reached)
    carried = [k for k, key in enumerate(keys) if key not in leaving]
    kept = [] if emptied else [key for one in moved for key in one]
    columns = tuple(np.array([column[key] for key in one], dtype=np.intp) for one in moved)
    return _Route(
        tuple(keys[k] for k in carried) + tuple(kept) + tuple(reached),
        np.array(carried, dtype=np.intp),
        columns,
        np.concatenate(columns),
        len(shared),
        len(partners) == len(shared),
        tuple(np.array(side, dtype=np.intp) for side in zip(*merged)) if merged else None,
        _strays(keys, allowed),
    )


def _spread(amps: np.ndarray, route: _Route, coefficients) -> np.ndarray:
    """Each source column times its coefficients, summed over sources in order.

    ``amps`` is ``(keys, rows)``, ``coefficients`` ``(sources, targets, 1,
    rows)`` and the result ``(targets, partners, rows)``, so every product
    runs over a key's contiguous rows; a partner that lacks a source gets no
    term from it.  When every partner holds every source, one gather and
    one product serve all sources.
    """
    if route.whole:
        gathered = amps.take(route.gathered, 0).reshape(len(coefficients), 1, -1, amps.shape[1])
        products = gathered * coefficients
        return products[0] if len(products) == 1 else products[0] + products[1]
    first = amps.take(route.columns[0], 0) * coefficients[0]
    second = amps.take(route.columns[1], 0) * coefficients[1]
    n = route.shared
    return np.concatenate((first[:, :n] + second[:, :n], first[:, n:], second[:, n:]), 1)


def _settle(state: JointState, route: _Route, moved: np.ndarray, *kept: np.ndarray) -> JointState:
    """The routed state: carried columns, ``kept`` source columns, then the pruned targets.

    Amplitude a target key already held is added after the amplitude moved there.
    """
    amps = moved.reshape(-1, state.rows)
    if route.merged is not None:
        at, columns = route.merged
        amps[at] += state.amps.take(columns, 0)
    _prune(amps)
    if len(route.carried) or kept:
        amps = np.concatenate((state.amps.take(route.carried, 0), *kept, amps))
    return JointState(amps, route.keys)


def apply_bs1(state: JointState, particle: int, params: BeamSplitterParams) -> JointState:
    """First splitter on one particle: ``s -> i*r*u + t*v``.

    The addressed particle must sit entirely on ``s``; anything else is a
    pipeline-order bug and raises :class:`PipelineError`.
    """
    _check_particle(particle)
    message = "first splitter expects particle {particle} on 's'"
    route = _route(state.keys, particle, (S,), (U, V), _BS1_INPUT[particle])
    _require(state, route.strays, message, particle)
    # Multiplying by i*r rounds each component once, exactly like
    # multiplying by i and then by r.
    return _settle(state, route, _spread(state.amps, route, params.coefficients[:1]))


def apply_bs2(state: JointState, particle: int, params: BeamSplitterParams) -> JointState:
    """Second splitter on one particle: ``u -> r*c + i*t*d``, ``v -> i*t*c + r*d``.

    Amplitudes already on sinks or detector ports pass through untouched;
    amplitude still on ``s`` means the first splitter was skipped and raises.
    """
    _check_particle(particle)
    message = "second splitter cannot act on particle {particle}"
    route = _route(state.keys, particle, (U, V), (C, D), _BS2_INPUT[particle])
    _require(state, route.strays, message, particle)
    return _settle(state, route, _spread(state.amps, route, params.coefficients[1:]))


def apply_phase_coupling(state: JointState, phi: float | np.ndarray) -> JointState:
    """Joint phase on the overlap: the ``(v, v)`` amplitude gains ``exp(i*phi)``.

    ``phi`` is one phase for every row or one per row; a zero phase leaves
    its row bit-identical, as do all amplitudes off ``(v, v)``.
    """
    message = "phase coupling requires both particles on the internal arms"
    _require(state, _strays(state.keys, _INTERNAL_PAIR), message)
    phi = np.asarray(phi, dtype=float)
    finite = np.isfinite(phi)
    if np.count_nonzero(finite) < finite.size:
        row = np.flatnonzero(~finite)[0]  # a shared phase reports row 0
        value = float(phi.flat[row])
        raise ValueError(f"coupling phase must be finite, got {value!r} in row {row}")
    if (V, V) not in state.keys:
        return JointState(state.amps, state.keys)
    # numpy's complex exp evaluates libm's exp, cos and sin, as cmath.exp does.
    factor = np.exp(_I * phi)
    k = state.keys.index((V, V))
    vv = state.amps[k]
    amps = state.amps.copy()
    # vv * factor in two products by a purely real and a purely imaginary
    # number, each exact to one rounding per component, so the sum has the
    # bits of the textbook complex product; numpy's own complex product may
    # fuse a multiply-add and change the last bit.
    amps[k] = _prune(vv * factor.real + vv * (_I * factor.imag))
    return JointState(amps, state.keys)


def apply_annihilation_coupling(
    state: JointState, rows: np.ndarray | None = None
) -> JointState:
    """Move the joint ``(u, u)`` amplitude into the ``gamma`` sink.

    ``rows`` is a boolean mask, one entry per row, of the rows the coupling
    acts on; all by default.
    """
    message = "annihilation coupling requires both particles on the internal arms"
    _require(state, _strays(state.keys, _INTERNAL_PAIR), message)
    acting = np.ones(state.rows, dtype=bool) if rows is None else _mask(state, rows)
    if (U, U) not in state.keys:
        return JointState(state.amps, state.keys)
    uu = state.amplitude((U, U))
    gamma = _prune(state.gamma + np.where(acting, uu, _ZERO))
    carried = [k for k, key in enumerate(state.keys) if key not in ((U, U), GAMMA)]
    columns = [state.amps.take(carried, 0)]
    keys = tuple(state.keys[k] for k in carried)
    if rows is not None:
        columns.append(np.where(acting, _ZERO, uu)[None])
        keys += ((U, U),)
    amps = np.concatenate((*columns, gamma[None]))
    return JointState(amps, keys + (GAMMA,))


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
    internal arms or already in a sink.  ``rows`` is a boolean mask, one
    entry per row, of the rows that carry the absorber; all by default.
    """
    _check_particle(particle)
    if arm not in (U, V):
        raise ValueError(f"absorber arm must be {U!r} or {V!r}, got {arm!r}")
    if sink not in SINKS:
        raise ValueError(f"absorber sink must be one of {SINKS}, got {sink!r}")
    acting = None if rows is None else _mask(state, rows)
    route = _route(state.keys, particle, (arm,), (sink,), _ABSORBER_INPUT[particle], acting is None)
    message = "absorber expects particle {particle} between the splitters"
    _require(state, route.strays, message, particle)
    on_arm = state.amps.take(route.columns[0], 0)
    if acting is None:
        return _settle(state, route, on_arm)
    return _settle(state, route, np.where(acting, on_arm, _ZERO), np.where(acting, _ZERO, on_arm))


def measure(state: JointState) -> Readout:
    """Born-rule readout of a batch of fully terminal states.

    Raises :class:`PipelineError` if any amplitude is still on ``s``, ``u``
    or ``v``; detection happens only after both splitters have acted.
    """
    message = "cannot measure: amplitude left on an internal label"
    _require(state, _strays(state.keys, _TERMINAL_INPUT), message)
    squares = np.ascontiguousarray(state.amps).view(np.float64) ** 2
    probs = squares[:, 0::2] + squares[:, 1::2]  # re*re + im*im
    total = np.add.reduce(probs, 0)
    drift = np.abs(total - 1.0)
    if np.maximum.reduce(drift, initial=0.0) > NORM_TOL:
        row = int(drift.argmax())
        raise ValueError(
            f"probabilities sum to {float(total[row])!r} in row {row}, "
            f"expected 1 within {NORM_TOL}"
        )
    return Readout(probs, state.keys)
