"""Parameter exploration: grid sweeps and deterministic refinement.

Everything here is driven by the simulated behavior, not by closed forms,
so a sweep doubles as an end-to-end consistency exercise: the two
mixed-placement inequality terms are checked to vanish at every visited
cell.  Grid points go through the engine in blocks of at most
``SCAN_BLOCK`` phases at one splitter ratio, or ``SCAN_BLOCK`` points each
with its own ratio, every point under all four detector settings.  A sweep
yields the blocks as they are computed and keeps none, so its memory does
not grow with the grid; every scan picks its best cell with
:func:`first_max`.  Both searches run on ``DEFAULT_GRID``: a coarse scan
of the grid (of its r axis alone at a fixed phase) followed by a fixed
schedule of shrinking zoom grids, one engine batch each, which keeps
results bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bell import behavior_cells, inequality_terms
from .experiments import PairBatch, run_pair
from .state import BeamSplitterParams, PipelineError

__all__ = [
    "SweepGrid",
    "MAX_STEPS",
    "Optimum",
    "DEFAULT_GRID",
    "sweep",
    "first_max",
    "violation_at",
    "find_max_violation",
    "find_max_violation_at_phi",
]

MIDDLE_TERM_TOL = 1e-12

REFINE_TOL = 1e-8  # the zoom box half-width at which refinement stops

# Phases per engine batch, so one default-grid r row (200 runs fanned out to
# 4 x 200 states) is one batch.  Default find_max_violation, medians of 7
# interleaved runs on 2 CPUs: 0.177 s at 50 phases, 0.109 s at 100, 0.076 s
# at 200, 0.078 s at 400 (another sitting: 0.188, 0.116, 0.078, 0.076 s);
# sweep peak RSS read 30.5 MB at 50 and 30.6-30.7 MB at 200 and 400.  It
# still caps memory when a grid has many more phases per row.
SCAN_BLOCK = 200

# Zoom grid values per refined axis, and the box's shrink per round: the new
# half-width is the old grid spacing, so the box keeps a peak that lies
# between the best point's grid neighbours.
ZOOM_POINTS = 9
ZOOM_SHRINK = 4.0
_ZOOM_OFFSETS = np.linspace(-1.0, 1.0, ZOOM_POINTS)


# Most steps per grid axis.  ``sweep`` computes its axes a block at a time,
# but a whole axis from ``r_values()`` or ``phi_values()`` is a list of
# floats, about 32 bytes a step (tracemalloc), so this caps one near 32 MB;
# a larger count is rejected before anything is allocated or, for
# ``sweep``, written.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive rectangular grid over the splitter ratio and coupling phase.

    Each axis has from 2 to ``MAX_STEPS`` steps.
    """

    r_min: float
    r_max: float
    r_steps: int
    phi_min: float
    phi_max: float
    phi_steps: int

    def __post_init__(self) -> None:
        if not (0.0 < self.r_min < self.r_max < 1.0):
            raise ValueError(
                f"need 0 < r_min < r_max < 1, got [{self.r_min!r}, {self.r_max!r}]"
            )
        if not (math.isfinite(self.phi_min) and math.isfinite(self.phi_max)):
            raise ValueError("phase bounds must be finite")
        if self.phi_min >= self.phi_max:
            raise ValueError(
                f"need phi_min < phi_max, got [{self.phi_min!r}, {self.phi_max!r}]"
            )
        if self.r_steps < 2 or self.phi_steps < 2:
            raise ValueError("need at least 2 steps per axis")
        if max(self.r_steps, self.phi_steps) > MAX_STEPS:
            raise ValueError(
                f"need at most {MAX_STEPS} steps per axis, got {self.r_steps} r steps "
                f"and {self.phi_steps} phase steps"
            )
        # The computed ratios, not the bounds, reach the engine, and t falls
        # as r grows: both ends valid means every ratio is.
        for r in self.r_values(0, 1) + self.r_values(self.r_steps - 1):
            try:
                BeamSplitterParams.from_r(r)
            except ValueError as exc:
                raise ValueError(f"grid ratio {r!r} is not a valid splitter: {exc}") from None

    def r_values(self, start: int = 0, stop: int | None = None) -> list[float]:
        """The splitter ratios of steps ``start`` to ``stop`` (default: all)."""
        return _axis(self.r_min, self.r_max, self.r_steps, start, stop)

    def phi_values(self, start: int = 0, stop: int | None = None) -> list[float]:
        """The phases of steps ``start`` to ``stop`` (default: all)."""
        return _axis(self.phi_min, self.phi_max, self.phi_steps, start, stop)


def _axis(lo: float, hi: float, steps: int, start: int, stop: int | None) -> list[float]:
    """Values ``lo + i * step`` of an inclusive axis for ``start <= i < min(stop, steps)``."""
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(start, steps if stop is None else min(stop, steps))]


# Both searches' domain and the default sweep; read at call time, so a patch applies.
DEFAULT_GRID = SweepGrid(
    r_min=0.05, r_max=0.95, r_steps=200, phi_min=0.0, phi_max=2.0 * math.pi, phi_steps=200
)


def check_middle_terms(r, phis, mid1: np.ndarray, mid2: np.ndarray) -> None:
    """Raise :class:`PipelineError` unless both mixed-placement terms vanish.

    ``r`` is the splitter ratio shared by every phase, or one ratio per
    phase.  The terms vanish identically for this setup; anything else
    indicates a broken pipeline, not an interesting parameter point.
    """
    within = np.maximum(mid1, mid2) <= MIDDLE_TERM_TOL  # False where either is NaN
    if not within.all():
        k = np.flatnonzero(~within)[0]
        raise PipelineError(
            f"middle terms {float(mid1[k])!r}, {float(mid2[k])!r} exceed {MIDDLE_TERM_TOL} "
            f"at r={float(np.broadcast_to(r, within.shape)[k])!r}, phi={float(phis[k])!r}"
        )


def _terms(bs: BeamSplitterParams, phis) -> tuple[np.ndarray, ...]:
    """``p_u1u2``, ``p_c1c2`` and the violation at each phase in ``phis``, from simulation.

    ``bs`` is shared by every phase, or holds one ratio per phase.
    """
    readout = run_pair(PairBatch.phase_settings(bs, phis))
    p1, mid1, mid2, p4, violation = inequality_terms(behavior_cells(readout))
    check_middle_terms(bs.r, phis, mid1, mid2)
    return p1, p4, violation


def violation_at(r: float, phi: float) -> float:
    """Simulated inequality violation at a single parameter point."""
    _, _, violation = _terms(BeamSplitterParams.from_r(r), [phi])
    return float(violation[0])


def _scan(r_values, grid: SweepGrid):
    """Yield ``(r, phis, p_u1u2, p_c1c2, violation)`` blocks in row-major order.

    Each ``r`` of ``r_values`` meets the grid's phases in blocks of at most
    ``SCAN_BLOCK``, each computed from its step indices when it is needed.
    The last block's list is kept, so a row of one block computes it once.

    A block shares one splitter ratio, which :func:`_points` does not: on 2
    CPUs a 200-phase block took 162-175 us against 219-253 us for 200
    points with their own ratios (timeit, min of 7), so grid scans keep it.
    """
    block = SCAN_BLOCK
    at = phis = None
    for r in r_values:
        bs = BeamSplitterParams.from_r(r)
        for start in range(0, grid.phi_steps, block):
            if start != at:
                at, phis = start, grid.phi_values(start, start + block)
            yield (r, phis, *_terms(bs, phis))


def sweep(grid: SweepGrid):
    """Yield the grid's ``(r, phis, p_u1u2, p_c1c2, violation)`` blocks row-major.

    Each block is one splitter ratio, a list of at most ``SCAN_BLOCK``
    phases (phi inner) and one array entry per phase.  Both axes are
    computed a block at a time, so memory does not grow with the grid.
    """
    block = SCAN_BLOCK
    starts = range(0, grid.r_steps, block)
    yield from _scan((r for i in starts for r in grid.r_values(i, i + block)), grid)


def _points(rs: np.ndarray, phis: np.ndarray):
    """Yield ``(rs, phis, p_u1u2, p_c1c2, violation)`` blocks of the points ``(rs[k], phis[k])``.

    Each block is one engine batch of at most ``SCAN_BLOCK`` points, every
    point with its own splitter ratio.
    """
    for start in range(0, len(rs), SCAN_BLOCK):
        r, phi = rs[start : start + SCAN_BLOCK], phis[start : start + SCAN_BLOCK]
        yield (r, phi, *_terms(BeamSplitterParams(t=np.sqrt(1.0 - r * r), r=r), phi))


def first_max(blocks) -> tuple[int, tuple[float, float, float, float, float] | None]:
    """Count the cells of scan ``blocks`` and find the one with the largest violation.

    A block's ``r`` is shared by its phases or given per phase.  Returns the
    count and that cell as ``(r, phi, p_u1u2, p_c1c2, violation)``, or
    ``None`` for no blocks.  Among equal violations the first cell wins.
    """
    cells, best = 0, None
    for r, phis, p1, p4, v in blocks:
        cells += len(phis)
        k = int(np.argmax(v))  # the first maximum within the block
        if best is None or v[k] > best[4]:
            r_k = float(np.broadcast_to(r, v.shape)[k])
            best = (r_k, float(phis[k]), float(p1[k]), float(p4[k]), float(v[k]))
    return cells, best


@dataclass(frozen=True)
class Optimum:
    r_star: float
    phi_star: float
    violation_star: float
    iterations: int  # objective evaluations, coarse scan included
    at_boundary: bool


def _zoom(best, r_half: float, phi_half: float, r_range, phi_range, tol: float):
    """Refine ``best = (r, phi, violation)`` on a fixed schedule of zoom grids.

    Each round evaluates, as one engine batch, the ``ZOOM_POINTS`` x
    ``ZOOM_POINTS`` grid over ``r +- r_half`` and ``phi +- phi_half``
    (``ZOOM_POINTS`` x 1 when ``phi_half`` is 0), clipped to ``r_range`` and
    ``phi_range``.  The best point moves to the grid's first maximum only when
    that is strictly larger, so the result never falls below ``best``.  Both
    half-widths then shrink by ``ZOOM_SHRINK`` until neither exceeds ``tol``,
    which takes about ``log(half / tol) / log(ZOOM_SHRINK)`` rounds.

    Returns the refined ``(r, phi, violation)`` and the evaluations made.
    """
    r, phi, v = best
    phi_offsets = _ZOOM_OFFSETS if phi_half else np.zeros(1)
    evals = 0
    while max(r_half, phi_half) > tol:
        rs = np.clip(r + r_half * _ZOOM_OFFSETS, *r_range)
        phis = np.clip(phi + phi_half * phi_offsets, *phi_range)
        points = _points(np.repeat(rs, len(phis)), np.tile(phis, len(rs)))
        n, (r_k, phi_k, _, _, v_k) = first_max(points)
        evals += n
        if v_k > v:
            r, phi, v = r_k, phi_k, v_k
        r_half /= ZOOM_SHRINK
        phi_half /= ZOOM_SHRINK
    return (r, phi, v), evals


def find_max_violation(refine_tol: float = REFINE_TOL) -> Optimum:
    """Locate the largest simulated violation on (and inside) ``DEFAULT_GRID``.

    A full coarse scan picks the best cell; zoom grids starting one grid step
    around it then refine both coordinates until the box's half-width is
    within ``refine_tol``.  The result never falls below the best coarse cell.
    """
    if not (0.0 < refine_tol <= 1e-2):
        raise ValueError(f"refine_tol out of range: {refine_tol!r}")
    grid = DEFAULT_GRID
    r_lo, r_hi, phi_lo, phi_hi = grid.r_min, grid.r_max, grid.phi_min, grid.phi_max
    evals, (best_r, best_phi, _, _, best_v) = first_max(_scan(grid.r_values(), grid))

    r_step = (r_hi - r_lo) / (grid.r_steps - 1)
    phi_step = (phi_hi - phi_lo) / (grid.phi_steps - 1)
    (r_cur, phi_cur, _), n = _zoom(
        (best_r, best_phi, best_v), r_step, phi_step, (r_lo, r_hi), (phi_lo, phi_hi), refine_tol
    )
    evals += n

    # Keep the invariant literal: the returned point beats its refine-scale
    # neighbors and every coarse cell.  The zoom moves only on a strict
    # improvement and its best point is evaluated first here, so falling
    # below the coarse best means the refinement is broken.
    rs = np.clip([r_cur, r_cur - refine_tol, r_cur + refine_tol, r_cur, r_cur], r_lo, r_hi)
    phis = np.clip(
        [phi_cur, phi_cur, phi_cur, phi_cur - refine_tol, phi_cur + refine_tol], phi_lo, phi_hi
    )
    n, (r_cur, phi_cur, _, _, v_cur) = first_max(_points(rs, phis))
    evals += n
    if best_v > v_cur:
        raise RuntimeError(
            f"refined violation {v_cur!r} at r={r_cur!r}, phi={phi_cur!r} "
            f"fell below the coarse best {best_v!r}"
        )

    margin = 2.0 * refine_tol
    at_boundary = (
        r_cur - r_lo <= margin
        or r_hi - r_cur <= margin
        or phi_cur - phi_lo <= margin
        or phi_hi - phi_cur <= margin
    )
    return Optimum(r_cur, phi_cur, v_cur, evals, at_boundary)


def find_max_violation_at_phi(phi: float) -> Optimum:
    """Best achievable violation at a fixed coupling phase, over ``DEFAULT_GRID``'s ratios.

    The grid's r axis is scanned at ``phi``, then zoom grids in r refine the
    best ratio to within ``REFINE_TOL``.
    """
    grid = DEFAULT_GRID
    r_lo, r_hi = grid.r_min, grid.r_max
    r_grid = np.array(grid.r_values())
    evals, (best_r, _, _, _, best_v) = first_max(_points(r_grid, np.full(len(r_grid), phi)))
    step = (r_hi - r_lo) / (grid.r_steps - 1)
    (r_star, _, v_star), n = _zoom(
        (best_r, phi, best_v), step, 0.0, (r_lo, r_hi), (phi, phi), REFINE_TOL
    )
    evals += n
    at_boundary = r_star - r_lo <= 2.0 * REFINE_TOL or r_hi - r_star <= 2.0 * REFINE_TOL
    return Optimum(r_star, phi, v_star, evals, at_boundary)
