"""Parameter exploration: grid sweeps and deterministic refinement.

Everything here is driven by the simulated behavior, not by closed forms,
so a sweep doubles as an end-to-end consistency exercise: the two
mixed-placement inequality terms are checked to vanish at every visited
cell.  Grid points go through the engine in batches of at most
``SCAN_BLOCK`` phases at one splitter ratio, each under all four detector
settings.  Optimization is a coarse scan followed by alternating
golden-section passes, which keeps results bit-reproducible run to run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .experiments import PairBatch, run_pair
from .state import BeamSplitterParams, PipelineError

__all__ = [
    "SweepGrid",
    "SweepCell",
    "Optimum",
    "DEFAULT_GRID",
    "sweep",
    "violation_at",
    "find_max_violation",
    "find_max_violation_at_phi",
    "find_dark_port_tuning",
]

# Hard validity clamp for the splitter ratio during refinement.
R_CLAMP_LO = 1e-3
R_CLAMP_HI = 1.0 - 1e-3

MIDDLE_TERM_TOL = 1e-12

# Phases per engine batch.  With four settings each, a batch holds 200
# states, 0.2 MB per amplitude array, whatever the grid size: larger batches
# ran no faster on the default grid and raised peak memory by megabytes.
SCAN_BLOCK = 50

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi
INV_PHI_SQ = (3.0 - math.sqrt(5.0)) / 2.0  # 1/phi^2


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive rectangular grid over the splitter ratio and coupling phase."""

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

    def r_values(self) -> list[float]:
        step = (self.r_max - self.r_min) / (self.r_steps - 1)
        return [self.r_min + i * step for i in range(self.r_steps)]

    def phi_values(self) -> list[float]:
        step = (self.phi_max - self.phi_min) / (self.phi_steps - 1)
        return [self.phi_min + i * step for i in range(self.phi_steps)]


DEFAULT_GRID = SweepGrid(
    r_min=0.05, r_max=0.95, r_steps=200, phi_min=0.0, phi_max=2.0 * math.pi, phi_steps=200
)


@dataclass(frozen=True)
class SweepCell:
    r: float
    phi: float
    p_u1u2: float
    p_c1c2: float
    violation: float


def check_middle_terms(r: float, phis, mid1: np.ndarray, mid2: np.ndarray) -> None:
    """Raise :class:`PipelineError` unless both mixed-placement terms vanish.

    They vanish identically for this setup; anything else indicates a
    broken pipeline, not an interesting parameter point.
    """
    within = np.maximum(mid1, mid2) <= MIDDLE_TERM_TOL  # False where either is NaN
    if not within.all():
        k = np.flatnonzero(~within)[0]
        raise PipelineError(
            f"middle terms {float(mid1[k])!r}, {float(mid2[k])!r} exceed {MIDDLE_TERM_TOL} "
            f"at r={r!r}, phi={float(phis[k])!r}"
        )


def _terms(bs: BeamSplitterParams, phis) -> tuple[np.ndarray, ...]:
    """The four inequality terms at each phase in ``phis``, from simulation."""
    n = len(phis)
    dist = run_pair(PairBatch.phase_settings(bs, phis))
    p_u1u2 = dist.prob(("U", "U"))[:n]
    mid1 = dist.prob(("U", "D"))[n : 2 * n]
    mid2 = dist.prob(("D", "U"))[2 * n : 3 * n]
    p_c1c2 = dist.prob(("C", "C"))[3 * n :]
    check_middle_terms(bs.r, phis, mid1, mid2)
    return p_u1u2, mid1, mid2, p_c1c2


def violation_at(r: float, phi: float) -> float:
    """Simulated inequality violation at a single parameter point."""
    p1, mid1, mid2, p4 = _terms(BeamSplitterParams.from_r(r), [phi])
    return float(p1[0] - mid1[0] - mid2[0] - p4[0])


def _scan(r_values: list[float], phis: list[float]):
    """Yield ``(r, phis, p_u1u2, p_c1c2, violation)`` blocks in row-major order."""
    for r in r_values:
        bs = BeamSplitterParams.from_r(r)
        for start in range(0, len(phis), SCAN_BLOCK):
            block = phis[start : start + SCAN_BLOCK]
            p1, mid1, mid2, p4 = _terms(bs, block)
            yield r, block, p1, p4, p1 - mid1 - mid2 - p4


def sweep(grid: SweepGrid) -> list[SweepCell]:
    """Evaluate the grid row-major (r outer, phi inner)."""
    cells = []
    for r, phis, p1, p4, v in _scan(grid.r_values(), grid.phi_values()):
        for phi, p_u1u2, p_c1c2, violation in zip(phis, p1.tolist(), p4.tolist(), v.tolist()):
            cells.append(SweepCell(r, phi, p_u1u2, p_c1c2, violation))
    return cells


@dataclass(frozen=True)
class Optimum:
    r_star: float
    phi_star: float
    violation_star: float
    iterations: int  # objective evaluations, coarse scan included
    at_boundary: bool


def _golden_max(f, lo: float, hi: float, tol: float) -> tuple[float, float, int]:
    """Golden-section maximization on [lo, hi]; returns (x, f(x), evals)."""
    if hi - lo <= tol:
        mid = 0.5 * (lo + hi)
        return mid, f(mid), 1
    span = hi - lo
    steps = int(math.ceil(math.log(tol / span) / math.log(INV_PHI)))
    c = lo + INV_PHI_SQ * span
    d = lo + INV_PHI * span
    yc = f(c)
    yd = f(d)
    evals = 2
    for _ in range(max(steps - 1, 0)):
        if yc > yd:
            hi = d
            d, yd = c, yc
            span *= INV_PHI
            c = lo + INV_PHI_SQ * span
            yc = f(c)
        else:
            lo = c
            c, yc = d, yd
            span *= INV_PHI
            d = lo + INV_PHI * span
            yd = f(d)
        evals += 1
    if yc > yd:
        return c, yc, evals
    return d, yd, evals


def find_max_violation(grid: SweepGrid | None = None, refine_tol: float = 1e-8) -> Optimum:
    """Locate the largest simulated violation on (and inside) the grid.

    A full coarse scan picks the best cell; alternating golden-section
    passes in r and phi then refine until both coordinates settle within
    ``refine_tol``.  The result never falls below the best coarse cell.
    """
    if grid is None:
        grid = DEFAULT_GRID
    if not (0.0 < refine_tol <= 1e-2):
        raise ValueError(f"refine_tol out of range: {refine_tol!r}")

    r_lo = max(grid.r_min, R_CLAMP_LO)
    r_hi = min(grid.r_max, R_CLAMP_HI)
    phi_lo, phi_hi = grid.phi_min, grid.phi_max

    best_r = best_phi = None
    best_v = -math.inf
    evals = 0
    r_grid = [r for r in grid.r_values() if r_lo <= r <= r_hi]
    for r, phis, _, _, v in _scan(r_grid, grid.phi_values()):
        evals += len(phis)
        k = int(np.argmax(v))
        if v[k] > best_v:
            best_r, best_phi, best_v = r, phis[k], float(v[k])

    r_step = (grid.r_max - grid.r_min) / (grid.r_steps - 1)
    phi_step = (grid.phi_max - grid.phi_min) / (grid.phi_steps - 1)

    r_cur, phi_cur, v_cur = best_r, best_phi, best_v
    for _ in range(60):
        r_new, v_r, n = _golden_max(
            lambda rr: violation_at(rr, phi_cur),
            max(r_lo, r_cur - r_step),
            min(r_hi, r_cur + r_step),
            refine_tol,
        )
        evals += n
        phi_new, v_p, n = _golden_max(
            lambda pp: violation_at(r_new, pp),
            max(phi_lo, phi_cur - phi_step),
            min(phi_hi, phi_cur + phi_step),
            refine_tol,
        )
        evals += n
        if v_p > v_cur:
            v_cur = v_p
        moved = max(abs(r_new - r_cur), abs(phi_new - phi_cur))
        r_cur, phi_cur = r_new, phi_new
        if moved < refine_tol:
            break

    # Keep the invariant literal: the returned point beats its refine-scale
    # neighbors and every coarse cell.
    v_cur = violation_at(r_cur, phi_cur)
    evals += 1
    for rr, pp in (
        (r_cur - refine_tol, phi_cur),
        (r_cur + refine_tol, phi_cur),
        (r_cur, phi_cur - refine_tol),
        (r_cur, phi_cur + refine_tol),
    ):
        rr = min(max(rr, r_lo), r_hi)
        pp = min(max(pp, phi_lo), phi_hi)
        v = violation_at(rr, pp)
        evals += 1
        if v > v_cur:
            r_cur, phi_cur, v_cur = rr, pp, v
    if best_v > v_cur:
        r_cur, phi_cur, v_cur = best_r, best_phi, best_v

    margin = 2.0 * refine_tol
    at_boundary = (
        r_cur - r_lo <= margin
        or r_hi - r_cur <= margin
        or phi_cur - phi_lo <= margin
        or phi_hi - phi_cur <= margin
    )
    return Optimum(r_cur, phi_cur, v_cur, evals, at_boundary)


def find_max_violation_at_phi(
    phi: float,
    *,
    r_min: float = 0.05,
    r_max: float = 0.95,
    r_steps: int = 200,
    refine_tol: float = 1e-8,
) -> Optimum:
    """Best achievable violation at a fixed coupling phase (scan + refine in r)."""
    if not (0.0 < refine_tol <= 1e-2):
        raise ValueError(f"refine_tol out of range: {refine_tol!r}")
    if not (0.0 < r_min < r_max < 1.0):
        raise ValueError(f"need 0 < r_min < r_max < 1, got [{r_min!r}, {r_max!r}]")
    r_lo = max(r_min, R_CLAMP_LO)
    r_hi = min(r_max, R_CLAMP_HI)
    step = (r_hi - r_lo) / (r_steps - 1)

    best_r, best_v = r_lo, -math.inf
    evals = 0
    for i in range(r_steps):
        r = r_lo + i * step
        v = violation_at(r, phi)
        evals += 1
        if v > best_v:
            best_r, best_v = r, v

    r_star, v_star, n = _golden_max(
        lambda rr: violation_at(rr, phi),
        max(r_lo, best_r - step),
        min(r_hi, best_r + step),
        refine_tol,
    )
    evals += n
    if best_v > v_star:
        r_star, v_star = best_r, best_v
    at_boundary = r_star - r_lo <= 2.0 * refine_tol or r_hi - r_star <= 2.0 * refine_tol
    return Optimum(r_star, phi, v_star, evals, at_boundary)


def find_dark_port_tuning(phi: float) -> float | None:
    """Splitter ratio nulling the joint bright-port amplitude, or None.

    The amplitude -(r^4 + 2 r^2 t^2 + t^4 e^{i phi}) has imaginary part
    proportional to sin(phi), so a true zero needs sin(phi) = 0; and on the
    cos(phi) = +1 branch the magnitude is identically 1.  Only the opposite
    branch admits a root, found here by bisection in x = r^2.
    """
    if abs(math.sin(phi)) > 1e-12 or math.cos(phi) >= 0.0:
        return None
    c = math.cos(phi)  # -1 up to rounding

    def real_amp(x: float) -> float:
        return x * x + 2.0 * x * (1.0 - x) + (1.0 - x) * (1.0 - x) * c

    lo, hi = 0.0, 0.5  # real_amp(0) = c < 0 < real_amp(0.5)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if real_amp(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16:
            break
    return math.sqrt(0.5 * (lo + hi))
