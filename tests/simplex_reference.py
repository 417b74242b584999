"""Loop-based phase-1 simplex, kept as a test reference for ``mzpair.simplex``.

This is the pivot loop the package used before its pivots became whole-array
steps: one Python loop over the entering candidates, one over the rows for
the ratio test and one for the row update, with the objective row held apart.
The package's solver must return the same bytes.  Like ``dense_oracle``, this
module imports nothing from ``mzpair``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Entries smaller than this are treated as zero during pivoting.
PIVOT_EPS = 1e-11


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    objective: float  # leftover artificial mass; ~0 iff the system is solvable
    x: np.ndarray  # candidate solution over the original columns
    certificate: np.ndarray | None  # Farkas vector y when infeasible
    iterations: int


def solve_phase1(
    A: np.ndarray,
    b: np.ndarray,
    *,
    tol: float = 1e-9,
    max_iterations: int = 10_000,
) -> Phase1Result:
    """Find x >= 0 with ``A x = b`` (requires ``b >= 0``), or certify none exists."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2:
        raise ValueError(f"A must be a matrix, got shape {A.shape}")
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b must have shape ({m},), got {b.shape}")
    if np.any(b < 0.0):
        raise ValueError("phase-1 expects a nonnegative right-hand side")

    # Tableau [A | I | b]; the objective row carries reduced costs and -objective.
    tableau = np.hstack([A, np.eye(m), b.reshape(m, 1)])
    zrow = np.concatenate([-A.sum(axis=0), np.zeros(m), [-b.sum()]])
    basis = list(range(n, n + m))
    allowed = np.ones(n + m, dtype=bool)

    iterations = 0
    while True:
        enter = -1
        for j in range(n + m):  # Bland: the lowest eligible index enters
            if allowed[j] and zrow[j] < -PIVOT_EPS:
                enter = j
                break
        if enter < 0:
            break

        leave = -1
        best_ratio = np.inf
        for i in range(m):
            coeff = tableau[i, enter]
            if coeff > PIVOT_EPS:
                ratio = tableau[i, -1] / coeff
                if ratio < best_ratio - PIVOT_EPS or (
                    abs(ratio - best_ratio) <= PIVOT_EPS
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave < 0:
            # Cannot happen for phase 1 (objective bounded below by zero).
            raise RuntimeError("phase-1 column unbounded; malformed input")

        tableau[leave] /= tableau[leave, enter]
        pivot_row = tableau[leave]
        for i in range(m):
            if i != leave and tableau[i, enter] != 0.0:
                tableau[i] -= tableau[i, enter] * pivot_row
        zrow = zrow - zrow[enter] * pivot_row

        leaving_var = basis[leave]
        if leaving_var >= n:
            allowed[leaving_var] = False
        basis[leave] = enter

        iterations += 1
        if iterations > max_iterations:
            raise RuntimeError("simplex failed to terminate")

    objective = -zrow[-1]
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i, -1]

    if objective <= tol:
        return Phase1Result(True, float(objective), x, None, iterations)
    # Dual prices from the artificial reduced costs: z_j = 1 - y_i there.
    certificate = 1.0 - zrow[n : n + m]
    return Phase1Result(False, float(objective), x, certificate, iterations)
