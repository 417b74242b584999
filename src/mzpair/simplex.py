"""Dense phase-1 simplex for tiny equality-form feasibility problems.

Answers "is there an x >= 0 with A x = b?" by minimizing the total mass of
artificial variables.  Bland's smallest-index rule is used for both the
entering and the leaving choice, which rules out cycling, and artificial
variables are barred from re-entering once driven out.  When the leftover
artificial mass is positive the dual prices form a Farkas-style certificate:
y . b > 0 while y . A_j <= 0 for every column j.

The systems solved here have a few dozen rows and columns, so a plain dense
tableau is the simplest correct tool.  The objective row is folded in as the
tableau's last row, so each pivot is a handful of whole-array steps: one
comparison and one ``argmax`` pick the entering column, the ratio test
divides only in rows with a positive entry, and one rank-1 update clears
the pivot column from every other row, the objective row included.

That update skips the rows whose entry in the pivot column is zero.  There
``row - 0 * pivot_row`` would change no value, but wherever ``0 * pivot_row``
is ``-0.0`` it turns a ``-0.0`` entry into ``0.0``, and such a sign reaches
``x`` and the printed infeasibility.  Skipping them keeps every entry, and
so every returned byte, the same as a row-by-row elimination.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Phase1Result", "solve_phase1"]

# Entries smaller than this are treated as zero during pivoting.
PIVOT_EPS = 1e-11
FEASIBILITY_TOL = 1e-9  # most leftover artificial mass of a solvable system
MAX_ITERATIONS = 10_000  # pivots before giving up; Bland's rule makes this a guard only


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    objective: float  # leftover artificial mass; ~0 iff the system is solvable
    x: np.ndarray  # candidate solution over the original columns
    certificate: np.ndarray | None  # Farkas vector y when infeasible
    iterations: int


def solve_phase1(A: np.ndarray, b: np.ndarray) -> Phase1Result:
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

    # Tableau [A | I | b] above the objective row [reduced costs | -objective].
    tableau = np.zeros((m + 1, n + m + 1))
    tableau[:m, :n] = A
    tableau[:m, n : n + m] = np.eye(m)
    tableau[:m, -1] = b
    tableau[m, :n] = -A.sum(axis=0)
    tableau[m, -1] = -b.sum()
    zrow = tableau[m, :-1]
    basis = list(range(n, n + m))
    # A column may enter while its reduced cost is below its floor; an
    # artificial variable driven out gets a floor of -inf, so it never returns.
    floor = np.full(n + m, -PIVOT_EPS)

    iterations = 0
    while True:
        eligible = zrow < floor
        enter = int(eligible.argmax())  # Bland: the lowest eligible index enters
        if not eligible[enter]:
            break

        column = tableau[:, enter]
        leave = -1
        best_ratio = np.inf
        for i, (coeff, rhs) in enumerate(zip(column[:m].tolist(), tableau[:m, -1].tolist())):
            if coeff > PIVOT_EPS:
                ratio = rhs / coeff
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
        update = column != 0.0
        update[leave] = False
        rank1 = column[:, None] * tableau[leave]
        np.subtract(tableau, rank1, out=tableau, where=update[:, None])

        leaving_var = basis[leave]
        if leaving_var >= n:
            floor[leaving_var] = -np.inf
        basis[leave] = enter

        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise RuntimeError("simplex failed to terminate")

    objective = -tableau[m, -1]
    x = np.zeros(n)
    for i, var in enumerate(basis):
        if var < n:
            x[var] = tableau[i, -1]

    if objective <= FEASIBILITY_TOL:
        return Phase1Result(True, float(objective), x, None, iterations)
    # Dual prices from the artificial reduced costs: z_j = 1 - y_i there.
    certificate = 1.0 - zrow[n : n + m]
    return Phase1Result(False, float(objective), x, certificate, iterations)
