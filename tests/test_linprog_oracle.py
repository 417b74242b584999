"""Local-model verdicts against scipy's HiGHS solver, used as a test-only oracle.

The package decides membership with its own phase-1 simplex; here the same
``membership_system`` goes to ``scipy.optimize.linprog`` as a pure
feasibility problem.  scipy is not a dependency of the package: without it
this module is skipped.
"""

import math
import random

import numpy as np
import pytest

from mzpair.bell import behavior_from_phase_setup, lhv_membership, membership_system
from mzpair.state import BeamSplitterParams

optimize = pytest.importorskip("scipy.optimize")


def seeded_points(seed, count):
    """Half uniform over the plane, half near the maximal violation at (0.583, pi)."""
    rng = random.Random(seed)
    return [
        (rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        if i % 2 == 0
        else (rng.uniform(0.50, 0.66), rng.uniform(math.pi - 0.5, math.pi + 0.5))
        for i in range(count)
    ]


def linprog_feasible(A, b):
    result = optimize.linprog(
        np.zeros(A.shape[1]), A_eq=A, b_eq=b, bounds=(0.0, None), method="highs"
    )
    assert result.status in (0, 2), result.message  # solved, or proven infeasible
    return result.status == 0


def test_verdicts_match_linprog():
    verdicts = []
    for r, phi in seeded_points(41, 200):
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
        feasible = lhv_membership(behavior).feasible
        assert feasible == linprog_feasible(*membership_system(behavior)), (r, phi)
        verdicts.append(feasible)
    # both verdicts occur, so the agreement is not one-sided
    assert 0 < sum(verdicts) < len(verdicts)
