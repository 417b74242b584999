"""The whole-array simplex against the loop-based reference, byte for byte.

``simplex_reference.solve_phase1`` is the row-by-row pivot loop that the
package's solver replaced.  Both must take the same pivots and return the
same bytes: verdict, objective, ``x``, certificate and pivot count.
"""

import math
import random
import struct

import numpy as np
import pytest

import simplex_reference
from mzpair.bell import behavior_from_phase_setup, membership_system
from mzpair.simplex import solve_phase1
from mzpair.state import BeamSplitterParams


def result_bytes(result):
    certificate = None if result.certificate is None else result.certificate.tobytes()
    return (
        result.feasible,
        struct.pack("<d", result.objective),
        result.x.tobytes(),
        certificate,
        result.iterations,
    )


def assert_same_bytes(A, b):
    expected = simplex_reference.solve_phase1(A, b)
    assert result_bytes(solve_phase1(A, b)) == result_bytes(expected)
    return expected


def bell_points(seed, count):
    """Half uniform over the plane, half near the maximal violation at (0.583, pi)."""
    rng = random.Random(seed)
    return [
        (rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi))
        if i % 2 == 0
        else (rng.uniform(0.50, 0.66), rng.uniform(math.pi - 0.5, math.pi + 0.5))
        for i in range(count)
    ]


def random_system(rng):
    """A small system with b >= 0: real or integer entries, planted or not.

    Integer systems have many tied ratios and degenerate pivots.  Rows are
    negated to make b nonnegative, which leaves ``-0.0`` entries in A, and
    half the systems carry ``-0.0`` for every zero of b.
    """
    m, n = int(rng.integers(1, 9)), int(rng.integers(1, 11))
    kind = int(rng.integers(4))
    if kind == 0:
        A = rng.uniform(-1.0, 1.0, (m, n))
    elif kind == 1:
        A = rng.integers(-2, 3, (m, n)).astype(float)
    else:
        A = rng.integers(0, 2, (m, n)).astype(float)
    if kind >= 2:
        b = A @ rng.integers(0, 3, n).astype(float)  # planted integer solution
    elif rng.random() < 0.5:
        b = A @ rng.uniform(0.0, 1.0, n)  # planted real solution
    else:
        b = rng.uniform(-1.0, 1.0, m)
    if kind == 3:
        b[rng.random(m) < 0.3] += 1.0  # break some planted rows
    flip = b < 0.0
    A[flip] = -A[flip]
    b[flip] = -b[flip]
    if rng.random() < 0.5:
        b[b == 0.0] = -0.0
    return A, b


def test_membership_systems_match_the_reference():
    verdicts = []
    for r, phi in bell_points(53, 500):
        behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
        verdicts.append(assert_same_bytes(*membership_system(behavior)).feasible)
    assert 0 < sum(verdicts) < len(verdicts)


def test_random_small_systems_match_the_reference():
    rng = np.random.default_rng(54)
    verdicts = []
    for _ in range(1000):
        verdicts.append(assert_same_bytes(*random_system(rng)).feasible)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize(
    "A, b",
    [
        # tied ratios in every pivot
        (np.ones((3, 3)), np.ones(3)),
        (np.array([[1.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), np.zeros(3)),
        # signed zeros: an update of the second row by 0 * pivot_row would
        # turn its right-hand side, and so x[1], into +0.0
        (np.array([[1.0, 0.0], [-0.0, 1.0]]), np.array([1.0, -0.0])),
        (np.array([[-0.0, 1.0], [1.0, -0.0]]), np.array([1.0, 0.0])),
        (np.zeros((2, 2)), np.array([0.0, 1.0])),
    ],
)
def test_degenerate_systems_match_the_reference(A, b):
    assert_same_bytes(A, b)
