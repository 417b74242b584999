"""The facets of the local polytope, from an independent enumeration.

``facet_oracle`` builds the 25 positivity rows and the 72 liftings of CHSH
from labels, in its own cell order; the package's lifting table must be
those 72 rows, its strategy table must be the oracle's 36 strategies in
the oracle's order, and the simplex's verdicts must agree with them.  No test
here needs scipy.
"""

import math
import random

import facet_oracle as oracle
import numpy as np

from mzpair import bell
from mzpair.state import BeamSplitterParams

STRATEGIES = oracle.strategies()
FACETS = oracle.positivity_facets() + oracle.chsh_liftings()


def to_oracle_order(values):
    """Values over the package's ``CELLS``, re-indexed into the oracle's cells by label."""
    out = np.zeros(len(oracle.CELLS))
    for ((placed1, placed2), (a1, a2)), value in zip(bell.CELLS, values):
        setting = ("placed" if placed1 else "absent", "placed" if placed2 else "absent")
        out[oracle.INDEX[(*setting, a1, a2)]] = value
    return out


def test_the_strategies_span_fifteen_dimensions():
    assert len(STRATEGIES) == 36
    assert len({tuple(s) for s in STRATEGIES}) == 36
    assert oracle.affine_rank(STRATEGIES) == 15


def test_the_package_strategies_are_the_oracle_strategies():
    # Column j of the membership matrix, and the letters of STRATEGIES[j], are
    # the oracle's strategy j: the weights of a feasible verdict follow this order.
    behavior = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.5), 0.0)
    A, _ = bell.membership_system(behavior)
    assert np.all(A[-1] == 1.0)
    columns = A[:-1].T
    assert len(columns) == len(bell.STRATEGIES) == len(STRATEGIES)
    for column, letters, expected in zip(columns, bell.STRATEGIES, STRATEGIES):
        side1 = {"placed": letters[0], "absent": letters[1]}
        side2 = {"placed": letters[2], "absent": letters[3]}
        spelled = oracle.row({(x1, x2, side1[x1], side2[x2]): 1 for x1, x2 in oracle.SETTINGS})
        assert np.array_equal(to_oracle_order(column), expected), letters
        assert np.array_equal(spelled, expected), letters


def test_counts_and_labels():
    assert len(oracle.CELLS) == 25
    assert len(FACETS) == 97
    assert len({label for label, _, _ in FACETS}) == 97
    assert len({tuple(coefficients) for _, coefficients, _ in FACETS}) == 97


def test_every_row_is_a_facet():
    for label, coefficients, bound in FACETS:
        values = [int(coefficients @ s) for s in STRATEGIES]
        assert max(values) == bound, label
        tight = [s for s, value in zip(STRATEGIES, values) if value == bound]
        assert oracle.affine_rank(tight) == 14, label


def test_four_times_the_inequality_is_a_lifting():
    # On the strategies, which span the polytope's affine hull, 4 x the
    # four-term inequality equals one lifting minus its bound: the two differ
    # only by multiples of the normalization and no-signaling equalities.
    terms, zero = oracle.four_term()
    scaled = [4 * int(terms @ s) - zero for s in STRATEGIES]
    matches = [
        label
        for label, coefficients, bound in oracle.chsh_liftings()
        if [int(coefficients @ s) - bound for s in STRATEGIES] == scaled
    ]
    assert len(matches) == 1


def test_the_package_table_is_the_oracle_liftings():
    table = np.asarray(bell._LIFTINGS)
    assert table.shape == (72, 26)
    assert np.all(table[:, -1] == -2.0)
    package = {tuple(to_oracle_order(w)) for w in table[:, :-1]}
    liftings = {tuple(coefficients.astype(float)) for _, coefficients, _ in oracle.chsh_liftings()}
    assert len(package) == 72
    assert package == liftings
    assert bell._LIFTING_CERTIFICATES == tuple(map(tuple, table.tolist()))


def test_verdicts_away_from_the_boundary_follow_the_facets():
    # Drawn like the bell-points benchmark, on a seed it does not use.  A
    # behavior is local exactly when it meets all 97 facets; it meets the
    # positivity ones by construction, and often tightly, so the liftings
    # decide and set the distance to the boundary.
    rng = random.Random(7001)
    liftings = oracle.chsh_liftings()
    matrix = np.array([coefficients for _, coefficients, _ in liftings], dtype=float)
    bounds = np.array([bound for _, _, bound in liftings], dtype=float)
    checked = {True: 0, False: 0}
    for i in range(160):
        r, phi = (
            (rng.uniform(0.05, 0.95), rng.uniform(0.0, 2.0 * math.pi))
            if i % 2 == 0
            else (rng.uniform(0.50, 0.66), rng.uniform(math.pi - 0.5, math.pi + 0.5))
        )
        behavior = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
        excess = float(np.max(matrix @ to_oracle_order(behavior.cells) - bounds))
        if abs(excess) <= 1e-7:
            continue
        feasible = bell.lhv_membership(behavior).feasible
        assert feasible == (excess < 0.0), (r, phi, excess)
        checked[feasible] += 1
    assert min(checked.values()) >= 40
