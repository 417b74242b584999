"""Property tests of the streamed sweep: CSV rows, block writer, terms and the running argmax.

Hypothesis runs derandomized, so every run draws the same examples.
"""

import contextlib
import io
import json
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mzpair import explore  # noqa: E402
from mzpair.bell import behavior_from_phase_setup, bell_violation  # noqa: E402
from mzpair.cli import CSV_HEADER, _format_real, _written, main  # noqa: E402
from mzpair.explore import SweepGrid, first_max, sweep, violation_at  # noqa: E402
from mzpair.state import BeamSplitterParams  # noqa: E402


@st.composite
def grids(draw):
    r_min = draw(st.floats(0.01, 0.9))
    r_max = draw(st.floats(r_min + 1e-3, 0.99))
    phi_min = draw(st.floats(-7.0, 7.0))
    phi_max = draw(st.floats(phi_min + 1e-3, phi_min + 14.0))
    # up to 60 phases; the test also scans in blocks of 7, so rows span several
    return SweepGrid(
        r_min, r_max, draw(st.integers(2, 3)), phi_min, phi_max, draw(st.integers(2, 60))
    )


def run_sweep(grid):
    """Stdout report and CSV lines of ``mzpair sweep`` over ``grid``, run in-process."""
    argv = [
        "sweep",
        f"--r-min={grid.r_min!r}", f"--r-max={grid.r_max!r}", f"--r-steps={grid.r_steps}",
        f"--phi-min={grid.phi_min!r}", f"--phi-max={grid.phi_max!r}",
        f"--phi-steps={grid.phi_steps}",
    ]  # fmt: skip
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "grid.csv")
        with contextlib.redirect_stdout(stdout):
            assert main(argv + ["--out", path]) == 0
        with open(path, encoding="utf-8", newline="") as handle:
            lines = handle.read().split("\n")
    return json.loads(stdout.getvalue())["outputs"], lines


@settings(derandomize=True, max_examples=20, deadline=None)
@given(grids(), st.sampled_from([7, explore.SCAN_BLOCK]))
def test_streamed_rows_match_single_point_evaluations(grid, block):
    with mock.patch.object(explore, "SCAN_BLOCK", block):
        check_streamed_rows(grid)


def check_streamed_rows(grid):
    cells = []
    for r in grid.r_values():
        for phi in grid.phi_values():
            behavior = behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
            report = bell_violation(behavior, check_lhv=False)
            violation = violation_at(r, phi)
            assert violation == report.violation
            cells.append((r, phi, report.p_u1u2, report.p_c1c2, violation))
    best = max(cells, key=lambda cell: cell[4])  # the first maximum

    assert first_max(sweep(grid)) == (len(cells), best)
    outputs, lines = run_sweep(grid)
    rows = [",".join(_format_real(x) for x in cell) for cell in cells]
    assert lines == [CSV_HEADER, *rows, ""]
    assert outputs["rows"] == len(cells)
    argmax = dict(zip(CSV_HEADER.split(","), (float(_format_real(x)) for x in best)))
    assert outputs["argmax"] == argmax


@settings(derandomize=True, max_examples=200)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=1, max_size=6), max_size=6))
def test_first_max_keeps_the_first_of_equal_maxima(rows):
    # Small integers make ties within and across blocks common.
    blocks, cells = [], []
    for i, values in enumerate(rows):
        r, phis, v = 0.1 * i, [float(j) for j in range(len(values))], np.array(values, float)
        blocks.append((r, phis, v + 1.0, v - 1.0, v))
        cells += [(r, phi, x + 1.0, x - 1.0, float(x)) for phi, x in zip(phis, values)]
    assert first_max(blocks) == (len(cells), max(cells, key=lambda cell: cell[4], default=None))


# Floats whose .12g text lacks a decimal marker, or nearly does: zeros, +-1,
# integers up to 1e13 and values 1 ulp or a few 1e-12 relative from one,
# 12-digit rounding boundaries, subnormals, and the extremes.
ADVERSARIAL = [0.0, -0.0, 1.0, -1.0, 0.9999999999995, 0.99999999999995, 999999999999.5,
               5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300]  # fmt: skip
integers = st.integers(-(10**13), 10**13)
finite_reals = st.one_of(
    st.sampled_from(ADVERSARIAL),
    integers.map(float),
    st.tuples(integers, st.sampled_from([-math.inf, math.inf])).map(
        lambda pair: math.nextafter(float(pair[0]), pair[1])
    ),
    st.tuples(st.integers(-(10**12), 10**12), st.floats(-6e-12, 6e-12)).map(
        lambda pair: pair[0] * (1.0 + pair[1])
    ),
    st.floats(-2.3e-308, 2.3e-308),
    st.floats(1e11, 1e13),
    st.floats(-1e13, -1e11),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def csv_blocks(draw):
    """Sweep-like blocks ``(r, phis, p_u1u2, p_c1c2, violation)``; the phase
    lists repeat across blocks, as a sweep's rows do, or not."""
    phis = st.lists(finite_reals, min_size=1, max_size=5)
    phi_lists = draw(st.lists(phis, min_size=1, max_size=2))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        phis = draw(st.sampled_from(phi_lists))
        n = 3 * len(phis)
        terms = np.array(draw(st.lists(finite_reals, min_size=n, max_size=n))).reshape(3, -1)
        blocks.append((draw(finite_reals), list(phis), *terms))
    return blocks


def csv_rows(blocks):
    return [
        ",".join(_format_real(x) for x in (r, *row)) + "\n"
        for r, phis, p1, p4, v in blocks
        for row in zip(phis, p1.tolist(), p4.tolist(), v.tolist())
    ]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(csv_blocks())
def test_block_writer_matches_format_real_row_by_row(blocks):
    handle = io.StringIO()
    assert [id(block) for block in _written(handle, blocks)] == list(map(id, blocks))
    assert handle.getvalue() == "".join(csv_rows(blocks))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(csv_blocks(), st.data(), st.sampled_from([math.nan, math.inf, -math.inf]))
def test_block_writer_stops_at_the_first_non_finite_value(blocks, data, bad):
    *before, (r, phis, *terms) = blocks
    row = data.draw(st.integers(0, len(phis) - 1))
    column = data.draw(st.integers(0, 4))
    if column == 0:
        r, row = bad, 0
    elif column == 1:
        phis = phis[:row] + [bad] + phis[row + 1 :]
    else:
        terms[column - 2] = np.array(terms[column - 2])
        terms[column - 2][row] = bad
    last = (r, phis, *terms)
    handle = io.StringIO()
    with pytest.raises(ValueError) as raised:
        list(_written(handle, [*before, last]))
    with pytest.raises(ValueError) as expected:
        _format_real(bad)
    assert str(raised.value) == str(expected.value)
    kept = csv_rows([*before, (r, phis[:row], *(term[:row] for term in terms))])
    assert handle.getvalue() == "".join(kept)
