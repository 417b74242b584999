"""Property test of the command line: no drawn flags end in a traceback.

Every command exits 0 or 2, and exit 2 leaves stdout empty.  ``sweep`` is
drawn only over grids of at most 4 x 4 cells, and ``optimize``, whose every
valid tolerance runs the default 200 x 200 scan, only with coarse or invalid
tolerances and few examples.  Hypothesis runs derandomized, so every run
draws the same examples.
"""

import contextlib
import io
import json
import math
import os
import tempfile

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from mzpair.cli import main  # noqa: E402

BELOW_2_25 = math.nextafter(2.0**25, 0.0)
EXTREMES = [
    0.0,
    5e-324,
    -5e-324,
    math.nan,
    math.inf,
    -math.inf,
    1e300,
    -1e300,
    BELOW_2_25,
    -BELOW_2_25,
    2.0**25 - 1.0,
]

# Powers of ten reach the masses and lengths at which gravity's phase resolves.
reals = st.one_of(
    st.sampled_from(EXTREMES),
    st.floats(0.0, 1.0),
    st.integers(-20, 0).map(lambda exponent: 10.0**exponent),
    st.floats(),
)

# Each command's float flags and on/off switches.
FLAGS = {
    "ev": (["r"], ["--bomb"]),
    "annihilation": (["r"], ["--place-u-plus", "--place-u-minus"]),
    "phase": (["r", "phi"], ["--place-u1", "--place-u2", "--degrees"]),
    "bell": (["r", "phi"], ["--degrees"]),
    "gravity": (["mass", "length", "distance"], []),
}


@st.composite
def commands(draw):
    name = draw(st.sampled_from(sorted(FLAGS)))
    values, switches = FLAGS[name]
    argv = [name] + [f"--{flag}={draw(reals)!r}" for flag in values]
    return argv + [switch for switch in switches if draw(st.booleans())]


@st.composite
def sweeps(draw):
    argv = ["sweep"] + [f"--{name}-steps={draw(st.integers(0, 4))}" for name in ("r", "phi")]
    for bound in ("r-min", "r-max", "phi-min", "phi-max"):
        if draw(st.booleans()):
            argv.append(f"--{bound}={draw(reals)!r}")
    return argv + ["--degrees"] * draw(st.booleans())


# Valid tolerances lie in (0, 1e-2]; only the coarsest are drawn among them.
refine_tols = st.one_of(
    st.sampled_from([1e-3, 1e-2, math.nextafter(1e-2, 1.0), -0.0, math.nan, math.inf]),
    st.floats(max_value=0.0),
    st.floats(min_value=0.011),
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(commands())
def test_drawn_flags_exit_0_or_2_without_traceback(argv):
    check_exit_0_or_2(argv)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(sweeps())
def test_drawn_sweep_flags_exit_0_or_2_without_traceback(argv):
    with tempfile.TemporaryDirectory() as tmp:
        check_exit_0_or_2(argv + ["--out", os.path.join(tmp, "grid.csv")])


@settings(derandomize=True, max_examples=15, deadline=None)
@given(refine_tols)
def test_drawn_refine_tol_exits_0_or_2_without_traceback(tol):
    check_exit_0_or_2(["optimize", f"--refine-tol={tol!r}"])


def check_exit_0_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error:")
    else:
        assert json.loads(out.getvalue())["command"] == argv[0]
