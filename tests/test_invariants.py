"""Invariants of the code base itself, rather than of the physics.

* ``dense_oracle``, ``facet_oracle`` and ``simplex_reference`` stay
  independent implementations: they import nothing from ``mzpair``, and no
  module of the package imports them.
* Correctness checks raise explicitly, so they survive ``python -O``: the
  package holds no ``assert`` statement, and a sample of checks still
  raises under ``-O``.
* The package exports a fixed list of names; ``mzpair.__all__`` is built
  from its imports, so an export can otherwise change without a diff here.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import mzpair

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


def imported_modules(path):
    """Top-level names of every module a source file imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                names.add(".")  # relative to the importing file's package
            if node.module:
                names.add(node.module.split(".")[0])
            else:
                names.update(alias.name for alias in node.names)
    return names


REFERENCES = ("dense_oracle", "facet_oracle", "simplex_reference")


def assert_independent(reference):
    names = imported_modules(TESTS / f"{reference}.py")
    assert "mzpair" not in names
    assert "." not in names


def test_dense_oracle_imports_nothing_from_the_package():
    assert_independent("dense_oracle")


def test_facet_oracle_imports_nothing_from_the_package():
    assert_independent("facet_oracle")


def test_simplex_reference_imports_nothing_from_the_package():
    assert_independent("simplex_reference")


def test_package_never_imports_the_oracle():
    sources = sorted((SRC / "mzpair").glob("*.py"))
    assert sources
    for path in sources:
        assert not set(REFERENCES) & imported_modules(path), path.name


def test_package_holds_no_assert_statement():
    # python -O strips assert statements, so a check written as one would vanish.
    sources = sorted((SRC / "mzpair").glob("*.py"))
    assert sources
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} asserts on lines {lines}"


OPTIMIZED_CHECKS = """
import dataclasses, math
import numpy as np
from mzpair import bell, explore
from mzpair.state import BeamSplitterParams, JointState, PipelineError, Readout, measure

assert False, "unreachable under -O"
try:
    explore.check_middle_terms(0.5, [1.0], np.array([1e-9]), np.zeros(1))
except PipelineError:
    print("middle terms checked")

real_solve = bell.solve_phase1


def negated(A, b, **kwargs):
    result = real_solve(A, b, **kwargs)
    return dataclasses.replace(result, certificate=-result.certificate)


def perturbed(A, b, **kwargs):
    result = real_solve(A, b, **kwargs)
    return dataclasses.replace(result, x=result.x + 1e-6)


# The optimum is decided by a lifting.  Mixed with a strategy on which that
# lifting is tight, to an excess between tol and the lifting threshold, it
# is decided by the simplex.
optimum = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.5830902), math.pi)
y = bell.lhv_membership(optimum).certificate
k = bell._LIFTING_CERTIFICATES.index(y)
w = np.array(y[:-1])
tight = next(
    s.behavior().cells for s in bell.enumerate_deterministic_strategies()
    if w @ s.behavior().cells == 2.0
)
share = (bell.FEASIBILITY_TOL + bell._LIFTING_MARGIN / 2) / (w @ optimum.cells - 2.0)
cells = share * optimum.cells + (1.0 - share) * tight
mixed = bell.BehaviorTable.from_tables(
    {s: {o: p for (t, o), p in zip(bell.CELLS, cells) if t == s} for s in bell.SETTINGS}
)

bell.solve_phase1 = negated
try:
    bell.lhv_membership(mixed)
except RuntimeError:
    print("certificate checked")
bell.solve_phase1 = real_solve

real_certificates = bell._LIFTING_CERTIFICATES
loosened = y[:-1] + (y[-1] + 0.5,)  # y.b > 0 but max(y.A) = 0.5
bell._LIFTING_CERTIFICATES = real_certificates[:k] + (loosened,) + real_certificates[k + 1 :]
try:
    bell.lhv_membership(optimum)
except RuntimeError:
    print("lifting checked")
bell._LIFTING_CERTIFICATES = real_certificates

bell.solve_phase1 = perturbed
behavior = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.3), 0.0)
try:
    bell.lhv_membership(behavior)
except RuntimeError:
    print("weights checked")
bell.solve_phase1 = real_solve

# BehaviorTable's checks, each on the one fault it names: a non-finite cell,
# a negative cell, a block off 1, and a marginal shifted inside its block.
U_C, C_C = (bell.CELLS.index(((True, False), o)) for o in [("U", "C"), ("C", "C")])
for name, message, fault, shift in [
    ("non-finite", "non-finite probability", 0, math.nan),
    ("negative", "negative probability", C_C, -1.0),
    ("normalization", "sums to", C_C, 0.5),
    ("no-signaling", "no-signaling violated", None, 1e-6),
]:
    cells = behavior.cells.copy()
    if fault is None:  # the block total stays, side 1's marginal moves
        cells[U_C] -= shift
        cells[C_C] += shift
    else:
        cells[fault] += shift
    try:
        bell.BehaviorTable._checked(cells)
    except ValueError as exc:
        print(f"{name} checked" if message in str(exc) else f"wrong check: {exc}")

real_run_pair = bell.run_pair


def reversed_blocks(batch):
    readout = real_run_pair(batch)
    rows = np.arange(readout.probs.shape[1]).reshape(4, -1)[::-1].ravel()
    return Readout(readout.probs[:, rows], readout.keys)


bell.run_pair = reversed_blocks
try:
    bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.47), 2.2)
except ValueError as exc:
    print("stray outcome checked" if "impossible" in str(exc) else f"wrong check: {exc}")
bell.run_pair = real_run_pair

try:
    measure(JointState(np.array([[1.0], [0.5]], dtype=complex), (("c", "c"), ("d", "d"))))
except ValueError as exc:
    print("norm drift checked" if "sum to 1.25" in str(exc) else f"wrong check: {exc}")
"""


def test_checks_survive_optimized_mode():
    result = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n") == [
        "middle terms checked",
        "certificate checked",
        "lifting checked",
        "weights checked",
        "non-finite checked",
        "negative checked",
        "normalization checked",
        "no-signaling checked",
        "stray outcome checked",
        "norm drift checked",
        "",
    ]


PUBLIC_API = [
    "BeamSplitterParams",
    "BehaviorTable",
    "BellReport",
    "DEFAULT_GRID",
    "DeterministicStrategy",
    "GRAVITATIONAL_CONSTANT",
    "GravityParams",
    "HBAR",
    "HardyConstants",
    "JointState",
    "LhvMembership",
    "LocalStrategy",
    "Optimum",
    "OutcomeDistribution",
    "PairBatch",
    "PipelineError",
    "Readout",
    "SweepGrid",
    "__version__",
    "apply_absorber",
    "apply_annihilation_coupling",
    "apply_bs1",
    "apply_bs2",
    "apply_phase_coupling",
    "behavior_from_phase_setup",
    "bell_violation",
    "dark_port_coefficient",
    "enumerate_deterministic_strategies",
    "ev_retest_efficiency",
    "find_dark_port_tuning",
    "find_max_violation",
    "find_max_violation_at_phi",
    "first_max",
    "gravity_phase",
    "hardy_constants",
    "lhv_membership",
    "logical_inequality",
    "measure",
    "paradox_statement_probs",
    "run_ev",
    "run_pair",
    "run_pair_state",
    "sweep",
    "violation_at",
]


def test_public_api_is_pinned():
    assert sorted(mzpair.__all__) == PUBLIC_API
