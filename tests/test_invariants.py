"""Invariants of the code base itself, rather than of the physics.

* ``dense_oracle``, ``facet_oracle``, ``simplex_reference`` and
  ``closed_forms`` stay independent implementations: they import nothing
  from ``mzpair``, and no module of the package imports them.
* Correctness checks raise explicitly, so they survive ``python -O``: the
  package holds no ``assert`` statement, and a sample of checks still
  raises under ``-O``.
* A tolerance check raises unless its value is within the tolerance, so a
  NaN fails it: no check reads ``if x > tol: raise``.
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


REFERENCES = ("dense_oracle", "facet_oracle", "simplex_reference", "closed_forms")


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


def test_closed_forms_import_nothing_from_the_package():
    assert_independent("closed_forms")


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


def nan_blind_guards(source):
    """Lines of ``if <a> > <tolerance>: raise``, with a ``*tol`` name or a float literal.

    A NaN compares false with everything, so such a check lets it through;
    ``if not (<a> <= <tolerance>): raise`` stops it.
    """
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)):
            continue
        op, bound = node.test.ops[-1], node.test.comparators[-1]
        name = getattr(bound, "id", getattr(bound, "attr", ""))
        literal = isinstance(bound, ast.Constant) and isinstance(bound.value, float)
        tolerance = literal or name.lower().endswith("tol")
        raises = any(isinstance(stmt, ast.Raise) for stmt in node.body)
        if isinstance(op, ast.Gt) and tolerance and raises:
            lines.append(node.lineno)
    return lines


def test_nan_blind_guard_rule_flags_its_pattern():
    flagged = """
if drift > NORM_TOL:
    raise ValueError
if np.maximum.reduce(stray) > 1e-15:
    raise ValueError
if residual > self.tol:
    raise ValueError
"""
    passed = """
if not (drift <= NORM_TOL):
    raise ValueError
if excess > tol + margin:
    verdict = None
if steps > MAX_STEPS:
    raise ValueError
"""
    assert nan_blind_guards(flagged) == [2, 4, 6]
    assert nan_blind_guards(passed) == []


def test_package_holds_no_nan_blind_tolerance_guard():
    sources = sorted((SRC / "mzpair").glob("*.py"))
    assert sources
    for path in sources:
        lines = nan_blind_guards(path.read_text(encoding="utf-8"))
        assert not lines, f"{path.name} has a NaN-blind tolerance check on lines {lines}"


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


def nan_stray(batch):
    readout = real_run_pair(batch)
    probs = readout.probs.copy()
    probs[readout.keys.index(("c", "absorbed")), bell.SETTINGS.index((False, False))] = math.nan
    return Readout(probs, readout.keys)


bell.run_pair = nan_stray
try:
    bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.47), 2.2)
except ValueError as exc:
    print("NaN stray checked" if "impossible" in str(exc) else f"wrong check: {exc}")
bell.run_pair = real_run_pair

try:
    measure(JointState(np.array([[1.0], [0.5]], dtype=complex), (("c", "c"), ("d", "d"))))
except ValueError as exc:
    print("norm drift checked" if "sum to 1.25" in str(exc) else f"wrong check: {exc}")

try:
    measure(JointState(np.array([[complex(math.nan), 2.0]]), (("c", "c"),)))
except ValueError as exc:
    print("NaN norm checked" if "sum to nan in row 0" in str(exc) else f"wrong check: {exc}")
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
        "NaN stray checked",
        "norm drift checked",
        "NaN norm checked",
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
    "enumerate_deterministic_strategies",
    "ev_retest_efficiency",
    "find_max_violation",
    "find_max_violation_at_phi",
    "first_max",
    "gravity_phase",
    "hardy_constants",
    "lhv_membership",
    "measure",
    "run_ev",
    "run_pair",
    "run_pair_state",
    "sweep",
    "violation_at",
]


def test_public_api_is_pinned():
    assert sorted(mzpair.__all__) == PUBLIC_API
