"""Output checks for the benchmark workloads.

Every check returns a list of error messages; an empty list means the output
is correct.  The checks use closed forms computed here, independently of the
package, and run outside the timed region.
"""

from __future__ import annotations

import cmath
import json
import math

import numpy as np

CSV_HEADER = "r,phi,p_u1u2,p_c1c2,violation"

# Closed-form agreement for probabilities; reals are printed at 12
# significant digits, so a value below 1 is off by at most 5e-13.
TERM_TOL = 1e-12
# Grid coordinates go up to 2*pi, so their printed rounding is relative.
COORD_REL_TOL = 1e-11
# Solver tolerance for weights, residuals and certificates.
LP_TOL = 1e-9

OPTIMUM_V = 0.0990
OPTIMUM_R = 0.58309
OPTIMUM_V_TOL = 1e-4
OPTIMUM_R_TOL = 1e-4
OPTIMUM_PHI_TOL = 1e-6


def closed_form_terms(r: float, phi: float) -> tuple[float, float]:
    """``(p_u1u2, p_c1c2)``: ``r^4`` and ``|r^4 + 2 r^2 t^2 + t^4 e^{i phi}|^2``."""
    r_sq = r * r
    t_sq = 1.0 - r_sq
    amp = r_sq * r_sq + 2.0 * r_sq * t_sq + t_sq * t_sq * cmath.exp(1j * phi)
    return r_sq * r_sq, amp.real * amp.real + amp.imag * amp.imag


def grid_axis(lo: float, hi: float, steps: int) -> list[float]:
    """Inclusive grid axis, ``lo + i * (hi - lo) / (steps - 1)``."""
    step = (hi - lo) / (steps - 1)
    return [lo + i * step for i in range(steps)]


def check_sweep_csv(lines, r_values: list[float], phi_values: list[float]) -> list[str]:
    """Check a sweep CSV, given as an iterable of raw lines that keep their endings.

    The header and LF endings must be exact, rows come r-outer, and every
    row must match the closed forms at its grid point.
    """
    errors: list[str] = []
    it = iter(lines)
    header = next(it, "")
    if header != CSV_HEADER + "\n":
        errors.append(f"csv header is {header!r}")
    expected = ((r, phi) for r in r_values for phi in phi_values)
    rows = 0
    for line in it:
        rows += 1
        if len(errors) >= 10:
            continue
        point = next(expected, None)
        if point is None:
            errors.append(f"csv row {rows}: more rows than grid cells")
            continue
        if not line.endswith("\n") or line.endswith("\r\n"):
            errors.append(f"csv row {rows}: line ending is not LF")
        fields = line.rstrip("\n").split(",")
        try:
            r_csv, phi_csv, p1, p4, violation = (float(x) for x in fields)
        except ValueError:
            errors.append(f"csv row {rows}: cannot parse {line!r}")
            continue
        r, phi = point
        want_p1, want_p4 = closed_form_terms(r, phi)
        if abs(r_csv - r) > COORD_REL_TOL * max(1.0, abs(r)):
            errors.append(f"csv row {rows}: r {r_csv!r} is not grid value {r!r}")
        if abs(phi_csv - phi) > COORD_REL_TOL * max(1.0, abs(phi)):
            errors.append(f"csv row {rows}: phi {phi_csv!r} is not grid value {phi!r}")
        for label, got, want in (
            ("p_u1u2", p1, want_p1),
            ("p_c1c2", p4, want_p4),
            ("violation", violation, want_p1 - want_p4),
        ):
            if not abs(got - want) <= TERM_TOL:
                errors.append(f"csv row {rows}: {label} {got!r}, closed form {want!r}")
    missing = len(r_values) * len(phi_values) - rows
    if missing > 0:
        errors.append(f"csv has {missing} rows fewer than grid cells")
    return errors


def check_optimize_stdout(text: str) -> list[str]:
    """The ``optimize`` report must land on the known optimum, away from the grid edge."""
    try:
        outputs = json.loads(text)["outputs"]
        v, r, phi = outputs["violation_star"], outputs["r_star"], outputs["phi_star"]
        at_boundary = outputs["at_boundary"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"optimize report unreadable: {exc!r}"]
    errors = []
    if not abs(v - OPTIMUM_V) <= OPTIMUM_V_TOL:
        errors.append(f"violation_star {v!r} is not {OPTIMUM_V} within {OPTIMUM_V_TOL}")
    if not abs(r - OPTIMUM_R) <= OPTIMUM_R_TOL:
        errors.append(f"r_star {r!r} is not {OPTIMUM_R} within {OPTIMUM_R_TOL}")
    if not abs(phi - math.pi) <= OPTIMUM_PHI_TOL:
        errors.append(f"phi_star {phi!r} is not pi within {OPTIMUM_PHI_TOL}")
    if at_boundary is not False:
        errors.append(f"at_boundary is {at_boundary!r}")
    return errors


def check_bell_point(r: float, phi: float, report, membership, A, b) -> list[str]:
    """Check one point's inequality terms and its local-model verdict.

    ``report`` and ``membership`` are the package's ``BellReport`` and
    ``LhvMembership``; ``A`` and ``b`` are its ``membership_system``.  A
    feasible verdict must come with nonnegative weights that solve the
    system; an infeasible one with a Farkas certificate ``y``, ``y.b > 0``
    and ``y.A <= 0``.
    """
    errors = []
    want_p1, want_p4 = closed_form_terms(r, phi)
    for label, got, want in (
        ("p_u1u2", report.p_u1u2, want_p1),
        ("p_c1c2", report.p_c1c2, want_p4),
        ("violation", report.violation, want_p1 - want_p4),
    ):
        if not abs(got - want) <= TERM_TOL:
            errors.append(f"{label} {got!r}, closed form {want!r}")
    for label, got in (("p_u1_notc2", report.p_u1_notc2), ("p_notc1_u2", report.p_notc1_u2)):
        if not abs(got) <= TERM_TOL:
            errors.append(f"middle term {label} is {got!r}")
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if membership.feasible:
        if report.violation > LP_TOL:
            errors.append(f"violation {report.violation!r} with a feasible verdict")
        w = np.asarray(membership.weights, dtype=float)
        if w.shape != (A.shape[1],):
            return errors + [f"weights have shape {w.shape}, expected ({A.shape[1]},)"]
        if not np.min(w) >= -LP_TOL:
            errors.append(f"negative weight {np.min(w)!r}")
        residual = float(np.max(np.abs(A @ w - b)))
        if not residual <= LP_TOL:
            errors.append(f"feasible weights leave residual {residual!r}")
    else:
        if membership.certificate is None:
            return errors + ["infeasible verdict without a certificate"]
        y = np.asarray(membership.certificate, dtype=float)
        if y.shape != (A.shape[0],):
            return errors + [f"certificate has shape {y.shape}, expected ({A.shape[0]},)"]
        yb = float(y @ b)
        ya = float(np.max(y @ A))
        if not yb > 0.0:
            errors.append(f"certificate y.b = {yb!r} is not positive")
        if not ya <= LP_TOL:
            errors.append(f"certificate max(y.A) = {ya!r} exceeds {LP_TOL}")
    return errors
