"""Command line interface.

Every subcommand prints one JSON report on stdout with a fixed field order
and reals rendered at 12 significant digits, so identical flags give
byte-identical output.  ``sweep`` additionally writes a CSV grid to a file.

Exit codes: 0 on success, 2 for domain or flag errors, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from itertools import chain, repeat

import numpy as np

from .bell import (
    behavior_from_phase_setup,
    bell_violation,
    hardy_constants,
    lhv_membership,
    side_outcomes,
)
from .experiments import (
    SETTINGS,
    GravityParams,
    PairBatch,
    ev_retest_efficiency,
    gravity_phase,
    run_ev,
    run_pair,
)
from .explore import (
    DEFAULT_GRID,
    MAX_STEPS,
    SweepGrid,
    find_max_violation,
    find_max_violation_at_phi,
    first_max,
    sweep,
)
from .state import BeamSplitterParams

__all__ = ["main"]

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3

CSV_HEADER = "r,phi,p_u1u2,p_c1c2,violation"


def _format_real(x: float) -> str:
    """Fixed 12-significant-digit rendering; floats always keep a decimal marker."""
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite value in report: {x!r}")
    if x == 0.0:
        x = 0.0  # collapse -0.0
    text = format(float(x), ".12g")
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _to_json(value, indent: int = 0) -> str:
    pad = " " * indent
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return _format_real(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(key))}: {_to_json(item, indent + 2)}"
            for key, item in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = ",\n".join(f"{pad}  {_to_json(item, indent + 2)}" for item in value)
        return "[\n" + inner + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _emit(command: str, inputs: dict, outputs: dict) -> None:
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
    }
    sys.stdout.write(_to_json(report) + "\n")


# A phase whose float spacing exceeds this carries no usable phase: at 2**25
# radians and beyond, neighbouring floats lie over 2*pi*1e-9 apart.
PHASE_ULP_LIMIT = 2.0 * math.pi * 1e-9


def _angle(value: float, degrees: bool) -> float:
    phi = math.radians(value) if degrees else value
    if not math.isfinite(phi):
        raise ValueError(f"phase must be finite, got {phi!r}")
    if math.ulp(phi) > PHASE_ULP_LIMIT:
        raise ValueError(
            f"phase {phi!r} is too large to resolve: its float spacing exceeds 2*pi*1e-9"
        )
    return phi


def cmd_ev(args: argparse.Namespace) -> int:
    bs = BeamSplitterParams.from_r(args.r)
    dist = run_ev(bs, args.bomb)
    outputs = {
        "p_c": dist.prob("C"),
        "p_d": dist.prob("D"),
        "p_exploded": dist.prob("exploded"),
        "retest_efficiency": ev_retest_efficiency(bs),
    }
    _emit("ev", {"r": args.r, "bomb": args.bomb}, outputs)
    return EXIT_OK


def _pair_outputs(dist, placed: tuple[bool, bool], suffixes: tuple[str, str]) -> dict:
    """Joint and marginal outcome probabilities of a pair run, keyed ``p_<letter><suffix>``."""
    joint = {
        f"p_{o1.lower()}{suffixes[0]}_{o2.lower()}{suffixes[1]}": dist.prob((o1, o2))
        for o1 in side_outcomes(placed[0])
        for o2 in side_outcomes(placed[1])
    }
    marginals = {}
    for side, (present, suffix) in enumerate(zip(placed, suffixes)):
        table = dist.marginal(side)
        for letter in side_outcomes(present):
            marginals[f"p_{letter.lower()}{suffix}"] = table.get(letter, 0.0)
    return {"joint": joint, "marginals": marginals}


def cmd_annihilation(args: argparse.Namespace) -> int:
    bs = BeamSplitterParams.from_r(args.r)
    placed = (args.place_u_plus, args.place_u_minus)
    dist = run_pair(PairBatch.of(bs, annihilate=True)).row(SETTINGS.index(placed))
    outputs = _pair_outputs(dist, placed, ("plus", "minus"))
    outputs["joint"]["p_gamma"] = dist.prob("gamma")
    inputs = {
        "r": args.r,
        "place_u_plus": args.place_u_plus,
        "place_u_minus": args.place_u_minus,
    }
    _emit("annihilation", inputs, outputs)
    return EXIT_OK


def cmd_phase(args: argparse.Namespace) -> int:
    bs = BeamSplitterParams.from_r(args.r)
    phi = _angle(args.phi, args.degrees)
    placed = (args.place_u1, args.place_u2)
    dist = run_pair(PairBatch.of(bs, phi=phi)).row(SETTINGS.index(placed))
    inputs = {
        "r": args.r,
        "phi": phi,
        "place_u1": args.place_u1,
        "place_u2": args.place_u2,
    }
    _emit("phase", inputs, _pair_outputs(dist, placed, ("1", "2")))
    return EXIT_OK


def cmd_bell(args: argparse.Namespace) -> int:
    bs = BeamSplitterParams.from_r(args.r)
    phi = _angle(args.phi, args.degrees)
    behavior = behavior_from_phase_setup(bs, phi)
    report = bell_violation(behavior, check_lhv=False)
    membership = lhv_membership(behavior)
    consts = hardy_constants()
    outputs = {
        "p_u1_u2": report.p_u1u2,
        "p_u1_not_c2": report.p_u1_notc2,
        "p_not_c1_u2": report.p_notc1_u2,
        "p_c1_c2": report.p_c1c2,
        "violation": report.violation,
        "lhv_feasible": membership.feasible,
        "lhv_infeasibility": membership.infeasibility,
        "qubit_paradox_max": consts.qubit_max,
        "golden_identity_ok": consts.golden_check,
    }
    _emit("bell", {"r": args.r, "phi": phi}, outputs)
    return EXIT_OK


def _near_integers(values: np.ndarray) -> np.ndarray:
    """Where a finite value's ``.12g`` text may lack both "." and "e"."""
    # ``.12g`` text lacks both "." and "e" only in fixed notation without
    # fraction digits, i.e. when x rounded to 12 significant digits is an
    # integer y.  That rounding moves x by at most half a unit in the 12th
    # digit, 0.5 * 10**(e - 11) <= 0.5e-11 * |x| for 10**e <= |x|, so
    # |x - round(x)| <= |x - y| <= 0.5e-11 * |x| and the test below holds:
    # x - round(x) is exact in binary floating point, 1e-11 * |x| leaves a
    # factor of 2 for its rounding and cannot underflow when y != 0, since
    # then |x| > 0.5; y = 0 only at x = +-0.0, where both sides are 0 (so
    # -0.0 goes through _format_real's collapse too).
    return np.abs(values - np.round(values)) <= 1e-11 * np.abs(values)


def _column_texts(values: np.ndarray) -> list[str]:
    """``_format_real`` of each finite value, with a Python call only near integers."""
    texts = list(map(format, values.tolist(), repeat(".12g")))
    for k in np.flatnonzero(_near_integers(values)).tolist():
        texts[k] = _format_real(float(values[k]))
    return texts


def _field(values: np.ndarray) -> tuple[str, list | None]:
    """A row-template field giving ``_format_real`` of each of ``values``, and its arguments.

    A column whose values all equal its first is embedded as that one text
    (``_format_real`` renders equal floats, +-0.0 included, alike); a column
    with no near-integer value is a ``%.12g`` field, which converts as
    ``format(x, ".12g")`` does; any other column is a ``%s`` field of its texts.
    """
    if (values == values[0]).all():
        return _format_real(float(values[0])), None
    if _near_integers(values).any():
        return "%s", _column_texts(values)
    return "%.12g", values.tolist()


def _written(handle, blocks):
    """Pass sweep ``blocks`` on, each after its CSV rows are written to ``handle``.

    A block's rows go out as one string, with the bytes ``_format_real`` gives
    each value, made by one ``%`` over a row template repeated once per row.
    ``r`` is embedded in the template as its one text; the phase column is a
    ``%s`` field of texts kept for the last phase block only, so a sweep whose
    rows are one block formats its phases once and memory stays one block's;
    each probability column is the field ``_field`` chooses.  A non-finite
    value ends the block's output at the row before it and raises
    ``_format_real``'s error for it.
    """
    phi_key = phi_texts = None
    for block in blocks:
        r, phis, *terms = block
        columns = np.array([phis, *terms], dtype=float)
        finite = np.isfinite(columns).all(axis=0)
        rows = len(finite) if finite.all() else int(finite.argmin())
        r_text = _format_real(r)
        if rows:
            key = tuple(phis[:rows])
            if key != phi_key:
                phi_key, phi_texts = key, _column_texts(columns[0, :rows])
            fields, args = [r_text, "%s"], [phi_texts]
            for values in columns[1:, :rows]:
                field, fed = _field(values)
                fields.append(field)
                if fed is not None:
                    args.append(fed)
            template = (",".join(fields) + "\n") * rows
            handle.write(template % tuple(chain.from_iterable(zip(*args))))
        if rows < len(finite):
            for x in columns[:, rows].tolist():
                _format_real(x)  # raises at the row's first non-finite value
        yield block


def cmd_sweep(args: argparse.Namespace) -> int:
    phi_min = DEFAULT_GRID.phi_min if args.phi_min is None else _angle(args.phi_min, args.degrees)
    phi_max = DEFAULT_GRID.phi_max if args.phi_max is None else _angle(args.phi_max, args.degrees)
    grid = SweepGrid(
        r_min=args.r_min,
        r_max=args.r_max,
        r_steps=args.r_steps,
        phi_min=phi_min,
        phi_max=phi_max,
        phi_steps=args.phi_steps,
    )
    # The grid is checked before the file is opened, so a bad grid leaves an
    # existing file alone; a scan that fails later leaves the rows written so far.
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        rows, best = first_max(_written(handle, sweep(grid)))
    inputs = {**dataclasses.asdict(grid), "out": str(args.out)}
    outputs = {
        "rows": rows,
        "out_path": str(args.out),
        "argmax": dict(zip(CSV_HEADER.split(","), best)),
    }
    _emit("sweep", inputs, outputs)
    return EXIT_OK


def cmd_optimize(args: argparse.Namespace) -> int:
    optimum = find_max_violation(refine_tol=args.refine_tol)
    outputs = {
        "r_star": optimum.r_star,
        "phi_star": optimum.phi_star,
        "violation_star": optimum.violation_star,
        "iterations": optimum.iterations,
        "at_boundary": optimum.at_boundary,
    }
    _emit("optimize", {"refine_tol": args.refine_tol}, outputs)
    return EXIT_OK


def cmd_gravity(args: argparse.Namespace) -> int:
    params = GravityParams(
        mass_kg=args.mass, interaction_length_m=args.length, separation_m=args.distance
    )
    phi = _angle(gravity_phase(params), degrees=False)
    optimum = find_max_violation_at_phi(phi)
    inputs = {"mass": args.mass, "length": args.length, "distance": args.distance}
    outputs = {
        "phi": phi,
        "best_r": optimum.r_star,
        "violation_at_phi": optimum.violation_star,
        "at_boundary": optimum.at_boundary,
    }
    _emit("gravity", inputs, outputs)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mzpair",
        description="Coupled Mach-Zehnder pair simulator: bomb tests, annihilation and "
        "phase couplings, Bell-type analysis, sweeps and optimization.",
    )
    degrees = argparse.ArgumentParser(add_help=False)
    degrees.add_argument(
        "--degrees", action="store_true", help="interpret angle flags as degrees"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ev", help="single interferometer bomb test")
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--bomb", action="store_true", help="place the triggering bomb in arm u")
    p.set_defaults(func=cmd_ev)

    p = sub.add_parser("annihilation", help="twin pair whose u arms annihilate")
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--place-u-plus", action="store_true", help="detector on the + side u arm")
    p.add_argument("--place-u-minus", action="store_true", help="detector on the - side u arm")
    p.set_defaults(func=cmd_annihilation)

    p = sub.add_parser(
        "phase", parents=[degrees], help="twin pair with a joint phase on the v arms"
    )
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--phi", type=float, required=True, help="coupling phase (radians)")
    p.add_argument("--place-u1", action="store_true", help="detector on side 1's u arm")
    p.add_argument("--place-u2", action="store_true", help="detector on side 2's u arm")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser(
        "bell", parents=[degrees], help="four-term inequality and local-model test"
    )
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--phi", type=float, required=True, help="coupling phase (radians)")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser("sweep", parents=[degrees], help="grid sweep written as CSV")
    p.add_argument("--r-min", type=float, default=DEFAULT_GRID.r_min)
    p.add_argument("--r-max", type=float, default=DEFAULT_GRID.r_max)
    steps = f"values on the axis, 2 to {MAX_STEPS}"
    p.add_argument("--r-steps", type=int, default=DEFAULT_GRID.r_steps, help=steps)
    p.add_argument("--phi-min", type=float, default=None, help="default 0")
    p.add_argument("--phi-max", type=float, default=None, help="default 2*pi")
    p.add_argument("--phi-steps", type=int, default=DEFAULT_GRID.phi_steps, help=steps)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("optimize", help="locate the maximal inequality violation")
    p.add_argument("--refine-tol", type=float, default=1e-8, help="refinement tolerance")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("gravity", help="coupling phase from a gravitational interaction")
    p.add_argument("--mass", type=float, required=True, help="particle mass in kg")
    p.add_argument("--length", type=float, required=True, help="interaction length in m")
    p.add_argument("--distance", type=float, required=True, help="arm separation in m")
    p.set_defaults(func=cmd_gravity)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
