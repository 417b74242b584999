"""Command line interface.

Every subcommand prints one JSON report on stdout with a fixed field order
and reals rendered at 12 significant digits, so identical flags give
byte-identical output.  ``sweep`` additionally writes a CSV grid to a file.

Exit codes: 0 on success, 2 for domain or flag errors, 3 for I/O errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .bell import (
    behavior_from_phase_setup,
    bell_violation,
    hardy_constants,
    lhv_membership,
    side_outcomes,
)
from .experiments import (
    Coupling,
    ExperimentConfig,
    GravityParams,
    PairBatch,
    ev_retest_efficiency,
    gravity_phase,
    run_ev,
    run_pair,
)
from .explore import (
    DEFAULT_GRID,
    SweepGrid,
    find_max_violation,
    find_max_violation_at_phi,
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


def _angle(value: float, degrees: bool) -> float:
    return math.radians(value) if degrees else value


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


def cmd_annihilation(args: argparse.Namespace) -> int:
    bs = BeamSplitterParams.from_r(args.r)
    config = ExperimentConfig(
        bs=bs, coupling=Coupling.annihilation(), u1=args.place_u_plus, u2=args.place_u_minus
    )
    dist = run_pair(PairBatch.of(config)).row(0)
    joint = {}
    for o1 in side_outcomes(args.place_u_plus):
        for o2 in side_outcomes(args.place_u_minus):
            joint[f"p_{o1.lower()}plus_{o2.lower()}minus"] = dist.prob((o1, o2))
    joint["p_gamma"] = dist.prob("gamma")
    marginals = {}
    for side, suffix, present in ((0, "plus", args.place_u_plus), (1, "minus", args.place_u_minus)):
        table = dist.marginal(side)
        for letter in side_outcomes(present):
            marginals[f"p_{letter.lower()}{suffix}"] = table.get(letter, 0.0)
    inputs = {
        "r": args.r,
        "place_u_plus": args.place_u_plus,
        "place_u_minus": args.place_u_minus,
    }
    _emit("annihilation", inputs, {"joint": joint, "marginals": marginals})
    return EXIT_OK


def cmd_phase(args: argparse.Namespace) -> int:
    bs = BeamSplitterParams.from_r(args.r)
    phi = _angle(args.phi, args.degrees)
    config = ExperimentConfig(
        bs=bs, coupling=Coupling.phase(phi), u1=args.place_u1, u2=args.place_u2
    )
    dist = run_pair(PairBatch.of(config)).row(0)
    joint = {}
    for o1 in side_outcomes(args.place_u1):
        for o2 in side_outcomes(args.place_u2):
            joint[f"p_{o1.lower()}1_{o2.lower()}2"] = dist.prob((o1, o2))
    marginals = {}
    for side, present in ((0, args.place_u1), (1, args.place_u2)):
        table = dist.marginal(side)
        for letter in side_outcomes(present):
            marginals[f"p_{letter.lower()}{side + 1}"] = table.get(letter, 0.0)
    inputs = {
        "r": args.r,
        "phi": phi,
        "place_u1": args.place_u1,
        "place_u2": args.place_u2,
    }
    _emit("phase", inputs, {"joint": joint, "marginals": marginals})
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
    cells = sweep(grid)
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        for cell in cells:
            row = (cell.r, cell.phi, cell.p_u1u2, cell.p_c1c2, cell.violation)
            handle.write(",".join(_format_real(v) for v in row) + "\n")
    best = max(cells, key=lambda cell: cell.violation)
    inputs = {
        "r_min": grid.r_min,
        "r_max": grid.r_max,
        "r_steps": grid.r_steps,
        "phi_min": grid.phi_min,
        "phi_max": grid.phi_max,
        "phi_steps": grid.phi_steps,
        "out": str(args.out),
    }
    outputs = {
        "rows": len(cells),
        "out_path": str(args.out),
        "argmax": {
            "r": best.r,
            "phi": best.phi,
            "p_u1u2": best.p_u1u2,
            "p_c1c2": best.p_c1c2,
            "violation": best.violation,
        },
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
    phi = gravity_phase(params)
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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        default=True,
        help="emit a JSON report on stdout (default and only format)",
    )
    degrees = argparse.ArgumentParser(add_help=False)
    degrees.add_argument(
        "--degrees", action="store_true", help="interpret angle flags as degrees"
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ev", parents=[common], help="single interferometer bomb test")
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--bomb", action="store_true", help="place the triggering bomb in arm u")
    p.set_defaults(func=cmd_ev)

    p = sub.add_parser(
        "annihilation", parents=[common], help="twin pair whose u arms annihilate"
    )
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--place-u-plus", action="store_true", help="detector on the + side u arm")
    p.add_argument("--place-u-minus", action="store_true", help="detector on the - side u arm")
    p.set_defaults(func=cmd_annihilation)

    p = sub.add_parser(
        "phase", parents=[common, degrees], help="twin pair with a joint phase on the v arms"
    )
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--phi", type=float, required=True, help="coupling phase (radians)")
    p.add_argument("--place-u1", action="store_true", help="detector on side 1's u arm")
    p.add_argument("--place-u2", action="store_true", help="detector on side 2's u arm")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser(
        "bell", parents=[common, degrees], help="four-term inequality and local-model test"
    )
    p.add_argument("--r", type=float, required=True, help="first-splitter reflection amplitude")
    p.add_argument("--phi", type=float, required=True, help="coupling phase (radians)")
    p.set_defaults(func=cmd_bell)

    p = sub.add_parser(
        "sweep", parents=[common, degrees], help="grid sweep written as CSV"
    )
    p.add_argument("--r-min", type=float, default=DEFAULT_GRID.r_min)
    p.add_argument("--r-max", type=float, default=DEFAULT_GRID.r_max)
    p.add_argument("--r-steps", type=int, default=DEFAULT_GRID.r_steps)
    p.add_argument("--phi-min", type=float, default=None, help="default 0")
    p.add_argument("--phi-max", type=float, default=None, help="default 2*pi")
    p.add_argument("--phi-steps", type=int, default=DEFAULT_GRID.phi_steps)
    p.add_argument("--out", required=True, help="CSV output path")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "optimize", parents=[common], help="locate the maximal inequality violation"
    )
    p.add_argument("--refine-tol", type=float, default=1e-8, help="refinement tolerance")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser(
        "gravity", parents=[common], help="coupling phase from a gravitational interaction"
    )
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
