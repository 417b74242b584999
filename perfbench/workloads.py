"""The benchmark workloads: inputs made from a seed, one timed pass, its checks.

Each workload is a closed loop: ``run_pass`` times one pass over the inputs
with nothing else in flight, then checks the outputs outside the timed
region.  Calls go through the package's module attributes (``cli.main``,
``bell.lhv_membership``, ...) so that a :class:`spans.Tracer` sees them.

Import this module only after the package's ``src`` directory is on
``sys.path``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass, field

from mzpair import bell, cli
from mzpair.state import BeamSplitterParams

import checks

TWO_PI = 2.0 * math.pi


@dataclass
class Pass:
    """Timing and outcome of one pass over a workload's inputs."""

    wall_s: float
    latencies_s: list[float]  # one per operation
    failed: int
    errors: list[str]
    points: int = 0  # parameter points the package evaluated
    bytes_out: int = 0  # stdout plus files written
    verdicts: int = 0  # local-model verdicts
    infeasible: int = 0
    pivots: int = 0  # simplex pivots over all verdicts
    spans: dict = field(default_factory=dict)  # traced passes only
    self_total_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies_s)


def _run_cli(argv: list[str]) -> tuple[object, str, float]:
    """Call ``cli.main`` in-process; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a traceback is a failed operation, not a crash
        code = f"raised {exc!r}"
    return code, buf.getvalue(), time.perf_counter() - start


class _CliWorkload:
    """One operation is one ``cli.main`` call; every pass must print the same bytes."""

    def __init__(self) -> None:
        self._first_stdout: str | None = None

    def _common_errors(self, code, out: str) -> list[str]:
        errors = [] if code == 0 else [f"exit code {code!r}"]
        if self._first_stdout is None:
            self._first_stdout = out
        elif out != self._first_stdout:
            errors.append("stdout differs from the first pass")
        return errors


class OptimizeDefault(_CliWorkload):
    """``mzpair optimize`` on the default grid; the seed is unused."""

    name = "optimize-default"
    argv = ["optimize"]

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__()

    def run_pass(self) -> Pass:
        code, out, wall = _run_cli(self.argv)
        errors = self._common_errors(code, out) + checks.check_optimize_stdout(out)
        try:
            points = int(json.loads(out)["outputs"]["iterations"])
        except (ValueError, KeyError, TypeError):
            points = 0
        return Pass(wall, [wall], int(bool(errors)), errors, points, len(out.encode()))


class SweepGrid(_CliWorkload):
    """``mzpair sweep`` over a 200x200 grid whose bounds the seed moves slightly inward."""

    name = "sweep-grid"

    def __init__(self, seed: int, workdir: str, r_steps: int = 200, phi_steps: int = 200) -> None:
        super().__init__()
        rng = random.Random(seed)
        r_min = 0.05 + rng.uniform(-0.02, 0.02)
        r_max = 0.95 + rng.uniform(-0.02, 0.02)
        phi_min = rng.uniform(0.0, 0.05)
        phi_max = TWO_PI - rng.uniform(0.0, 0.05)
        self.path = os.path.join(workdir, "sweep.csv")
        self.argv = [
            "sweep",
            "--r-min", repr(r_min), "--r-max", repr(r_max), "--r-steps", str(r_steps),
            "--phi-min", repr(phi_min), "--phi-max", repr(phi_max),
            "--phi-steps", str(phi_steps),
            "--out", self.path,
        ]  # fmt: skip
        self.r_values = checks.grid_axis(r_min, r_max, r_steps)
        self.phi_values = checks.grid_axis(phi_min, phi_max, phi_steps)
        self._first_digest: str | None = None
        self._csv_errors: list[str] = []

    def run_pass(self) -> Pass:
        code, out, wall = _run_cli(self.argv)
        errors = self._common_errors(code, out)
        digest, size = _file_digest(self.path)
        if digest is None:
            errors.append("no csv written")
        else:
            if self._first_digest is None:
                # Later passes with the same digest wrote the same bytes, so
                # this one content check covers them too.
                self._first_digest = digest
                self._csv_errors = self._check_csv()
            if digest != self._first_digest:
                errors.append("csv bytes differ from the first pass")
            else:
                errors += self._csv_errors
        points = len(self.r_values) * len(self.phi_values) if code == 0 else 0
        return Pass(wall, [wall], int(bool(errors)), errors, points, len(out.encode()) + size)

    def _check_csv(self) -> list[str]:
        with open(self.path, encoding="utf-8", newline="") as handle:
            try:
                return checks.check_sweep_csv(handle, self.r_values, self.phi_values)
            except UnicodeDecodeError as exc:
                return [f"csv is not UTF-8: {exc}"]


def _file_digest(path: str) -> tuple[str | None, int]:
    digest = hashlib.sha256()
    size = 0
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
                size += len(chunk)
    except OSError:
        return None, 0
    return digest.hexdigest(), size


class BellPoints:
    """Behavior table, four-term inequality and local-model verdict per seeded point.

    Even-numbered points are uniform over the default domain; odd-numbered
    ones fall in the neighbourhood of the maximal violation, so both
    verdicts occur.
    """

    name = "bell-points"

    def __init__(self, seed: int, workdir: str, n_points: int = 2000) -> None:
        rng = random.Random(seed)
        self.points = [
            (rng.uniform(0.05, 0.95), rng.uniform(0.0, TWO_PI))
            if i % 2 == 0
            else (rng.uniform(0.50, 0.66), rng.uniform(math.pi - 0.5, math.pi + 0.5))
            for i in range(n_points)
        ]

    def run_pass(self) -> Pass:
        results = []
        latencies = []
        clock = time.perf_counter
        pass_start = clock()
        for r, phi in self.points:
            start = clock()
            try:
                behavior = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(r), phi)
                report = bell.bell_violation(behavior, check_lhv=False)
                membership = bell.lhv_membership(behavior)
            except Exception as exc:  # a traceback is a failed operation, not a crash
                behavior, report, membership = exc, None, None
            latencies.append(clock() - start)
            results.append((behavior, report, membership))
        wall = clock() - pass_start

        done = Pass(wall, latencies, 0, [], points=len(self.points))
        for (r, phi), (behavior, report, membership) in zip(self.points, results):
            if report is None:
                point_errors = [f"raised {behavior!r}"]
            else:
                A, b = bell.membership_system(behavior)
                point_errors = checks.check_bell_point(r, phi, report, membership, A, b)
                done.verdicts += 1
                done.infeasible += not membership.feasible
                done.pivots += membership.iterations
            if point_errors:
                done.failed += 1
                done.errors += [f"r={r!r} phi={phi!r}: {e}" for e in point_errors]
        return done


WORKLOADS = {w.name: w for w in (OptimizeDefault, SweepGrid, BellPoints)}
