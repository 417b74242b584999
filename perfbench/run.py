"""Benchmark entry point for mzpair.

Runs one workload as a closed loop in this process for about ``--seconds``,
checks every output, and prints as its last stdout line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the loop runs untraced for half the time and traced for the other half, and
the metrics are the per-layer ones.  The line before it records the run
environment.  See README.md beside this file.

    python3 perfbench/run.py --workload bell-points --seed 1 --seconds 40 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from setup_probe import warm_up
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Fresh processes launched per run to measure set-up; the median is reported.
SETUP_REPEATS = 5

STATE_OPS = ("apply_bs1", "apply_bs2", "apply_phase_coupling", "apply_absorber", "measure")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def import_package() -> None:
    """Put this checkout's ``src`` first on ``sys.path`` and import from it."""
    if not (SRC / "mzpair" / "__init__.py").is_file():
        raise BenchError(f"no package source at {SRC / 'mzpair'}")
    sys.path.insert(0, str(SRC))
    import mzpair

    if Path(mzpair.__file__).resolve().parent != SRC / "mzpair":
        raise BenchError(f"imported mzpair from {mzpair.__file__}, not from {SRC}")


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``statistics`` 'inclusive')."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "commit": git_commit(),
    }


def measure_setup(workload_name: str, repeats: int) -> list[dict]:
    """Launch fresh interpreters; each imports the package and warms it up."""
    rows = []
    for _ in range(repeats):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), workload_name],
            stdout=subprocess.PIPE,
            text=True,
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or not line:
            raise BenchError(f"set-up probe exited with code {proc.returncode}")
        rows.append({"setup_s": ready, **json.loads(line)})
    return rows


def run_loop(workload, seconds: float, tracer=None) -> list:
    """Closed loop: start another pass while it should end within ``seconds``.

    The longest pass so far is the estimate, so a run ends on time even
    when the machine slows down part-way.
    """
    passes = []
    begin = time.perf_counter()
    longest = 0.0
    while not passes or time.perf_counter() - begin + longest <= seconds:
        if tracer is None:
            done = workload.run_pass()
        else:
            tracer.reset()
            with tracer.installed():
                done = workload.run_pass()
            done.spans = {name: tuple(stat) for name, stat in tracer.stats.items()}
            done.self_total_s = tracer.self_total()
        passes.append(done)
        longest = max(longest, done.wall_s)
    return passes


def end_to_end_metrics(passes: list, setup: list[dict], peak_rss_kb: int) -> dict:
    latencies = [t for p in passes for t in p.latencies_s]
    return {
        "setup_s": (statistics.median(row["setup_s"] for row in setup), "s"),
        "wall_s": (statistics.median(p.wall_s for p in passes), "s"),
        "latency_p50_ms": (percentile(latencies, 0.50) * 1e3, "ms"),
        "latency_p95_ms": (percentile(latencies, 0.95) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def layer_metrics(untraced: list, traced: list, setup: list[dict]) -> dict:
    """Per-layer figures of the traced pass with the median wall time."""
    mid = sorted(traced, key=lambda p: p.wall_s)[(len(traced) - 1) // 2]

    def calls(name):
        return mid.spans[name][0]

    def total_s(name):
        return mid.spans[name][1]

    def self_s(name):
        return mid.spans[name][2]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for op in STATE_OPS:
        m[f"state.{op}.calls"] = (calls(f"state.{op}"), "count")
        m[f"state.{op}.self_s"] = (self_s(f"state.{op}"), "s")
    m["experiments.run_pair.calls"] = (calls("experiments.run_pair"), "count")
    m["experiments.run_pair.self_s"] = (self_s("experiments.run_pair"), "s")
    m["experiments.pipelines_per_point"] = (ratio(calls("experiments.run_pair"), mid.points), "count")
    refine = calls("explore.violation_at")
    in_explore = calls("explore.sweep") + calls("explore.find_max_violation")
    m["explore.scan_points"] = (mid.points - refine if in_explore else 0, "count")
    m["explore.refine_points"] = (refine, "count")
    m["explore.refine_s"] = (total_s("explore.violation_at"), "s")
    explore_spans = [name for name in mid.spans if name.startswith("explore.")]
    m["explore.self_s"] = (sum(self_s(name) for name in explore_spans), "s")
    for name in ("behavior_from_phase_setup", "from_tables", "bell_violation", "lhv_membership"):
        m[f"bell.{name}.self_s"] = (self_s(f"bell.{name}"), "s")
    m["bell.infeasible_ratio"] = (ratio(mid.infeasible, mid.verdicts), "ratio")
    m["simplex.solve_phase1.calls"] = (calls("simplex.solve_phase1"), "count")
    m["simplex.solve_phase1.self_s"] = (self_s("simplex.solve_phase1"), "s")
    m["simplex.pivots"] = (mid.pivots, "count")
    m["simplex.pivots_per_call"] = (ratio(mid.pivots, calls("simplex.solve_phase1")), "count")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    m["cli.bytes_out"] = (mid.bytes_out, "B")
    m["setup.import_s"] = (statistics.median(row["import_s"] for row in setup), "s")
    m["setup.warm_s"] = (statistics.median(row["warm_s"] for row in setup), "s")
    m["trace.wall_s"] = (mid.wall_s, "s")
    m["trace.remainder_s"] = (mid.wall_s - mid.self_total_s, "s")
    m["trace.overhead_s"] = (
        statistics.median(p.wall_s for p in traced) - statistics.median(p.wall_s for p in untraced),
        "s",
    )
    return m


def run(workload, seconds: float, trace: bool, setup_repeats: int = SETUP_REPEATS) -> dict:
    """Warm up, measure set-up, run the loop; returns the result object."""
    warm_up(workload.name)
    setup = measure_setup(workload.name, setup_repeats)
    if trace:
        tracer = Tracer()
        untraced = run_loop(workload, seconds / 2)
        traced = run_loop(workload, seconds / 2, tracer)
        passes = untraced + traced
        metrics = layer_metrics(untraced, traced, setup)
        if tracer.missing:
            print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        passes = run_loop(workload, seconds)
        # Read before anything else allocates: the high-water mark of the loop.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end_metrics(passes, setup, peak_rss_kb)
    errors = [e for p in passes for e in p.errors]
    for line in errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = " ".join(f"{p.wall_s:.3f}" for p in passes)
    print(f"{workload.name}: {attempted} operations; pass seconds {walls}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_package()
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
        env = environment(args.seed)
        with tempfile.TemporaryDirectory(prefix=".out-", dir=HERE) as workdir:
            workload = WORKLOADS[args.workload](args.seed, workdir)
            result = run(workload, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    env["loadavg_end"] = list(os.getloadavg())
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
