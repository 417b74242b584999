"""Set-up of a fresh process: import the package, then make the first call.

``warm_up`` is shared with the benchmark process, which runs it before its
first timed pass.  Run as a script, this file times both steps in a new
interpreter and prints them as one JSON line::

    python3 perfbench/setup_probe.py <src-dir> <workload>
"""

from __future__ import annotations

import json
import math
import sys
import time


def warm_up(workload: str) -> None:
    """The first call a workload makes, so lazy set-up and caches are done."""
    from mzpair import bell, cli, explore
    from mzpair.state import BeamSplitterParams

    if workload == "bell-points":
        behavior = bell.behavior_from_phase_setup(BeamSplitterParams.from_r(0.58), math.pi)
        bell.bell_violation(behavior, check_lhv=False)
        bell.lhv_membership(behavior)
    else:
        cli.build_parser()
        explore.violation_at(0.58, math.pi)


def main(src: str, workload: str) -> None:
    start = time.perf_counter()
    sys.path.insert(0, src)
    import mzpair.cli  # noqa: F401

    imported = time.perf_counter()
    warm_up(workload)
    warmed = time.perf_counter()
    print(json.dumps({"import_s": imported - start, "warm_s": warmed - imported}), flush=True)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
