"""Per-layer timing by rebinding the package's public functions.

A :class:`Tracer` replaces each target function, in every ``mzpair`` module
that holds a reference to it, with a wrapper that records one span per call.
Spans are aggregated per name as they close (calls, total time, self time),
because an optimize pass makes over a million state-operation calls.  Self
time is a span's duration minus the time of the traced spans it encloses, so
the self times of all spans add up to the time spent inside the outermost
ones.  Nothing is wrapped outside :meth:`Tracer.installed`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module that defines it, attribute path, span name)
TARGETS = (
    ("mzpair.cli", "main", "cli.main"),
    ("mzpair.explore", "sweep", "explore.sweep"),
    ("mzpair.explore", "find_max_violation", "explore.find_max_violation"),
    ("mzpair.explore", "violation_at", "explore.violation_at"),
    ("mzpair.bell", "behavior_from_phase_setup", "bell.behavior_from_phase_setup"),
    ("mzpair.bell", "BehaviorTable.from_tables", "bell.from_tables"),
    ("mzpair.bell", "bell_violation", "bell.bell_violation"),
    ("mzpair.bell", "lhv_membership", "bell.lhv_membership"),
    ("mzpair.simplex", "solve_phase1", "simplex.solve_phase1"),
    ("mzpair.experiments", "run_pair", "experiments.run_pair"),
    ("mzpair.state", "apply_bs1", "state.apply_bs1"),
    ("mzpair.state", "apply_bs2", "state.apply_bs2"),
    ("mzpair.state", "apply_phase_coupling", "state.apply_phase_coupling"),
    ("mzpair.state", "apply_absorber", "state.apply_absorber"),
    ("mzpair.state", "measure", "state.measure"),
)


class Tracer:
    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]; mutated in place so
        # the wrappers keep their references across resets.
        self.stats: dict[str, list] = {name: [0, 0.0, 0.0] for _, _, name in TARGETS}
        self.missing: list[str] = []
        self._stack: list[float] = []

    def reset(self) -> None:
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0

    def self_total(self) -> float:
        return sum(stat[2] for stat in self.stats.values())

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - child
                if stack:
                    stack[-1] += elapsed

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target for the duration of the block, then restore."""
        undo: list[tuple[object, str, object]] = []
        self.missing = []
        try:
            for module_name, path, name in TARGETS:
                module = importlib.import_module(module_name)
                owner_name, _, attr = path.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name, None)
                    raw = vars(owner).get(attr) if owner is not None else None
                    if not isinstance(raw, classmethod):
                        self.missing.append(name)
                        continue
                    undo.append((owner, attr, raw))
                    setattr(owner, attr, classmethod(self._wrap(name, raw.__func__)))
                    continue
                original = getattr(module, attr, None)
                if not callable(original):
                    self.missing.append(name)
                    continue
                wrapper = self._wrap(name, original)
                for holder in _package_modules():
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            undo.append((holder, key, original))
                            setattr(holder, key, wrapper)
            yield self
        finally:
            for holder, key, original in reversed(undo):
                setattr(holder, key, original)


def _package_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "mzpair" or name.startswith("mzpair."))
    ]
