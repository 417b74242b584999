"""Independent dense-matrix reference for the label-array amplitude engine.

Everything here is implemented from the physical conventions alone, with
full matrices over the complete label space and no slice tricks, so it
can serve as a brute-force oracle for the package under test.  Keep this
module free of imports from ``mzpair``.

Conventions mirrored (they are the contract, not the implementation):

* first splitter   s -> i*r*u + t*v
* second splitter  u -> r*c + i*t*d,  v -> i*t*c + r*d
* phase coupling multiplies the joint (v, v) amplitude by exp(i*phi)
* annihilation moves the joint (u, u) amplitude into a scalar gamma sink
* an absorber moves one particle's amplitude on a chosen arm into a sink
  label, keeping the partner's label
"""

from __future__ import annotations

import random

import numpy as np

LABELS = ("s", "u", "v", "c", "d", "absorbed", "exploded")
L = {name: i for i, name in enumerate(LABELS)}
DIM = len(LABELS)

OUTCOME = {"c": "C", "d": "D", "absorbed": "U", "exploded": "exploded"}


def bs1_matrix(t: float, r: float) -> np.ndarray:
    m = np.eye(DIM, dtype=complex)
    m[:, L["s"]] = 0.0
    m[L["u"], L["s"]] = 1j * r
    m[L["v"], L["s"]] = t
    return m


def bs2_matrix(t: float, r: float) -> np.ndarray:
    m = np.eye(DIM, dtype=complex)
    m[:, L["u"]] = 0.0
    m[:, L["v"]] = 0.0
    m[L["c"], L["u"]] = r
    m[L["d"], L["u"]] = 1j * t
    m[L["c"], L["v"]] = 1j * t
    m[L["d"], L["v"]] = r
    return m


def absorber_matrix(arm: str, sink: str) -> np.ndarray:
    m = np.eye(DIM, dtype=complex)
    m[:, L[arm]] = 0.0
    m[L[sink], L[arm]] = 1.0
    return m


class DensePair:
    """Twin-particle state as a full DIM x DIM array plus a gamma scalar."""

    def __init__(self) -> None:
        self.arr = np.zeros((DIM, DIM), dtype=complex)
        self.arr[L["s"], L["s"]] = 1.0
        self.gamma = 0j

    def apply(self, matrix: np.ndarray, particle: int) -> None:
        if particle == 0:
            self.arr = matrix @ self.arr
        else:
            self.arr = self.arr @ matrix.T

    def phase_couple(self, phi: float) -> None:
        self.arr[L["v"], L["v"]] *= np.exp(1j * phi)

    def annihilate(self) -> None:
        self.gamma += self.arr[L["u"], L["u"]]
        self.arr[L["u"], L["u"]] = 0.0

    def amplitude(self, label1: str, label2: str) -> complex:
        return complex(self.arr[L[label1], L[label2]])

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.arr) ** 2) + abs(self.gamma) ** 2)

    def probabilities(self) -> dict:
        probs: dict = {}
        for l1 in LABELS:
            for l2 in LABELS:
                amp = self.arr[L[l1], L[l2]]
                p = abs(amp) ** 2
                if p > 0.0:
                    outcome = (OUTCOME[l1], OUTCOME[l2])
                    probs[outcome] = probs.get(outcome, 0.0) + p
        pg = abs(self.gamma) ** 2
        if pg > 0.0:
            probs["gamma"] = pg
        return probs


class DenseSingle:
    """One-particle state as a full DIM vector."""

    def __init__(self) -> None:
        self.vec = np.zeros(DIM, dtype=complex)
        self.vec[L["s"]] = 1.0

    def apply(self, matrix: np.ndarray) -> None:
        self.vec = matrix @ self.vec

    def amplitude(self, label: str) -> complex:
        return complex(self.vec[L[label]])

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.vec) ** 2))

    def probabilities(self) -> dict:
        probs: dict = {}
        for label in LABELS:
            p = abs(self.vec[L[label]]) ** 2
            if p > 0.0:
                probs[OUTCOME[label]] = probs.get(OUTCOME[label], 0.0) + p
        return probs


def random_pair_plan(rng: random.Random) -> dict:
    """Draw a valid two-particle pipeline: splitters, coupling, absorbers."""
    plan = {
        "kind": "pair",
        "r": rng.uniform(0.05, 0.95),
        "coupling": rng.choice(("none", "annihilation", "phase")),
        "phi": rng.uniform(0.0, 2.0 * np.pi),
        "absorbers": [],
    }
    for particle in (0, 1):
        if rng.random() < 0.5:
            arm = rng.choice(("u", "v"))
            sink = rng.choice(("absorbed", "exploded"))
            plan["absorbers"].append((particle, arm, sink))
    return plan


def random_single_plan(rng: random.Random) -> dict:
    plan = {"kind": "single", "r": rng.uniform(0.05, 0.95), "absorbers": []}
    if rng.random() < 0.7:
        arm = rng.choice(("u", "v"))
        sink = rng.choice(("absorbed", "exploded"))
        plan["absorbers"].append((0, arm, sink))
    return plan


def run_dense_plan(plan: dict):
    """Execute a pipeline plan on the dense engine."""
    r = plan["r"]
    t = float(np.sqrt(1.0 - r * r))
    if plan["kind"] == "single":
        state = DenseSingle()
        state.apply(bs1_matrix(t, r))
        for _particle, arm, sink in plan["absorbers"]:
            state.apply(absorber_matrix(arm, sink))
        state.apply(bs2_matrix(t, r))
        return state
    state = DensePair()
    state.apply(bs1_matrix(t, r), 0)
    state.apply(bs1_matrix(t, r), 1)
    if plan["coupling"] == "annihilation":
        state.annihilate()
    elif plan["coupling"] == "phase":
        state.phase_couple(plan["phi"])
    for particle, arm, sink in plan["absorbers"]:
        state.apply(absorber_matrix(arm, sink), particle)
    state.apply(bs2_matrix(t, r), 0)
    state.apply(bs2_matrix(t, r), 1)
    return state
