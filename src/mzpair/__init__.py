"""Exact-amplitude simulation of coupled Mach-Zehnder interferometer pairs.

The package covers the single-interferometer bomb test, twin pairs coupled
by annihilation of the overlapping arms or by a joint phase, the four-term
Bell-type inequality with an exact local-model membership test, parameter
sweeps with deterministic refinement, and the gravitationally induced
coupling phase.
"""

from types import ModuleType as _ModuleType

from .bell import (
    BehaviorTable,
    BellReport,
    DeterministicStrategy,
    HardyConstants,
    LhvMembership,
    LocalStrategy,
    behavior_from_phase_setup,
    bell_violation,
    enumerate_deterministic_strategies,
    hardy_constants,
    lhv_membership,
    logical_inequality,
    paradox_statement_probs,
)
from .experiments import (
    GRAVITATIONAL_CONSTANT,
    HBAR,
    GravityParams,
    PairBatch,
    dark_port_coefficient,
    ev_retest_efficiency,
    gravity_phase,
    run_ev,
    run_pair,
    run_pair_state,
)
from .explore import (
    DEFAULT_GRID,
    Optimum,
    SweepGrid,
    find_dark_port_tuning,
    find_max_violation,
    find_max_violation_at_phi,
    first_max,
    sweep,
    violation_at,
)
from .state import (
    BeamSplitterParams,
    JointState,
    OutcomeDistribution,
    PipelineError,
    Readout,
    apply_absorber,
    apply_annihilation_coupling,
    apply_bs1,
    apply_bs2,
    apply_phase_coupling,
    measure,
)

__version__ = "0.1.0"

# Every public name imported above; the submodules these imports bind are not exported.
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
] + ["__version__"]
