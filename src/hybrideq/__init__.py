"""Hybrid shrinking-projection solver for generalized mixed equilibrium
problems and common J-fixed points of nonexpansive-type operator families,
in finite-dimensional p-norm spaces, Euclidean space (p = 2) among them."""

from .equilibrium import (
    AffineMap,
    DualNormTerm,
    DualityPerturbation,
    InverseDualityPairing,
    PairingBifunction,
    PotentialBifunction,
    QuadraticPotential,
    QuadraticTerm,
    ResolventProblem,
    WeightedL1Term,
    ZeroPerturbation,
    ZeroTerm,
    resolvent_gap,
    resolvent_lhs,
    solve_resolvent_certified,
)
from .errors import (
    AuditError,
    InfeasibleError,
    NonConvergedError,
    ScenarioParseError,
    ScenarioValidationError,
    UnsupportedCombinationError,
)
from .harness import (
    BUILTIN_SCENARIOS,
    RunReport,
    ScenarioSpec,
    build_bundle,
    build_config,
    emit_report,
    load_scenario,
    run_scenario,
)
from .operators import (
    CustomMap,
    JMap,
    OperatorFamily,
    RelaxedFamily,
    ShiftMap,
    jstar_nonexpansive_violation,
)
from .retraction import retraction_vi_residual, sunny_retract
from .sets import (
    Box,
    ConstraintSet,
    Frame,
    Halfspace,
    PBall,
    WholeSpace,
    add_cut,
    project_primitive,
    sample_feasible,
)
from .solver import (
    IterationRecord,
    ProblemBundle,
    SolverConfig,
    SolverResult,
    audit_result,
    run,
    step_y,
)
from .space import (
    DualPoint,
    PrimalPoint,
    SpaceConfig,
    duality_map,
    inverse_duality_map,
    lyapunov_phi,
    pnorm,
)

__version__ = "0.1.0"
