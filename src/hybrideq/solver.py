"""Outer hybrid shrinking-projection loop with per-iteration invariant auditing.

Each outer iteration blends the operator family into y_n, solves the
regularized equilibrium problem at y_n for u_n, rewrites the comparison
inequality between u_n and x_n as a halfspace cut, intersects it with the
accumulated feasible region, and retracts the *initial* anchor x_1 onto the
shrunken set.  There is one loop for every exponent: cuts live in the dual
frame via w = Jz (phi(u_n, z) <= phi(x_n, z)) and the retraction is the
sunny generalized nonexpansive retraction computed in dual coordinates.
At p = 2, J is the identity and phi is symmetric, so the same formulas are
the Hilbert ones and the retraction is the Euclidean projection of the
anchor.

Every proof inequality of the convergence argument is evaluated each
iteration and its slack stored on the IterationRecord: anchor
phi-monotonicity, cut retention of a declared reference solution (the
Fejer property), feasibility of the new iterate against every accumulated
cut, the certified resolvent gap, and the retraction variational-inequality
residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .equilibrium import (
    MixedTerm,
    PerturbationMap,
    ResolventProblem,
    classify_problem,
    solve_resolvent_certified,
)
from .errors import SOLVER_ERRORS, NonConvergedError, UnsupportedCombinationError
from .operators import OperatorFamily
from .retraction import RetractionProblem, retraction_vi_residual, sunny_retract
from .sets import (
    Box,
    ConstraintSet,
    Frame,
    Halfspace,
    PBall,
    WholeSpace,
    add_cut,
    contains,
    worst_violation,
)
from .space import PrimalPoint, SpaceConfig, any_nonzero, gauge_coords, lyapunov_phi, pnorm


class StopReason(enum.Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"


def _int_at_least(low: int):
    """The test of an int or numpy integer, not a bool, of at least low."""
    return lambda v: isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= low


#: the rule of each checked config field: a test its value passes, written
#: so that NaN fails it, and the rule in words
_FIELD_RULES = {
    "outer_tol": (lambda v: v > 0, "must be positive"),
    "resolvent_tol": (lambda v: v > 0, "must be positive"),
    "min_r": (lambda v: v > 0, "must be positive"),
    "max_outer": (_int_at_least(0), "must be a nonnegative integer"),
    "seed": (_int_at_least(0), "must be a nonnegative integer"),
    "audit_samples": (_int_at_least(1), "must be a positive integer"),
    "cut_cap": (_int_at_least(1), "must be a positive integer"),
}


@dataclass(frozen=True)
class SolverConfig:
    r_schedule: Callable[[int], float] | float = 1.0
    outer_tol: float = 1e-6
    max_outer: int = 200
    resolvent_tol: float = 1e-6
    reference_solution: Optional[PrimalPoint] = None
    seed: int = 7
    min_r: float = 1e-3
    cut_cap: int = 500
    audit_samples: int = 24

    def __post_init__(self):
        for name in _FIELD_RULES:
            self.check(name, getattr(self, name))

    @staticmethod
    def check(name: str, value):
        """value if it meets the rule of the config field `name`, else a
        ValueError whose `field` attribute is name."""
        test, rule = _FIELD_RULES[name]
        if not test(value):
            exc = ValueError(f"{name} {rule}, got {value}")
            exc.field = name
            raise exc
        return value

    def r_at(self, n: int) -> float:
        """r_n, checked against the floor min_r, the only floor r has."""
        r = self.r_schedule(n) if callable(self.r_schedule) else float(self.r_schedule)
        if not r >= self.min_r:
            raise ValueError(f"r_schedule({n}) = {r} must be at least the floor {self.min_r}")
        return r


def _dual_image(base, space: SpaceConfig):
    """The base of JOmega for Omega's base: the conjugate ball of the same
    radius, the same box at p = 2, or the whole space; else (a box at
    p != 2, a ball of another exponent) UnsupportedCombinationError."""
    if isinstance(base, PBall):
        if base.exponent != space.exponent:
            raise UnsupportedCombinationError(
                f"a ball of exponent {base.exponent} as Omega at p = {space.exponent}"
            )
        return PBall(base.radius, space.conjugate, Frame.DUAL)
    if isinstance(base, Box):
        if not space.is_hilbert:
            raise UnsupportedCombinationError(
                "box base sets are supported only at p = 2 (their dual image "
                "is not representable otherwise)"
            )
        return Box(base.lower, base.upper, Frame.DUAL)
    return WholeSpace(Frame.DUAL)


@dataclass(frozen=True)
class ProblemBundle:
    """Everything the outer loop needs: sets, operators, equilibrium data, anchor.

    The space is the anchor's, and omega_dual, the dual-frame set JOmega the
    cuts accumulate on, is derived from Omega.  Raises ValueError unless
    the anchor x_1 lies in Omega, and UnsupportedCombinationError for an
    Omega whose dual image is not representable or when the equilibrium
    data fall outside the resolvent's support matrix (the classification
    does not depend on r).
    """

    omega: ConstraintSet
    family: OperatorFamily
    bifunctions: tuple
    mixed: MixedTerm
    perturbation: PerturbationMap
    anchor: PrimalPoint
    omega_dual: ConstraintSet = field(init=False)

    @property
    def space(self) -> SpaceConfig:
        return self.anchor.space

    def __post_init__(self):
        object.__setattr__(self, "bifunctions", tuple(self.bifunctions))
        if self.omega.frame != Frame.PRIMAL:
            raise ValueError("omega must be primal-frame")
        anchor, space = self.anchor, self.anchor.space
        dual = ConstraintSet(_dual_image(self.omega.base, space), (), Frame.DUAL)
        object.__setattr__(self, "omega_dual", dual)
        if not contains(self.omega, anchor.coords, 1e-9, anchor.norm, space.exponent):
            raise ValueError("anchor x_1 must lie in Omega")
        classify_problem(
            ResolventProblem(
                self.bifunctions, self.mixed, self.perturbation, self.omega, 1.0, anchor
            )
        )


@dataclass(frozen=True)
class IterationRecord:
    """Per-iteration trace: iterates plus the audited invariant slacks.

    x is the iterate entering iteration n; the retraction residual and
    feasibility violation refer to the iterate produced at the end of the
    iteration.  fejer slacks are None when no reference solution is
    declared.  capped_starts counts the resolvent-gap descents that
    reached their iteration cap still moving (Banach-mode search starts,
    and the Hilbert-mode descent of a class without a closed-form
    minimum): a nonzero count flags a gap value that may miss part of the
    descent.
    """

    n: int
    x: PrimalPoint
    y: PrimalPoint
    u: PrimalPoint
    phi_anchor: float
    gap_xu: float
    resolvent_gap_value: float
    retraction_vi_residual: float
    fejer_slack: Optional[float]
    fejer_slack_y: Optional[float]
    feasibility_violation: float
    cut_count: int
    displacement: float
    capped_starts: int


@dataclass(frozen=True)
class SolverResult:
    x_star: PrimalPoint
    converged: bool
    history: tuple
    stop_reason: StopReason

    def __post_init__(self):
        object.__setattr__(self, "history", tuple(self.history))

    @property
    def iterations(self) -> int:
        return len(self.history)


def step_y(family: OperatorFamily, x: PrimalPoint, n: int) -> PrimalPoint:
    """One blending step of the operator family.

    Each member is pulled back through J^{-1} and the results are blended
    with x in the primal frame; at p = 2 this is the Hilbert blend.
    """
    space = family.space
    weights = family.weights_at(n)
    q = space.conjugate
    acc = weights[0] * x.coords
    for i, member in enumerate(family.members):
        acc = acc + weights[i + 1] * gauge_coords(member.apply_at(n, x).coords, q)
    return PrimalPoint(acc, space)


def _comparison_cut(
    u: PrimalPoint, x: PrimalPoint, diff: np.ndarray, gap: float
) -> Optional[Halfspace]:
    """The comparison inequality between u_n and x_n as a dual-frame cut,
    given diff = x - u and gap = |diff|_p.

    phi(u, z) <= phi(x, z) becomes <2(x - u), w> <= |x|^2 - |u|^2 for
    w = Jz.  Returns None for the degenerate u = x whole-space cut.
    """
    if gap <= 1e-14:
        return None
    nx, nu = x.norm, u.norm
    return Halfspace(2.0 * diff, nx * nx - nu * nu, Frame.DUAL)


def _at_iteration(exc: Exception, n: int, capped: int) -> Exception:
    """A copy of exc whose message starts with iteration n, whose
    `iteration` attribute holds n and whose `capped_starts` attribute
    holds the capped gap-search starts counted so far."""
    tagged = type(exc)(f"iteration {n}: {exc}")
    tagged.iteration = n
    tagged.capped_starts = capped
    return tagged


def run(bundle: ProblemBundle, config: SolverConfig) -> SolverResult:
    """Execute the outer loop; returns the full audited trace.

    An error of SOLVER_ERRORS raised in an iteration, NonConvergedError
    among them when the accumulated cuts exceed the configured cap, leaves
    with the failing iteration prepended to its message and stored as its
    `iteration` attribute.
    A raised error's `capped_starts` attribute counts the capped gap-search
    starts of every resolvent solve that finished before it.

    The gap starts and the audit samples of every iteration are drawn from
    two generators spawned once per run from the seed,
    SeedSequence(config.seed).spawn(2), in that order.
    """
    p = bundle.space.exponent
    anchor = bundle.anchor
    reference = config.reference_solution
    dual_set = bundle.omega_dual
    x = anchor
    history = []
    # the cuts active in the last retraction: the anchor is fixed and the set
    # only shrinks, so they and the newest cut, which cuts off x_n, seed the
    # next one's NNLS passive set
    active = ()
    capped_total = 0
    stop_reason = StopReason.ITERATION_CAP
    converged = False

    for n in range(1, config.max_outer + 1):
        r_n = config.r_at(n)
        # one failure boundary: a solver error of any phase leaves tagged with
        # n; any other, such as a timing tool's from step_y, leaves as raised
        try:
            y = step_y(bundle.family, x, n)
            if n == 1:
                # one stream for the gap starts and one for the audit, so that a
                # gap retry never shifts the audit's draws; they are solve work,
                # built after the first step_y, where perfbench's set-up ends
                gap_rng, audit_rng = map(
                    np.random.default_rng, np.random.SeedSequence(config.seed).spawn(2)
                )
            problem = ResolventProblem(
                bundle.bifunctions, bundle.mixed, bundle.perturbation, bundle.omega, r_n, y
            )
            u, resolvent_gap_value, capped_starts = solve_resolvent_certified(
                problem,
                tol=config.resolvent_tol,
                rng=gap_rng,
            )
            capped_total += capped_starts

            diff = x.coords - u.coords
            # pnorm reads only |diff_i|, so at u = 0 it is x's kept norm exactly
            gap_xu = pnorm(diff, p) if any_nonzero(u.coords) else x.norm
            cut = _comparison_cut(u, x, diff, gap_xu)
            hint = active
            if cut is not None:
                dual_set = add_cut(dual_set, cut)
                if dual_set.cuts[-1] is cut:  # kept, not dominated by an old cut
                    hint = active + (cut,)
                if len(dual_set.cuts) > config.cut_cap:
                    raise NonConvergedError(f"accumulated cuts exceed the cap {config.cut_cap}")

            retraction_problem = RetractionProblem(dual_set, anchor)
            x_next, active = sunny_retract(retraction_problem, hint=hint)

            # the one feasibility gate of J x_{n+1}: the audit and its sampler
            # read it, and it enters the feasibility record
            dual_gap = worst_violation(dual_set, x_next.dual_coords)
            retraction_residual = retraction_vi_residual(
                retraction_problem,
                x_next,
                samples=config.audit_samples,
                rng=audit_rng,
                violation=dual_gap,
            )
        except SOLVER_ERRORS as exc:
            raise _at_iteration(exc, n, capped_total) from exc
        feasibility = max(worst_violation(bundle.omega, x_next.coords, x_next.norm, p), dual_gap)

        fejer = fejer_y = None
        if reference is not None:
            phi_x = lyapunov_phi(x, reference)
            fejer = lyapunov_phi(u, reference) - phi_x
            fejer_y = lyapunov_phi(y, reference) - phi_x

        displacement = pnorm(x_next.coords - x.coords, p)
        history.append(
            IterationRecord(
                n=n,
                x=x,
                y=y,
                u=u,
                phi_anchor=lyapunov_phi(anchor, x),
                gap_xu=gap_xu,
                resolvent_gap_value=resolvent_gap_value,
                retraction_vi_residual=retraction_residual,
                fejer_slack=fejer,
                fejer_slack_y=fejer_y,
                feasibility_violation=feasibility,
                cut_count=len(dual_set.cuts),
                displacement=displacement,
                capped_starts=capped_starts,
            )
        )
        x = x_next
        if displacement <= config.outer_tol:
            stop_reason = StopReason.CONVERGED
            converged = True
            break

    return SolverResult(x, converged, tuple(history), stop_reason)


#: audit names and their tolerances; vanishing_gap is scaled by outer_tol.
AUDIT_TOLERANCES = {
    "anchor_monotonicity": 1e-8,
    "fejer_u": 1e-6,
    "fejer_y": 1e-6,
    "feasibility": 1e-6,
    "retraction_residual": 1e-6,
    "resolvent_gap": None,  # filled from config.resolvent_tol
    "vanishing_gap": None,  # filled as 10 * config.outer_tol, checked when converged
}


def audit_result(result: SolverResult, config: SolverConfig) -> dict:
    """Worst slack per audited invariant, with pass/fail at the stated tolerances.

    Returns {name: {"worst": float, "tolerance": float, "passed": bool}}; an
    invariant with nothing to check (no reference declared, no iterations)
    reports worst = 0.
    """
    hist = result.history
    out = {}

    anchor_drops = [
        hist[i].phi_anchor - hist[i + 1].phi_anchor for i in range(len(hist) - 1)
    ]
    if hist:
        anchor_drops.append(hist[-1].phi_anchor - lyapunov_phi(hist[0].x, result.x_star))
    out["anchor_monotonicity"] = max(anchor_drops, default=0.0)
    out["fejer_u"] = max(
        (r.fejer_slack for r in hist if r.fejer_slack is not None), default=0.0
    )
    out["fejer_y"] = max(
        (r.fejer_slack_y for r in hist if r.fejer_slack_y is not None), default=0.0
    )
    out["feasibility"] = max((r.feasibility_violation for r in hist), default=0.0)
    out["retraction_residual"] = max((r.retraction_vi_residual for r in hist), default=0.0)
    out["resolvent_gap"] = max((r.resolvent_gap_value for r in hist), default=0.0)
    out["vanishing_gap"] = hist[-1].gap_xu if (hist and result.converged) else 0.0

    tolerances = dict(AUDIT_TOLERANCES)
    tolerances["resolvent_gap"] = config.resolvent_tol
    tolerances["vanishing_gap"] = 10.0 * config.outer_tol
    return {
        name: {
            "worst": float(out[name]),
            "tolerance": float(tolerances[name]),
            "passed": bool(out[name] <= tolerances[name]),
        }
        for name in out
    }
