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
anchor.  The Mode label records which setting a scenario declares;
HILBERT_MAIN requires p = 2.

Every proof inequality of the convergence argument is evaluated each
iteration and its slack stored on the IterationRecord: anchor
phi-monotonicity, cut retention of a declared reference solution (the
Fejer property), feasibility of the new iterate against every accumulated
cut, the certified resolvent gap, and the retraction variational-inequality
residual.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .equilibrium import (
    MixedTerm,
    PerturbationMap,
    ResolventProblem,
    classify_problem,
    solve_resolvent_certified,
)
from .errors import AuditError, InfeasibleError, NonConvergedError, UnsupportedCombinationError
from .operators import OperatorFamily
from .retraction import RetractionProblem, retraction_vi_residual, sunny_retract
from .sets import ConstraintSet, Frame, Halfspace, add_cut, contains, worst_violation
from .space import PrimalPoint, SpaceConfig, gauge_coords, lyapunov_phi, pnorm


class Mode(enum.Enum):
    """The setting a scenario declares; both run the same loop, and
    HILBERT_MAIN additionally requires p = 2."""

    HILBERT_MAIN = "hilbert"
    BANACH_MAIN2 = "banach"


class StopReason(enum.Enum):
    CONVERGED = "converged"
    ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class SolverConfig:
    mode: Mode
    r_schedule: Callable[[int], float] | float = 1.0
    outer_tol: float = 1e-6
    max_outer: int = 200
    resolvent_tol: float = 1e-6
    # no longer read: the retraction is exact, gated by `sunny_retract`'s
    # own KKT tolerance; kept because scenario documents set it
    retraction_tol: float = 1e-10
    reference_solution: Optional[PrimalPoint] = None
    seed: int = 7
    min_r: float = 1e-3
    cut_cap: int = 500
    audit_samples: int = 24

    def __post_init__(self):
        if self.outer_tol <= 0 or self.resolvent_tol <= 0 or self.retraction_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.min_r <= 0:
            raise ValueError("min_r must be positive")
        if self.max_outer < 0:
            raise ValueError("max_outer must be nonnegative")

    def r_at(self, n: int) -> float:
        r = self.r_schedule(n) if callable(self.r_schedule) else float(self.r_schedule)
        if r < self.min_r:
            raise ValueError(f"r_schedule({n}) = {r} is below the floor {self.min_r}")
        return r


@dataclass(frozen=True)
class ProblemBundle:
    """Everything the outer loop needs: sets, operators, equilibrium data, anchor."""

    space: SpaceConfig
    omega: ConstraintSet
    omega_dual: ConstraintSet
    family: OperatorFamily
    bifunctions: tuple
    mixed: MixedTerm
    perturbation: PerturbationMap
    anchor: PrimalPoint

    def __post_init__(self):
        object.__setattr__(self, "bifunctions", tuple(self.bifunctions))
        if self.omega.frame != Frame.PRIMAL or self.omega_dual.frame != Frame.DUAL:
            raise ValueError("omega must be primal-frame and omega_dual dual-frame")
        if self.anchor.space != self.space:
            raise ValueError("anchor does not live in the bundle space")


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


def make_comparison_halfspace(
    u: PrimalPoint, x: PrimalPoint, space: SpaceConfig
) -> Optional[Halfspace]:
    """The comparison inequality between u_n and x_n as a dual-frame cut.

    phi(u, z) <= phi(x, z) becomes <2(x - u), w> <= |x|^2 - |u|^2 for
    w = Jz.  Returns None for the degenerate u = x whole-space cut.
    """
    diff = x.coords - u.coords
    return _comparison_cut(u, x, diff, pnorm(diff, space.exponent))


def _comparison_cut(u: PrimalPoint, x: PrimalPoint, diff: np.ndarray, gap: float):
    """make_comparison_halfspace given diff = x - u and gap = |diff|_p."""
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


def _seed_words(seed: int) -> tuple:
    """The seed as numpy's SeedSequence splits a nonnegative Python int:
    32-bit words, least significant first, and (0,) for 0.

    A uint32 array of these words followed by more of them seeds the
    generator that the list [seed, ...] seeds, without SeedSequence's
    per-item Python coercion.  Raises ValueError for a negative seed, as
    numpy does.
    """
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    seed >>= 32
    while seed:
        words.append(seed & 0xFFFFFFFF)
        seed >>= 32
    return tuple(words)


def run(bundle: ProblemBundle, config: SolverConfig) -> SolverResult:
    """Execute the outer loop; returns the full audited trace.

    Raises NonConvergedError / UnsupportedCombinationError from the
    resolvent, NonConvergedError / InfeasibleError from the retraction and
    AuditError / NonConvergedError / InfeasibleError from the retraction
    audit (its sampler projects when it cannot pull back), each with the
    failing iteration prepended to the message and stored as its
    `iteration` attribute, and NonConvergedError when the accumulated cuts
    exceed the configured cap.
    A raised error's `capped_starts` attribute counts the capped gap-search
    starts of every resolvent solve that finished before it.
    """
    space = bundle.space
    if config.mode is Mode.HILBERT_MAIN and not space.is_hilbert:
        raise UnsupportedCombinationError("HILBERT_MAIN requires exponent p = 2")
    p = space.exponent
    anchor = bundle.anchor
    if not contains(bundle.omega, anchor.coords, 1e-9, anchor.norm, p):
        raise ValueError("anchor x_1 must lie in Omega")
    # fail fast when the equilibrium data are outside the support matrix
    classify_problem(
        ResolventProblem(
            bundle.bifunctions,
            bundle.mixed,
            bundle.perturbation,
            bundle.omega,
            max(config.r_at(1), config.min_r),
            anchor,
            min_r=config.min_r,
        )
    )

    reference = config.reference_solution
    # iteration n's generators are seeded by [seed, n, 1] and [seed, n, 2];
    # n < 2^32 is one word
    words = _seed_words(config.seed)
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
        y = step_y(bundle.family, x, n)
        problem = ResolventProblem(
            bundle.bifunctions,
            bundle.mixed,
            bundle.perturbation,
            bundle.omega,
            r_n,
            y,
            min_r=config.min_r,
        )
        try:
            u, resolvent_gap_value, capped_starts = solve_resolvent_certified(
                problem,
                tol=config.resolvent_tol,
                rng=np.random.default_rng(np.array((*words, n, 1), dtype=np.uint32)),
            )
        except (NonConvergedError, UnsupportedCombinationError) as exc:
            raise _at_iteration(exc, n, capped_total) from exc
        capped_total += capped_starts

        diff = x.coords - u.coords
        # pnorm reads only |diff_i|, so at u = 0 it is x's kept norm exactly
        gap_xu = pnorm(diff, p) if u.coords.any() else x.norm
        cut = _comparison_cut(u, x, diff, gap_xu)
        hint = active
        if cut is not None:
            dual_set = add_cut(dual_set, cut)
            if dual_set.cuts[-1] is cut:  # kept, not dominated by an old cut
                hint = active + (cut,)
            if len(dual_set.cuts) > config.cut_cap:
                raise _at_iteration(
                    NonConvergedError(f"accumulated cuts exceed the cap {config.cut_cap}"),
                    n,
                    capped_total,
                )

        retraction_problem = RetractionProblem(space, dual_set, anchor)
        try:
            x_next, active = sunny_retract(retraction_problem, hint=hint)
        except (NonConvergedError, InfeasibleError) as exc:
            raise _at_iteration(exc, n, capped_total) from exc

        # the one feasibility gate of J x_{n+1}: the audit and its sampler
        # read it, and it enters the feasibility record
        dual_gap = worst_violation(dual_set, x_next.dual_coords)
        try:
            retraction_residual = retraction_vi_residual(
                retraction_problem,
                x_next,
                samples=config.audit_samples,
                rng=np.random.default_rng(np.array((*words, n, 2), dtype=np.uint32)),
                violation=dual_gap,
            )
        except (AuditError, NonConvergedError, InfeasibleError) as exc:
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
