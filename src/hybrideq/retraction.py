"""Sunny generalized nonexpansive retraction onto sets with convex dual image.

The retraction R_C of an anchor x is characterized by the variational
inequality <x - Rx, Jy - J(Rx)> <= 0 for every y in C.  Writing w = Jz for
the unknown and minimizing

    h(w) = |w|_q^2 - 2 <x, w>     over  w in JC,

the gradient is 2 (J* w - x), so the first-order condition of this convex
program is exactly the inequality above with z = J* w*.  JC must be closed
and convex (dual frame); that is the existence hypothesis for R_C.

In Hilbert mode h(w) = |w - x|^2 - |x|^2, and the retraction reduces to the
Euclidean projection of the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError, InfeasibleError, NonConvergedError
from .sets import ConstraintSet, Frame, project_intersection, sample_feasible, worst_violation
from .space import PrimalPoint, SpaceConfig, gauge_coords, pnorm


@dataclass(frozen=True)
class RetractionProblem:
    """Anchor point plus the dual-frame feasible set JC it is retracted onto."""

    space: SpaceConfig
    dual_feasible: ConstraintSet
    anchor: PrimalPoint

    def __post_init__(self):
        if self.dual_feasible.frame != Frame.DUAL:
            raise ValueError("dual_feasible must be tagged with the DUAL frame")
        if self.anchor.space != self.space:
            raise ValueError("anchor does not live in the problem space")


def _objective(w: np.ndarray, x: np.ndarray, q: float) -> float:
    nrm = pnorm(w, q)
    return nrm * nrm - 2.0 * float(np.dot(x, w))


def _gradient(w: np.ndarray, x: np.ndarray, q: float) -> np.ndarray:
    return 2.0 * (gauge_coords(w, q) - x)


def _estimate_step(w0: np.ndarray, x: np.ndarray, q: float, rng: np.random.Generator) -> float:
    """1/L step from a finite-difference power iteration on the Hessian of h."""
    eps = 1e-6 * (1.0 + float(np.linalg.norm(w0)))
    g0 = _gradient(w0, x, q)
    v = rng.standard_normal(w0.shape[0])
    v /= np.linalg.norm(v)
    lip = 2.0
    for _ in range(8):
        u = (_gradient(w0 + eps * v, x, q) - g0) / eps
        nrm = float(np.linalg.norm(u))
        if not np.isfinite(nrm) or nrm < 1e-12:
            break
        lip = nrm
        v = u / nrm
    lip = min(max(lip, 1e-2), 1e8)
    return 1.0 / lip


def sunny_retract(
    prob: RetractionProblem,
    tol: float = 1e-10,
    max_iter: int = 10_000,
    init: np.ndarray | None = None,
    dykstra_tol: float = 1e-12,
    seed: int = 0,
) -> PrimalPoint:
    """Compute R_C(anchor) by projected gradient descent in dual coordinates.

    Starts from the Euclidean projection of J(anchor) onto the dual
    feasible set (or of `init` when given), uses backtracking line search
    with a power-iteration step initialization, and stops when the
    projected-gradient norm falls at or below tol.

    Raises NonConvergedError at the iteration cap and InfeasibleError when
    the projection cannot reach the feasible set.
    """
    space = prob.space
    q = space.conjugate
    x = prob.anchor.coords
    if q == 2.0:
        # h(w) = |w - x|^2 - |x|^2 here, so the retraction is exactly the
        # Euclidean projection of the anchor; the exact engine solves it
        # directly and raises InfeasibleError itself on an empty set
        w = project_intersection(prob.dual_feasible, x, tol=dykstra_tol, max_iter=200_000)
        return PrimalPoint(gauge_coords(w, q), space)
    start = gauge_coords(x, space.exponent) if init is None else np.asarray(init, dtype=float)
    try:
        w = project_intersection(prob.dual_feasible, start, tol=dykstra_tol, max_iter=100_000)
    except NonConvergedError as exc:
        raise InfeasibleError(f"dual feasible set unreachable: {exc}") from exc

    rng = np.random.default_rng(seed)
    t = _estimate_step(w, x, q, rng)
    t_max = t * 1e6
    best_h = _objective(w, x, q)
    flat_streak = 0
    for _ in range(max_iter):
        g = _gradient(w, x, q)
        h_w = _objective(w, x, q)
        w_new = None
        for _ in range(80):
            try:
                candidate = project_intersection(
                    prob.dual_feasible, w - t * g, tol=dykstra_tol, max_iter=100_000
                )
            except NonConvergedError as exc:
                raise InfeasibleError(f"dual feasible set unreachable: {exc}") from exc
            delta = candidate - w
            # sufficient decrease against the step-size quadratic model
            if _objective(candidate, x, q) <= h_w + float(np.dot(g, delta)) + float(
                np.dot(delta, delta)
            ) / (2.0 * t):
                w_new = candidate
                break
            t *= 0.5
        if w_new is None:
            raise NonConvergedError("retraction line search failed to make progress")
        moved = float(np.linalg.norm(w_new - w))
        w = w_new
        if moved / t <= tol:
            return PrimalPoint(gauge_coords(w, q), space)
        h_new = _objective(w, x, q)
        if h_new >= best_h - 1e-14 * (1.0 + abs(best_h)):
            flat_streak += 1
            if flat_streak >= 12:
                # descent has hit the projection-accuracy floor
                return PrimalPoint(gauge_coords(w, q), space)
        else:
            best_h = h_new
            flat_streak = 0
        t = min(t * 1.25, t_max)
    raise NonConvergedError(f"retraction did not reach tol={tol:g} in {max_iter} iterations")


def retraction_vi_residual(
    prob: RetractionProblem,
    z: PrimalPoint,
    samples: int = 200,
    rng: np.random.Generator | None = None,
    feasibility_tol: float = 1e-6,
) -> float:
    """Sampled maximum of <anchor - z, w_y - Jz> over feasible dual points w_y.

    A correct retraction yields a value at tolerance-scale or below; a
    clearly positive value certifies that z is not the retraction of the
    anchor.  Requires Jz to be feasible within feasibility_tol and raises
    AuditError otherwise.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = prob.space
    wz = gauge_coords(z.coords, space.exponent)
    gap = worst_violation(prob.dual_feasible, wz)
    if gap > feasibility_tol:
        raise AuditError(f"z is not feasible: J(z) violates the dual set by {gap:g}")
    direction = prob.anchor.coords - z.coords
    points = sample_feasible(
        prob.dual_feasible, rng, samples, dimension=space.dimension, anchor=wz
    )
    return float(np.max((points - wz) @ direction, initial=-np.inf))
