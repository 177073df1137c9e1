"""Sunny generalized nonexpansive retraction onto sets with convex dual image.

The retraction R_C of an anchor x is characterized by the variational
inequality <x - Rx, Jy - J(Rx)> <= 0 for every y in C.  Writing w = Jz for
the unknown and minimizing

    h(w) = |w|_q^2 - 2 <x, w>     over  w in JC,

the gradient is 2 (J* w - x), so the first-order condition of this convex
program is exactly the inequality above with z = J* w*.  JC must be closed
and convex (dual frame); that is the existence hypothesis for R_C.  The
program is solved exactly in its cut multipliers by `sets.project_intersection`
at the space's exponent.

In Hilbert mode h(w) = |w - x|^2 - |x|^2, and the retraction reduces to the
Euclidean projection of the anchor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AuditError
from .sets import ConstraintSet, Frame, project_intersection, sample_feasible, worst_violation
from .space import PrimalPoint, SpaceConfig, gauge_coords, max_entry


@dataclass(frozen=True)
class RetractionProblem:
    """Anchor point plus the dual-frame feasible set JC it is retracted onto;
    the space is the anchor's."""

    dual_feasible: ConstraintSet
    anchor: PrimalPoint

    def __post_init__(self):
        if self.dual_feasible.frame != Frame.DUAL:
            raise ValueError("dual_feasible must be tagged with the DUAL frame")

    @property
    def space(self) -> SpaceConfig:
        return self.anchor.space


def sunny_retract(prob: RetractionProblem, tol: float = 1e-12, hint: tuple = ()) -> tuple:
    """(R_C(anchor) = J*(w*), the active cuts), w* the minimizer of h over JC.

    One call of `project_intersection` at the space's exponent solves the
    convex program exactly through its cut multipliers (at p = 2 it is the
    Euclidean projection of the anchor).  The answer is returned only when
    its KKT residual is within max(10 tol, 1e-10) (1 + |anchor|);
    NonConvergedError is raised otherwise, and InfeasibleError when JC is
    empty.  The projection starts from the `hint` cuts (the outer loop
    passes the previous retraction's active cuts and its newest cut; none
    by default), and the cuts whose multipliers are positive come back
    for the next retraction's hint.  The anchor's kept norm, duality image
    and Jacobian serve every retraction of it.
    """
    space, anchor = prob.space, prob.anchor
    w, active = project_intersection(
        prob.dual_feasible,
        anchor.coords,
        tol=tol,
        exponent=space.exponent,
        hint=hint,
        point=anchor,
    )
    return PrimalPoint(gauge_coords(w, space.conjugate), space), active


def retraction_vi_residual(
    prob: RetractionProblem,
    z: PrimalPoint,
    samples: int = 200,
    rng: np.random.Generator | None = None,
    violation: float | None = None,
) -> float:
    """Sampled maximum of <anchor - z, w_y - Jz> over feasible dual points w_y.

    A correct retraction yields a value at tolerance-scale or below; a
    clearly positive value certifies that z is not the retraction of the
    anchor.  Requires Jz to be feasible within 1e-6 and raises AuditError
    otherwise.  `violation`, when given, is worst_violation(dual set, Jz),
    which the caller has evaluated; it is not evaluated again.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = prob.space
    wz = z.dual_coords
    gap = worst_violation(prob.dual_feasible, wz) if violation is None else violation
    if gap > 1e-6:
        raise AuditError(f"z is not feasible: J(z) violates the dual set by {gap:g}")
    direction = prob.anchor.coords - z.coords
    points = sample_feasible(
        prob.dual_feasible,
        rng,
        samples,
        dimension=space.dimension,
        anchor=wz,
        anchor_violation=gap,
    )
    return float(max_entry((points - wz) @ direction, -np.inf))
