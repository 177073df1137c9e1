"""Generalized J*-nonexpansive maps, relaxed families, and diagnostics.

A map T from the primal space to the dual is generalized J*-nonexpansive
when it has a J-fixed point p (a point with Tp = Jp) and
phi(p, J*(Tx)) <= phi(p, x) for all feasible x.  The relaxed family
T_n u = a_n Ju + (1 - a_n) Tu inherits the J-fixed points of T and, with
1 - a_n >= 1/2, satisfies the residual-transfer (NST) property against T.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .sets import ConstraintSet, sample_feasible
from .space import (
    DualPoint,
    PrimalPoint,
    SpaceConfig,
    gauge_coords,
    lyapunov_phi,
    pnorm,
)


@dataclass(frozen=True)
class ShiftMap:
    """T x = J(0, x_1, ..., x_{d-1}): the coordinate right-shift composed with J.

    Its only J-fixed point in the unit ball is the origin.
    """

    space: SpaceConfig

    def apply(self, x: PrimalPoint) -> DualPoint:
        shifted = np.concatenate(([0.0], x.coords[:-1]))
        return DualPoint(gauge_coords(shifted, self.space.exponent), self.space)

    @property
    def known_j_fixed_points(self):
        return [PrimalPoint(np.zeros(self.space.dimension), self.space)]


@dataclass(frozen=True)
class JMap:
    """T = J itself; every point is a J-fixed point."""

    space: SpaceConfig

    def apply(self, x: PrimalPoint) -> DualPoint:
        return DualPoint(x.dual_coords, self.space)

    @property
    def known_j_fixed_points(self):
        return []


@dataclass(frozen=True)
class CustomMap:
    """User-supplied primal -> dual map; closedness is the caller's hypothesis."""

    space: SpaceConfig
    fn: Callable[[PrimalPoint], DualPoint]
    fixed_points: tuple = ()

    def apply(self, x: PrimalPoint) -> DualPoint:
        return self.fn(x)

    @property
    def known_j_fixed_points(self):
        return list(self.fixed_points)


@dataclass(frozen=True)
class RelaxedFamily:
    """T_n u = a_n Ju + (1 - a_n) T u for a weight schedule n -> a_n in (0, 1)."""

    base: object
    relax_weight: Callable[[int], float] = None  # defaults to 1/2

    def weight_at(self, n: int) -> float:
        alpha = 0.5 if self.relax_weight is None else float(self.relax_weight(n))
        if not (0.0 < alpha < 1.0) or (1.0 - alpha) < 0.5:
            raise ValueError(f"relax weight at n={n} must lie in (0, 1) with 1 - a >= 1/2")
        return alpha

    def apply_at(self, n: int, x: PrimalPoint) -> DualPoint:
        space = self.base.space
        alpha = self.weight_at(n)
        jx = x.dual_coords
        tx = self.base.apply(x).coords
        return DualPoint(alpha * jx + (1.0 - alpha) * tx, space)


@dataclass(frozen=True)
class OperatorFamily:
    """N relaxed members plus a combination-weight schedule on the simplex.

    weights_at(n) returns (a^0_n, ..., a^N_n) summing to one; the product
    a^0_n * a^i_n must stay at or above min_weight_product for every member
    (the positivity the convergence argument silently relies on).
    """

    members: Sequence[RelaxedFamily]
    combination_weights: Callable[[int], Sequence[float]] = None
    min_weight_product: float = 1e-6

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(self.members))
        if not self.members:
            raise ValueError("operator family needs at least one member")
        if not self.min_weight_product > 0:
            raise ValueError("min_weight_product must be positive")

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def space(self) -> SpaceConfig:
        return self.members[0].base.space

    def weights_at(self, n: int) -> np.ndarray:
        if self.combination_weights is None:
            w = np.full(self.size + 1, 1.0 / (self.size + 1))
        else:
            w = np.asarray(self.combination_weights(n), dtype=float)
        if w.shape != (self.size + 1,):
            raise ValueError(
                f"combination weights at n={n} must have length {self.size + 1}"
            )
        # written so that a NaN weight fails: min() of an array holding NaN is NaN
        if not (w.min() >= 0.0 and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError(f"combination weights at n={n} must lie on the simplex")
        if not (w[0] * w[1:]).min() >= self.min_weight_product:
            raise ValueError(
                f"combination weights at n={n} violate the weight-product floor "
                f"{self.min_weight_product:g}"
            )
        return w


def apply_member(fam: OperatorFamily, i: int, n: int, x: PrimalPoint) -> DualPoint:
    """T^i_n x for the 1-indexed member i at iteration n."""
    if not (1 <= i <= fam.size):
        raise IndexError(f"member index {i} out of range 1..{fam.size}")
    return fam.members[i - 1].apply_at(n, x)


def jstar_nonexpansive_violation(
    jmap,
    fixed_point: PrimalPoint,
    omega: ConstraintSet,
    samples: int = 200,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Sampled max of phi(p, J*(Tx)) - phi(p, x) over x in Omega.

    A conforming generalized J*-nonexpansive map yields a value at numerical
    noise level; clearly positive values flag a violation.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = jmap.space
    q = space.conjugate
    points = sample_feasible(omega, rng, samples, dimension=space.dimension)
    worst = -np.inf
    for row in points:
        x = PrimalPoint(row, space)
        tx = jmap.apply(x)
        jtx = PrimalPoint(gauge_coords(tx.coords, q), space)
        worst = max(worst, lyapunov_phi(fixed_point, jtx) - lyapunov_phi(fixed_point, x))
    return worst


def nst_diagnostic(fam: OperatorFamily, trajectory: Sequence[PrimalPoint]) -> tuple:
    """Tail residuals (max |Jx_n - T^i_n x_n|_q, max |Jx_n - T_i x_n|_q).

    The tail is the last quarter of the trajectory.  Whenever the first
    component shrinks the second must too, with ratio at most
    1 / (1 - a_n) <= 2 by the relaxed-family identity.
    """
    if not trajectory:
        return (0.0, 0.0)
    space = fam.space
    q = space.conjugate
    member_res, base_res = [], []
    for idx, x in enumerate(trajectory):
        n = idx + 1
        jx = x.dual_coords
        worst_member, worst_base = 0.0, 0.0
        for member in fam.members:
            tnx = member.apply_at(n, x).coords
            tx = member.base.apply(x).coords
            worst_member = max(worst_member, pnorm(jx - tnx, q))
            worst_base = max(worst_base, pnorm(jx - tx, q))
        member_res.append(worst_member)
        base_res.append(worst_base)
    tail = max(1, len(trajectory) // 4)
    return (max(member_res[-tail:]), max(base_res[-tail:]))
