"""Generalized J*-nonexpansive maps, relaxed families, and diagnostics.

A map T from the primal space to the dual is generalized J*-nonexpansive
when it has a J-fixed point p (a point with Tp = Jp) and
phi(p, J*(Tx)) <= phi(p, x) for all feasible x.  The relaxed family
T_n u = a_n Ju + (1 - a_n) Tu inherits the J-fixed points of T and, with
1 - a_n >= 1/2, satisfies the residual-transfer (NST) property against T.
A map's `apply` and a member's `apply_at` return the dual coordinates of
their value as an array.
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
    min_entry,
)


@dataclass(frozen=True)
class ShiftMap:
    """T x = J(0, x_1, ..., x_{d-1}): the coordinate right-shift composed with J.

    Its only J-fixed point in the unit ball is the origin.
    """

    space: SpaceConfig

    def apply(self, x: PrimalPoint) -> np.ndarray:
        shifted = np.concatenate(([0.0], x.coords[:-1]))
        return gauge_coords(shifted, self.space.exponent)


@dataclass(frozen=True)
class JMap:
    """T = J itself; every point is a J-fixed point."""

    space: SpaceConfig

    def apply(self, x: PrimalPoint) -> np.ndarray:
        return x.dual_coords


@dataclass(frozen=True)
class CustomMap:
    """User-supplied primal -> dual map; closedness is the caller's hypothesis.

    fn returns a DualPoint of the map's space; one of another dimension or
    exponent raises ValueError, since numpy would broadcast or blend it.
    """

    space: SpaceConfig
    fn: Callable[[PrimalPoint], DualPoint]

    def apply(self, x: PrimalPoint) -> np.ndarray:
        w = self.fn(x)
        if w.space != self.space:
            raise ValueError(f"the map returned a point of {w.space}, not of {self.space}")
        return w.coords


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

    def apply_at(self, n: int, x: PrimalPoint) -> np.ndarray:
        """The dual coordinates of T_n x."""
        alpha = self.weight_at(n)
        return alpha * x.dual_coords + (1.0 - alpha) * self.base.apply(x)


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
        # written so that a NaN weight fails: the least entry of an array
        # holding NaN is NaN
        if not (min_entry(w) >= 0.0 and abs(float(w.sum()) - 1.0) <= 1e-12):
            raise ValueError(f"combination weights at n={n} must lie on the simplex")
        if not min_entry(w[0] * w[1:]) >= self.min_weight_product:
            raise ValueError(
                f"combination weights at n={n} violate the weight-product floor "
                f"{self.min_weight_product:g}"
            )
        return w


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
        jtx = PrimalPoint(gauge_coords(jmap.apply(x), q), space)
        worst = max(worst, lyapunov_phi(fixed_point, jtx) - lyapunov_phi(fixed_point, x))
    return worst
