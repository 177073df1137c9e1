"""Finite-dimensional p-norm space model.

R^d carries the p-norm for an exponent p in (1, infinity); its dual is R^d
with the conjugate q-norm, 1/p + 1/q = 1, paired by the ordinary dot
product.  The normalized duality map J sends a primal vector x to the dual
vector w with <x, w> = |x|_p^2 and |w|_q = |x|_p; in these coordinates it
has the analytic form

    (Jx)_i = |x|_p^(2-p) * |x_i|^(p-1) * sign(x_i),

with J0 = 0 by convention.  The inverse map is the duality map of the dual
space (exponent q).  For p = 2 both maps are the identity and the space is
Euclidean ("Hilbert mode").

The functional phi(x, y) = |x|^2 - 2<x, Jy> + |y|^2 plays the role of a
squared distance; it reduces to |x - y|^2 at p = 2 and is bounded between
(|x| - |y|)^2 and (|x| + |y|)^2 in general.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

EXPONENT_MIN = 1.1
EXPONENT_MAX = 10.0


@dataclass(frozen=True)
class SpaceConfig:
    """Dimension and norm exponent of the ambient space.

    The conjugate exponent is derived and stored.  Exponents outside
    [1.1, 10] are rejected: |t|^(p-1) becomes numerically treacherous
    beyond that band and the package's tolerances stop being meaningful.
    """

    dimension: int
    exponent: float
    conjugate: float = field(init=False)

    def __post_init__(self):
        if not isinstance(self.dimension, (int, np.integer)) or self.dimension < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dimension!r}")
        p = float(self.exponent)
        if not (EXPONENT_MIN <= p <= EXPONENT_MAX):
            raise ValueError(
                f"exponent must lie in [{EXPONENT_MIN}, {EXPONENT_MAX}], got {p}"
            )
        object.__setattr__(self, "dimension", int(self.dimension))
        object.__setattr__(self, "exponent", p)
        object.__setattr__(self, "conjugate", p / (p - 1.0))

    @property
    def is_hilbert(self) -> bool:
        return self.exponent == 2.0


class kept:
    """A value computed from its instance on first read and kept there.

    A non-data descriptor: the first read stores the value in the instance
    dict, which later reads find first.  The dict write bypasses a frozen
    dataclass's __setattr__.  Unlike functools.cached_property (Python
    3.11) it takes no lock; two threads reading a fresh instance at once
    would each compute the same value.
    """

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


def norm2(v: np.ndarray) -> float:
    """The Euclidean norm of a 1-D float array: np.linalg.norm(v) bit for bit.

    np.linalg.norm takes this same dot product and square root after about
    2 us of Python argument handling.
    """
    return math.sqrt(v.dot(v))


def norm2_rows(rows: np.ndarray) -> np.ndarray:
    """np.linalg.norm(rows, axis=1) of a 2-D float array, bit for bit."""
    return np.sqrt((rows * rows).sum(axis=1))


# The reductions below give the bits of numpy's ndarray reductions without
# numpy's ufunc.reduce machinery, which costs about 2 us a call on the
# package's 3- to 200-entry arrays; np.count_nonzero, argmax and argmin cost
# a third of that.  argmax and argmin return the first NaN, so a NaN
# propagates as it does in max and min.  One difference remains: where the
# largest (smallest) entry is a zero and the array holds both +0 and -0,
# argmax (argmin) takes the first of them, and the reduction may return the
# other sign.


def any_nonzero(a: np.ndarray) -> bool:
    """a.any(), bit for bit: np.count_nonzero counts NaN as nonzero, as any does."""
    return np.count_nonzero(a) != 0


def all_nonzero(a: np.ndarray) -> bool:
    """a.all(), bit for bit: every entry, NaN included, counts as nonzero."""
    return np.count_nonzero(a) == a.size


def all_finite(a: np.ndarray) -> bool:
    """np.isfinite(a).all(), bit for bit."""
    return np.count_nonzero(np.isfinite(a)) == a.size


def max_entry(a: np.ndarray, initial: float | None = None):
    """a.max(), or a.max(initial=initial), of a 1-D float array: the entry
    at a.argmax(), then initial where that is smaller (not NaN) or a is
    empty; equal bit for bit up to the sign of a zero."""
    if initial is None:
        return a[a.argmax()]
    if not a.size:
        return initial
    top = a[a.argmax()]
    return top if top >= initial or top != top else initial


def min_entry(a: np.ndarray, initial: float | None = None):
    """a.min(), or a.min(initial=initial), of a 1-D float array: the entry
    at a.argmin(), then initial where that is larger (not NaN) or a is
    empty; equal bit for bit up to the sign of a zero."""
    if initial is None:
        return a[a.argmin()]
    if not a.size:
        return initial
    low = a[a.argmin()]
    return low if low <= initial or low != low else initial


def row_max(m: np.ndarray, initial: float | None = None) -> np.ndarray:
    """m.max(axis=1), or m.max(axis=1, initial=initial), of a 2-D float
    array: each row's entry at m.argmax(axis=1), then np.maximum with
    initial, which keeps the row's entry on a tie as the reduction does; a
    matrix without columns gives initial in every row.  Equal bit for bit
    up to the sign of a zero."""
    if initial is not None and not m.shape[1]:
        return np.full(m.shape[0], initial)
    top = m[np.arange(m.shape[0]), m.argmax(axis=1)]
    return top if initial is None else np.maximum(initial, top)


def row_min(m: np.ndarray, initial: float | None = None) -> np.ndarray:
    """m.min(axis=1), or m.min(axis=1, initial=initial): row_max with
    argmin and np.minimum."""
    if initial is not None and not m.shape[1]:
        return np.full(m.shape[0], initial)
    low = m[np.arange(m.shape[0]), m.argmin(axis=1)]
    return low if initial is None else np.minimum(initial, low)


def _as_coords(values, dimension: int) -> np.ndarray:
    coords = np.asarray(values, dtype=float)
    if coords.shape != (dimension,):
        raise ValueError(f"expected a vector of length {dimension}, got shape {coords.shape}")
    if not all_finite(coords):
        raise ValueError("coordinates must be finite")
    coords = coords.copy()
    coords.setflags(write=False)
    return coords


@dataclass(frozen=True)
class PrimalPoint:
    """A point of the primal space, tagged with its space configuration.

    Its norm, its duality image and the Jacobian of the duality map at it
    are computed on first use and kept: the coordinates are read-only, so
    none can go stale, and every reader gets the value `pnorm`,
    `gauge_coords` or `duality_jacobian` returns on them.
    """

    coords: np.ndarray
    space: SpaceConfig

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_coords(self.coords, self.space.dimension))

    @kept
    def norm(self) -> float:
        return pnorm(self.coords, self.space.exponent)

    @kept
    def dual_coords(self) -> np.ndarray:
        """Read-only coordinates of Jx; at p = 2 they are `coords` itself."""
        if self.space.is_hilbert:
            return self.coords
        jx = gauge_coords(self.coords, self.space.exponent, self.norm)
        jx.setflags(write=False)
        return jx

    @kept
    def jacobian(self) -> np.ndarray:
        """Read-only Jacobian of the duality map at the point."""
        jac = duality_jacobian(self.coords, self.space.exponent, self.norm)
        jac.setflags(write=False)
        return jac


@dataclass(frozen=True)
class DualPoint:
    """A point of the dual space (q-norm side); houses values of J and of the maps T."""

    coords: np.ndarray
    space: SpaceConfig

    def __post_init__(self):
        object.__setattr__(self, "coords", _as_coords(self.coords, self.space.dimension))

    @kept
    def norm(self) -> float:
        return pnorm(self.coords, self.space.conjugate)


# A norm inside this band comes out of the plain power sum exact to
# rounding: for every exponent up to 11 (the conjugate of 1.1) the largest
# power |v_i|^e is then a normal float and the sum has not overflowed.
# Outside it the sum may have under- or overflowed.
_SAFE_MIN = 2.0**-80
_SAFE_MAX = 2.0**80


def pnorm(v: np.ndarray, exponent: float) -> float:
    """The exponent-norm of a raw coordinate vector, safe at extreme magnitudes.

    The plain power sum is kept whenever its result lies in the safe band;
    since max|v_i| <= |v| <= d^(1/e) max|v_i|, that is a band on the
    magnitude of v.  Otherwise v is scaled exactly by the power of two
    nearest its largest entry first (numpy may still report the overflow
    of the plain sum that this repairs).
    """
    if exponent == 2.0:
        nrm = norm2(v)
    else:
        nrm = float((np.abs(v) ** exponent).sum() ** (1.0 / exponent))
    if _SAFE_MIN <= nrm <= _SAFE_MAX:
        return nrm
    top = float(max_entry(np.abs(v), 0.0))
    if top == 0.0 or not np.isfinite(top):
        return nrm
    shift = int(np.frexp(top)[1])
    return float(np.ldexp(pnorm(np.ldexp(v, -shift), exponent), shift))


def row_dots(rows: np.ndarray, other: np.ndarray | None = None) -> np.ndarray:
    """np.dot(v, w) for each row v of a 2-D array, w = v or the vector
    `other`, bit for bit.

    A stacked matmul of (1, d) by (d, 1) blocks takes the same BLAS dot as
    the one-row call; rows @ rows.T and einsum sum in other orders.
    """
    right = rows[:, :, None] if other is None else np.asarray(other, dtype=float)[:, None]
    return np.matmul(rows[:, None, :], right)[:, 0, 0]


def pnorm_rows(rows: np.ndarray, exponent: float) -> np.ndarray:
    """pnorm of each row of a 2-D array, bit for bit.

    The 2-norm's dot products are `row_dots`; other exponents sum the powers
    along axis 1, the one-row sum's order, and take each root as a scalar
    power, since numpy's vectorized power rounds differently.  Rows outside
    the safe band go through pnorm one at a time.
    """
    if exponent == 2.0:
        norms = np.sqrt(row_dots(rows))
    else:
        inv = 1.0 / exponent
        sums = (np.abs(rows) ** exponent).sum(axis=1)
        norms = np.array([s**inv for s in sums.tolist()], dtype=float)
    if not (min_entry(norms, _SAFE_MIN) >= _SAFE_MIN and max_entry(norms, 0.0) <= _SAFE_MAX):
        outside = ~((norms >= _SAFE_MIN) & (norms <= _SAFE_MAX))
        for i in outside.nonzero()[0]:
            norms[i] = pnorm(rows[i], exponent)
    return norms


def pairing(primal: np.ndarray, dual: np.ndarray) -> float:
    """Canonical duality pairing <x, w> (the dot product in coordinates)."""
    return float(np.dot(primal, dual))


def gauge_coords(v: np.ndarray, exponent: float, nrm: float | None = None) -> np.ndarray:
    """Coordinates of the normalized duality map for the given norm exponent.

    Total on finite inputs; maps 0 to 0 explicitly, guarding the
    |v|^(2 - exponent) prefactor, which is 0 to a negative power when
    exponent > 2.  Outside pnorm's safe band the map is evaluated as
    |v| (|v_i| / |v|)^(exponent - 1) sign(v_i), whose factors stay finite.
    nrm, when given, is pnorm(v, exponent) and is not computed again.
    """
    if exponent == 2.0:
        return np.array(v, dtype=float)
    if nrm is None:
        nrm = pnorm(v, exponent)
    if nrm == 0.0:
        return np.zeros(np.shape(v))
    if not _SAFE_MIN <= nrm <= _SAFE_MAX:
        return nrm * (np.abs(v) / nrm) ** (exponent - 1.0) * np.sign(v)
    return nrm ** (2.0 - exponent) * np.abs(v) ** (exponent - 1.0) * np.sign(v)


def duality_map(x: PrimalPoint) -> DualPoint:
    """The normalized duality map J: primal -> dual.

    Satisfies <x, Jx> = |x|_p^2 and |Jx|_q = |x|_p; identity at p = 2.
    """
    return DualPoint(x.dual_coords, x.space)


def inverse_duality_map(w: DualPoint) -> PrimalPoint:
    """The inverse duality map J* = J^{-1}: dual -> primal (duality map of the dual)."""
    return PrimalPoint(gauge_coords(w.coords, w.space.conjugate), w.space)


def duality_jacobian(v: np.ndarray, exponent: float, nrm: float | None = None) -> np.ndarray:
    """Jacobian of the duality map at v (the Hessian of 0.5 * |.|_p^2).

    Symmetric positive semidefinite; undefined at v = 0 (the map is only
    positively homogeneous there), where the zero matrix is returned as a
    usable surrogate for gradient-based inner solvers.  J is positively
    homogeneous of degree 1, so its Jacobian is of degree 0: outside
    pnorm's safe band it is evaluated at v scaled exactly by a power of
    two to unit norm, where its factors neither overflow nor underflow.
    nrm, when given, is pnorm(v, exponent) and is not computed again.
    """
    v = np.asarray(v, dtype=float)
    d = v.shape[0]
    if exponent == 2.0:
        return np.eye(d)
    if nrm is None:
        nrm = pnorm(v, exponent)
    if nrm == 0.0:
        return np.zeros((d, d))
    if not _SAFE_MIN <= nrm <= _SAFE_MAX and np.isfinite(nrm):
        return duality_jacobian(np.ldexp(v, -int(np.frexp(nrm)[1])), exponent)
    s = np.abs(v) ** (exponent - 1.0) * np.sign(v)
    diag = (exponent - 1.0) * nrm ** (2.0 - exponent) * np.abs(v) ** (exponent - 2.0)
    jac = (2.0 - exponent) * nrm ** (2.0 - 2.0 * exponent) * (s[:, None] * s)
    jac[np.diag_indices(d)] += diag
    return jac


def phi_coords(xc: np.ndarray, yc: np.ndarray, exponent: float) -> float:
    """phi on raw coordinates: |x|^2 - 2 <x, Jy> + |y|^2 with the p-norm."""
    jy = gauge_coords(yc, exponent)
    return _phi(xc, pnorm(xc, exponent), jy, pnorm(yc, exponent))


def _phi(xc: np.ndarray, nx: float, jy: np.ndarray, ny: float) -> float:
    """phi from x's coordinates and norm and y's duality image and norm."""
    return nx * nx - 2.0 * float(np.dot(xc, jy)) + ny * ny


def lyapunov_phi(x: PrimalPoint, y: PrimalPoint) -> float:
    """The Lyapunov functional phi(x, y); nonnegative, zero iff x = y.

    Lies in [(|x| - |y|)^2, (|x| + |y|)^2] and equals |x - y|^2 at p = 2.
    Reads the points' kept norms and y's kept duality image.
    """
    if x.space != y.space:
        raise ValueError("x and y must live in the same space")
    return _phi(x.coords, x.norm, y.dual_coords, y.norm)
