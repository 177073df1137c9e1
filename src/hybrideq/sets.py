"""Convex feasible sets: base shapes, halfspace cuts, and their projections.

A ConstraintSet is a base convex set intersected with an ordered list of
halfspace cuts, tagged with the frame (primal or dual coordinates) it lives
in.  `project_intersection` finds the nearest point of such a set in the
geometry of an exponent p, the minimizer of |w|_q^2 - 2 <v, w>, which is
the Euclidean projection at p = 2.  Two exact engines, each closed by a
KKT check, serve it: a working-set Newton on the cut multipliers, run at
unit scale, for every set at p != 2 and for a 2-ball ∩ cuts whose ball
is active at p = 2; and at p = 2 a least-distance program solved through
NNLS for the polyhedron of the linear rows.  A set without cuts is
projected in closed form, or by a scalar multiplier search onto an
e-ball (`project_primitive`).

Each set stores its cuts' unit rows and levels once; `add_cut` extends
that store, and both engines read it.  The NNLS engine can start from a
hint of cuts, the active cuts of a previous projection, which the outer
loop passes from one retraction of its fixed anchor to the next together
with the cut it has just added.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Union

import numpy as np
from numpy.linalg._umath_linalg import lstsq as _lstsq_gufunc

from .errors import InfeasibleError, NonConvergedError, UnsupportedCombinationError
from .space import (
    PrimalPoint,
    all_finite,
    all_nonzero,
    any_nonzero,
    duality_jacobian,
    gauge_coords,
    kept,
    max_entry,
    min_entry,
    norm2,
    norm2_rows,
    pnorm,
    pnorm_rows,
    row_max,
    row_min,
)

# Halfspace cuts whose unit normals differ by less than this chord length are
# treated as parallel for pruning purposes.
_PARALLEL_CHORD = 1e-9

# np.finfo(float).eps, read once for the NNLS tolerances, the least-squares
# cutoff and the pull-back
_EPS = float(np.finfo(float).eps)


def _lstsq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.lstsq(a, b, rcond=None)[0] for a float matrix a with rows and a float vector b.

    Calls the LAPACK least-squares gufunc that np.linalg.lstsq calls, with
    its rcond and floating-point error state, so the answer is the same
    bits; numpy's argument handling around the gufunc cost about a third of
    a solve on these small matrices.  An SVD that does not converge (a NaN
    in a) raises LinAlgError, as np.linalg.lstsq does, and so does an inf in
    a, which is refused before the call: LAPACK's dgelsd can spin on one
    without returning.
    """
    if not all_finite(a):
        raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
    with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
        try:
            x = _lstsq_gufunc(a, b[:, None], _EPS * max(a.shape), signature="ddd->ddid")[0]
        except FloatingPointError:
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares") from None
    return x[:, 0]


class Frame(enum.Enum):
    PRIMAL = "primal"
    DUAL = "dual"


@dataclass(frozen=True)
class Halfspace:
    """The set {v : <normal, v> <= offset} in the tagged frame."""

    normal: np.ndarray
    offset: float
    frame: Frame = Frame.PRIMAL

    def __post_init__(self):
        normal = np.asarray(self.normal, dtype=float).copy()
        if normal.ndim != 1 or not any_nonzero(normal):
            raise ValueError("halfspace normal must be a nonzero vector")
        normal.setflags(write=False)
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", float(self.offset))

    def violation(self, v: np.ndarray) -> float:
        return float(np.dot(self.normal, v)) - self.offset


@dataclass(frozen=True)
class PBall:
    """Norm ball {v : |v|_e <= radius} for the stored norm exponent e."""

    radius: float
    exponent: float
    frame: Frame = Frame.PRIMAL

    def __post_init__(self):
        if not self.radius > 0:  # NaN fails too
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray
    frame: Frame = Frame.PRIMAL

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float).copy()
        upper = np.asarray(self.upper, dtype=float).copy()
        if lower.shape != upper.shape or not (lower <= upper).all():  # NaN fails too
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @kept
    def _faces(self) -> tuple:
        """The faces as read-only unit rows (I; -I) and levels (upper; -lower),
        built on the first projection that reads them."""
        eye = np.eye(self.lower.shape[0])
        rows, levels = np.concatenate((eye, -eye)), np.concatenate((self.upper, -self.lower))
        rows.setflags(write=False)
        levels.setflags(write=False)
        return rows, levels


@dataclass(frozen=True)
class WholeSpace:
    frame: Frame = Frame.PRIMAL


BaseSet = Union[PBall, Box, WholeSpace]


def _unit_rows(normals: np.ndarray, offsets: np.ndarray):
    """Cuts a z <= b scaled to unit rows: (a / |a_i|, b / |a_i|), row by row."""
    norms = norm2_rows(normals)
    return normals / norms[:, None], offsets / norms


def _index(cuts: tuple) -> dict:
    """id(cut) -> position, for each cut of the tuple."""
    return {id(cut): k for k, cut in enumerate(cuts)}


def _base_dimension(base) -> int | None:
    """The dimension a box base fixes; None for the other bases."""
    return base.lower.shape[0] if isinstance(base, Box) else None


def _fitting_dimension(dim: int | None, cut: Halfspace) -> int:
    """The cut's dimension, which must be dim unless dim is None."""
    size = cut.normal.shape[0]
    if dim is not None and size != dim:
        raise ValueError(f"a cut of dimension {size} does not fit a set of dimension {dim}")
    return size


@dataclass(frozen=True)
class ConstraintSet:
    """base intersected with all cuts; every member shares the frame tag.

    The set keeps a store of its cuts as stacked arrays, built once here
    and extended row by row by `add_cut`: the raw normals and offsets
    (`worst_violation` and the audit pull-back read them), the unit
    rows and levels the exact engines read, and an index from each cut's
    identity to its position, which matches a hint's cuts to rows.  Every
    cut must have the dimension of the others and of a box base.
    """

    base: BaseSet
    cuts: tuple = ()
    frame: Frame = Frame.PRIMAL

    # the cut store; a set without cuts keeps these class defaults
    _cut_normals = _cut_offsets = _cut_rows = _cut_levels = None
    # the set holds its cuts, so no id in the index is reused while it lives
    _cut_index = MappingProxyType({})

    def __post_init__(self):
        cuts = tuple(self.cuts)
        if self.base.frame != self.frame:
            raise ValueError("base set frame does not match the constraint-set frame")
        object.__setattr__(self, "cuts", cuts)
        if not cuts:
            return
        dim = _base_dimension(self.base)
        for cut in cuts:
            if cut.frame != self.frame:
                raise ValueError("cut frame does not match the constraint-set frame")
            dim = _fitting_dimension(dim, cut)
        normals = np.stack([c.normal for c in cuts])
        offsets = np.array([c.offset for c in cuts])
        self._store(normals, offsets, *_unit_rows(normals, offsets), _index(cuts))

    def _store(self, normals, offsets, rows, levels, index):
        object.__setattr__(self, "_cut_normals", normals)
        object.__setattr__(self, "_cut_offsets", offsets)
        object.__setattr__(self, "_cut_rows", rows)
        object.__setattr__(self, "_cut_levels", levels)
        object.__setattr__(self, "_cut_index", index)

    @classmethod
    def _with_store(cls, base: BaseSet, cuts: tuple, frame: Frame, store: tuple):
        """The set base ∩ cuts with a ready store (normals, offsets, rows,
        levels, one row per cut, and the cuts' identity index).

        `add_cut` builds its result here, having checked the new cut's frame
        and dimension; this skips __post_init__, whose checks and re-stack
        the old cuts already passed.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "base", base)
        object.__setattr__(out, "cuts", cuts)
        object.__setattr__(out, "frame", frame)
        out._store(*store)
        return out


def worst_violation(
    cset: ConstraintSet, v: np.ndarray, nrm: float | None = None, exponent: float | None = None
) -> float:
    """Largest constraint violation of v (<= 0 when v is feasible).

    nrm, when given, is pnorm(v, exponent), a norm the caller keeps; a
    p-ball base of that exponent reads it in place of computing it again,
    and a base of any other exponent does not.
    """
    v = np.asarray(v, dtype=float)
    base = cset.base
    if isinstance(base, PBall):
        if nrm is None or base.exponent != exponent:
            nrm = pnorm(v, base.exponent)
        worst = nrm - base.radius
    elif isinstance(base, Box):
        worst = float(max_entry(np.maximum(base.lower - v, v - base.upper), -np.inf))
    else:
        worst = -np.inf
    if cset.cuts:
        cut = float(max_entry(cset._cut_normals @ v - cset._cut_offsets))
        if cut > worst or cut != cut:  # max(worst, cut) would drop a NaN cut
            worst = cut
    return worst


def _row_violations(cset: ConstraintSet, rows: np.ndarray) -> np.ndarray:
    """worst_violation of each row of a 2-D array, bit for bit.

    Norms come from pnorm_rows and the cut products from one stacked
    matmul of (m, d) by (d, 1) blocks, the BLAS product a single
    `normals @ v` takes, where rows @ normals.T would sum in another order.
    worst_violation stays a one-vector function: the audits call it once
    per point, and this batch form costs twice as much on one row.
    """
    base = cset.base
    if isinstance(base, PBall):
        worst = pnorm_rows(rows, base.exponent) - base.radius
    elif isinstance(base, Box):
        worst = row_max(np.maximum(base.lower - rows, rows - base.upper), -np.inf)
    else:
        worst = np.full(rows.shape[0], -np.inf)
    if cset.cuts:
        products = np.matmul(cset._cut_normals[None], rows[:, :, None])[..., 0]
        worst = np.maximum(worst, row_max(products - cset._cut_offsets))
    return worst


def add_cut(cset: ConstraintSet, cut: Halfspace) -> ConstraintSet:
    """Append a halfspace cut, pruning cuts dominated along the same direction.

    Two cuts with unit normals within chord 1e-9 of each other are nested;
    only the one with the smaller level (offset over normal length, the
    stronger constraint) is kept: when an old near-parallel cut has a level
    at most the new one's, the set is returned unchanged, and otherwise
    every near-parallel old cut is dropped.  The test is one pass over the
    stored unit rows, and the new set's store is the old one's surviving
    rows followed by the new cut's row; its identity index is the old one
    plus the new cut, rebuilt only when cuts were dropped.  Raises
    ValueError when the cut's frame or dimension does not match the set's.
    """
    if cut.frame != cset.frame:
        raise ValueError("cut frame does not match the constraint-set frame")
    dim = cset._cut_normals.shape[1] if cset.cuts else _base_dimension(cset.base)
    _fitting_dimension(dim, cut)
    normal, offset = cut.normal[None, :], np.array([cut.offset])
    row, level = _unit_rows(normal, offset)
    cuts, store = cset.cuts, (normal, offset, row, level)
    if cuts:
        near = norm2_rows(cset._cut_rows - row) <= _PARALLEL_CHORD
        if any_nonzero(cset._cut_levels[near] <= level[0]):
            return cset  # an existing cut already dominates the new one
        old = (cset._cut_normals, cset._cut_offsets, cset._cut_rows, cset._cut_levels)
        if any_nonzero(near):  # the new cut dominates these; drop them
            cuts = tuple(itertools.compress(cuts, ~near))
            old = tuple(x[~near] for x in old)
        store = tuple(np.concatenate(pair) for pair in zip(old, store))
    if len(cuts) == len(cset.cuts):
        index = dict(cset._cut_index)
        index[id(cut)] = len(cuts)
    else:
        index = _index(cuts + (cut,))
    cuts += (cut,)
    return ConstraintSet._with_store(cset.base, cuts, cset.frame, store + (index,))


# -- primitive projections ---------------------------------------------------


def _shrink_coords(vabs: np.ndarray, lam: float, e: float) -> np.ndarray:
    """Solve t + lam*e*t^(e-1) = vabs coordinatewise for t in [0, vabs].

    lam > 0 and e != 2 (_project_pball scales a 2-ball radially).  Closed
    forms for e in {1.5, 3}; safeguarded Newton/bisection otherwise,
    raising NonConvergedError at its 100-iteration cap.  For e > 2 the left
    side is convex in t, so Newton starts from the upper bound
    min(vabs, (vabs / (lam e))^(1/(e-1))) and descends monotonically to the
    root.  This is the coordinatewise stationarity condition of the
    Euclidean projection onto an e-norm ball.
    """
    if e == 1.5:
        # quadratic in s = sqrt(t): s^2 + 1.5*lam*s - vabs = 0
        # (rationalized root; the textbook form cancels catastrophically)
        b = 1.5 * lam
        s = 2.0 * vabs / (b + np.sqrt(b * b + 4.0 * vabs))
        return s * s
    if e == 3.0:
        # quadratic in t: 3*lam*t^2 + t - vabs = 0 (rationalized root)
        return 2.0 * vabs / (1.0 + np.sqrt(1.0 + 12.0 * lam * vabs))
    lo = np.zeros(vabs.shape)
    hi = vabs.copy()
    if e >= 2.0:
        t = np.minimum(vabs, (vabs / (lam * e)) ** (1.0 / (e - 1.0)))
    else:
        t = 0.5 * vabs
    for _ in range(100):
        g = t + lam * e * np.where(t > 0, t, 1.0) ** (e - 1.0) - vabs
        g = np.where(vabs == 0.0, 0.0, g)
        lo = np.where(g < 0, t, lo)
        hi = np.where(g > 0, t, hi)
        dg = 1.0 + lam * e * (e - 1.0) * np.where(t > 0, t, 1.0) ** (e - 2.0)
        step = np.where(vabs == 0.0, 0.0, g / dg)
        t_new = t - step
        # a step that rounds to nothing has converged; do not bisect it away
        bad = ((t_new <= lo) | (t_new >= hi)) & (t_new != t)
        t_new = np.where(bad, 0.5 * (lo + hi), t_new)
        if (np.abs(t_new - t) <= 1e-15 * (1.0 + t_new)).all():
            return np.where(vabs == 0.0, 0.0, t_new)
        t = t_new
    raise NonConvergedError("p-ball projection: coordinate Newton iteration cap reached")


def _project_pball(v: np.ndarray, ball: PBall) -> np.ndarray:
    """Euclidean projection onto an e-norm ball.

    Solves sum_i t_i(lam)^e = R^e for the multiplier lam by a doubling
    bracket from a radial-scaling guess, followed by bisection-safeguarded
    Newton, tolerance 1e-12 max(lam, radius^(2-e)) on the multiplier.  The
    point returned lies in the ball: one the multiplier's tolerance leaves
    outside is scaled back onto the sphere.
    """
    e = ball.exponent
    radius = ball.radius
    nrm = pnorm(v, e)
    if nrm <= radius:
        return np.array(v, dtype=float)
    if e == 2.0:
        return v * (radius / nrm)
    vabs = np.abs(v)
    target = radius**e

    def excess(lam):
        return float((_shrink_coords(vabs, lam, e) ** e).sum()) - target

    # radial-scaling guess from the largest coordinate's equation
    vmax = float(vabs.max())
    t_guess = max(vmax * radius / nrm, 1e-30)
    lo, hi = 0.0, max((vmax - t_guess) / (e * t_guess ** (e - 1.0)), 1e-8)
    iters = 0
    while excess(hi) > 0.0:
        lo, hi = hi, hi * 4.0
        iters += 1
        if iters >= 200:
            raise NonConvergedError("p-ball projection: multiplier bracket did not close")
    lam = 0.5 * (lo + hi)
    # the multiplier scales as radius^(2-e) when v and the ball scale together
    unit = radius ** (2.0 - e)
    for _ in range(200):
        t = _shrink_coords(vabs, lam, e)
        g = float((t**e).sum()) - target
        if g > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-12 * max(unit, lam):
            break
        # Newton step on the multiplier, clipped into the bracket
        pos = t > 0
        tp = t[pos]
        dt = -e * tp ** (e - 1.0) / (1.0 + lam * e * (e - 1.0) * tp ** (e - 2.0))
        dg = float((e * tp ** (e - 1.0) * dt).sum())
        lam_new = lam - g / dg if dg != 0.0 else 0.5 * (lo + hi)
        if not (lo < lam_new < hi):
            lam_new = 0.5 * (lo + hi)
        if abs(lam_new - lam) <= 1e-12 * max(unit, lam):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise NonConvergedError("p-ball projection: multiplier iteration cap reached")
    t = _shrink_coords(vabs, lam, e)
    # a multiplier settled to 1e-12 can leave t outside the ball by as much;
    # a search over the ball must not step out of it, so scale t back onto
    # the sphere
    t_nrm = pnorm(t, e)
    if t_nrm > radius:
        t = t * (radius / t_nrm)
    return np.sign(v) * t


def project_primitive(v: np.ndarray, primitive) -> np.ndarray:
    """Euclidean-nearest point of a halfspace, box, whole space, or norm ball."""
    v = np.asarray(v, dtype=float)
    if isinstance(primitive, Halfspace):
        gap = primitive.violation(v)
        if gap <= 0.0:
            return v.copy()
        return v - (gap / float(np.dot(primitive.normal, primitive.normal))) * primitive.normal
    if isinstance(primitive, Box):
        return np.minimum(np.maximum(v, primitive.lower), primitive.upper)
    if isinstance(primitive, WholeSpace):
        return v.copy()
    if isinstance(primitive, PBall):
        return _project_pball(v, primitive)
    raise TypeError(f"cannot project onto {type(primitive).__name__}")


def _linear_rows(cset: ConstraintSet, dim: int):
    """The linear constraints of the set as unit rows (A, b): A z <= b.

    The cuts' unit rows come from the set's store; a box base prepends the
    faces it keeps as +/- unit rows, and a ball base contributes nothing
    (its boundary is not linear; the exact engines carry it separately).
    """
    base = cset.base
    if isinstance(base, Box):
        rows, levels = base._faces
        if cset.cuts:
            rows = np.concatenate((rows, cset._cut_rows))
            levels = np.concatenate((levels, cset._cut_levels))
        return rows, levels
    if cset.cuts:
        return cset._cut_rows, cset._cut_levels
    return np.zeros((0, dim)), np.zeros(0)


def _hint_rows(cset: ConstraintSet, hint, count: int):
    """Mask over the `count` engine rows (box faces first) of the hint's cuts.

    Cuts are matched by identity through the set's index, so a cut pruned
    from the set since the hint was taken is skipped, never mistaken for
    another; None when the hint is empty.
    """
    if not hint:
        return None
    where = cset._cut_index
    first = count - len(cset.cuts)
    start = np.zeros(count, dtype=bool)
    for cut in hint:
        k = where.get(id(cut))
        if k is not None:
            start[first + k] = True
    return start


def _active_cuts(cset: ConstraintSet, lam: np.ndarray) -> tuple:
    """The set's cuts whose multipliers in lam (box faces first) are positive."""
    return tuple(itertools.compress(cset.cuts, lam[lam.shape[0] - len(cset.cuts) :] > 0.0))


# -- exact least-distance engine (p = 2, the polyhedron of the linear rows) ----


def _nnls(e: np.ndarray, f: np.ndarray, start: np.ndarray | None = None):
    """Lawson-Hanson active-set NNLS: argmin |E u - f| over u >= 0.

    Returns (u, f - E u).  A column whose entry would enter the passive set
    with a nonpositive value through rounding is skipped until the next
    exchange (Lawson & Hanson 1974, ch. 23).  Raises NonConvergedError at
    the exchange cap.

    `start`, a boolean mask over the columns, warm-starts the passive set
    (Bro & De Jong, J. Chemometrics 11, 1997): the least-squares solution
    on those columns is solved, and while a coefficient is not positive
    the column of the smallest one is dropped and the rest re-solved; that
    feasible point is where the exchanges begin.  One column leaves per
    re-solve because a column that turns positive once a worse one has
    left would otherwise leave with it and take exchanges to come back.
    The answer is the least-squares solution on the sorted final passive
    set, so a start that ends on the cold start's passive set returns its
    answer bit for bit, after one least-squares solve when it holds
    exactly that set.
    """
    n = e.shape[1]
    u = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    resid = np.array(f)
    idx = start.nonzero()[0] if start is not None else np.zeros(0, dtype=int)
    while idx.size:
        s = _lstsq(e[:, idx], f)
        k = int(s.argmin())
        if s[k] > 0.0:
            u[idx] = s
            passive[idx] = True
            resid = f - e @ u
            break
        idx = np.concatenate((idx[:k], idx[k + 1 :]))
    tol = 10.0 * max(e.shape) * _EPS
    for _ in range(3 * n + 30):
        w = e.T @ resid
        w[passive | blocked] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            return u, resid
        trial = passive.copy()
        trial[j] = True
        idx = trial.nonzero()[0]
        s = _lstsq(e[:, idx], f)
        if s[idx.searchsorted(j)] <= 0.0:
            blocked[j] = True
            continue
        blocked[:] = False
        passive = trial
        while s.size and min_entry(s) <= 0.0:
            # step from u toward s until the first passive entry reaches 0
            neg = s <= 0.0
            ratios = u[idx][neg] / (u[idx][neg] - s[neg])
            k = int(ratios.argmin())
            u[idx] += ratios[k] * (s - u[idx])
            u[idx[neg.nonzero()[0][k]]] = 0.0
            passive &= u > 0.0
            u[~passive] = 0.0
            idx = passive.nonzero()[0]
            s = _lstsq(e[:, idx], f)
        u[:] = 0.0
        u[idx] = s
        resid = f - e @ u
    raise NonConvergedError("NNLS exchange cap reached")


def _ldp(a: np.ndarray, b: np.ndarray, v: np.ndarray, start: np.ndarray | None = None):
    """Nearest point of {z : a z <= b} to v and the multipliers of the rows.

    Least-distance programming through NNLS (Lawson & Hanson 1974, ch. 23):
    with h = (a v - b) / s for s = max(a v - b), the NNLS solution u of
    [-a^T; h^T] u ~ e_{d+1} gives lam = s u / |r|^2 and z = v - a^T lam,
    where r is the NNLS residual.  A zero residual certifies that the rows
    are inconsistent.  InfeasibleError is raised once |r|^2 <= 1e3 eps:
    then the nearest point would lie over 10^6 times the largest row
    violation away, and lam would carry a relative error eps / |r|^2 of
    over 0.1 %, so the set is empty or numerically unreachable.  `start`,
    a boolean mask over the rows, warm-starts the NNLS passive set.
    """
    excess = a @ v - b
    shift = float(max_entry(excess, 0.0))
    if shift <= 0.0:
        return np.array(v), np.zeros(b.shape[0])
    e = np.concatenate((-a.T, (excess / shift)[None, :]))
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    u, resid = _nnls(e, f, start)
    rr = float(np.dot(resid, resid))
    if rr <= 1e3 * _EPS:
        raise InfeasibleError("the cut rows admit no common point")
    lam = (shift / rr) * u
    return v - a.T @ lam, lam


def _kkt_residual(
    a,
    b,
    v,
    z,
    lam,
    nu: float = 0.0,
    radius: float | None = None,
    exponent: float = 2.0,
    nz: float | None = None,
) -> float:
    """Largest KKT violation of (z, lam, nu) for min |z|_q^2 - 2 <v, z> over
    a z <= b (and |z|_q <= radius when given), q the conjugate of exponent;
    at exponent 2 that is min |z - v|^2.  nu and the radius come from the
    multiplier Newton; an answer of the NNLS engine has neither.

    Stationarity is (1 + nu) J_q(z) - v + a^T lam = 0, J_q the duality map
    of the q-norm (the identity at q = 2); each constraint contributes the
    natural residual |min(multiplier, slack)|, which vanishes iff the
    multiplier is nonnegative, the constraint holds, and one of the two is
    zero.  nz, when given, is pnorm(z, q) and is not computed again.
    """
    q = exponent / (exponent - 1.0)
    if nz is None and radius is not None:
        nz = pnorm(z, q)
    gz = gauge_coords(z, q, nz)
    worst = max(
        float(max_entry(np.abs(gz - v + nu * gz + a.T @ lam))),
        float(max_entry(np.abs(np.minimum(lam, b - a @ z)), 0.0)),
    )
    if radius is not None:
        worst = max(worst, abs(min(nu * nz, radius - nz)))
    return worst


def _certify(resid: float, v: np.ndarray, tol: float) -> None:
    """The KKT gate: NonConvergedError unless resid <= max(10 tol, 1e-10) (1 + |v|)."""
    if not resid <= max(10.0 * tol, 1e-10) * (1.0 + norm2(v)):
        raise NonConvergedError(f"exact projection failed its KKT check (residual {resid:.3g})")


def _least_distance(cset: ConstraintSet, v: np.ndarray, tol: float, hint: tuple = ()):
    """Exact Euclidean projection onto a box, whole-space or 2-ball base ∩ cuts.

    Box faces join the cuts as +/- unit rows, and the NNLS of that
    polyhedron's least-distance program starts from the rows of the hint's
    cuts.  A 2-ball adds no row: when the polyhedron's nearest point lies
    outside it, the ball is active, and the multiplier Newton answers the
    set (`_generalized_projection` at exponent 2).  Returns (z, KKT
    residual of the answer, the cuts with positive multipliers) once the
    answer has passed the KKT gate at tol.
    """
    a, b = _linear_rows(cset, v.shape[0])
    z, lam = _ldp(a, b, v, _hint_rows(cset, hint, a.shape[0]))
    if isinstance(cset.base, PBall) and norm2(z) > cset.base.radius:
        return _generalized_projection(cset, v, 2.0, tol)
    # an inactive ball's natural residual min(0, radius - |z|) is 0
    resid = _kkt_residual(a, b, v, z, lam)
    _certify(resid, v, tol)
    return z, resid, _active_cuts(cset, lam)


# -- exact generalized projection (p-geometry) ---------------------------------

# A row entering the working set whose residual against the working columns is
# at most this is traded for a working multiplier instead of being added: a
# pair of nearly parallel cuts in the Newton system would leave it singular.
_DEPENDENT_RESIDUAL = 1e-5


def _dual_hessian(
    cols: np.ndarray,
    c: np.ndarray,
    s: float,
    exponent: float,
    nc: float | None = None,
    point: PrimalPoint | None = None,
) -> np.ndarray:
    """Hessian 2 s B^T H B of the cut-multiplier dual on the working columns B.

    H is the Jacobian of the duality map at c.  Below exponent 2 it is
    infinite where c_i = 0, so |c_i| is floored at 1e-150 max|c| there.
    nc, when given, is pnorm(c, exponent), and the Jacobian reuses it;
    point, when given, has the coordinates c, and its kept Jacobian is
    read.  A c the floor moved gets its own norm and Jacobian, so the
    result is the same bit for bit either way.
    """
    if exponent < 2.0:
        floor = 1e-150 * float(max_entry(np.abs(c)))
        low = np.abs(c) < floor
        if any_nonzero(low):
            c, nc, point = np.where(low, np.copysign(floor, c), c), None, None
    jac = duality_jacobian(c, exponent, nc) if point is None else point.jacobian
    return 2.0 * s * (cols.T @ jac @ cols)


def _multiplier_newton(
    a: np.ndarray,
    b: np.ndarray,
    v: np.ndarray,
    exponent: float,
    radius,
    point: PrimalPoint | None = None,
):
    """Minimizer of |w|_q^2 - 2 <v, w> over {a w <= b}, and over |w|_q <= radius
    when a radius is given, q the conjugate of exponent: (w, lam, mu, |w|_q),
    the last None unless the final ball check computed it.

    The rows of a are unit vectors.  For cut multipliers lam >= 0 and a
    ball multiplier mu >= 0 the inner minimizer is explicit,
    w = J_p(c) / (1 + mu) with c = v - a^T lam, which leaves the smooth
    convex dual

        F(lam, mu) = |c|_p^2 / (1 + mu) + 2 lam^T b + mu radius^2

    with gradient (2 (b - a w), radius^2 - |w|_q^2).  A dual working-set
    method minimizes it (Goldfarb & Idnani, Math. Prog. 27, 1983): Newton
    steps with an Armijo search on the working set, each clipped where a
    working multiplier first reaches 0, which then leaves the set; once the
    working equations hold, the most violated constraint enters.  A row
    that depends on the working columns (ball column c included) enters by
    exchange: multiplier moves onto it along the direction that keeps w
    fixed until a working multiplier reaches 0, and that one leaves.  The
    trial a line search accepts is the next step's dual: its c, |c|_p and F
    are not evaluated again, and |c|_p goes into J and its Jacobian.

    point, when given, is v as a PrimalPoint of a space of this exponent,
    with v its coordinates.  Its kept norm, duality image and Jacobian
    serve v and the dual at lam = 0, whose c = v - a^T 0 equals v.  They
    are read there only when c also has v's bytes (it may differ in the
    sign of a zero), so the answer is the same bit for bit with or
    without point.

    Below exponent 2 the map c -> w has slope |c_i|^(p - 2): the rounding of
    c reaches w magnified by 10^8 and more, and at a vertex w is lost
    altogether.  There the working set is solved by Newton on its KKT
    equations in (w, lam, mu), (1 + mu) J_q(w) + a_W^T lam = v, a_W w = b_W
    and |w|_q = radius, whose J_q at q > 2 has bounded slope.  Its answer
    is taken when its multipliers are nonnegative; otherwise the dual
    Newton solves the working set, and the KKT Newton finishes from there.

    Raises InfeasibleError when the dual is unbounded below, that is when an
    exchange finds no multiplier to trade or F falls below the bound that
    weak duality gives over the ball, and NonConvergedError at the
    working-set change cap.
    """
    m = a.shape[0]
    q = exponent / (exponent - 1.0)
    scale = 1.0 + norm2(v)
    r2 = 0.0 if radius is None else radius * radius
    # h(w) <= radius^2 + 2 |v|_p radius on the ball and -F <= h(w) at every
    # feasible w, so F below this bound certifies an empty set
    f_floor = -np.inf
    if radius is not None:
        nv = pnorm(v, exponent) if point is None else point.norm
        f_floor = -(1.0 + 1e-9) * (r2 + 2.0 * nv * radius) - 1e-12 * scale
    lam = np.zeros(m)
    mu = 0.0
    work = []  # working cut rows
    ball = False  # whether the ball constraint is working

    def dual(lam_, mu_):
        """(c, |c|_p, F); c is v itself where point's kept values serve it."""
        c = v - a.T @ lam_
        if point is not None and not any_nonzero(lam_) and c.tobytes() == v.tobytes():
            c, nc = v, point.norm
        else:
            nc = pnorm(c, exponent)
        return c, nc, nc * nc / (1.0 + mu_) + 2.0 * float(lam_ @ b) + mu_ * r2

    def multipliers():
        z = lam[work]
        return np.concatenate((z, [mu])) if ball else z

    def set_multipliers(z):
        nonlocal mu
        lam[work] = z[: len(work)]
        mu = float(z[-1]) if ball else 0.0

    def drop(k):
        nonlocal ball, mu
        if k == len(work):
            ball, mu = False, 0.0
        else:
            lam[work[k]] = 0.0
            del work[k]

    def newton_on_working_set():
        """Dual Newton until the working equations hold or stop improving.

        Each step starts from the dual (c, |c|_p, F) of the trial its line
        search accepted, which is the dual at the multipliers it set."""
        best, f_best, stalls = np.inf, np.inf, 0
        c, nc, f = dual(lam, mu)
        for _ in range(500):
            s = 1.0 / (1.0 + mu)
            w = s * (point.dual_coords if c is v else gauge_coords(c, exponent, nc))
            rows = a[work]
            resid = b[work] - rows @ w
            grad = 2.0 * resid
            cols = rows.T
            err = float(max_entry(np.abs(resid), 0.0))
            if ball:
                grad = np.concatenate((grad, [r2 - (s * nc) ** 2]))
                cols = np.concatenate((cols, (s * c)[:, None]), axis=1)
                err = max(err, abs(radius - s * nc))
            if err <= 1e-14 * scale:
                return w, True
            if err < best or f < f_best - 1e-13 * abs(f):
                best, f_best, stalls = min(err, best), min(f, f_best), 0
            else:
                stalls += 1
                if stalls >= 5:
                    return w, False
            hess = _dual_hessian(cols, c, s, exponent, nc, point if c is v else None)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                step = _lstsq(hess, -grad)
            slope = float(grad @ step)
            if not slope < 0.0:
                step = -grad
                slope = -float(grad @ grad)
            z = multipliers()
            shrink = (step < 0.0).nonzero()[0]
            ratios = z[shrink] / -step[shrink]
            block = int(shrink[ratios.argmin()]) if shrink.size else -1
            clipped = block >= 0 and ratios.min() <= 1.0
            alpha = float(ratios.min()) if clipped else 1.0
            for _ in range(60):
                trial = np.maximum(z + alpha * step, 0.0)
                if clipped:
                    trial[block] = 0.0
                lam_t = lam.copy()
                lam_t[work] = trial[: len(work)]
                c_t, nc_t, f_t = dual(lam_t, float(trial[-1]) if ball else 0.0)
                # the last term admits steps whose change is rounding noise
                if f_t <= f + 1e-4 * alpha * slope + 1e-14 * abs(f):
                    break
                alpha *= 0.5
                clipped = False
            else:
                return w, False
            set_multipliers(trial)
            c, nc, f = c_t, nc_t, f_t
            if f_t < f_floor:
                raise InfeasibleError("the cuts admit no point of the ball")
            if clipped:
                drop(block)
                best, f_best, stalls = np.inf, np.inf, 0
        return w, False

    def kkt_newton_on_working_set(w):
        """Newton on the working KKT equations from w.  Once they hold within
        1e-15 (1 + |v|) with nonnegative multipliers, those are kept and the
        solution w is returned; None where the steps stall or a multiplier
        comes out negative."""
        rows, b_w = a[work], b[work]
        d, k = v.shape[0], len(work)
        z = multipliers()

        def equations(w_, z_):
            nw_ = pnorm(w_, q)
            g = gauge_coords(w_, q, nw_)
            mu_ = z_[-1] if ball else 0.0
            parts = [(1.0 + mu_) * g + rows.T @ z_[:k] - v, rows @ w_ - b_w]
            if ball:
                parts.append([nw_ - radius])
            return np.concatenate(parts), g, nw_

        r, g, nw = equations(w, z)
        err = norm2(r)
        for _ in range(50):
            if err <= 1e-15 * scale:
                if z.min(initial=0.0) < 0.0:
                    return None
                set_multipliers(z)
                return w
            n = r.shape[0]
            jac = np.zeros((n, n))
            jac[:d, :d] = (1.0 + (z[-1] if ball else 0.0)) * duality_jacobian(w, q, nw)
            jac[:d, d : d + k] = rows.T
            jac[d : d + k, :d] = rows
            if ball:
                jac[:d, -1] = g
                jac[-1, :d] = g / nw
            try:
                step = np.linalg.solve(jac, -r)
            except np.linalg.LinAlgError:
                return None
            alpha = 1.0
            for _ in range(30):
                w_t, z_t = w + alpha * step[:d], z + alpha * step[d:]
                r_t, g_t, nw_t = equations(w_t, z_t)
                if norm2(r_t) < err:
                    break
                alpha *= 0.5
            else:
                return None
            w, z, r, g, nw = w_t, z_t, r_t, g_t, nw_t
            err = norm2(r)
        return None

    def solve_working_set(w):
        """The working set's solution w, its multipliers left in lam and mu."""
        if exponent < 2.0:
            found = kkt_newton_on_working_set(w)
            if found is not None:
                return found
        w, solved = newton_on_working_set()
        if solved or exponent >= 2.0:
            return w
        found = kkt_newton_on_working_set(w)
        return w if found is None else found

    w = gauge_coords(v, exponent) if point is None else point.dual_coords
    for _ in range(4 * m + 50):
        w = solve_working_set(w)
        viol = a @ w - b
        viol[work] = -np.inf
        j = int(viol.argmax()) if m else -1
        row_gap = float(viol[j]) if m else -np.inf
        nw = pnorm(w, q) if radius is not None and not ball else None
        ball_gap = -np.inf if nw is None else nw - radius
        # smaller violations are left to the KKT gate, at least 1e-10 (1 + |v|)
        if max(row_gap, ball_gap) <= 1e-12 * scale:
            return w, lam, mu, nw
        if ball_gap >= row_gap:
            ball = True  # enters with mu = 0
            continue
        cols = a[work].T
        if ball:
            g = gauge_coords(w, q)  # the ball's normal at w, (v - a^T lam) / (1 + mu)
            cols = np.concatenate((cols, (g / norm2(g))[:, None]), axis=1)
        if cols.shape[1]:
            coef = _lstsq(cols, a[j])
            if norm2(a[j] - cols @ coef) <= _DEPENDENT_RESIDUAL:
                # a[j] = a_W^T t + tau g: raising lam_j by sigma while lam_W
                # falls by sigma t and mu by sigma tau keeps w fixed and
                # lowers F at the rate 2 (b_j - a_j w) < 0
                rates = coef.copy()
                if ball:
                    rates[-1] /= norm2(g)
                # judged on the unit columns: mu's rate scales as 1 / |w|
                trade = (coef > 1e-12).nonzero()[0]
                if not trade.size:
                    raise InfeasibleError("the cut rows admit no common point")
                z = multipliers()
                ratios = z[trade] / rates[trade]
                k = int(trade[ratios.argmin()])
                sigma = float(ratios.min())
                z = np.maximum(z - sigma * rates, 0.0)
                z[k] = 0.0
                set_multipliers(z)
                drop(k)
                lam[j] = sigma
        work.append(j)
    raise NonConvergedError("cut-multiplier working set did not settle")


def _generalized_projection(
    cset: ConstraintSet,
    v: np.ndarray,
    exponent: float,
    tol: float,
    point: PrimalPoint | None = None,
):
    """Minimizer of |w|_q^2 - 2 <v, w> over base ∩ cuts, q the conjugate of exponent.

    Box faces join the cuts as +/- unit rows; a ball base must be a q-ball.
    The problem is positively homogeneous in (v, b, radius), b the rows'
    levels, so `_multiplier_newton`, whose stopping rules are absolute,
    solves it scaled by the power of two 2^-k that brings its magnitude
    (the radius, else max(|v|_inf, |b|_inf)) into [1, 2), and its answer
    is scaled back by 2^k: both scalings are exact.  The KKT gate at tol
    is applied to that unit-scale problem.  Returns (w, KKT residual of
    the unit-scale answer, the cuts with positive multipliers).  point is
    `_multiplier_newton`'s; its kept values are read only when k = 0.
    """
    a, b = _linear_rows(cset, v.shape[0])
    radius = None
    if isinstance(cset.base, PBall):
        q = exponent / (exponent - 1.0)
        if abs(cset.base.exponent - q) > 1e-12 * q:
            raise ValueError(
                f"a ball of exponent {cset.base.exponent:g} is not a ball of the "
                f"conjugate exponent {q:g}"
            )
        radius = size = cset.base.radius
    else:
        size = max(float(np.abs(v).max(initial=0.0)), float(np.abs(b).max(initial=0.0)))
    shift = math.frexp(size)[1] - 1
    if shift:
        v, b, point = np.ldexp(v, -shift), np.ldexp(b, -shift), None
        radius = None if radius is None else math.ldexp(radius, -shift)
    w, lam, mu, nw = _multiplier_newton(a, b, v, exponent, radius, point)
    resid = _kkt_residual(a, b, v, w, lam, mu, radius, exponent, nw)
    _certify(resid, v, tol)
    return (np.ldexp(w, shift) if shift else w), resid, _active_cuts(cset, lam)


def project_intersection(
    cset: ConstraintSet,
    v: np.ndarray,
    tol: float = 1e-11,
    exponent: float = 2.0,
    hint: tuple = (),
    point: PrimalPoint | None = None,
) -> tuple:
    """(nearest point of base ∩ cuts to v in the geometry of the exponent p,
    the cuts whose multipliers are positive).

    That is the minimizer of |w|_q^2 - 2 <v, w>, q = p / (p - 1); at the
    default p = 2 it is the Euclidean projection.  The working-set Newton
    on the cut multipliers (`_multiplier_newton`), run at unit scale,
    answers every set at p != 2 (the base the whole space, a box or a
    q-ball) and every 2-ball ∩ cuts whose ball is active at p = 2; at p = 2
    the least-distance engine (NNLS) answers the rest, the polyhedron of
    the linear rows.  The answer is returned only when its KKT residual is
    within max(10 tol, 1e-10) (1 + |v|), v at the scale the engine solved
    at; NonConvergedError is raised otherwise, and InfeasibleError when the
    intersection is empty.  A set without cuts is projected by
    `project_primitive`.  The Euclidean projection onto a ball of another
    exponent with cuts has no engine and raises
    UnsupportedCombinationError.

    The `hint` is a tuple of cuts, typically the active cuts of the
    previous projection of the same point onto a smaller set; at p = 2 the
    NNLS starts from the hint's cuts that are still in the set, and the
    empty default starts it cold.  The hint changes the path to the
    answer, never the gate it must pass.

    `point`, when given, is v as a PrimalPoint of a space of this exponent,
    v its coordinates: the multiplier Newton reads its kept norm, duality
    image and Jacobian in place of evaluating them at v again, with the
    same answer bit for bit.  The retraction passes its fixed anchor.
    """
    v = np.asarray(v, dtype=float)
    if exponent != 2.0:
        z, _, active = _generalized_projection(cset, v, exponent, tol, point)
    elif not cset.cuts:
        return project_primitive(v, cset.base), ()
    elif isinstance(cset.base, PBall) and cset.base.exponent != 2.0:
        raise UnsupportedCombinationError(
            f"no Euclidean projection onto a ball of exponent {cset.base.exponent:g} "
            "with cuts; project in its own geometry, exponent e / (e - 1)"
        )
    else:
        z, _, active = _least_distance(cset, v, tol, hint)
    return z, active


def _pull_feasible_rows(
    cset: ConstraintSet, anchor: np.ndarray, cands: np.ndarray, allowed: float
) -> np.ndarray:
    """For each row cand of cands, the furthest point of the segment
    [anchor, cand] violating nothing by more than `allowed`.

    Both ends lie in the convex base, so only the cuts bind on a segment:
    the ratio test over the cuts that cand - anchor moves toward gives the
    exact step t, which is then backed off down the ladder t, t - eps,
    t - 3 eps, t - 7 eps, ... (back-offs of eps, 2 eps, 4 eps, ..., eps the
    unit roundoff) to the first step whose point passes worst_violation
    and is still positive.  Every row still failing has failed the same
    number of times, so the rows share one back-off.  Each pass tests two
    steps of the ladder for every row in one `_row_violations` call on the
    stacked rows, whose value for a row does not depend on the rows beside
    it, so a row comes out as stepping down one step at a time gives it.
    `allowed` is at least the anchor's own violation, so the anchor itself
    always passes.
    """
    steps = cands - anchor
    rates = np.matmul(cset._cut_normals[None], steps[:, :, None])[..., 0]
    room = cset._cut_offsets + allowed - cset._cut_normals @ anchor
    ratios = np.divide(room, rates, out=np.full(rates.shape, np.inf), where=rates > 0.0)
    t = np.maximum(row_min(ratios, 1.0), 0.0)
    out = anchor[None, :].repeat(cands.shape[0], axis=0)  # rows that reach t = 0
    live = (t > 0.0).nonzero()[0]
    back = _EPS
    while live.size:
        k, ahead = live.size, steps[live]
        lower = t[live] - back
        tried = np.concatenate((t[live], lower))
        points = anchor + tried[:, None] * np.concatenate((ahead, ahead))
        passed = _row_violations(cset, points) <= allowed
        first = passed[:k]
        second = passed[k:] & ~first & (lower > 0.0)
        out[live[first]] = points[:k][first]
        out[live[second]] = points[k:][second]
        failed = ~(first | second)
        live = live[failed]
        t[live] = lower[failed] - 2.0 * back
        back *= 4.0
        live = live[t[live] > 0.0]
    return out


def sample_feasible(
    cset: ConstraintSet,
    rng: np.random.Generator,
    count: int,
    dimension: int | None = None,
    anchor: np.ndarray | None = None,
    anchor_violation: float | None = None,
) -> np.ndarray:
    """Draw `count` feasible points (rows), roughly spread over the set.

    Raw candidates are drawn from the base set (uniformly for boxes and
    2-balls, approximately so for other exponents).  Candidates violating a
    cut are pulled back along the segment toward `anchor` when one is
    given (cheap and robust on thin cut intersections), and projected onto
    the set otherwise, in the set's own geometry: at exponent e / (e - 1)
    for an e-ball base, the geometry whose q-ball it is, and Euclidean for
    every other base.  `anchor_violation`, when given, is
    worst_violation(cset, anchor) and is not computed again.

    The candidates are drawn and tested as one batch of rows, which
    returns bit for bit what testing them one at a time returns.  Box and
    whole-space candidates are drawn in one call, which consumes the
    random stream as the one-row calls do.  Ball candidates take two
    calls, every direction first and then every radius, so one candidate
    draws its direction and then its radius, but more than one do not
    interleave the two as one-row calls would.
    """
    base = cset.base
    if isinstance(base, Box):
        dim = base.lower.shape[0]
    else:
        dim = dimension
        if dim is None:
            raise ValueError("dimension required to sample this base set")
    if anchor is not None:
        if anchor_violation is None:
            anchor_violation = worst_violation(cset, anchor)
        allowed = max(anchor_violation, 0.0)
        if allowed > 1e-9:
            anchor = None  # an infeasible anchor cannot guide the pull-back
    if isinstance(base, Box):
        out = rng.uniform(base.lower, base.upper, size=(count, dim))
    elif isinstance(base, PBall):
        out = _draw_ball(base, rng, count, dim)
    else:
        out = rng.standard_normal((count, dim))
    if not cset.cuts:
        return out
    bad = (_row_violations(cset, out) > 0.0).nonzero()[0]
    if anchor is not None:
        out[bad] = _pull_feasible_rows(cset, anchor, out[bad], allowed)
    else:
        geometry = base.exponent / (base.exponent - 1.0) if isinstance(base, PBall) else 2.0
        for i in bad:
            out[i] = project_intersection(cset, out[i], tol=1e-9, exponent=geometry)[0]
    return out


def _draw_ball(base: PBall, rng: np.random.Generator, count: int, dim: int) -> np.ndarray:
    """`count` points of the ball: normal directions scaled to the sphere,
    then by uniform()^(1/dim).  All directions are drawn first, then all
    radii; a zero direction gives the origin and still consumes its radius."""
    directions = rng.standard_normal((count, dim))
    inv = 1.0 / dim
    # scalar roots: numpy's vectorized power rounds differently
    radii = np.array([r**inv for r in rng.random(count).tolist()], dtype=float)
    norms = pnorm_rows(directions, base.exponent)
    if all_nonzero(norms):
        return directions / norms[:, None] * base.radius * radii[:, None]
    zero = norms == 0.0
    out = directions / np.where(zero, 1.0, norms)[:, None] * base.radius * radii[:, None]
    out[zero] = 0.0
    return out
