"""Convex feasible sets: base shapes, halfspace cuts, and Euclidean projections.

A ConstraintSet is a base convex set intersected with an ordered list of
halfspace cuts, tagged with the frame (primal or dual coordinates) it lives
in.  All projections here are Euclidean regardless of the space exponent:
they serve only as inner subroutines of convex minimizations whose
objectives carry the p-geometry, and Dykstra's convergence guarantee is
specific to the Euclidean metric.  Onto a box, whole-space or 2-ball base
with cuts the projection is a least-distance program, solved exactly
through NNLS and closed by a KKT check; balls of other exponents use
Dykstra, active-set polishes and consensus ADMM.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import InfeasibleError, NonConvergedError
from .space import pnorm

# Halfspace cuts whose unit normals differ by less than this chord length are
# treated as parallel for pruning purposes.
_PARALLEL_CHORD = 1e-9


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
        if normal.ndim != 1 or not np.any(normal):
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
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")


@dataclass(frozen=True)
class Box:
    lower: np.ndarray
    upper: np.ndarray
    frame: Frame = Frame.PRIMAL

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float).copy()
        upper = np.asarray(self.upper, dtype=float).copy()
        if lower.shape != upper.shape or np.any(lower > upper):
            raise ValueError("box bounds must satisfy lower <= upper componentwise")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)


@dataclass(frozen=True)
class WholeSpace:
    frame: Frame = Frame.PRIMAL


BaseSet = Union[PBall, Box, WholeSpace]


@dataclass(frozen=True)
class ConstraintSet:
    """base intersected with all cuts; every member shares the frame tag."""

    base: BaseSet
    cuts: tuple = ()
    frame: Frame = Frame.PRIMAL

    def __post_init__(self):
        cuts = tuple(self.cuts)
        if self.base.frame != self.frame:
            raise ValueError("base set frame does not match the constraint-set frame")
        for cut in cuts:
            if cut.frame != self.frame:
                raise ValueError("cut frame does not match the constraint-set frame")
        object.__setattr__(self, "cuts", cuts)
        if cuts:
            normals = np.stack([c.normal for c in cuts])
            offsets = np.array([c.offset for c in cuts])
        else:
            normals = offsets = None
        object.__setattr__(self, "_cut_normals", normals)
        object.__setattr__(self, "_cut_offsets", offsets)


def contains(cset: ConstraintSet, v: np.ndarray, tol: float = 0.0) -> bool:
    """True iff v violates no base-set or cut constraint by more than tol."""
    return worst_violation(cset, v) <= tol


def worst_violation(cset: ConstraintSet, v: np.ndarray) -> float:
    """Largest constraint violation of v (<= 0 when v is feasible)."""
    v = np.asarray(v, dtype=float)
    base = cset.base
    if isinstance(base, PBall):
        worst = pnorm(v, base.exponent) - base.radius
    elif isinstance(base, Box):
        worst = float(np.max(np.maximum(base.lower - v, v - base.upper), initial=-np.inf))
    else:
        worst = -np.inf
    if cset.cuts:
        worst = max(worst, float(np.max(cset._cut_normals @ v - cset._cut_offsets)))
    return worst


def add_cut(cset: ConstraintSet, cut: Halfspace) -> ConstraintSet:
    """Append a halfspace cut, pruning cuts dominated along the same direction.

    Two cuts with unit normals within chord 1e-9 of each other are nested;
    only the one with the smaller normalized offset (the stronger
    constraint) is kept.
    """
    if cut.frame != cset.frame:
        raise ValueError("cut frame does not match the constraint-set frame")
    new_unit = cut.normal / np.linalg.norm(cut.normal)
    new_level = cut.offset / np.linalg.norm(cut.normal)
    kept = []
    for old in cset.cuts:
        old_unit = old.normal / np.linalg.norm(old.normal)
        if np.linalg.norm(new_unit - old_unit) <= _PARALLEL_CHORD:
            old_level = old.offset / np.linalg.norm(old.normal)
            if old_level <= new_level:
                return cset  # existing cut already dominates the new one
            continue  # new cut dominates; drop the old one
        kept.append(old)
    kept.append(cut)
    return ConstraintSet(cset.base, tuple(kept), cset.frame)


# -- primitive projections ---------------------------------------------------


def _shrink_coords(vabs: np.ndarray, lam: float, e: float) -> np.ndarray:
    """Solve t + lam*e*t^(e-1) = vabs coordinatewise for t in [0, vabs].

    Closed forms for e in {1.5, 2, 3}; safeguarded Newton/bisection
    otherwise.  This is the coordinatewise stationarity condition of the
    Euclidean projection onto an e-norm ball.
    """
    if lam == 0.0:
        return vabs.copy()
    if e == 2.0:
        return vabs / (1.0 + 2.0 * lam)
    if e == 1.5:
        # quadratic in s = sqrt(t): s^2 + 1.5*lam*s - vabs = 0
        # (rationalized root; the textbook form cancels catastrophically)
        b = 1.5 * lam
        s = 2.0 * vabs / (b + np.sqrt(b * b + 4.0 * vabs))
        return s * s
    if e == 3.0:
        # quadratic in t: 3*lam*t^2 + t - vabs = 0 (rationalized root)
        return 2.0 * vabs / (1.0 + np.sqrt(1.0 + 12.0 * lam * vabs))
    lo = np.zeros_like(vabs)
    hi = vabs.copy()
    t = 0.5 * vabs
    for _ in range(100):
        g = t + lam * e * np.where(t > 0, t, 1.0) ** (e - 1.0) - vabs
        g = np.where(vabs == 0.0, 0.0, g)
        lo = np.where(g < 0, t, lo)
        hi = np.where(g > 0, t, hi)
        dg = 1.0 + lam * e * (e - 1.0) * np.where(t > 0, t, 1.0) ** (e - 2.0)
        step = np.where(vabs == 0.0, 0.0, g / dg)
        t_new = t - step
        bad = (t_new <= lo) | (t_new >= hi)
        t_new = np.where(bad, 0.5 * (lo + hi), t_new)
        if np.max(np.abs(t_new - t), initial=0.0) < 1e-15 * (1.0 + np.max(vabs, initial=0.0)):
            t = t_new
            break
        t = t_new
    return np.where(vabs == 0.0, 0.0, t)


def _project_pball_multiplier(
    v: np.ndarray, ball: PBall, seed: float | None = None, max_iter: int = 200
):
    """Euclidean projection onto an e-norm ball plus its Lagrange multiplier.

    Solves sum_i t_i(lam)^e = R^e for lam by a doubling bracket followed by
    bisection-safeguarded Newton, tolerance 1e-12 on the multiplier.  The
    optional seed (e.g. the multiplier of a nearby projection) shortens the
    bracketing phase.
    """
    e = ball.exponent
    radius = ball.radius
    nrm = pnorm(v, e)
    if nrm <= radius:
        return np.array(v, dtype=float), 0.0
    if e == 2.0:
        lam = 0.5 * (nrm / radius - 1.0)
        return v * (radius / nrm), lam
    vabs = np.abs(v)
    target = radius**e

    def excess(lam):
        return float(np.sum(_shrink_coords(vabs, lam, e) ** e)) - target

    if seed is None or seed <= 0.0:
        # radial-scaling guess from the largest coordinate's equation
        vmax = float(np.max(vabs))
        t_guess = max(vmax * radius / nrm, 1e-30)
        seed = max((vmax - t_guess) / (e * t_guess ** (e - 1.0)), 1e-8)
    lo, hi = 0.0, seed
    iters = 0
    while excess(hi) > 0.0:
        lo, hi = hi, hi * 4.0
        iters += 1
        if iters >= max_iter:
            raise NonConvergedError("p-ball projection: multiplier bracket did not close")
    lam = 0.5 * (lo + hi)
    for _ in range(max_iter):
        t = _shrink_coords(vabs, lam, e)
        g = float(np.sum(t**e)) - target
        if g > 0.0:
            lo = lam
        else:
            hi = lam
        if hi - lo <= 1e-12 * max(1.0, lam):
            break
        # Newton step on the multiplier, clipped into the bracket
        pos = t > 0
        tp = t[pos]
        dt = -e * tp ** (e - 1.0) / (1.0 + lam * e * (e - 1.0) * tp ** (e - 2.0))
        dg = float(np.sum(e * tp ** (e - 1.0) * dt))
        lam_new = lam - g / dg if dg != 0.0 else 0.5 * (lo + hi)
        if not (lo < lam_new < hi):
            lam_new = 0.5 * (lo + hi)
        if abs(lam_new - lam) <= 1e-12 * max(1.0, lam):
            lam = lam_new
            break
        lam = lam_new
    else:
        raise NonConvergedError("p-ball projection: multiplier iteration cap reached")
    t = _shrink_coords(vabs, lam, e)
    return np.sign(v) * t, lam


def _project_pball(v: np.ndarray, ball: PBall, max_iter: int = 200) -> np.ndarray:
    return _project_pball_multiplier(v, ball, max_iter=max_iter)[0]


def project_primitive(v: np.ndarray, primitive) -> np.ndarray:
    """Euclidean-nearest point of a halfspace, box, whole space, or norm ball."""
    v = np.asarray(v, dtype=float)
    if isinstance(primitive, Halfspace):
        gap = primitive.violation(v)
        if gap <= 0.0:
            return v.copy()
        return v - (gap / float(np.dot(primitive.normal, primitive.normal))) * primitive.normal
    if isinstance(primitive, Box):
        return np.clip(v, primitive.lower, primitive.upper)
    if isinstance(primitive, WholeSpace):
        return v.copy()
    if isinstance(primitive, PBall):
        return _project_pball(v, primitive)
    raise TypeError(f"cannot project onto {type(primitive).__name__}")


def _cone_misfit(piece, x: np.ndarray, c: np.ndarray, act_tol: float) -> np.ndarray:
    """Component of a Dykstra correction outside the normal cone of the piece at x.

    A zero misfit for every piece certifies x as the exact projection
    (KKT: the corrections sum to v - x and must be normal-cone elements).
    """
    if isinstance(piece, WholeSpace):
        return c
    if isinstance(piece, Halfspace):
        nn = float(np.dot(piece.normal, piece.normal))
        slack = (piece.offset - float(np.dot(piece.normal, x))) / np.sqrt(nn)
        if slack > act_tol:
            return c
        lam = max(0.0, float(np.dot(c, piece.normal)) / nn)
        return c - lam * piece.normal
    if isinstance(piece, Box):
        misfit = np.array(c)
        at_upper = x >= piece.upper - act_tol
        at_lower = x <= piece.lower + act_tol
        misfit[at_upper & (c > 0)] = 0.0
        misfit[at_lower & (c < 0)] = 0.0
        return misfit
    # norm ball: cone is the ray along the gradient of |x|_e^e at boundary points
    if pnorm(x, piece.exponent) < piece.radius - act_tol:
        return c
    grad = np.abs(x) ** (piece.exponent - 1.0) * np.sign(x)
    gg = float(np.dot(grad, grad))
    if gg == 0.0:
        return c
    lam = max(0.0, float(np.dot(c, grad)) / gg)
    return c - lam * grad


def _linear_rows(cset: ConstraintSet, dim: int):
    """The linear constraints of the set as rows (A, b): A z <= b.

    Box faces contribute +/- unit rows; a ball base contributes nothing
    (its boundary is not linear; callers must re-check ball membership).
    """
    rows, offs = [], []
    base = cset.base
    if isinstance(base, Box):
        eye = np.eye(dim)
        rows.extend(eye)
        offs.extend(base.upper)
        rows.extend(-eye)
        offs.extend(-base.lower)
    for cut in cset.cuts:
        rows.append(cut.normal)
        offs.append(cut.offset)
    if not rows:
        return np.zeros((0, dim)), np.zeros(0)
    return np.stack(rows), np.array(offs)


def _greedy_basis(a_all: np.ndarray, rows, forced=()):
    """A well-conditioned independent subset of the given rows, forced first.

    Greedy Gram-Schmidt: repeatedly take the row with the largest component
    orthogonal to the span so far; rows in `forced` are seeded first so a
    specific constraint can be guaranteed a slot in the working basis.
    """
    basis = []
    chosen = []

    def residual(vec):
        r = np.array(vec)
        for b in basis:
            r -= np.dot(r, b) * b
        return r

    for f in forced:
        r = residual(a_all[f])
        nr = float(np.linalg.norm(r))
        if nr > 1e-7:
            basis.append(r / nr)
            chosen.append(f)
    while True:
        best, best_norm = -1, 1e-7
        for i in rows:
            if i in chosen:
                continue
            nr = float(np.linalg.norm(residual(a_all[i])))
            if nr > best_norm:
                best, best_norm = i, nr
        if best < 0:
            return chosen
        r = residual(a_all[best])
        basis.append(r / float(np.linalg.norm(r)))
        chosen.append(best)


def _active_set_polish(cset: ConstraintSet, v: np.ndarray):
    """Exact projection onto the set's linear constraints by active-set exchange.

    Grows the active set from scratch, one most-violated row at a time,
    restricting each equality solve to a well-conditioned independent
    basis; a violated row that an ill-conditioned basis cannot represent
    is forced into the next basis.  When the base is a ball the
    polish projects onto the cut polyhedron alone; a result inside the
    ball is then also the exact projection onto the full intersection
    (nearest point of a superset that lies in the subset).  Returns None
    when no exact certificate closes (ball boundary active, cycling,
    iteration cap).
    """
    dim = v.shape[0]
    a_all, b_all = _linear_rows(cset, dim)
    if a_all.shape[0] == 0:
        return None
    norms = np.linalg.norm(a_all, axis=1)
    a_all = a_all / norms[:, None]
    b_all = b_all / norms
    scale = 1.0 + float(np.linalg.norm(v))
    active = set()
    forced = []
    sel = []
    seen = set()
    for _ in range(120):
        state = (frozenset(active), tuple(forced))
        if state in seen:
            return None  # degenerate cycling; no exact certificate here
        seen.add(state)
        if active:
            sel = _greedy_basis(a_all, sorted(active), forced)
            a = a_all[sel]
            lam = np.linalg.lstsq(a @ a.T, a @ v - b_all[sel], rcond=None)[0]
            cand = v - a.T @ lam
            if lam.size and np.min(lam) < -1e-12 * scale:
                drop = sel[int(np.argmin(lam))]
                active.discard(drop)
                forced = [f for f in forced if f != drop]
                continue
        else:
            sel = []
            cand = np.array(v)
        violations = a_all @ cand - b_all
        worst = int(np.argmax(violations))
        if violations[worst] > 1e-12 * scale:
            if worst in active:
                if worst in sel or worst in forced:
                    return None  # enforced yet violated: inconsistent rows
                forced.insert(0, worst)  # give the violated row a basis slot
                continue
            active.add(worst)
            continue
        if isinstance(cset.base, PBall) and (
            pnorm(cand, cset.base.exponent) > cset.base.radius * (1.0 + 1e-14)
        ):
            return None  # ball boundary active; polish cannot certify
        return cand
    return None


def _ball_active_polish(cset: ConstraintSet, v: np.ndarray):
    """Exact projection when the ball boundary is active: Newton on the KKT system.

    Solves z - v + nu g(z) + A^T lam = 0, A z = b on the active rows, and
    |z|_e = R, with g the gradient of |z|_e^e / e, via damped Newton inside
    an active-set exchange on the cuts.  Returns None when no certificate
    closes (negative ball multiplier, cycling, Newton failure).
    """
    base = cset.base
    if not isinstance(base, PBall):
        return None
    e, radius = base.exponent, base.radius
    z, nu = _project_pball_multiplier(v, base)
    nu *= e  # our stationarity uses g = |z|^(e-1) sgn(z), not e*that
    if nu <= 0.0:
        return None  # ball inactive; the linear polish owns this case
    dim = v.shape[0]
    a_all = cset._cut_normals
    b_all = cset._cut_offsets
    norms = np.linalg.norm(a_all, axis=1)
    a_all = a_all / norms[:, None]
    b_all = b_all / norms
    scale = 1.0 + float(np.linalg.norm(v))
    target = radius**e

    def newton(active):
        nonlocal z, nu
        k = len(active)
        a = a_all[active] if k else np.zeros((0, dim))
        b = b_all[active] if k else np.zeros(0)
        zz = np.array(z)
        lam = np.zeros(k)
        vv = max(nu, 1e-10)
        best = np.inf
        for _ in range(60):
            absz = np.abs(zz)
            g = absz ** (e - 1.0) * np.sign(zz)
            resid = np.concatenate(
                [
                    zz - v + vv * g + (a.T @ lam if k else 0.0),
                    (a @ zz - b) if k else np.zeros(0),
                    [(float(np.sum(absz**e)) - target) / e],
                ]
            )
            rnorm = float(np.linalg.norm(resid))
            if rnorm <= 1e-13 * scale:
                return zz, lam, vv
            if rnorm > best * 4.0:
                return None
            best = min(best, rnorm)
            diag = (e - 1.0) * np.maximum(absz, 1e-12) ** (e - 2.0)
            jac = np.zeros((dim + k + 1, dim + k + 1))
            jac[:dim, :dim] = np.eye(dim) + vv * np.diag(diag)
            if k:
                jac[:dim, dim : dim + k] = a.T
                jac[dim : dim + k, :dim] = a
            jac[:dim, -1] = g
            jac[-1, :dim] = g
            try:
                step = np.linalg.solve(jac, -resid)
            except np.linalg.LinAlgError:
                return None
            zz = zz + step[:dim]
            if k:
                lam = lam + step[dim : dim + k]
            vv = vv + step[-1]
        return None

    active = []
    seen = set()
    for _ in range(40):
        state = frozenset(active)
        if state in seen:
            return None
        seen.add(state)
        sol = newton(active)
        if sol is None:
            return None
        z_new, lam, nu_new = sol
        if nu_new < -1e-11:
            return None  # ball multiplier negative: boundary not active after all
        if lam.size and float(np.min(lam)) < -1e-11 * scale:
            del active[int(np.argmin(lam))]
            continue
        if a_all.shape[0]:
            violations = a_all @ z_new - b_all
            worst = int(np.argmax(violations))
            if violations[worst] > 1e-11 * scale:
                if worst in active:
                    return None
                active.append(worst)
                continue
        z, nu = z_new, nu_new
        return z
    return None


def _exact_polish(cset: ConstraintSet, v: np.ndarray):
    """Try the linear-constraints polish, then the ball-active Newton polish."""
    polished = _active_set_polish(cset, v)
    if polished is not None:
        return polished
    return _ball_active_polish(cset, v)


def dykstra_project(
    cset: ConstraintSet, v: np.ndarray, tol: float = 1e-11, max_iter: int = 2000
) -> np.ndarray:
    """Euclidean projection onto base ∩ cuts by Dykstra's alternating corrections.

    Terminates when a full sweep moves the iterate less than tol, the
    iterate is feasible within 10*tol, and the accumulated corrections pass
    a normal-cone (KKT) check.  Displacement alone is not trusted: on thin
    cut intersections Dykstra can stall transiently at points that are
    infeasible or feasible-but-not-nearest.  When the cone check fails on a
    fully polyhedral set, a finite active-set polish seeded by the current
    iterate recovers the exact projection instead of waiting for the
    corrections to settle.  Raises NonConvergedError after max_iter sweeps
    (the usual symptom of a near-empty intersection).
    """
    v = np.asarray(v, dtype=float)
    pieces = [cset.base, *cset.cuts]
    if len(pieces) == 1:
        return project_primitive(v, pieces[0])
    x = v.copy()
    corrections = [np.zeros_like(v) for _ in pieces]
    scale = 1.0 + float(np.linalg.norm(v))
    act_tol = 1e-7 * scale
    kkt_tol = max(1e3 * tol, 1e-10) * scale
    lam_cache = {}  # per-piece ball multipliers, warm-started across sweeps
    for _ in range(max_iter):
        x_prev = x
        for k, piece in enumerate(pieces):
            shifted = x + corrections[k]
            if isinstance(piece, PBall) and piece.exponent != 2.0:
                x, lam = _project_pball_multiplier(shifted, piece, seed=lam_cache.get(k))
                lam_cache[k] = lam
            else:
                x = project_primitive(shifted, piece)
            corrections[k] = shifted - x
        if float(np.linalg.norm(x - x_prev)) <= tol:
            if worst_violation(cset, x) <= 10.0 * tol:
                misfit = np.zeros_like(v)
                for k, piece in enumerate(pieces):
                    misfit = misfit + _cone_misfit(piece, x, corrections[k], act_tol)
                if float(np.linalg.norm(misfit)) <= kkt_tol:
                    return x
            # stalled: either infeasible or feasible-but-not-nearest
            polished = _exact_polish(cset, v)
            if polished is not None and worst_violation(cset, polished) <= max(
                10.0 * tol, 1e-10 * scale
            ):
                return polished
    raise NonConvergedError(
        f"Dykstra did not converge in {max_iter} sweeps (tol={tol:g}); "
        "the intersection may be empty"
    )


def _admm_project(cset: ConstraintSet, v: np.ndarray, tol: float, max_iter: int):
    """Projection onto base ∩ cuts by consensus ADMM.

    Splits the base set and each cut into their own blocks, so every
    sub-step is a primitive projection or a scalar clamp; immune to the
    active-set degeneracy that stalls Dykstra on crowded, nearly parallel
    cuts.  Periodically attempts the exact active-set polish and returns
    its certified answer as soon as the active set has settled.
    """
    row_norms = np.linalg.norm(cset._cut_normals, axis=1)
    a = cset._cut_normals / row_norms[:, None]
    b = cset._cut_offsets / row_norms
    dim = v.shape[0]
    rho = 1.0
    relax = 1.7
    gram = a.T @ a

    def factor(rho):
        return np.linalg.cholesky(np.eye(dim) * (1.0 + rho) + rho * gram)

    chol = factor(rho)
    scale = 1.0 + float(np.linalg.norm(v))
    eps = max(10.0 * tol, 1e-12) * scale
    x = np.array(v)
    z = project_primitive(x, cset.base)
    s = np.minimum(a @ x, b)
    u = np.zeros(dim)
    w = np.zeros(len(b))
    next_polish = 10
    polish_gap = 25
    for it in range(max_iter):
        rhs = v + rho * (z - u) + rho * (a.T @ (s - w))
        x = np.linalg.solve(chol.T, np.linalg.solve(chol, rhs))
        ax = a @ x
        x_r = relax * x + (1.0 - relax) * z
        ax_r = relax * ax + (1.0 - relax) * s
        z_new = project_primitive(x_r + u, cset.base)
        s_new = np.minimum(ax_r + w, b)
        u = u + x_r - z_new
        w = w + ax_r - s_new
        r_dual = rho * (np.linalg.norm(z_new - z) + np.linalg.norm(a.T @ (s_new - s)))
        z, s = z_new, s_new
        r_primal = max(float(np.linalg.norm(x - z)), float(np.max(np.abs(ax - s), initial=0.0)))
        if it == next_polish:
            polished = _exact_polish(cset, v)
            if polished is not None and worst_violation(cset, polished) <= max(
                10.0 * tol, 1e-10 * scale
            ):
                return polished
            polish_gap = min(polish_gap * 2, 800)
            next_polish = it + polish_gap
            # residual balancing keeps the two ADMM blocks on one scale
            if r_primal > 10.0 * r_dual and rho < 1e6:
                rho *= 2.0
                u /= 2.0
                w /= 2.0
                chol = factor(rho)
            elif r_dual > 10.0 * r_primal and rho > 1e-6:
                rho /= 2.0
                u *= 2.0
                w *= 2.0
                chol = factor(rho)
        if r_primal <= eps and r_dual <= eps:
            break
        if r_primal <= 1e-10 * scale and r_dual <= 1e-10 * scale:
            break  # accuracy floor for degenerate cases the polish cannot close
    if worst_violation(cset, z) > max(100.0 * tol, 1e-9) * scale:
        raise NonConvergedError("ADMM projection did not reach feasibility")
    polished = _exact_polish(cset, v)
    if polished is not None and worst_violation(cset, polished) <= max(
        10.0 * tol, 1e-10 * scale
    ):
        return polished
    return z


# -- exact least-distance engine (box, whole-space and 2-ball bases) ----------


def _nnls(e: np.ndarray, f: np.ndarray):
    """Lawson-Hanson active-set NNLS: argmin |E u - f| over u >= 0.

    Returns (u, f - E u).  A column whose entry would enter the passive set
    with a nonpositive value through rounding is skipped until the next
    exchange (Lawson & Hanson 1974, ch. 23).  Raises NonConvergedError at
    the exchange cap.
    """
    n = e.shape[1]
    u = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    blocked = np.zeros(n, dtype=bool)
    resid = np.array(f)
    tol = 10.0 * max(e.shape) * np.finfo(float).eps
    for _ in range(3 * n + 30):
        w = e.T @ resid
        w[passive | blocked] = -np.inf
        j = int(np.argmax(w))
        if w[j] <= tol:
            return u, resid
        trial = passive.copy()
        trial[j] = True
        idx = np.flatnonzero(trial)
        s = np.linalg.lstsq(e[:, idx], f, rcond=None)[0]
        if s[np.searchsorted(idx, j)] <= 0.0:
            blocked[j] = True
            continue
        blocked[:] = False
        passive = trial
        while s.size and np.min(s) <= 0.0:
            # step from u toward s until the first passive entry reaches 0
            neg = s <= 0.0
            ratios = u[idx][neg] / (u[idx][neg] - s[neg])
            k = int(np.argmin(ratios))
            u[idx] += ratios[k] * (s - u[idx])
            u[idx[np.flatnonzero(neg)[k]]] = 0.0
            passive &= u > 0.0
            u[~passive] = 0.0
            idx = np.flatnonzero(passive)
            s = np.linalg.lstsq(e[:, idx], f, rcond=None)[0]
        u[:] = 0.0
        u[idx] = s
        resid = f - e @ u
    raise NonConvergedError("NNLS exchange cap reached")


def _ldp(a: np.ndarray, b: np.ndarray, v: np.ndarray):
    """Nearest point of {z : a z <= b} to v and the multipliers of the rows.

    Least-distance programming through NNLS (Lawson & Hanson 1974, ch. 23):
    with h = (a v - b) / s for s = max(a v - b), the NNLS solution u of
    [-a^T; h^T] u ~ e_{d+1} gives lam = s u / |r|^2 and z = v - a^T lam,
    where r is the NNLS residual.  A zero residual certifies that the rows
    are inconsistent.  InfeasibleError is raised once |r|^2 <= 1e3 eps:
    then the nearest point would lie over 10^6 times the largest row
    violation away, and lam would carry a relative error eps / |r|^2 of
    over 0.1 %, so the set is empty or numerically unreachable.
    """
    excess = a @ v - b
    shift = float(np.max(excess, initial=0.0))
    if shift <= 0.0:
        return np.array(v), np.zeros(b.shape[0])
    e = np.vstack([-a.T, excess / shift])
    f = np.zeros(e.shape[0])
    f[-1] = 1.0
    u, resid = _nnls(e, f)
    rr = float(np.dot(resid, resid))
    if rr <= 1e3 * np.finfo(float).eps:
        raise InfeasibleError("the cut rows admit no common point")
    lam = (shift / rr) * u
    return v - a.T @ lam, lam


def _affine_radius_step(a: np.ndarray, b: np.ndarray, v: np.ndarray, lam, radius: float):
    """The ball multiplier nu with |P_F(v / (1 + nu))| = radius, None if none.

    F is the affine span {a_P z = b_P} of the rows with positive lam.  With
    c the least-norm point of F and m the component of v along F,
    |P_F(v / (1 + nu))|^2 = |c|^2 + |m|^2 / (1 + nu)^2, so nu is explicit.
    """
    rows = lam > 0.0
    if np.any(rows):
        a_p = a[rows]
        c = np.linalg.lstsq(a_p, b[rows], rcond=None)[0]
        m = v - np.linalg.lstsq(a_p, a_p @ v, rcond=None)[0]
    else:
        c = np.zeros_like(v)
        m = v
    room = radius * radius - float(np.dot(c, c))
    if room <= 0.0:
        return None
    return float(np.linalg.norm(m)) / np.sqrt(room) - 1.0


def _ball_ldp(a: np.ndarray, b: np.ndarray, v: np.ndarray, radius: float):
    """Nearest point of {|z|_2 <= radius, a z <= b} to v: (z, lam, nu).

    For a ball multiplier nu the answer is z(nu) = P_poly(v / (1 + nu)),
    and |z(nu)| is nonincreasing in nu.  nu is found by a bracketed scalar
    search whose steps solve the ball equation on the current active set
    exactly (bisection when that step leaves the bracket), one LDP per
    step, until ||z| - radius| <= 1e-14 radius.  The cut multipliers of
    the original problem are (1 + nu) times those of the LDP.  Raises
    InfeasibleError when P_poly(0), the least-norm point of the
    polyhedron, lies outside the ball.
    """
    z, lam = _ldp(a, b, v)
    if float(np.linalg.norm(z)) <= radius:
        return z, lam, 0.0
    lo, hi = 0.0, np.inf  # |z(lo)| > radius >= |z(hi)|
    nu = _affine_radius_step(a, b, v, lam, radius)
    for _ in range(200):
        if nu is None or not lo < nu < hi:
            if np.isinf(hi):
                z_min = _ldp(a, b, np.zeros_like(v))[0]
                if float(np.linalg.norm(z_min)) > radius:
                    raise InfeasibleError("the cut polyhedron misses the ball")
                nu = 4.0 * lo + 1.0
            else:
                nu = 0.5 * (lo + hi)
        z, mu = _ldp(a, b, v / (1.0 + nu))
        gap = float(np.linalg.norm(z)) - radius
        if gap > 0.0:
            lo = nu
        else:
            hi = nu
        if abs(gap) <= 1e-14 * radius or hi - lo <= 1e-15 * hi < np.inf:
            return z, (1.0 + nu) * mu, nu
        nu = _affine_radius_step(a, b, v, mu, radius)
    raise NonConvergedError("ball multiplier search did not close")


def _kkt_residual(a, b, v, z, lam, nu: float = 0.0, radius: float | None = None) -> float:
    """Largest KKT violation of (z, lam, nu) for min 1/2 |z - v|^2 over a z <= b
    (and |z|_2 <= radius when given).

    Stationarity is z - v + nu z + a^T lam = 0; each constraint contributes
    the natural residual |min(multiplier, slack)|, which vanishes iff the
    multiplier is nonnegative, the constraint holds, and one of the two is
    zero.
    """
    worst = max(
        float(np.max(np.abs(z - v + nu * z + a.T @ lam))),
        float(np.max(np.abs(np.minimum(lam, b - a @ z)), initial=0.0)),
    )
    if radius is not None:
        nz = float(np.linalg.norm(z))
        worst = max(worst, abs(min(nu * nz, radius - nz)))
    return worst


def _least_distance(cset: ConstraintSet, v: np.ndarray):
    """Exact projection onto a box, whole-space or 2-ball base ∩ cuts.

    Box faces join the cuts as +/- unit rows and every row is normalized.
    Returns (z, nu, KKT residual of the answer), nu being the ball
    multiplier (0 for other bases).
    """
    a, b = _linear_rows(cset, v.shape[0])
    norms = np.linalg.norm(a, axis=1)
    a = a / norms[:, None]
    b = b / norms
    if isinstance(cset.base, PBall):
        radius = cset.base.radius
        z, lam, nu = _ball_ldp(a, b, v, radius)
    else:
        radius, nu = None, 0.0
        z, lam = _ldp(a, b, v)
    return z, nu, _kkt_residual(a, b, v, z, lam, nu, radius)


def project_intersection(
    cset: ConstraintSet, v: np.ndarray, tol: float = 1e-11, max_iter: int = 20_000
) -> np.ndarray:
    """Projection onto base ∩ cuts.

    Box, whole-space and 2-ball bases go to the exact least-distance engine
    (NNLS); its answer is returned only when its KKT residual is within
    max(10 tol, 1e-10) (1 + |v|), NonConvergedError is raised otherwise,
    and InfeasibleError when the intersection is empty.  Balls of other
    exponents use the layered chain: the active-set exchange, which is
    exact whenever the ball part is inactive at the optimum, then Dykstra
    when the cuts are few and consensus ADMM otherwise.
    """
    v = np.asarray(v, dtype=float)
    if not cset.cuts:
        return project_primitive(v, cset.base)
    if not isinstance(cset.base, PBall) or cset.base.exponent == 2.0:
        z, _, resid = _least_distance(cset, v)
        if not resid <= max(10.0 * tol, 1e-10) * (1.0 + float(np.linalg.norm(v))):
            raise NonConvergedError(
                f"least-distance projection failed its KKT check (residual {resid:.3g})"
            )
        return z
    scale = 1.0 + float(np.linalg.norm(v))
    polished = _exact_polish(cset, v)
    if polished is not None and worst_violation(cset, polished) <= max(
        10.0 * tol, 1e-10 * scale
    ):
        return polished
    if len(cset.cuts) <= 6:
        try:
            return dykstra_project(cset, v, tol=tol, max_iter=min(max_iter, 20_000))
        except NonConvergedError:
            pass
    return _admm_project(cset, v, tol, max_iter)


def _pull_feasible(
    cset: ConstraintSet, anchor: np.ndarray, cand: np.ndarray, allowed: float
) -> np.ndarray:
    """Furthest point of the segment [anchor, cand] violating nothing by more than `allowed`.

    Both ends lie in the convex base, so only the cuts bind on the segment:
    the ratio test over the cuts that cand - anchor moves toward gives the
    exact step, which is then backed off by growing multiples of the unit
    roundoff until the point passes worst_violation.  `allowed` is at least
    the anchor's own violation, so the anchor itself always passes.
    """
    step = cand - anchor
    rates = cset._cut_normals @ step
    room = cset._cut_offsets + allowed - cset._cut_normals @ anchor
    toward = rates > 0.0
    t = float(np.min(room[toward] / rates[toward], initial=1.0))
    t = min(max(t, 0.0), 1.0)
    back = np.finfo(float).eps
    while t > 0.0:
        point = anchor + t * step
        if worst_violation(cset, point) <= allowed:
            return point
        t -= back
        back *= 2.0
    return np.array(anchor)


def sample_feasible(
    cset: ConstraintSet,
    rng: np.random.Generator,
    count: int,
    scale: float = 1.0,
    dimension: int | None = None,
    anchor: np.ndarray | None = None,
) -> np.ndarray:
    """Draw `count` feasible points (rows), roughly spread over the set.

    Raw candidates are drawn from the base set (uniformly for boxes and
    2-balls, approximately so for other exponents).  Candidates violating a
    cut are pulled back along the segment toward `anchor` when one is
    given (cheap and robust on thin cut intersections), and projected onto
    the set otherwise.
    """
    base = cset.base
    if isinstance(base, Box):
        dim = base.lower.shape[0]
    else:
        dim = dimension
        if dim is None:
            raise ValueError("dimension required to sample this base set")
    if anchor is not None:
        allowed = max(worst_violation(cset, anchor), 0.0)
        if allowed > 1e-9:
            anchor = None  # an infeasible anchor cannot guide the pull-back
    out = np.empty((count, dim))
    for i in range(count):
        if isinstance(base, Box):
            cand = rng.uniform(base.lower, base.upper)
        elif isinstance(base, PBall):
            direction = rng.standard_normal(dim)
            nrm = pnorm(direction, base.exponent)
            if nrm == 0.0:
                cand = np.zeros(dim)
            else:
                cand = direction / nrm * base.radius * rng.uniform() ** (1.0 / dim)
        else:
            cand = scale * rng.standard_normal(dim)
        if cset.cuts and worst_violation(cset, cand) > 0.0:
            if anchor is not None:
                cand = _pull_feasible(cset, anchor, cand, allowed)
            else:
                cand = project_intersection(cset, cand, tol=1e-9, max_iter=50_000)
        out[i] = cand
    return out
