"""Reference algorithms for the tests, independent of the engines under test."""

import numpy as np

from hybrideq import ConstraintSet, NonConvergedError, PrimalPoint, project_primitive, resolvent_lhs
from hybrideq.equilibrium import (
    InverseDualityPairing,
    PotentialBifunction,
    _composite_prox,
    _project_rows,
    _step_rows,
)
from hybrideq.sets import (
    _PARALLEL_CHORD,
    Box,
    PBall,
    _lstsq,
    project_intersection,
    worst_violation,
)
from hybrideq.space import pnorm


def dykstra(cset, v, tol=1e-11, max_iter=2000):
    """Euclidean projection onto base ∩ cuts by plain Dykstra alternating corrections.

    Stops when a full sweep moves neither the iterate nor any correction by
    more than tol and the iterate is feasible within 10 tol.  Displacement
    alone is not trusted: on thin cut intersections the iterate can stall
    for a while far from the projection while the corrections still move.
    Raises NonConvergedError after max_iter sweeps.
    """
    v = np.asarray(v, dtype=float)
    pieces = [cset.base, *cset.cuts]
    x = v.copy()
    corrections = [np.zeros_like(v) for _ in pieces]
    for _ in range(max_iter):
        x_prev = x
        moved = 0.0
        for k, piece in enumerate(pieces):
            shifted = x + corrections[k]
            x = project_primitive(shifted, piece)
            moved = max(moved, float(np.linalg.norm(shifted - x - corrections[k])))
            corrections[k] = shifted - x
        moved = max(moved, float(np.linalg.norm(x - x_prev)))
        if moved <= tol and worst_violation(cset, x) <= 10.0 * tol:
            return x
    raise NonConvergedError(f"Dykstra did not converge in {max_iter} sweeps")


def nnls_per_solve(e, f, start=None):
    """`sets._nnls` with every least-squares solve a `sets._lstsq` call on
    its column subset, which checks that subset for finiteness."""
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
        idx = np.delete(idx, k)
    tol = 10.0 * max(e.shape) * np.finfo(float).eps
    for _ in range(3 * n + 30):
        w = e.T @ resid
        w[passive | blocked] = -np.inf
        j = int(w.argmax())
        if w[j] <= tol:
            return u, resid
        trial = passive.copy()
        trial[j] = True
        idx = np.flatnonzero(trial)
        s = _lstsq(e[:, idx], f)
        if s[np.searchsorted(idx, j)] <= 0.0:
            blocked[j] = True
            continue
        blocked[:] = False
        passive = trial
        while s.size and s.min() <= 0.0:
            neg = s <= 0.0
            ratios = u[idx][neg] / (u[idx][neg] - s[neg])
            k = int(ratios.argmin())
            u[idx] += ratios[k] * (s - u[idx])
            u[idx[np.flatnonzero(neg)[k]]] = 0.0
            passive &= u > 0.0
            u[~passive] = 0.0
            idx = np.flatnonzero(passive)
            s = _lstsq(e[:, idx], f)
        u[:] = 0.0
        u[idx] = s
        resid = f - e @ u
    raise NonConvergedError("NNLS exchange cap reached")


def csv_row_joined(row, columns):
    """One CSV row as `harness.emit_report` wrote it field by field: each
    value formatted with f"{value:.17g}", None as nan, joined by commas."""

    def fmt(value):
        if value is None:
            return "nan"
        return f"{value:.17g}"

    return ",".join(fmt(row[column]) for column in columns)


def pgd_sequential(evaluate, gradient, cset, start, max_iter=300, tol=1e-9):
    """The gap search's projected gradient from one start, one trial per halving.

    From step t (1 at first) it tries t, t/2, ... (at most 40 halvings)
    until the trial, `_step_rows` moved into the set by `_project_rows`,
    passes the Armijo model, and stops when the line search fails or the
    point moves by at most tol * t; otherwise t grows by 1.3, capped at
    1e6.  evaluate and gradient are the batched objective of
    equilibrium._banach_inner_objective, applied to one row; the model's
    dot products are einsum reductions.  Returns (y, value).
    """
    y = _project_rows(cset, np.asarray(start, dtype=float)[None, :])
    f, parts = evaluate(y)
    t = 1.0
    for _ in range(max_iter):
        g = gradient(parts)
        for _ in range(40):
            trial = _project_rows(cset, _step_rows(cset.base, y, g, np.array([t])))
            f_trial, trial_parts = evaluate(trial)
            delta = trial - y
            model = (
                f
                + np.einsum("ij,ij->i", g, delta)
                + np.einsum("ij,ij->i", delta, delta) / (2.0 * t)
            )
            if f_trial[0] <= model[0]:
                break
            t *= 0.5
        else:
            break  # the line search failed: the row stays where it is
        moved = np.linalg.norm(trial - y, axis=1)[0]
        y, f, parts = trial, f_trial, trial_parts
        if not moved > tol * t:
            break
        t = min(t * 1.3, 1e6)
    return y[0], float(f[0])


def add_cut_loop(cset, cut):
    """Append a cut the way `sets.add_cut` did before its cut store: one
    renormalization of every kept cut per call, in a Python loop.

    Two cuts with unit normals within chord 1e-9 of each other are nested;
    only the one with the smaller normalized offset is kept.  The set is
    rebuilt through the public constructor.
    """
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


def linear_rows_restacked(cset, dim):
    """The set's unit rows (A, b) as the engines built them before the cut
    store: box faces and cut normals stacked, then every row normalized."""
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
    a, b = np.stack(rows), np.array(offs)
    norms = np.linalg.norm(a, axis=1)
    return a / norms[:, None], b / norms


def hint_rows_rematched(cset, hint, count):
    """The mask of `sets._hint_rows` as it was before the sets kept an
    identity index: the cuts' positions are looked up afresh on every call."""
    if not hint:
        return None
    where = {id(cut): k for k, cut in enumerate(cset.cuts)}
    first = count - len(cset.cuts)
    start = np.zeros(count, dtype=bool)
    for cut in hint:
        k = where.get(id(cut))
        if k is not None:
            start[first + k] = True
    return start


def pull_feasible_one(cset, anchor, cand, allowed):
    """The audit pull-back one candidate at a time, as `sets.sample_feasible`
    ran it before it batched its candidates: the ratio test over the cuts
    that cand - anchor moves toward, then a back-off by eps, 2 eps, 4 eps,
    ... until the point passes worst_violation."""
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


def violation_reduced(cset, v):
    """`sets.worst_violation` of v through numpy's own max reductions."""
    base = cset.base
    if isinstance(base, PBall):
        worst = pnorm(v, base.exponent) - base.radius
    elif isinstance(base, Box):
        worst = float(np.maximum(base.lower - v, v - base.upper).max(initial=-np.inf))
    else:
        worst = -np.inf
    if cset.cuts:
        cut = float((cset._cut_normals @ v - cset._cut_offsets).max())
        if cut > worst or cut != cut:
            worst = cut
    return worst


def pull_feasible_rows_one_step(cset, anchor, cands, allowed):
    """`sets._pull_feasible_rows` as it was before it tested two steps of its
    back-off ladder per pass: the ratio test, an np.divide into an array of
    inf written only where the step moves toward the cut and the least
    ratio by numpy's reduction, then one step of the ladder t, t - eps,
    t - 3 eps, ... per pass, each point tested alone by `violation_reduced`."""
    steps = cands - anchor
    rates = np.matmul(cset._cut_normals[None], steps[:, :, None])[..., 0]
    room = cset._cut_offsets + allowed - cset._cut_normals @ anchor
    toward = rates > 0.0
    ratios = np.divide(room, rates, out=np.full(rates.shape, np.inf), where=toward)
    t = np.minimum(np.maximum(ratios.min(axis=1, initial=1.0), 0.0), 1.0)
    out = np.repeat(anchor[None, :], cands.shape[0], axis=0)
    live = (t > 0.0).nonzero()[0]
    back = np.finfo(float).eps
    while live.size:
        points = anchor + t[live, None] * steps[live]
        passed = np.array([violation_reduced(cset, point) <= allowed for point in points], dtype=bool)
        out[live[passed]] = points[passed]
        live = live[~passed]
        t[live] -= back
        back *= 2.0
        live = live[t[live] > 0.0]
    return out


def sample_feasible_one(cset, rng, count, dimension=None, anchor=None):
    """`sets.sample_feasible` one candidate at a time: draw it, test it with
    worst_violation, and pull it back toward the anchor or project it.  A
    ball base draws every direction, then every radius, before the first
    candidate is tested."""
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
            anchor = None
    geometry = base.exponent / (base.exponent - 1.0) if isinstance(base, PBall) else 2.0
    if isinstance(base, PBall):
        # every direction first, then every radius
        directions = rng.standard_normal((count, dim))
        radii = rng.uniform(size=count)
    out = np.empty((count, dim))
    for i in range(count):
        if isinstance(base, Box):
            cand = rng.uniform(base.lower, base.upper)
        elif isinstance(base, PBall):
            nrm = pnorm(directions[i], base.exponent)
            if nrm == 0.0:
                cand = np.zeros(dim)
            else:
                cand = directions[i] / nrm * base.radius * float(radii[i]) ** (1.0 / dim)
        else:
            cand = rng.standard_normal(dim)
        if cset.cuts and worst_violation(cset, cand) > 0.0:
            if anchor is not None:
                cand = pull_feasible_one(cset, anchor, cand, allowed)
            else:
                cand = project_intersection(cset, cand, tol=1e-9, exponent=geometry)[0]
        out[i] = cand
    return out


def draw_ball_interleaved(base, rng, count, dim):
    """Ball candidates as `sets.sample_feasible` drew them before it drew
    them in two calls: per candidate a normal direction, then, unless the
    direction is zero (the origin), the uniform radius draw."""
    out = np.zeros((count, dim))
    for i in range(count):
        direction = rng.standard_normal(dim)
        nrm = pnorm(direction, base.exponent)
        if nrm != 0.0:
            out[i] = direction / nrm * base.radius * rng.uniform() ** (1.0 / dim)
    return out


def gap_hilbert_one(prob, uc, starts, max_iter=400):
    """The multi-start search the Hilbert-mode gap ran before its exact
    minimum: proximal gradient from each start until a step moves it by at
    most 1e-11 or max_iter steps, then lhs(u, y) through PrimalPoints.
    Returns the best (y, value), the first start winning ties, and the
    number of capped starts."""
    lin = (1.0 / prob.r) * (uc - prob.input_point.coords)
    lin = lin + prob.perturbation.apply(uc)
    grads = []
    lipschitz = 0.0
    for f in prob.bifunctions:
        if isinstance(f, PotentialBifunction):
            grads.append(f.psi.gradient)
            lipschitz += f.psi.lipschitz
        elif isinstance(f.g, InverseDualityPairing):
            lin = lin + uc
        else:
            lin = lin + f.g.apply(uc)

    def smooth_grad(y):
        total = np.array(lin)
        for g in grads:
            total = total + g(y)
        return total

    step = 1.0 / max(lipschitz, 1.0)
    best_y, best_v, capped = None, np.inf, 0
    u_pt = PrimalPoint(uc, prob.space)
    for y0 in starts:
        y = project_primitive(y0, prob.feasible.base)
        for _ in range(max_iter):
            y_new = _composite_prox(prob.mixed, prob.feasible, y - step * smooth_grad(y), step)
            moved = float(np.linalg.norm(y_new - y))
            y = y_new
            if moved <= 1e-11:
                break
        else:
            capped += 1
        val = resolvent_lhs(prob, u_pt, PrimalPoint(y, prob.space))
        if val < best_v:
            best_y, best_v = y, val
    return best_y, best_v, capped


def bifunction_monotonicity_defect(f, rng, samples, dimension, scale=1.0):
    """max of f(w, v) + f(v, w) over random dual pairs; <= 0 means monotone."""
    worst = -np.inf
    for _ in range(samples):
        w = scale * rng.standard_normal(dimension)
        v = scale * rng.standard_normal(dimension)
        worst = max(worst, f.evaluate(w, v) + f.evaluate(v, w))
    return worst


def perturbation_monotonicity_defect(pert, rng, samples, dimension, scale=1.0):
    """max of -<A(x) - A(y), x - y> over random primal pairs; <= 0 means monotone."""
    worst = -np.inf
    for _ in range(samples):
        x = scale * rng.standard_normal(dimension)
        y = scale * rng.standard_normal(dimension)
        worst = max(worst, -float(np.dot(pert.apply(x) - pert.apply(y), x - y)))
    return worst
