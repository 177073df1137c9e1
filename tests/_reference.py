"""Reference algorithms for the tests, independent of the engines under test."""

import numpy as np

from hybrideq import ConstraintSet, NonConvergedError, project_primitive
from hybrideq.equilibrium import _project_rows
from hybrideq.sets import _PARALLEL_CHORD, Box, worst_violation


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


def pgd_sequential(evaluate, gradient, cset, start, max_iter=300, tol=1e-9):
    """The gap search's projected gradient from one start, one trial per halving.

    From step t (1 at first) it tries t, t/2, ... (at most 40 halvings)
    until the projected trial passes the Armijo model, and stops when the
    line search fails or the point moves by at most tol * t; otherwise t
    grows by 1.3, capped at 1e6.  evaluate and gradient are the batched
    objective of equilibrium._banach_inner_objective, applied to one row;
    the model's dot products are einsum reductions.  Returns (y, value).
    """
    y = _project_rows(cset, np.asarray(start, dtype=float)[None, :])
    f, parts = evaluate(y)
    t = 1.0
    for _ in range(max_iter):
        g = gradient(parts)
        for _ in range(40):
            trial = _project_rows(cset, y - t * g)
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
