"""Reference algorithms for the tests, independent of the engines under test."""

import numpy as np

from hybrideq import NonConvergedError, project_primitive
from hybrideq.equilibrium import _project_rows
from hybrideq.sets import worst_violation


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
