"""Reference projections for the tests, independent of the engines under test."""

import numpy as np

from hybrideq import NonConvergedError, project_primitive
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
