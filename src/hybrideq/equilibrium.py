"""Equilibrium bifunctions, mixed terms, perturbations, and the resolvent T_r.

The regularized equilibrium condition solved here: given a family of
bifunctions f_i on dual pairs, a convex mixed term phi on dual vectors, a
monotone perturbation A from primal to dual, a feasible set Omega, a
regularization r > 0 and an input point x, find u in Omega with

    sum_i f_i(Ju, Jy) + phi(Jy) - phi(Ju) + <y - u, A(u)>
        + (1/r) <u - x, Jy - Ju>  >=  0       for every y in Omega.

The map x -> u is single valued; its fixed points are exactly the solutions
of the underlying generalized mixed equilibrium problem.  No closed form
exists in general, so solutions are certified a posteriori by the gap
functional (resolvent_gap): the sampled, multi-start minimum of the left
side over y.  Where an exact bound on the gap is known it is recorded
beside the sampled one, and the larger of the two is the certified gap.

Support matrix
--------------
* Hilbert mode (p = 2), potential bifunctions f(w, v) = psi(v) - psi(w)
  and/or affine dual pairings, any mixed-term kind, zero/affine/duality
  perturbations: strongly monotone forward-backward splitting (the
  (1/r)(u - x) term has modulus 1/r, making the forward map a contraction).
* Banach mode, the shift-example class: pairings with g = J*, dual-norm
  mixed term, duality perturbation: closed form, T_r(x) = 0 when
  |x|_p <= r (certified exactly by Hölder's inequality, cross-checked by
  evaluating the left side at the sampled starts) and otherwise the
  stationary point s x / |x|_p (cross-checked by a sampled gap search);
  a candidate outside Omega or a gap above tolerance raises.

Everything else raises UnsupportedCombinationError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NonConvergedError, UnsupportedCombinationError
from .sets import Box, ConstraintSet, PBall, WholeSpace, contains, project_primitive, sample_feasible
from .space import PrimalPoint, SpaceConfig, gauge_coords, pnorm, pnorm_rows, row_dots

# -- potentials ---------------------------------------------------------------


@dataclass(frozen=True)
class QuadraticPotential:
    """psi(v) = (weight/2) |v - center|^2; smooth with modulus = lipschitz = weight."""

    center: np.ndarray
    weight: float = 1.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)
        if self.weight <= 0:
            raise ValueError("potential weight must be positive")

    def value(self, v: np.ndarray) -> float:
        diff = v - self.center
        return 0.5 * self.weight * float(np.dot(diff, diff))

    def gradient(self, v: np.ndarray) -> np.ndarray:
        return self.weight * (v - self.center)

    @property
    def lipschitz(self) -> float:
        return self.weight

    @property
    def strong_convexity(self) -> float:
        return self.weight


# -- pairing maps g: dual -> primal -------------------------------------------


@dataclass(frozen=True)
class InverseDualityPairing:
    """g = J*, the inverse duality map; the identity in Hilbert mode."""

    space: SpaceConfig

    def apply(self, w: np.ndarray) -> np.ndarray:
        return gauge_coords(w, self.space.conjugate)


@dataclass(frozen=True)
class AffinePairing:
    """g(w) = M w + offset with positive-semidefinite symmetric part."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        b = np.asarray(self.offset, dtype=float).copy()
        sym = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(sym)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs).max()):
            raise ValueError("affine pairing matrix must have PSD symmetric part")
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    def apply(self, w: np.ndarray) -> np.ndarray:
        return self.matrix @ w + self.offset

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    @property
    def monotone_modulus(self) -> float:
        sym = 0.5 * (self.matrix + self.matrix.T)
        return max(0.0, float(np.linalg.eigvalsh(sym).min()))


# -- bifunctions ---------------------------------------------------------------


@dataclass(frozen=True)
class PotentialBifunction:
    """f(w, v) = psi(v) - psi(w); monotone with equality in the symmetrized sum."""

    psi: QuadraticPotential

    def evaluate(self, w: np.ndarray, v: np.ndarray) -> float:
        return self.psi.value(v) - self.psi.value(w)


@dataclass(frozen=True)
class PairingBifunction:
    """f(w, v) = <g(w), v - w> for a monotone map g from dual to primal."""

    g: Union[InverseDualityPairing, AffinePairing]

    def evaluate(self, w: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(self.g.apply(w), v - w))


# -- mixed terms phi -----------------------------------------------------------


@dataclass(frozen=True)
class ZeroTerm:
    separable = True

    def value(self, v):
        return 0.0

    def subgradient(self, v):
        return np.zeros_like(v)

    def prox(self, v, t):
        return np.array(v, dtype=float)


@dataclass(frozen=True)
class DualNormTerm:
    """phi(v) = |v|_e on dual vectors; prox available only at e = 2."""

    exponent: float
    separable = False

    def value(self, v):
        return pnorm(v, self.exponent)

    def subgradient(self, v):
        nrm = pnorm(v, self.exponent)
        if nrm == 0.0:
            return np.zeros_like(v)  # 0 is a valid subgradient at the origin
        return gauge_coords(v, self.exponent) / nrm

    def prox(self, v, t):
        if self.exponent != 2.0:
            raise UnsupportedCombinationError(
                "dual-norm prox is only available for exponent 2"
            )
        nrm = float(np.linalg.norm(v))
        if nrm <= t:
            return np.zeros_like(v)
        return (1.0 - t / nrm) * v


@dataclass(frozen=True)
class WeightedL1Term:
    weight: float
    separable = True

    def value(self, v):
        return self.weight * float(np.sum(np.abs(v)))

    def subgradient(self, v):
        return self.weight * np.sign(v)

    def prox(self, v, t):
        return np.sign(v) * np.maximum(np.abs(v) - t * self.weight, 0.0)


@dataclass(frozen=True)
class QuadraticTerm:
    """phi(v) = 0.5 |v - center|^2."""

    center: np.ndarray
    separable = True

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).copy()
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    def value(self, v):
        diff = v - self.center
        return 0.5 * float(np.dot(diff, diff))

    def subgradient(self, v):
        return v - self.center

    def prox(self, v, t):
        return (v + t * self.center) / (1.0 + t)


MixedTerm = Union[ZeroTerm, DualNormTerm, WeightedL1Term, QuadraticTerm]


# -- perturbation maps A: primal -> dual ---------------------------------------


@dataclass(frozen=True)
class ZeroPerturbation:
    def apply(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class DualityPerturbation:
    """A = J; reduces the generalized problem toward the shift-example class."""

    space: SpaceConfig

    def apply(self, x):
        return gauge_coords(x, self.space.exponent)


@dataclass(frozen=True)
class AffinePerturbation:
    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        b = np.asarray(self.offset, dtype=float).copy()
        sym = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(sym)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs).max()):
            raise ValueError("perturbation matrix must have PSD symmetric part")
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    def apply(self, x):
        return self.matrix @ x + self.offset

    @property
    def lipschitz(self) -> float:
        return float(np.linalg.norm(self.matrix, 2))

    @property
    def monotone_modulus(self) -> float:
        sym = 0.5 * (self.matrix + self.matrix.T)
        return max(0.0, float(np.linalg.eigvalsh(sym).min()))


PerturbationMap = Union[ZeroPerturbation, DualityPerturbation, AffinePerturbation]


# -- the resolvent problem ------------------------------------------------------


@dataclass(frozen=True)
class ResolventProblem:
    """Data of one T_r solve: bifunction family, phi, A, Omega, r, input point.

    Omega is a base set (ball, box or whole space) without cuts.
    """

    bifunctions: tuple
    mixed: MixedTerm
    perturbation: PerturbationMap
    feasible: ConstraintSet
    r: float
    input_point: PrimalPoint
    min_r: float = 1e-8

    def __post_init__(self):
        object.__setattr__(self, "bifunctions", tuple(self.bifunctions))
        if self.feasible.cuts:
            # every solve and gap step projects onto the base set alone
            raise ValueError("the resolvent's feasible set Omega must carry no cuts")
        if self.min_r <= 0:
            raise ValueError("min_r must be positive")
        if self.r < self.min_r:
            raise ValueError(f"r = {self.r} is below the configured floor {self.min_r}")

    @property
    def space(self) -> SpaceConfig:
        return self.input_point.space


def resolvent_lhs(prob: ResolventProblem, u: PrimalPoint, y: PrimalPoint) -> float:
    """Left side of the regularized equilibrium inequality at the pair (u, y)."""
    space = prob.space
    p = space.exponent
    uc, yc = u.coords, y.coords
    ju = gauge_coords(uc, p)
    jy = gauge_coords(yc, p)
    total = 0.0
    for f in prob.bifunctions:
        total += f.evaluate(ju, jy)
    total += prob.mixed.value(jy) - prob.mixed.value(ju)
    total += float(np.dot(yc - uc, prob.perturbation.apply(uc)))
    pair = float(np.dot(uc - prob.input_point.coords, jy - ju))
    inv_r = 1.0 / prob.r
    # 1/r overflows for a subnormal r, and inf * 0 would be NaN: divide there
    total += inv_r * pair if inv_r < np.inf else pair / prob.r
    return total


# -- classification -------------------------------------------------------------


def classify_problem(prob: ResolventProblem) -> str:
    """'hilbert' or 'banach_lp'; raises UnsupportedCombinationError otherwise."""
    space = prob.space
    if space.is_hilbert:
        for f in prob.bifunctions:
            if isinstance(f, PotentialBifunction):
                continue
            if isinstance(f, PairingBifunction) and isinstance(
                f.g, (AffinePairing, InverseDualityPairing)
            ):
                continue  # J* is the identity here, hence affine
            raise UnsupportedCombinationError(
                f"unsupported bifunction {type(f).__name__} in Hilbert mode"
            )
        if not isinstance(
            prob.perturbation, (ZeroPerturbation, AffinePerturbation, DualityPerturbation)
        ):
            raise UnsupportedCombinationError(
                f"unsupported perturbation {type(prob.perturbation).__name__}"
            )
        if isinstance(prob.mixed, DualNormTerm) and prob.mixed.exponent != 2.0:
            raise UnsupportedCombinationError(
                "Hilbert mode requires the dual-norm mixed term to use exponent 2"
            )
        return "hilbert"
    ok = (
        len(prob.bifunctions) >= 1
        and all(
            isinstance(f, PairingBifunction) and isinstance(f.g, InverseDualityPairing)
            for f in prob.bifunctions
        )
        and isinstance(prob.mixed, DualNormTerm)
        and prob.mixed.exponent == space.conjugate
        and isinstance(prob.perturbation, DualityPerturbation)
    )
    if not ok:
        raise UnsupportedCombinationError(
            "Banach mode supports only the shift-example class: inverse-duality "
            "pairings, dual-norm mixed term, duality perturbation"
        )
    return "banach_lp"


# -- composite prox of t*phi + indicator(Omega) ---------------------------------


def _composite_prox(mixed, cset: ConstraintSet, v: np.ndarray, t: float) -> np.ndarray:
    if isinstance(mixed, ZeroTerm):
        return project_primitive(v, cset.base)
    if isinstance(cset.base, WholeSpace):
        return mixed.prox(v, t)
    if isinstance(cset.base, Box) and mixed.separable:
        # prox and interval clip compose exactly for separable convex terms
        return project_primitive(mixed.prox(v, t), cset.base)
    # Dykstra-like proximal alternation between the prox and the projection
    x = np.array(v, dtype=float)
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(500):
        y = mixed.prox(x + p, t)
        p = x + p - y
        x_new = project_primitive(y + q, cset.base)
        q = y + q - x_new
        if float(np.linalg.norm(x_new - x)) <= 1e-13 * (1.0 + float(np.linalg.norm(x))):
            return x_new
        x = x_new
    raise NonConvergedError("prox-projection alternation did not settle in 500 rounds")


# -- Hilbert-mode solver ---------------------------------------------------------


def _forward_terms(prob: ResolventProblem):
    """Single-valued monotone forward operator, its Lipschitz bound and modulus."""
    parts = []
    lipschitz = 1.0 / prob.r
    modulus = 1.0 / prob.r
    for f in prob.bifunctions:
        if isinstance(f, PotentialBifunction):
            parts.append(f.psi.gradient)
            lipschitz += f.psi.lipschitz
            modulus += f.psi.strong_convexity
        else:  # affine pairing (J* is the identity in Hilbert mode)
            if isinstance(f.g, InverseDualityPairing):
                parts.append(lambda u: u)
                lipschitz += 1.0
                modulus += 1.0
            else:
                parts.append(f.g.apply)
                lipschitz += f.g.lipschitz
                modulus += f.g.monotone_modulus
    pert = prob.perturbation
    if isinstance(pert, DualityPerturbation):
        parts.append(lambda u: u)
        lipschitz += 1.0
        modulus += 1.0
    elif isinstance(pert, AffinePerturbation):
        parts.append(pert.apply)
        lipschitz += pert.lipschitz
        modulus += pert.monotone_modulus
    x0 = prob.input_point.coords
    inv_r = 1.0 / prob.r

    def forward(u):
        total = inv_r * (u - x0)
        for part in parts:
            total = total + part(u)
        return total

    return forward, lipschitz, modulus


def _solve_hilbert(prob: ResolventProblem, tol: float, max_iter: int) -> np.ndarray:
    forward, lipschitz, modulus = _forward_terms(prob)
    step = modulus / (lipschitz * lipschitz)
    u = project_primitive(prob.input_point.coords, prob.feasible.base)
    target = tol / 10.0
    for _ in range(max_iter):
        u_new = _composite_prox(prob.mixed, prob.feasible, u - step * forward(u), step)
        moved = float(np.linalg.norm(u_new - u))
        u = u_new
        if moved <= target:
            return u
    raise NonConvergedError(
        f"forward-backward displacement did not reach {target:g} in {max_iter} iterations"
    )


# -- Banach (shift-example class) solver ------------------------------------------


def _banach_inner_objective(prob: ResolventProblem, uc: np.ndarray):
    """Closed-form inner objective y -> lhs(u, y) and its gradient for the lp class.

    Batched over rows.  evaluate takes (k, d) and returns the (k,) values
    with the intermediates the gradient reuses: |y|, the row norms, the
    signed powers |y_i|^(p-1) sign(y_i) and their products with c1.
    gradient maps those intermediates to the (k, d) gradients, so an
    accepted line-search trial needs no second evaluation.  Row reductions
    are einsum and sums over axis 1, never BLAS products, so each row's
    result does not depend on which rows share its batch.  The
    Jacobian-transpose product of the duality map is evaluated through its
    rank-one-plus-diagonal form, never materializing the matrix.
    """
    space = prob.space
    p = space.exponent
    k = len(prob.bifunctions)
    x0 = prob.input_point.coords
    inv_r = 1.0 / prob.r
    ju = gauge_coords(uc, p)
    nu = pnorm(uc, p)
    c1 = k * uc + inv_r * (uc - x0)
    const = -k * nu * nu - nu - nu * nu - inv_r * float(np.dot(uc - x0, ju))

    def evaluate(ys):
        absy = np.abs(ys)
        power = absy ** (p - 1.0)
        norms = np.sum(power * absy, axis=1) ** (1.0 / p)
        s = np.copysign(power, ys)
        sc1 = np.einsum("ij,j->i", s, c1)
        safe = np.where(norms > 0.0, norms, 1.0)
        # <Jy, c1> with Jy = |y|^(2-p) s, and Jy = 0 at y = 0
        jyc1 = np.where(norms > 0.0, safe ** (2.0 - p) * sc1, 0.0)
        return jyc1 + norms + np.einsum("ij,j->i", ys, ju) + const, (absy, norms, s, sc1)

    def gradient(parts):
        absy, norms, s, sc1 = parts
        tiny = norms < 1e-14
        safe = np.where(tiny, 1.0, norms)
        # DJ(y)^T c1 = (2-p) |y|^(2-2p) (s.c1) s + (p-1) |y|^(2-p) |y_i|^(p-2) c1_i
        absy_diag = np.maximum(absy, 1e-12) if p < 2.0 else absy
        grad = (2.0 - p) * (safe ** (2.0 - 2.0 * p) * sc1)[:, None] * s
        grad += (p - 1.0) * safe[:, None] ** (2.0 - p) * absy_diag ** (p - 2.0) * c1
        grad += s / safe[:, None] ** (p - 1.0)  # gradient of the p-norm
        grad = np.where(tiny[:, None], 0.0, grad)
        return grad + ju

    return evaluate, gradient


def _outside_ball(cset, ys):
    """Mask of the rows of ys that only the ball's root-find can project."""
    base = cset.base
    if not isinstance(base, PBall):
        return np.zeros(len(ys), dtype=bool)  # clip and copy are cheap
    e = base.exponent
    absy = np.abs(ys)
    # |y|^(e-1) |y|: numpy squares in place of pow at e = 3
    norms = np.sum(absy ** (e - 1.0) * absy, axis=1) ** (1.0 / e)
    return norms > base.radius


def _project_rows(cset, ys, outside=None):
    """Project each row of ys onto the base set; on a ball only the rows in
    the `outside` mask move (by default _outside_ball's)."""
    base = cset.base
    if not isinstance(base, PBall):
        return project_primitive(ys, base)  # clip and copy act row by row
    if outside is None:
        outside = _outside_ball(cset, ys)
    out = np.array(ys)
    for i in np.nonzero(outside)[0]:
        out[i] = project_primitive(ys[i], base)
    return out


# A row's line search tries at most _HALVINGS steps t, t/2, t/4, ...  One
# batched call tries up to _STEP_BLOCK of them (t, ..., t/32) per row
_HALVINGS = 40
_STEP_BLOCK = 6
_COLUMNS = np.arange(_STEP_BLOCK)


def _pgd_search(evaluate, gradient, cset, starts, max_iter, tol):
    """Projected gradient with Armijo backtracking from each start; all rows.

    Each row follows its own sequential rule: from step t, try t, t/2, ...
    (at most _HALVINGS halvings) until the projected trial passes the
    Armijo model; stop the row when its line search fails or it moves by
    at most tol * t, and otherwise grow t by 1.3 (capped at 1e6).

    Only the rows still searching are evaluated.  Their line searches test
    a block of _STEP_BLOCK steps per call and take the first that passes,
    which is the step the sequential halving picks; a trial beyond it
    changes nothing.  A trial outside a ball base is projected only as the
    first of its row's block, so every root-find, and any error it raises,
    is one the sequential rule reaches.  An accepted trial's value and
    intermediates feed the next gradient.  Every reduction is row-wise, so
    each row's trajectory depends only on its own start.  Returns the
    final rows, their values and the number of rows that reached max_iter
    still moving.
    """
    ys = _project_rows(cset, np.array([np.asarray(s, dtype=float) for s in starts]))
    fy, parts = evaluate(ys)
    t = np.ones(len(ys))
    live = np.arange(len(ys))  # rows still searching
    for _ in range(max_iter):
        if live.size == 0:
            break
        y0, f0, tl = ys[live], fy[live], t[live]
        g = gradient(parts)
        parts = tuple(np.empty_like(a) for a in parts)  # filled by accepted trials
        accepted = np.zeros(live.size, dtype=bool)
        tried = np.zeros(live.size, dtype=int)
        pending = np.arange(live.size)  # positions in live still backtracking
        while pending.size:
            halves = np.full((pending.size, _STEP_BLOCK), 0.5)
            halves[:, 0] = tl[pending]
            steps = np.cumprod(halves, axis=1)  # the sequential halvings, exactly
            base_y = np.repeat(y0[pending], _STEP_BLOCK, axis=0)
            base_g = np.repeat(g[pending], _STEP_BLOCK, axis=0)
            raw = base_y - steps.reshape(-1, 1) * base_g
            # a row's block stops before its first trial outside the ball,
            # or holds that trial alone when it comes first: every root-find
            # (and every error it raises) is one the sequential rule reaches
            outside = _outside_ball(cset, raw).reshape(steps.shape)
            first_out = np.where(outside.any(axis=1), np.argmax(outside, axis=1), _STEP_BLOCK)
            width = np.minimum(_HALVINGS - tried[pending], np.where(first_out == 0, 1, first_out))
            usable = _COLUMNS < width[:, None]
            trial = _project_rows(cset, raw, (outside & usable).ravel())
            f_trial, trial_parts = evaluate(trial)
            delta = trial - base_y
            model = (
                np.repeat(f0[pending], _STEP_BLOCK)
                + np.einsum("ij,ij->i", base_g, delta)
                + np.einsum("ij,ij->i", delta, delta) / (2.0 * steps.ravel())
            )
            passed = (f_trial <= model).reshape(steps.shape) & usable
            first = np.where(passed.any(axis=1), np.argmax(passed, axis=1), _STEP_BLOCK)
            hit = first < _STEP_BLOCK
            pick = np.nonzero(hit)[0] * _STEP_BLOCK + first[hit]
            rows = pending[hit]
            ys[live[rows]] = trial[pick]
            fy[live[rows]] = f_trial[pick]
            for kept, new in zip(parts, trial_parts):
                kept[rows] = new[pick]
            tl[rows] = steps[hit, first[hit]]
            accepted[rows] = True
            if hit.all():
                break
            miss = ~hit
            rows = pending[miss]
            tl[rows] = steps[miss, width[miss] - 1] * 0.5
            tried[rows] += width[miss]
            pending = rows[tried[rows] < _HALVINGS]
        # a row whose line search failed stays at y0 and stops
        moved = np.linalg.norm(ys[live] - y0, axis=1)
        t[live] = np.minimum(tl * 1.3, 1e6)
        keep = accepted & (moved > tol * tl)
        live = live[keep]
        parts = tuple(a[keep] for a in parts)
    return ys, fy, live.size


def _pgd_minimize(evaluate, gradient, cset, starts, max_iter=200, tol=1e-9):
    """Best (y, value) of _pgd_search, ties broken by the lowest start index,
    and the number of starts that reached max_iter still moving.

    The batch evaluates live rows only and backtracks in blocks of steps;
    each row's trajectory is the one its start follows alone.
    """
    ys, fy, capped = _pgd_search(evaluate, gradient, cset, starts, max_iter, tol)
    best = int(np.argmin(fy))
    return ys[best], float(fy[best]), capped


def _gap_starts(prob: ResolventProblem, uc: np.ndarray, samples: int, rng) -> list:
    dim = prob.space.dimension
    starts = [uc, np.zeros(dim)]
    if samples > 0:
        pts = sample_feasible(prob.feasible, rng, samples, dimension=dim)
        starts.extend(pts)
    return starts


def _project_rows_exact(cset, ys):
    """project_primitive of each row of ys onto the base set, bit for bit:
    pnorm_rows gives each row the norm pnorm gives it, so the rows sent to
    a ball's projection are those it moves."""
    base = cset.base
    outside = ~(pnorm_rows(ys, base.exponent) <= base.radius) if isinstance(base, PBall) else None
    return _project_rows(cset, ys, outside)


def _prox_rows(mixed, cset: ConstraintSet, vs: np.ndarray, t: float) -> np.ndarray:
    """_composite_prox of each row of vs, bit for bit.

    A zero term projects the rows, and a separable term's prox and a box
    clip act coordinatewise; any other term alternates row by row.
    """
    if isinstance(mixed, ZeroTerm):
        return _project_rows_exact(cset, vs)
    if mixed.separable and isinstance(cset.base, (Box, WholeSpace)):
        return project_primitive(mixed.prox(vs, t), cset.base)
    out = np.empty_like(vs)
    for i, v in enumerate(vs):
        out[i] = _composite_prox(mixed, cset, v, t)
    return out


def _gap_hilbert(prob, uc, starts, max_iter=400):
    """Convex inner minimization of lhs(u, .) by proximal gradient.

    Returns the best (y, value) over the starts, ties broken by the lowest
    start index, and the number of starts that reached max_iter still
    moving.  The starts run as one batch of live rows; a row leaves it once
    a step moves it by at most 1e-11.  Every row operation is coordinatewise
    or a row-wise reduction that matches its one-row form, so each row
    follows the path its start follows alone, bit for bit.
    """
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
    ys = _project_rows_exact(prob.feasible, np.array(starts, dtype=float))
    live = np.arange(len(ys))  # rows still moving
    for _ in range(max_iter):
        if not live.size:
            break
        y = ys[live]
        y_new = _prox_rows(prob.mixed, prob.feasible, y - step * smooth_grad(y), step)
        moved = np.sqrt(row_dots(y_new - y))  # np.linalg.norm of each row
        ys[live] = y_new
        live = live[~(moved <= 1e-11)]
    if not np.all(np.isfinite(ys)):
        raise ValueError("coordinates must be finite")  # as PrimalPoint refuses them
    best, best_v = None, np.inf
    for i, val in enumerate(_lhs_rows(prob, uc, ys).tolist()):
        if val < best_v:
            best, best_v = i, val
    return (None if best is None else ys[best]), best_v, live.size


def _lhs_rows(prob: ResolventProblem, uc: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """resolvent_lhs(prob, u, y) for each row y of ys in Hilbert mode, bit for bit.

    J is the identity at p = 2.  The terms are summed in resolvent_lhs's
    order.  Quadratic potentials, the weighted-l1 term and the linear terms
    are formed for all rows at once from the same products, their dot
    products being `row_dots`; any other term is evaluated row by row.
    """
    total = np.zeros(ys.shape[0])
    for f in prob.bifunctions:
        if isinstance(f, PotentialBifunction):
            total += 0.5 * f.psi.weight * row_dots(ys - f.psi.center) - f.psi.value(uc)
        else:
            total += np.array([f.evaluate(uc, y) for y in ys])
    mixed = prob.mixed
    if isinstance(mixed, WeightedL1Term):
        total += mixed.weight * np.sum(np.abs(ys), axis=1) - mixed.value(uc)
    else:
        total += np.array([mixed.value(y) for y in ys]) - mixed.value(uc)
    total += row_dots(ys - uc, prob.perturbation.apply(uc))
    pair = row_dots(ys - uc, uc - prob.input_point.coords)
    inv_r = 1.0 / prob.r
    total += inv_r * pair if inv_r < np.inf else pair / prob.r
    return total


def _gap_banach(prob, uc, starts, max_iter=200):
    evaluate, gradient = _banach_inner_objective(prob, uc)
    y, _, capped = _pgd_minimize(evaluate, gradient, prob.feasible, starts, max_iter=max_iter)
    # report the certified value through the generic evaluation
    val = resolvent_lhs(prob, PrimalPoint(uc, prob.space), PrimalPoint(y, prob.space))
    return y, val, capped


def _gap_holder(prob, uc, starts):
    """min over the starts of lhs(0, y), by evaluation alone.

    A row the batched evaluation overflows on (far from unit scale) is
    evaluated again by the scale-safe resolvent_lhs.
    """
    values = _banach_inner_objective(prob, uc)[0](np.array(starts, dtype=float))[0]
    for i in np.nonzero(~np.isfinite(values))[0]:
        values[i] = resolvent_lhs(prob, PrimalPoint(uc, prob.space), PrimalPoint(starts[i], prob.space))
    return float(np.min(values))


def resolvent_gap(
    prob: ResolventProblem,
    u: PrimalPoint,
    samples: int = 16,
    rng: np.random.Generator | None = None,
    max_iter: int = 300,
) -> tuple:
    """(max(0, -min_y lhs(u, y)), capped starts): a zero gap (within
    tolerance) certifies u = T_r(input).

    The minimum is taken over `samples` random feasible multi-starts plus
    y = u and y = 0, so the value is a sampled estimate: it can miss a
    negative minimum but never reports a false one.  In Banach mode at
    u = 0 with |x|_p <= r, Hölder's inequality already bounds lhs(0, .)
    below by 0, so the starts are only evaluated, in one batched call, as
    an independent cross-check of that bound; no start is capped.
    Otherwise the inner minimization runs projected gradient (proximal
    gradient in Hilbert mode) from every start.  The starts run as one
    batch of the rows still searching, yet return what each start's
    search returns alone: in Banach mode _pgd_minimize also tests six
    halvings per line-search call, and in Hilbert mode _gap_hilbert steps
    all rows at once.

    A start that reaches max_iter still moving ends its search there, so
    the value can then miss part of the descent; the second entry counts
    such starts.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    kind = classify_problem(prob)
    uc = u.coords
    starts = _gap_starts(prob, uc, samples, rng)
    if kind == "hilbert":
        _, best, capped = _gap_hilbert(prob, uc, starts, max_iter=max_iter)
    elif not uc.any() and pnorm(prob.input_point.coords, prob.space.exponent) <= prob.r:
        best, capped = _gap_holder(prob, uc, starts), 0
    else:
        _, best, capped = _gap_banach(prob, uc, starts, max_iter=max_iter)
    return max(0.0, -best), capped


def _solve_banach(prob: ResolventProblem, tol: float, rng) -> tuple:
    """Closed-form T_r for the shift-example class, certified once.

    With k pairings the stationarity condition of the resolvent inequality
    makes u a nonnegative multiple of the input x: u = 0 when |x|_p <= r,
    and otherwise u = s x / |x|_p with s = (|x|_p / r - 1) / (k + 1 + 1/r).
    Either candidate must lie in Omega.  At u = 0 Hölder's inequality
    bounds the gap exactly: lhs(0, y) = |y|_p - <x, Jy>/r
    >= |y|_p (1 - |x|_p / r) >= 0, and resolvent_gap cross-checks it by
    evaluating lhs(0, .) at its sampled starts, without a descent.  The
    nonzero candidate has no exact bound, so resolvent_gap searches its
    starts by projected gradient.  The larger of the exact bound and the
    sampled gap is the certified gap, and NonConvergedError is raised when
    it exceeds tol.  Returns (u, gap, the number of gap-search starts
    capped still moving, always 0 at u = 0).
    """
    xc = prob.input_point.coords
    nx = pnorm(xc, prob.space.exponent)
    exact = None
    if nx <= prob.r:
        uc = np.zeros_like(xc)
        exact = 0.0  # the Hölder bound above: no y makes lhs(0, y) negative
    else:
        inv_r = 1.0 / prob.r
        s = (nx * inv_r - 1.0) / (len(prob.bifunctions) + 1.0 + inv_r)
        uc = (s / nx) * xc
    if not contains(prob.feasible, uc):
        raise NonConvergedError("the closed-form resolvent candidate lies outside Omega")
    gap, capped = resolvent_gap(prob, PrimalPoint(uc, prob.space), rng=rng)
    if exact is not None:
        gap = max(exact, gap)
    if gap > tol:
        raise NonConvergedError(f"closed-form Banach resolvent gap {gap:g} > tol={tol:g}")
    return uc, gap, capped


def solve_resolvent_certified(
    prob: ResolventProblem,
    tol: float = 1e-8,
    seed: int = 0,
    max_iter: int = 200_000,
    rng: np.random.Generator | None = None,
) -> tuple:
    """Solve for T_r(input) and certify; returns (PrimalPoint, certified gap,
    capped starts).

    The third entry counts the gap-search starts, over every gap search of
    the solve, that reached their iteration cap still moving.
    """
    kind = classify_problem(prob)
    if rng is None:
        rng = np.random.default_rng([seed, 0x5E50])
    if kind == "hilbert":
        target = tol / 10.0
        capped = 0
        for _ in range(3):
            uc = _solve_hilbert(prob, target * 10.0, max_iter)
            u = PrimalPoint(uc, prob.space)
            gap, more = resolvent_gap(prob, u, rng=rng)
            capped += more
            if gap <= tol:
                break
            target /= 10.0
        else:
            raise NonConvergedError(f"resolvent gap {gap:g} stayed above tol={tol:g}")
    else:
        uc, gap, capped = _solve_banach(prob, tol, rng)
    return PrimalPoint(uc, prob.space), gap, capped

