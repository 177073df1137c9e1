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
functional (resolvent_gap): the minimum of the left side over y.  It is
exact where a closed form exists and sampled from multiple starts
otherwise; the left side at the sampled starts cross-checks an exact
value, and the larger gap of the two is certified.

Support matrix
--------------
* Hilbert mode (p = 2), potential bifunctions f(w, v) = psi(v) - psi(w)
  and/or affine dual pairings, any mixed-term kind, zero/affine/duality
  perturbations, Omega a 2-ball, box or whole space: strongly monotone
  forward-backward splitting (the (1/r)(u - x) term has modulus 1/r,
  making the forward map a contraction),
  certified by the exact minimum of the left side over y: one composite
  prox, or a closed-form support function when no potential is present
  (a descent from u for the classes without one).
* Banach mode, the shift-example class: pairings with g = J*, dual-norm
  mixed term, duality perturbation: closed form, T_r(x) = 0 when
  |x|_p <= r (certified exactly by Hölder's inequality, cross-checked by
  evaluating the left side at the sampled starts) and otherwise the
  stationary point s x / |x|_p (cross-checked by a sampled gap search);
  a candidate outside Omega or a gap above tolerance raises.

Everything else raises UnsupportedCombinationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import NonConvergedError, UnsupportedCombinationError
from .sets import (
    Box,
    ConstraintSet,
    PBall,
    WholeSpace,
    project_primitive,
    sample_feasible,
    worst_violation,
)
from .space import (
    PrimalPoint,
    SpaceConfig,
    all_finite,
    any_nonzero,
    gauge_coords,
    kept,
    max_entry,
    min_entry,
    norm2,
    norm2_rows,
    pnorm,
    pnorm_rows,
    row_dots,
    row_max,
)

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
        if not self.weight > 0:  # NaN fails too
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
class AffineMap:
    """x -> M x + offset with positive-semidefinite symmetric part; serves as
    a pairing map g and as a perturbation A."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float).copy()
        b = np.asarray(self.offset, dtype=float).copy()
        sym = 0.5 * (m + m.T)
        eigs = np.linalg.eigvalsh(sym)
        if eigs.min() < -1e-10 * max(1.0, abs(eigs).max()):
            raise ValueError("affine matrix must have PSD symmetric part")
        m.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "offset", b)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x + self.offset

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

    g: Union[InverseDualityPairing, AffineMap]

    def evaluate(self, w: np.ndarray, v: np.ndarray) -> float:
        return float(np.dot(self.g.apply(w), v - w))


# -- mixed terms phi -----------------------------------------------------------


@dataclass(frozen=True)
class ZeroTerm:
    separable = True

    def value(self, v):
        return 0.0

    def prox(self, v, t):
        return np.array(v, dtype=float)


@dataclass(frozen=True)
class DualNormTerm:
    """phi(v) = |v|_e on dual vectors; prox available only at e = 2."""

    exponent: float
    separable = False

    def value(self, v):
        return pnorm(v, self.exponent)

    def prox(self, v, t):
        if self.exponent != 2.0:
            raise UnsupportedCombinationError(
                "dual-norm prox is only available for exponent 2"
            )
        nrm = norm2(v)
        if nrm <= t:
            return np.zeros(v.shape)
        return (1.0 - t / nrm) * v


@dataclass(frozen=True)
class WeightedL1Term:
    weight: float
    separable = True

    def __post_init__(self):
        if not self.weight > 0:  # NaN fails too
            raise ValueError("l1 weight must be positive")

    def value(self, v):
        return self.weight * float(np.abs(v).sum())

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

    def prox(self, v, t):
        return (v + t * self.center) / (1.0 + t)


MixedTerm = Union[ZeroTerm, DualNormTerm, WeightedL1Term, QuadraticTerm]


# -- perturbation maps A: primal -> dual ---------------------------------------


@dataclass(frozen=True)
class ZeroPerturbation:
    def apply(self, x):
        return np.zeros(np.shape(x))


@dataclass(frozen=True)
class DualityPerturbation:
    """A = J; reduces the generalized problem toward the shift-example class."""

    space: SpaceConfig

    def apply(self, x):
        return gauge_coords(x, self.space.exponent)


PerturbationMap = Union[ZeroPerturbation, DualityPerturbation, AffineMap]


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

    def __post_init__(self):
        object.__setattr__(self, "bifunctions", tuple(self.bifunctions))
        if self.feasible.cuts:
            # every solve and gap step projects onto the base set alone
            raise ValueError("the resolvent's feasible set Omega must carry no cuts")
        if not self.r > 0:  # NaN fails too
            raise ValueError(f"r must be positive, got {self.r}")

    @property
    def space(self) -> SpaceConfig:
        return self.input_point.space

    @kept
    def kind(self) -> str:
        """classify_problem(self), computed on first read: a solve and its
        gap checks classify the problem once."""
        return classify_problem(self)


# products under 2^-1022 move a dot product this large by under 2^-106 of it
_PAIR_MIN = 2.0**-969


def _pairings_over_r(a: np.ndarray, bs: np.ndarray, r: float) -> np.ndarray:
    """<a, b> / r for each row b of bs: (1 / r) np.dot(b, a), or np.dot(b, a) / r
    where 1 / r overflows (a subnormal r), since inf * 0 would be NaN.

    A pairing below _PAIR_MIN of a nonzero a and row may have lost bits
    under the normal range: a, b and r are then scaled exactly by powers of
    two into [1/2, 1), and the quotient taken there is scaled back once."""
    pairs = row_dots(bs, a)
    inv_r = 1.0 / r
    out = inv_r * pairs if inv_r < np.inf else pairs / r
    small = np.abs(pairs) < _PAIR_MIN
    if any_nonzero(bs[small]) and any_nonzero(a):
        rows, shift_a = bs[small], math.frexp(float(max_entry(np.abs(a))))[1]
        shift_b = np.frexp(row_max(np.abs(rows)))[1]
        unit_r, shift_r = math.frexp(r)
        scaled = row_dots(np.ldexp(rows, -shift_b[:, None]), np.ldexp(a, -shift_a)) / unit_r
        out[small] = np.ldexp(scaled, shift_a + shift_b - shift_r)
    return out


def resolvent_lhs(prob: ResolventProblem, u: PrimalPoint, y: PrimalPoint) -> float:
    """Left side of the regularized equilibrium inequality at the pair (u, y);
    reads the points' kept duality images."""
    uc, yc = u.coords, y.coords
    ju, jy = u.dual_coords, y.dual_coords
    total = 0.0
    for f in prob.bifunctions:
        total += f.evaluate(ju, jy)
    total += prob.mixed.value(jy) - prob.mixed.value(ju)
    total += float(np.dot(yc - uc, prob.perturbation.apply(uc)))
    total += float(_pairings_over_r(uc - prob.input_point.coords, (jy - ju)[None, :], prob.r)[0])
    return total


# -- classification -------------------------------------------------------------


def classify_problem(prob: ResolventProblem) -> str:
    """'hilbert' or 'banach_lp'; raises UnsupportedCombinationError otherwise,
    and when a J* pairing or the duality perturbation carries a space other
    than the problem's."""
    space = prob.space
    pairings = [f.g for f in prob.bifunctions if isinstance(f, PairingBifunction)]
    for m in (*pairings, prob.perturbation):
        if isinstance(m, (InverseDualityPairing, DualityPerturbation)) and m.space != space:
            raise UnsupportedCombinationError(
                f"{type(m).__name__}'s space (dimension {m.space.dimension}, exponent "
                f"{m.space.exponent:g}) is not the problem's (dimension {space.dimension}, "
                f"exponent {space.exponent:g})"
            )
    if space.is_hilbert:
        for f in prob.bifunctions:
            if isinstance(f, PotentialBifunction):
                continue
            if isinstance(f, PairingBifunction) and isinstance(
                f.g, (AffineMap, InverseDualityPairing)
            ):
                continue  # J* is the identity here, hence affine
            raise UnsupportedCombinationError(
                f"unsupported bifunction {type(f).__name__} at exponent 2"
            )
        if not isinstance(prob.perturbation, (ZeroPerturbation, AffineMap, DualityPerturbation)):
            raise UnsupportedCombinationError(
                f"unsupported perturbation {type(prob.perturbation).__name__}"
            )
        if isinstance(prob.mixed, DualNormTerm) and prob.mixed.exponent != 2.0:
            raise UnsupportedCombinationError(
                "at exponent 2 the dual-norm mixed term must use exponent 2"
            )
        base = prob.feasible.base
        if isinstance(base, PBall) and base.exponent != 2.0:  # no Euclidean projection
            raise UnsupportedCombinationError(
                f"at exponent 2 a ball Omega must use exponent 2, not {base.exponent:g}"
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
            f"at exponent {space.exponent:g} only the shift-example class is supported: "
            "inverse-duality pairings, the dual-norm mixed term of the conjugate "
            "exponent, the duality perturbation"
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
    p = np.zeros(x.shape)
    q = np.zeros(x.shape)
    for _ in range(500):
        y = mixed.prox(x + p, t)
        p = x + p - y
        x_new = project_primitive(y + q, cset.base)
        q = y + q - x_new
        if norm2(x_new - x) <= 1e-13 * (1.0 + norm2(x)):
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
    elif isinstance(pert, AffineMap):
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


def _forward_backward(prob, start, forward, step, target, max_iter) -> tuple:
    """Forward-backward y <- prox of step*phi + indicator(Omega) at
    y - step * forward(y), from start projected onto Omega, until a step
    moves y by at most target; returns (y, settled), settled False when
    max_iter steps all moved it further."""
    y = project_primitive(start, prob.feasible.base)
    for _ in range(max_iter):
        y_new = _composite_prox(prob.mixed, prob.feasible, y - step * forward(y), step)
        moved = norm2(y_new - y)
        y = y_new
        if moved <= target:
            return y, True
    return y, False


def _solve_hilbert(prob: ResolventProblem, target: float, max_iter: int) -> np.ndarray:
    """Forward-backward from the projected input until a step moves u by at
    most target; raises NonConvergedError after max_iter steps."""
    forward, lipschitz, modulus = _forward_terms(prob)
    step = modulus / (lipschitz * lipschitz)
    u, settled = _forward_backward(prob, prob.input_point.coords, forward, step, target, max_iter)
    if not settled:
        raise NonConvergedError(
            f"forward-backward displacement did not reach {target:g} in {max_iter} iterations"
        )
    return u


# -- Banach (shift-example class) solver ------------------------------------------


def _banach_inner_objective(prob: ResolventProblem, u: PrimalPoint):
    """Closed-form inner objective y -> lhs(u, y) and its gradient for the lp class.

    Reads u's kept norm and duality image.

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
    uc, ju, nu = u.coords, u.dual_coords, u.norm
    c1 = k * uc + inv_r * (uc - x0)
    const = -k * nu * nu - nu - nu * nu - inv_r * float(np.dot(uc - x0, ju))

    def evaluate(ys):
        absy = np.abs(ys)
        power = absy ** (p - 1.0)
        norms = (power * absy).sum(axis=1) ** (1.0 / p)
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


def _project_rows(cset, ys):
    """Each row of ys moved into the base set: clipped to a box, kept on the
    whole space, scaled onto the sphere of an e-ball it lies outside, y R /
    |y|_e.  A scaled row's norm is R to within a few ulps, as with
    project_primitive's 2-ball formula, which it is at e = 2 bit for bit
    (pnorm_rows has pnorm's bits)."""
    base = cset.base
    if not isinstance(base, PBall):
        return project_primitive(ys, base)  # clip and copy act row by row
    out, norms = np.array(ys), pnorm_rows(ys, base.exponent)
    outside = norms > base.radius
    out[outside] = ys[outside] * (base.radius / norms[outside])[:, None]
    return out


def _step_rows(base, ys, gs, steps):
    """y - t g for each row y, gradient g and step t, before _project_rows.

    On an e-ball, e != 2, a step that leaves the ball is first projected
    onto the halfspace <n, w> <= R that linearizes the ball at y, n the
    gradient of |.|_e at y (at the step where y = 0).  Radial scaling alone
    would stop a row on the sphere where g is parallel to y; this stops it
    where -g is an outward normal, as the Euclidean projection does."""
    trial = ys - steps[:, None] * gs
    if isinstance(base, PBall) and base.exponent != 2.0:
        e, out = base.exponent, pnorm_rows(trial, base.exponent) > base.radius
        if any_nonzero(out):
            z, y = trial[out], ys[out]
            at = np.where((y != 0.0).any(axis=1)[:, None], y, z)
            n = (np.abs(at) / pnorm_rows(at, e)[:, None]) ** (e - 1.0) * np.sign(at)
            excess = np.maximum(np.einsum("ij,ij->i", n, z) - base.radius, 0.0)
            trial[out] = z - (excess / row_dots(n))[:, None] * n
    return trial


# A row's line search tries at most _HALVINGS steps t, t/2, t/4, ...
_HALVINGS = 40


def _pgd_search(evaluate, gradient, cset, starts, max_iter, tol):
    """Projected gradient with Armijo backtracking from each start; all rows.

    Each row follows its own sequential rule: from step t, try t, t/2, ...
    (at most _HALVINGS halvings) until the projected trial passes the
    Armijo model; stop the row when its line search fails or it moves by
    at most tol * t, and otherwise grow t by 1.3 (capped at 1e6).

    Only the rows still searching are evaluated, and each call tries one
    step of every row still backtracking, so every projection is one the
    sequential rule reaches.  An accepted trial's value and intermediates
    feed the next gradient.  Every reduction is row-wise, so each row's
    trajectory depends only on its own start.  Returns the final rows,
    their values and the number of rows that reached max_iter still moving.
    """
    ys = _project_rows(cset, np.asarray(starts, dtype=float))
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
        pending = np.arange(live.size)  # positions in live still backtracking
        for _ in range(_HALVINGS):
            base_y, base_g, steps = y0[pending], g[pending], tl[pending]
            trial = _project_rows(cset, _step_rows(cset.base, base_y, base_g, steps))
            f_trial, trial_parts = evaluate(trial)
            delta = trial - base_y
            model = (
                f0[pending]
                + np.einsum("ij,ij->i", base_g, delta)
                + np.einsum("ij,ij->i", delta, delta) / (2.0 * steps)
            )
            hit = f_trial <= model
            rows = pending[hit]
            ys[live[rows]] = trial[hit]
            fy[live[rows]] = f_trial[hit]
            for kept, new in zip(parts, trial_parts):
                kept[rows] = new[hit]
            accepted[rows] = True
            pending = pending[~hit]
            if pending.size == 0:
                break
            tl[pending] *= 0.5
        # a row whose line search failed stays at y0 and stops
        moved = norm2_rows(ys[live] - y0)
        t[live] = np.minimum(tl * 1.3, 1e6)
        keep = accepted & (moved > tol * tl)
        live = live[keep]
        parts = tuple(a[keep] for a in parts)
    return ys, fy, live.size


def _gap_starts(prob: ResolventProblem, uc: np.ndarray, samples: int, rng) -> np.ndarray:
    """The gap search's starts as rows: u, 0 and `samples` feasible points."""
    dim = prob.space.dimension
    starts = (uc[None, :], np.zeros((1, dim)))
    if samples > 0:
        starts += (sample_feasible(prob.feasible, rng, samples, dimension=dim),)
    return np.concatenate(starts)


def _linear_minimum(mixed, base, lin: np.ndarray):
    """min over y in a box or 2-ball of <lin, y> + phi(y) in closed form, or None.

    For a zero or weighted-l1 term (weight lam, 0 for the zero term) it is
    the sum over coordinates of the least of the values at the interval
    ends and at 0 on a box, and -R |(|lin| - lam)+| on a 2-ball of radius
    R; for the dual-norm term on a 2-ball it is -R (|lin| - 1)+.  Any other
    pair has none here.  On the whole space the minimum is 0 or -inf, and
    at T_r(x) rounding in u decides which.
    """
    if isinstance(base, WholeSpace):
        return None
    if isinstance(mixed, DualNormTerm):
        return -base.radius * max(norm2(lin) - 1.0, 0.0) if isinstance(base, PBall) else None
    if not isinstance(mixed, (ZeroTerm, WeightedL1Term)):
        return None
    lam = mixed.weight if isinstance(mixed, WeightedL1Term) else 0.0
    if isinstance(base, Box):
        ends = (base.lower, base.upper, np.minimum(np.maximum(0.0, base.lower), base.upper))
        return float(np.minimum.reduce([lin * y + lam * np.abs(y) for y in ends]).sum())
    return -base.radius * pnorm(np.maximum(np.abs(lin) - lam, 0.0), 2.0)


def _gap_hilbert(prob, uc, starts, max_iter=300):
    """min over Omega of lhs(u, .) in Hilbert mode, and the number of capped
    starts (0 or 1).

    lhs(u, y) = (W/2) |y - a|^2 + <lin, y> + phi(y) + const, W the sum of
    the potential weights and a their weighted center.  For W > 0 the
    minimizer is one composite prox of phi at a - lin / W with step 1 / W;
    for W = 0 the minimum is _linear_minimum's closed form.  Any other
    class runs proximal gradient from u alone until a step moves it by at
    most 1e-11, for at most max_iter steps, and counts a capped run.  The
    value returned is the least of that minimum and lhs(u, .) at the
    starts, all evaluated in one batch: the starts cross-check the minimum.
    """
    lin = (1.0 / prob.r) * (uc - prob.input_point.coords)
    lin = lin + prob.perturbation.apply(uc)
    weight, moment = 0.0, np.zeros(uc.shape)
    for f in prob.bifunctions:
        if isinstance(f, PotentialBifunction):
            weight += f.psi.weight
            moment = moment + f.psi.weight * f.psi.center
        elif isinstance(f.g, InverseDualityPairing):
            lin = lin + uc
        else:
            lin = lin + f.g.apply(uc)
    mixed, omega = prob.mixed, prob.feasible
    rows = [starts]
    if isinstance(omega.base, Box):
        # y = 0 may lie outside a box; a ball holds it, and the other starts
        # are feasible (lhs(u, u) = 0 wherever u lies)
        rows[0] = project_primitive(starts, omega.base)
    least, capped = np.inf, 0
    if weight > 0.0:
        prox = _composite_prox(mixed, omega, (moment - lin) / weight, 1.0 / weight)
        rows.append(prox[None, :])
    elif (closed := _linear_minimum(mixed, omega.base, lin)) is not None:
        # with W = 0, lhs(u, y) = <lin, y - u> + phi(y) - phi(u)
        least = closed - (float(np.dot(lin, uc)) + mixed.value(uc))
    else:
        # step 1: y - 1.0 * lin is y - lin, bit for bit
        y, settled = _forward_backward(prob, uc, lambda _: lin, 1.0, 1e-11, max_iter)
        capped = int(not settled)
        rows.append(y[None, :])
    ys = np.concatenate(rows)
    if not all_finite(ys):
        raise ValueError("coordinates must be finite")  # as PrimalPoint refuses them
    # fmin skips a NaN value, as a comparison with the best so far would
    return min(least, float(np.fmin.reduce(_lhs_rows(prob, uc, ys)))), capped


def _lhs_rows(prob: ResolventProblem, uc: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """resolvent_lhs(prob, u, y) for each row y of ys in Hilbert mode, bit for bit.

    J is the identity at p = 2.  The terms are summed in resolvent_lhs's
    order.  Quadratic potentials, the weighted-l1 term and the linear terms
    are formed for all rows at once from the same products, their dot
    products being `row_dots`; a zero term adds nothing, and any other
    term is evaluated row by row; the pairings are `_pairings_over_r`'s.
    """
    total = np.zeros(ys.shape[0])
    for f in prob.bifunctions:
        if isinstance(f, PotentialBifunction):
            total += 0.5 * f.psi.weight * row_dots(ys - f.psi.center) - f.psi.value(uc)
        else:
            total += np.array([f.evaluate(uc, y) for y in ys])
    mixed = prob.mixed
    if isinstance(mixed, WeightedL1Term):
        total += mixed.weight * np.abs(ys).sum(axis=1) - mixed.value(uc)
    elif not isinstance(mixed, ZeroTerm):
        total += np.array([mixed.value(y) for y in ys]) - mixed.value(uc)
    steps = ys - uc
    total += row_dots(steps, prob.perturbation.apply(uc))
    return total + _pairings_over_r(uc - prob.input_point.coords, steps, prob.r)


def _safe_values(prob, u, ys, values):
    """values, each non-finite entry (a row the batched evaluation overflows
    on, far from unit scale) evaluated again by the scale-safe resolvent_lhs."""
    for i in np.nonzero(~np.isfinite(values))[0]:
        values[i] = resolvent_lhs(prob, u, PrimalPoint(ys[i], prob.space))
    return values


def _gap_banach(prob, u, starts, max_iter=300):
    """min of lhs(u, .) over the rows _pgd_search ends on from the starts,
    ties broken by the lowest start index, and the number of starts capped
    still moving."""
    evaluate, gradient = _banach_inner_objective(prob, u)
    ys, values, capped = _pgd_search(evaluate, gradient, prob.feasible, starts, max_iter, 1e-9)
    y = ys[int(_safe_values(prob, u, ys, values).argmin())]
    # report the certified value through the generic evaluation
    return resolvent_lhs(prob, u, PrimalPoint(y, prob.space)), capped


def _gap_holder(prob, u, ys):
    """min over the start rows ys of lhs(0, y), by evaluation alone."""
    return float(min_entry(_safe_values(prob, u, ys, _banach_inner_objective(prob, u)[0](ys)[0])))


def resolvent_gap(
    prob: ResolventProblem, u: PrimalPoint, rng: np.random.Generator | None = None
) -> tuple:
    """(max(0, -min_y lhs(u, y)), capped starts): a zero gap (within
    tolerance) certifies u = T_r(input).

    The starts are 16 random feasible points plus y = u and y = 0.
    In Hilbert mode lhs(u, .) is a convex quadratic plus phi, and its
    minimum over Omega is exact where it has a closed form (one composite
    prox, or a support function when no potential is present); the value
    at the starts, evaluated in one batch, is the independent cross-check,
    and the lower of the two is certified.  In Banach mode at u = 0 with
    |x|_p <= r, Hölder's inequality already bounds lhs(0, .) below by 0,
    so the starts are only evaluated, in one batched call, as a
    cross-check of that bound.  Otherwise the Banach inner minimization
    runs projected gradient from every start, as one batch of the rows
    still searching that returns what each start's search returns alone,
    so the value is a sampled estimate: it can miss a negative minimum but
    never reports a false one.

    A descent that reaches 300 steps still moving ends there, so the value
    can then miss part of it; the second entry counts such starts.  Only
    the Banach search from the starts and the Hilbert-mode descent from u
    for a class without a closed form descend.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    uc = u.coords
    starts = _gap_starts(prob, uc, 16, rng)
    if prob.kind == "hilbert":
        best, capped = _gap_hilbert(prob, uc, starts)
    elif not any_nonzero(uc) and prob.input_point.norm <= prob.r:
        best, capped = _gap_holder(prob, u, starts), 0
    else:
        best, capped = _gap_banach(prob, u, starts)
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
    starts by projected gradient.  The sampled gap, never negative and so
    never below the exact bound, is the certified gap, and
    NonConvergedError is raised when it exceeds tol.  Returns (u, gap, the
    number of gap-search starts capped still moving, always 0 at u = 0); u
    is built once, and the Omega check and the gap read its kept norm and
    duality image.
    """
    xc = prob.input_point.coords
    nx = prob.input_point.norm
    if nx <= prob.r:
        uc = np.zeros(xc.shape)
    else:
        inv_r = 1.0 / prob.r
        s = (nx * inv_r - 1.0) / (len(prob.bifunctions) + 1.0 + inv_r)
        uc = (s / nx) * xc
    u = PrimalPoint(uc, prob.space)
    if not worst_violation(prob.feasible, u.coords, u.norm, prob.space.exponent) <= 0.0:
        raise NonConvergedError("the closed-form resolvent candidate lies outside Omega")
    gap, capped = resolvent_gap(prob, u, rng=rng)
    if gap > tol:
        raise NonConvergedError(f"closed-form Banach resolvent gap {gap:g} > tol={tol:g}")
    return u, gap, capped


def solve_resolvent_certified(
    prob: ResolventProblem, tol: float = 1e-8, rng: np.random.Generator | None = None
) -> tuple:
    """Solve for T_r(input) and certify; returns (the PrimalPoint certified,
    certified gap, capped starts).

    The third entry counts the gap descents, over every gap check of the
    solve, that reached their iteration cap still moving.
    """
    if rng is None:
        rng = np.random.default_rng([0, 0x5E50])
    if prob.kind == "hilbert":
        target = tol / 10.0
        capped = 0
        for _ in range(3):
            u = PrimalPoint(_solve_hilbert(prob, target, 200_000), prob.space)
            gap, more = resolvent_gap(prob, u, rng=rng)
            capped += more
            if gap <= tol:
                break
            target /= 10.0
        else:
            raise NonConvergedError(f"resolvent gap {gap:g} stayed above tol={tol:g}")
    else:
        u, gap, capped = _solve_banach(prob, tol, rng)
    return u, gap, capped

