"""Constraint sets, primitive projections, the exact least-distance engine,
and the reference Dykstra projection the engine is checked against.

The Dykstra example from the operation contract (unit 2-ball cut by
z_1 <= 0, projecting (2, 0)) is checked against a dense grid search over
the feasible set, which is the stated independent oracle.  The plain
Dykstra of `tests/_reference.py`, which shares no code with the engines
but the primitive projections, is in turn the reference for the
least-distance engine, and the 36-step bisection it replaced is the
reference for the ratio-test pull-back.
"""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from _reference import (
    add_cut_loop,
    draw_ball_interleaved,
    dykstra,
    hint_rows_rematched,
    linear_rows_restacked,
    pull_feasible_rows_one_step,
    sample_feasible_one,
)
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hybrideq import (
    Box,
    ConstraintSet,
    Frame,
    Halfspace,
    InfeasibleError,
    NonConvergedError,
    PBall,
    UnsupportedCombinationError,
    WholeSpace,
    add_cut,
    project_primitive,
    sample_feasible,
)
from hybrideq.sets import (
    _draw_ball,
    _dual_hessian,
    _hint_rows,
    _kkt_residual,
    _ldp,
    _least_distance,
    _linear_rows,
    _lstsq,
    _multiplier_newton,
    _nnls,
    _pull_feasible_rows,
    _row_violations,
    _shrink_coords,
    project_intersection,
    worst_violation,
)
from hybrideq.space import PrimalPoint, SpaceConfig, duality_jacobian, pnorm


def _grid_nearest(cset, v, lo=-1.5, hi=1.5, steps=301):
    """Brute-force nearest feasible point on a dense 2-D grid."""
    axis = np.linspace(lo, hi, steps)
    best, best_d = None, np.inf
    for a in axis:
        for b in axis:
            z = np.array([a, b])
            if worst_violation(cset, z) <= 0.0:
                d = float(np.dot(z - v, z - v))
                if d < best_d:
                    best, best_d = z, d
    return best


class TestContains:
    """A set contains v within tol when worst_violation(set, v) <= tol."""

    def test_ball_membership(self):
        ball = ConstraintSet(PBall(1.0, 2.0))
        assert worst_violation(ball, np.array([0.0, 0.0])) <= 0.0
        assert not worst_violation(ball, np.array([1.1, 0.0])) <= 1e-6

    def test_cut_violation(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.5),))
        assert not worst_violation(cset, np.array([0.6, 0.0])) <= 1e-6
        assert worst_violation(cset, np.array([0.4, 0.0])) <= 0.0

    def test_box_and_whole_space(self):
        box = ConstraintSet(Box([0.0, 0.0], [1.0, 1.0]))
        assert worst_violation(box, np.array([0.5, 1.0])) <= 0.0
        assert not worst_violation(box, np.array([0.5, 1.1])) <= 1e-3
        assert worst_violation(ConstraintSet(WholeSpace()), np.array([1e9, -1e9])) <= 0.0

    def test_nan_point_with_a_cut_is_not_contained(self):
        cset = ConstraintSet(WholeSpace(), (Halfspace([1.0, 0.0], 0.5),))
        assert np.isnan(worst_violation(cset, np.array([np.nan, 0.0])))
        assert not worst_violation(cset, np.array([np.nan, 0.0])) <= 0.0

    @pytest.mark.parametrize("base", [WholeSpace(), Box([-1.0, -1.0], [1.0, 1.0]), PBall(1.0, 3.0)])
    @pytest.mark.parametrize("cuts", [(), (Halfspace([1.0, 0.0], 0.5), Halfspace([0.0, -1.0], 0.2))])
    def test_nan_rows_agree_with_the_batch(self, base, cuts):
        cset = ConstraintSet(base, cuts)
        rows = np.array([[np.nan, 0.0], [0.0, np.nan], [0.3, 0.1], [2.0, 0.0]])
        batch = _row_violations(cset, rows)
        for row, value in zip(rows, batch):
            one = worst_violation(cset, row)
            assert np.array_equal(one, value, equal_nan=True), (row, one, value)


class TestKeptNorm:
    """A norm the caller keeps, passed to worst_violation, gives the
    one-argument result byte for byte; a ball of another exponent than the
    norm's computes its own."""

    VECTOR = [0.3, -1.2, 0.0, 0.7, 2.5]

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 10.0])
    @pytest.mark.parametrize("mag", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("base", ["ball", "other_ball", "box", "whole"])
    @pytest.mark.parametrize("point", ["finite", "nan"])
    @pytest.mark.parametrize("cut", [False, True])
    def test_passed_norm_changes_nothing(self, p, mag, base, point, cut):
        v = mag * np.array(self.VECTOR)
        if point == "nan":
            v[1] = np.nan
        bases = {
            "ball": PBall(2.0 * mag, p),
            "other_ball": PBall(2.0 * mag, p + 1.0),
            "box": Box(np.full(5, -mag), np.full(5, mag)),
            "whole": WholeSpace(),
        }
        cuts = (Halfspace([1.0, 0.0, 0.0, 0.0, 0.0], 0.1 * mag),) if cut else ()
        cset = ConstraintSet(bases[base], cuts)
        nrm = pnorm(v, p)
        alone = worst_violation(cset, v)
        assert np.float64(worst_violation(cset, v, nrm, p)).tobytes() == np.float64(alone).tobytes()
        if base == "other_ball" and point == "finite" and not cut:
            # the norm of the ball's own exponent, not the one passed
            assert alone == pnorm(v, p + 1.0) - 2.0 * mag != nrm - 2.0 * mag


class TestProjectPrimitive:
    def test_halfspace_closed_form(self):
        hs = Halfspace([1.0, 0.0], 1.0)
        np.testing.assert_allclose(project_primitive(np.array([2.0, 0.0]), hs), [1.0, 0.0])
        np.testing.assert_allclose(project_primitive(np.array([0.5, 3.0]), hs), [0.5, 3.0])

    def test_qball_axis_point(self):
        ball = PBall(1.0, 1.5)
        np.testing.assert_allclose(
            project_primitive(np.array([2.0, 0.0]), ball), [1.0, 0.0], atol=1e-10
        )

    def test_2ball_radial_scaling(self):
        ball = PBall(1.0, 2.0)
        np.testing.assert_allclose(project_primitive(np.array([3.0, 4.0]), ball), [0.6, 0.8])

    def test_box_clip(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        np.testing.assert_allclose(project_primitive(np.array([2.0, -0.5]), box), [1.0, -0.5])

    def test_whole_space_identity(self):
        v = np.array([5.0, -3.0])
        np.testing.assert_allclose(project_primitive(v, WholeSpace()), v)

    @pytest.mark.parametrize("e", [1.5, 2.0, 3.0, 4.5])
    def test_pball_idempotent_and_boundary(self, e):
        rng = np.random.default_rng(17)
        ball = PBall(1.0, e)
        for _ in range(25):
            v = 3.0 * rng.standard_normal(5)
            z = project_primitive(v, ball)
            assert np.sum(np.abs(z) ** e) <= 1.0 + 1e-10
            z2 = project_primitive(z, ball)
            assert np.linalg.norm(z2 - z) < 1e-10

    @pytest.mark.parametrize("e", [1.5, 3.0, 4.5])
    def test_pball_projection_stays_in_the_ball(self, e):
        # the multiplier's 1e-12 tolerance used to leave about one point in
        # seven up to 1e-12 outside the ball
        rng = np.random.default_rng(0)
        for _ in range(500):
            v = 3.0 * rng.standard_normal(rng.integers(1, 6))
            z = project_primitive(v, PBall(1.0, e))
            assert pnorm(z, e) <= 1.0 + 4.0 * np.finfo(float).eps

    @pytest.mark.parametrize("e", [1.5, 3.0, 4.5])
    def test_pball_optimality_vs_samples(self, e):
        # nearest-point property against random feasible points
        rng = np.random.default_rng(3)
        ball = PBall(1.0, e)
        v = np.array([1.4, -0.9, 0.3])
        z = project_primitive(v, ball)
        dz = np.linalg.norm(v - z)
        for _ in range(500):
            w = rng.uniform(-1, 1, 3)
            if np.sum(np.abs(w) ** e) <= 1.0:
                assert np.linalg.norm(v - w) >= dz - 1e-9


class TestShrinkCoords:
    """The ball projection's coordinate Newton at exponents without a closed form."""

    def test_large_coordinate_reaches_its_root(self):
        # from vabs / 2 the Newton iteration used to stop at 1.17, residual 9.4e5
        t = _shrink_coords(np.array([3e5]), 3e4, 10.0)
        assert abs(t[0] + 3e4 * 10.0 * t[0] ** 9 - 3e5) <= 1e-9 * 3e5

    @pytest.mark.parametrize(
        "e, v",
        [(10.0, [1e4, 0.5, 0.0, 0.0]), (10.0, [3e5, 0.5, 0.0, 0.0]), (11.0, [1e5, 0.5, 0.0, 0.0])],
    )
    def test_far_point_lands_on_the_unit_sphere(self, e, v):
        # these came back 1.2e-7 inside the sphere or raised "bracket did not close"
        z = project_primitive(np.array(v), PBall(1.0, e))
        assert abs(pnorm(z, e) - 1.0) <= 1e-8

    @settings(max_examples=200, deadline=None)
    @given(
        e=st.floats(4.0, 11.0),
        mantissas=st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=1, max_size=12),
        data=st.data(),
        scale_exp=st.floats(-3.0, 12.0),
        radius_exp=st.floats(-3.0, 3.0),
    )
    def test_projection_lands_on_the_sphere(self, e, mantissas, data, scale_exp, radius_exp):
        size = len(mantissas)
        exps = data.draw(st.lists(st.integers(-15, 0), min_size=size, max_size=size))
        v = np.array(mantissas) * 10.0 ** np.array(exps, dtype=float) * 10.0**scale_exp
        radius = 10.0**radius_exp
        assume(pnorm(v, e) > radius)
        z = project_primitive(v, PBall(radius, e))
        assert abs(pnorm(z, e) - radius) <= 1e-8 * radius

    def test_iteration_cap_raises(self):
        with pytest.raises(NonConvergedError, match="coordinate Newton"):
            _shrink_coords(np.array([np.nan]), 1.0, 4.0)


class TestDykstra:
    def test_single_set_is_primitive(self):
        cset = ConstraintSet(PBall(1.0, 2.0))
        np.testing.assert_allclose(
            dykstra(cset, np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-10
        )

    def test_fixed_point_when_feasible(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([0.0, 1.0], 0.5),))
        v = np.array([0.2, 0.1])
        np.testing.assert_allclose(dykstra(cset, v), v, atol=1e-10)

    def test_ball_cut_by_halfspace_matches_grid_oracle(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.0),))
        v = np.array([2.0, 0.0])
        z = dykstra(cset, v, tol=1e-12, max_iter=20000)
        oracle = _grid_nearest(cset, v)
        # grid resolution 0.01; the true answer is (0, 0)
        assert np.linalg.norm(z - oracle) <= 2e-2
        np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-9)

    def test_result_feasible_and_optimal_vs_samples(self):
        rng = np.random.default_rng(5)
        cset = ConstraintSet(
            PBall(1.0, 2.0),
            (Halfspace([1.0, 1.0], 0.3), Halfspace([-1.0, 0.5], 0.4)),
        )
        v = np.array([1.5, 1.5])
        z = dykstra(cset, v, tol=1e-12, max_iter=20000)
        assert worst_violation(cset, z) <= 1e-6
        dz = np.linalg.norm(v - z)
        samples = sample_feasible(cset, rng, 1000, dimension=2)
        dists = np.linalg.norm(samples - v, axis=1)
        assert np.all(dists >= dz - 1e-6)

    def test_nonconverged_on_empty_intersection(self):
        cset = ConstraintSet(
            PBall(1.0, 2.0), (Halfspace([1.0, 0.0], -3.0),)  # disjoint from the ball
        )
        with pytest.raises(NonConvergedError):
            dykstra(cset, np.array([0.0, 0.0]), tol=1e-10, max_iter=200)


class TestProjectIntersection:
    def test_agrees_with_dykstra_on_mild_sets(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            cuts = tuple(
                Halfspace(rng.standard_normal(3), rng.uniform(0.1, 0.6)) for _ in range(3)
            )
            cset = ConstraintSet(PBall(1.0, 2.0), cuts)
            v = 2.0 * rng.standard_normal(3)
            try:
                a = dykstra(cset, v, tol=1e-12, max_iter=50000)
            except NonConvergedError:
                continue
            b, _ = project_intersection(cset, v, tol=1e-12)
            np.testing.assert_allclose(a, b, atol=1e-7)

    def test_many_near_parallel_cuts(self):
        # the regime that stalls plain alternating corrections
        rng = np.random.default_rng(2)
        base = np.array([1.0, 0.5, -0.2])
        cuts = []
        for k in range(40):
            n = base + 1e-3 * rng.standard_normal(3)
            cuts.append(Halfspace(n, 0.3 - 0.002 * k))
        cset = ConstraintSet(Box([-5.0] * 3, [5.0] * 3), tuple(cuts))
        v = np.array([4.0, 4.0, 4.0])
        z, _ = project_intersection(cset, v, tol=1e-12)
        assert worst_violation(cset, z) <= 1e-9
        assert _least_distance(cset, v, 1e-12)[1] <= 1e-12 * np.linalg.norm(v)
        np.testing.assert_allclose(z, dykstra(cset, v, tol=1e-12, max_iter=20000), atol=1e-7)
        # optimality spot check against feasible samples pulled toward z
        samples = sample_feasible(cset, rng, 400, dimension=3, anchor=z)
        dists = np.linalg.norm(samples - v, axis=1)
        assert np.all(dists >= np.linalg.norm(v - z) - 1e-6)

    def test_euclidean_qball_with_cuts_is_unsupported(self):
        # a q-ball with cuts is projected in its own geometry, exponent
        # q / (q - 1); the Euclidean projection onto it has no engine
        cset = ConstraintSet(PBall(1.0, 1.5), (Halfspace([1.0, 0.0], 0.2),))
        v = np.array([2.0, 0.5])
        with pytest.raises(UnsupportedCombinationError):
            project_intersection(cset, v)
        z, _ = project_intersection(cset, v, exponent=3.0)
        assert worst_violation(cset, z) <= 1e-10

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_far_qball_with_a_cut_is_the_scaled_unit_answer(self):
        # the multiplier Newton's Hessian is the duality Jacobian at the
        # current point, of order 1e100 here; it is homogeneous of degree 0
        unit = ConstraintSet(PBall(1.0, 1.5), (Halfspace([1.0, 0.0], 0.2),))
        far = ConstraintSet(PBall(1e100, 1.5), (Halfspace([1.0, 0.0], 0.2e100),))
        v = np.array([2.0, 0.5])
        z_unit, _ = project_intersection(unit, v, tol=1e-9, exponent=3.0)
        z_far, _ = project_intersection(far, 1e100 * v, tol=1e-9, exponent=3.0)
        np.testing.assert_allclose(z_far, 1e100 * z_unit, rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(
            [("ball1.5", 3.0), ("ball2", 2.0), ("ball3", 1.5), ("ball10", 10.0 / 9.0)]
            + [("whole", 1.5), ("whole", 2.0), ("whole", 3.0)]
        ),
        d=st.sampled_from([2, 8, 32]),
        cuts=st.integers(1, 3),
        k=st.sampled_from([-330, -1, 60, 330]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_set_scaled_by_a_power_of_two_gives_the_scaled_answer(self, case, d, cuts, k, seed):
        # the problem is positively homogeneous in v, the radius and the cut
        # offsets, and scaling by 2^k is exact: every engine must return the
        # unit answer times 2^k bit for bit, or refuse both alike
        base_kind, geometry = case
        rng = np.random.default_rng(seed)
        unit = _sampler_case(rng, base_kind, d, cuts, 1.0)
        v = 3.0 * rng.standard_normal(d)
        base = unit.base
        if isinstance(base, PBall):
            base = PBall(np.ldexp(base.radius, k), base.exponent)
        scaled = ConstraintSet(
            base, tuple(Halfspace(cut.normal, np.ldexp(cut.offset, k)) for cut in unit.cuts)
        )
        answers = []
        for cset, point in ((unit, v), (scaled, np.ldexp(v, k))):
            try:
                answers.append(project_intersection(cset, point, exponent=geometry)[0])
            except (InfeasibleError, NonConvergedError) as exc:
                answers.append(type(exc))
        first, second = answers
        if isinstance(first, type):
            assert second is first
        else:
            assert not isinstance(second, type), second
            assert second.tobytes() == np.ldexp(first, k).tobytes()


class TestMultiplierNewtonNormReuse:
    """The multiplier Newton hands |c|_p to the dual Hessian; the result must
    not depend on it, including where the floor below exponent 2 moves c."""

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("exponent", [1.5, 3.0, 10.0])
    @pytest.mark.parametrize("mag", [1e-100, 1.0, 1e100])
    def test_hessian_with_a_passed_norm_is_the_same_bit_for_bit(self, exponent, mag):
        rng = np.random.default_rng(4)
        cols = rng.standard_normal((5, 3))
        for zeros in ((), (2,), (0, 3)):
            c = mag * rng.standard_normal(5)
            c[list(zeros)] = 0.0
            passed = _dual_hessian(cols, c, 0.7, exponent, pnorm(c, exponent))
            assert passed.tobytes() == _dual_hessian(cols, c, 0.7, exponent).tobytes()

    @pytest.mark.parametrize("radius", [None, 1.0])
    def test_zero_dual_coordinate_still_certifies(self, monkeypatch, radius):
        # v and every cut normal vanish in coordinate 1, so c = v - a^T lam
        # has an exact zero there at every Newton step: the floor path
        import hybrideq.sets as sets_module

        seen = []

        def spy(cols, c, s, exponent, nc=None, point=None):
            out = _dual_hessian(cols, c, s, exponent, nc, point)
            seen.append(nc is not None and c[1] == 0.0)
            assert out.tobytes() == _dual_hessian(cols, c, s, exponent).tobytes()
            return out

        monkeypatch.setattr(sets_module, "_dual_hessian", spy)
        base = WholeSpace(Frame.DUAL) if radius is None else PBall(radius, 3.0, Frame.DUAL)
        cuts = (
            Halfspace([1.0, 0.0, 1.0, 0.0], 0.5, Frame.DUAL),
            Halfspace([0.0, 0.0, 1.0, -1.0], 0.1, Frame.DUAL),
        )
        cset = ConstraintSet(base, cuts, Frame.DUAL)
        # project_intersection raises unless the answer passes its KKT gate
        w, active = project_intersection(cset, np.array([1.0, 0.0, 2.0, 0.5]), exponent=1.5)
        assert seen and all(seen)
        assert len(active) == 2
        assert worst_violation(cset, w) <= 1e-12


class TestMultiplierNewtonKeptAnchor:
    """The Newton reads the kept norm, image and Jacobian of a PrimalPoint
    anchor; its answer must be the one it computes without them."""

    ANCHORS = {
        "no_zero": [0.9, -1.3, 0.4, 2.2, -0.6, 1.1],
        "plus_zero": [0.9, -1.3, 0.0, 2.2, -0.6, 1.1],
        "minus_zero": [0.9, -1.3, -0.0, 2.2, 0.0, 1.1],
    }

    @staticmethod
    def _problem(rng, exponent, mag, ball):
        # unit rows that cut off J(v): the cut levels sit below a J(v) and
        # above 0, which the ball contains, so the set is nonempty
        a = rng.standard_normal((4, 6))
        a /= np.linalg.norm(a, axis=1)[:, None]
        return a, rng.uniform(0.05, 0.3, 4) * mag, (0.8 * mag if ball else None)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:divide by zero encountered:RuntimeWarning")
    @pytest.mark.parametrize("exponent", [1.5, 3.0, 10.0])
    @pytest.mark.parametrize("mag", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("kind", sorted(ANCHORS))
    @pytest.mark.parametrize("ball", [False, True])
    def test_kept_values_give_the_same_answer_bit_for_bit(self, exponent, mag, kind, ball):
        rng = np.random.default_rng(11)
        a, b, radius = self._problem(rng, exponent, mag, ball)
        point = PrimalPoint(mag * np.array(self.ANCHORS[kind]), SpaceConfig(6, exponent))
        v = point.coords
        plain = _multiplier_newton(a, b, v, exponent, radius)
        kept = _multiplier_newton(a, b, v, exponent, radius, point)
        w, lam, mu, nw = plain
        assert kept[0].tobytes() == w.tobytes()
        assert kept[1].tobytes() == lam.tobytes()
        assert (kept[2], kept[3]) == (mu, nw)
        assert np.copysign(1.0, kept[2]) == np.copysign(1.0, mu)
        # the cuts bind, so the Newton left lam = 0; at 1e-100 every
        # violation is under its 1e-12 (1 + |v|) gate and none enters
        assert lam.any() or mag < 1.0

    @pytest.mark.parametrize("exponent", [3.0, 10.0])
    def test_kept_jacobian_serves_the_first_cut(self, monkeypatch, exponent):
        # at lam = 0 the dual's c is v: the Hessian there is the kept one
        import hybrideq.sets as sets_module

        calls = []

        def counting(v, e, nrm=None):
            calls.append(v.tobytes())
            return duality_jacobian(v, e, nrm)

        monkeypatch.setattr(sets_module, "duality_jacobian", counting)
        a, b, _ = self._problem(np.random.default_rng(11), exponent, 1.0, False)
        point = PrimalPoint(self.ANCHORS["no_zero"], SpaceConfig(6, exponent))
        first = _multiplier_newton(a, b, point.coords, exponent, None)
        at_v = calls.count(point.coords.tobytes())
        assert at_v >= 1
        calls.clear()
        again = _multiplier_newton(a, b, point.coords, exponent, None, point)
        assert "jacobian" in vars(point)
        assert point.coords.tobytes() not in calls
        assert again[0].tobytes() == first[0].tobytes()


def _random_cut_set(rng, kind):
    """A nonempty base ∩ cuts set (the origin is interior) of a random dimension."""
    d = int(rng.integers(2, 6))
    cuts = tuple(
        Halfspace(rng.standard_normal(d), rng.uniform(0.05, 0.6))
        for _ in range(int(rng.integers(1, 6)))
    )
    base = {
        "box": Box(-np.ones(d), np.ones(d)),
        "ball": PBall(1.0, 2.0),
        "whole": WholeSpace(),
        "qball": PBall(1.0, 1.5),
    }[kind]
    return ConstraintSet(base, cuts), d


class TestLeastDistanceEngine:
    @pytest.mark.parametrize("kind", ["box", "ball", "whole"])
    def test_matches_dykstra_with_kkt_certificate(self, kind):
        rng = np.random.default_rng(["box", "ball", "whole"].index(kind))
        # at p = 2 a 2-ball whose constraint is active is answered by the
        # multiplier Newton, the rest by the NNLS; the residual is that of
        # the engine project_intersection ran
        ball_active = set()
        for _ in range(40):
            cset, d = _random_cut_set(rng, kind)
            v = 2.5 * rng.standard_normal(d)
            z, _ = project_intersection(cset, v)
            again, resid, _ = _least_distance(cset, v, 1e-11)
            assert again.tobytes() == z.tobytes()
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(v))
            ref = dykstra(cset, v, tol=1e-12, max_iter=300_000)
            np.testing.assert_allclose(z, ref, atol=1e-7)
            ball_active.add(abs(np.linalg.norm(z) - 1.0) <= 1e-12)
        if kind == "ball":
            assert ball_active == {True, False}  # both regimes exercised

    def test_empty_box_with_cuts_raises_infeasible(self):
        beyond_box = ConstraintSet(Box([-1.0, -1.0], [1.0, 1.0]), (Halfspace([1.0, 0.0], -2.0),))
        with pytest.raises(InfeasibleError):
            project_intersection(beyond_box, np.array([0.5, 0.5]))
        contradictory = ConstraintSet(
            WholeSpace(), (Halfspace([1.0, 1.0], -1.0), Halfspace([-1.0, -1.0], -1.0))
        )
        with pytest.raises(InfeasibleError):
            project_intersection(contradictory, np.array([0.0, 0.0]))

    def test_cut_missing_the_2ball_raises_infeasible(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], -3.0),))
        with pytest.raises(InfeasibleError):
            project_intersection(cset, np.array([0.0, 0.0]))


def _bisect_pull(cset, anchor, cand):
    """The 36-step bisection the ratio test replaced."""
    lo, hi = 0.0, 1.0
    for _ in range(36):
        mid = 0.5 * (lo + hi)
        if worst_violation(cset, anchor + mid * (cand - anchor)) <= 0.0:
            lo = mid
        else:
            hi = mid
    return anchor + lo * (cand - anchor)


def _same_cuts(first, second):
    return len(first) == len(second) and all(a is b for a, b in zip(first, second))


class TestWarmStartedNNLS:
    # random least-distance programs in the form _ldp builds, rank-deficient
    # whenever there are more rows than d + 1, with a warm start holding a
    # random subset of the columns (some must leave) and possibly the cold
    # answer's passive set
    @settings(max_examples=300, deadline=None)
    @given(
        d=st.integers(1, 5),
        m=st.integers(1, 14),
        seed=st.integers(0, 2**32 - 1),
        keep_cold=st.booleans(),
    )
    def test_warm_start_reaches_the_cold_answer(self, d, m, seed, keep_cold):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((m, d))
        a /= np.linalg.norm(a, axis=1)[:, None]
        if m > 2:
            a[-1] = a[0]  # a repeated row, as near-parallel cuts give
        b = rng.uniform(-0.5, 1.0, m)
        v = 2.0 * rng.standard_normal(d)
        excess = a @ v - b
        shift = float(np.max(excess))
        assume(shift > 0.0)
        e = np.vstack([-a.T, excess / shift])
        f = np.zeros(d + 1)
        f[-1] = 1.0
        u_cold, r_cold = _nnls(e, f)
        assume(float(r_cold @ r_cold) > 1e3 * np.finfo(float).eps)  # consistent rows
        start = rng.random(m) < 0.5
        if keep_cold:
            start |= u_cold > 0.0
        u_warm, r_warm = _nnls(e, f, start)
        assert np.all(u_warm >= 0.0)
        assert np.max(np.abs(r_warm - r_cold)) <= 1e-12
        # project_intersection's gate at its default tol; a nearly
        # inconsistent program (|r|^2 near 1e3 eps, multipliers ~ 1 / |r|^2)
        # can fail it from a cold start too, and is refused either way
        gate = 1e-10 * (1.0 + np.linalg.norm(v))
        assume(_kkt_residual(a, b, v, *_ldp(a, b, v)) <= gate)
        z, lam = _ldp(a, b, v, start)
        assert _kkt_residual(a, b, v, z, lam) <= gate

    def test_warm_start_on_the_final_passive_set_is_bit_identical(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            cset, d = _random_cut_set(rng, "whole")
            v = 2.5 * rng.standard_normal(d)
            cold, active = project_intersection(cset, v)
            warm, again = project_intersection(cset, v, hint=active)
            assert warm.tobytes() == cold.tobytes() and _same_cuts(again, active)

    @pytest.mark.parametrize("kind", ["whole", "box"])
    def test_hint_of_active_inactive_and_newest_cuts_is_bit_identical(self, kind):
        # the outer loop's hint holds the last retraction's active cuts and
        # the newest cut; inactive cuts in it must leave the passive set
        rng = np.random.default_rng(["whole", "box"].index(kind) + 40)
        with_inactive = 0
        for _ in range(150):
            cset, d = _random_cut_set(rng, kind)
            v = 2.5 * rng.standard_normal(d)
            cold, active = project_intersection(cset, v)
            inactive = tuple(cut for cut in cset.cuts if not any(cut is a for a in active))
            extra = tuple(cut for cut in inactive if rng.random() < 0.5)
            newest = cset.cuts[-1]
            with_inactive += bool(extra) or any(newest is cut for cut in inactive)
            warm, again = project_intersection(cset, v, hint=active + extra + (newest,))
            assert warm.tobytes() == cold.tobytes() and _same_cuts(again, active)
        assert with_inactive >= 50

    @pytest.mark.parametrize(
        "f, answer", [([-1.0, -1.0, 2.0], [0.0, 0.0, 2.0]), ([-1.0, -1.0, -1.0], [0.0, 0.0, 0.0])]
    )
    def test_a_start_of_nonpositive_coefficients_ends_as_a_cold_start(self, f, answer):
        # on the start's columns the least-squares coefficients are (-1, -1):
        # both columns leave before the exchanges begin
        e, f = np.eye(3), np.array(f)
        u, resid = _nnls(e, f, np.array([True, True, False]))
        u_cold, r_cold = _nnls(e, f)
        assert u.tobytes() == u_cold.tobytes() and resid.tobytes() == r_cold.tobytes()
        np.testing.assert_array_equal(u, answer)

    def test_hint_cuts_pruned_from_the_set_are_skipped(self):
        cset = ConstraintSet(WholeSpace(), (Halfspace([1.0, 0.0], 0.5),))
        v = np.array([2.0, 1.0])
        z, active = project_intersection(cset, v)
        assert _same_cuts(active, cset.cuts)
        stronger = add_cut(cset, Halfspace([2.0, 0.0], 0.4))  # replaces the only cut
        z, active = project_intersection(stronger, v, hint=active)
        np.testing.assert_allclose(z, [0.2, 1.0], atol=1e-15)
        assert _same_cuts(active, stronger.cuts)


class TestLstsq:
    """sets._lstsq is np.linalg.lstsq(a, b, rcond=None)[0] through LAPACK's
    gufunc alone: the same bits, the same error and the same silence."""

    @staticmethod
    def _both(a, b):
        """(numpy's answer or None if it raised, _lstsq's answer or None),
        with every warning an error."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                expected = np.linalg.lstsq(a, b, rcond=None)[0]
            except np.linalg.LinAlgError:
                with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
                    _lstsq(a, b)
                return None, None
            return expected, _lstsq(a, b)

    # rank-deficient matrices of 1-12 rows and 0-12 columns, singular values
    # down to 1e-17 of the largest, around the rcond cutoff of max(m, n)
    # eps, some with a repeated column, at magnitudes 1e-100 to 1e100, and
    # F-ordered views like the multiplier Newton's a[work].T
    @settings(max_examples=400, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(0, 12),
        rank=st.integers(0, 12),
        repeat=st.booleans(),
        a_exp=st.integers(-100, 100),
        b_exp=st.integers(-100, 100),
        transposed=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_numpy_lstsq_bit_for_bit(
        self, m, n, rank, repeat, a_exp, b_exp, transposed, seed
    ):
        rng = np.random.default_rng(seed)
        k = min(rank, m, n)
        left = np.linalg.qr(rng.standard_normal((m, k)))[0]
        right = np.linalg.qr(rng.standard_normal((n, k)))[0].T
        a = (left * 10.0 ** -rng.uniform(0.0, 17.0, k)) @ right
        if repeat and n > 1:
            a[:, -1] = a[:, 0]
        a *= 10.0**a_exp
        if transposed:
            a = np.ascontiguousarray(a.T).T
        b = rng.standard_normal(m) * 10.0**b_exp
        expected, got = self._both(a, b)
        assert expected is not None
        assert got.shape == expected.shape == (n,)
        assert got.tobytes() == expected.tobytes()

    def test_nan_in_the_matrix_raises_without_a_warning(self):
        a = np.random.default_rng(2).standard_normal((6, 3))
        a[1, 2] = np.nan
        assert self._both(a, np.ones(6)) == (None, None)

    @pytest.mark.parametrize("bad", ["inf", "-inf"])
    def test_an_inf_in_the_matrix_raises_promptly(self, bad):
        # LAPACK's dgelsd spins without returning on this 9 x 4 matrix with
        # a[0, 0] = inf, under np.linalg.lstsq as under the gufunc, so the
        # solve runs in a child process that the timeout stops
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import numpy as np\n"
            "from hybrideq.sets import _lstsq\n"
            "a = np.random.default_rng(0).standard_normal((9, 4))\n"
            f"a[0, 0] = float('{bad}')\n"
            "try:\n"
            "    _lstsq(a, np.ones(9))\n"
            "except np.linalg.LinAlgError as exc:\n"
            "    print(exc)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "SVD did not converge in Linear Least Squares\n"
        assert done.stderr == ""  # refused before LAPACK, which reports DLASCL errors

    # np.linalg.lstsq does not return from an inf in the matrix (above), so
    # only the right-hand side is compared with it
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_a_nonfinite_right_hand_side_gives_numpys_nan_silently(self, bad):
        b = np.ones(6)
        b[3] = bad
        expected, got = self._both(np.random.default_rng(2).standard_normal((6, 3)), b)
        assert np.isnan(expected).all()
        assert got.tobytes() == expected.tobytes()

    def test_singular_hessian_takes_the_least_squares_fallback(self, monkeypatch):
        # above exponent 2 the Jacobian of J vanishes where c_i = 0: at
        # lam = 0, c = v = (1, 0) and the cut's column (0, -1) meets only
        # that zero, so the dual Hessian is [[0]] and np.linalg.solve fails
        import hybrideq.sets as sets_module

        square = []

        def spy(a, b):
            if a.shape[0] == a.shape[1]:
                square.append(a.copy())
            return _lstsq(a, b)

        monkeypatch.setattr(sets_module, "_lstsq", spy)
        cset = ConstraintSet(
            WholeSpace(Frame.DUAL), (Halfspace([0.0, -1.0], -0.5, Frame.DUAL),), Frame.DUAL
        )
        v = np.array([1.0, 0.0])
        # project_intersection raises unless the answer passes its KKT gate
        w, active = project_intersection(cset, v, exponent=3.0)
        assert any(h.shape == (1, 1) and not h.any() for h in square)
        assert w[1] == 0.5 and _same_cuts(active, cset.cuts)


class TestPullFeasible:
    @pytest.mark.parametrize("kind", ["box", "ball", "qball"])
    def test_ratio_test_matches_bisection(self, kind):
        rng = np.random.default_rng(["box", "ball", "qball"].index(kind) + 20)
        compared = 0
        for _ in range(30):
            cset, d = _random_cut_set(rng, kind)
            e = cset.base.exponent if isinstance(cset.base, PBall) else 2.0
            boundary, _ = project_intersection(
                cset, 3.0 * rng.standard_normal(d), tol=1e-12, exponent=e / (e - 1.0)
            )
            for shrink in (0.0, 0.5, 1.0):  # interior anchors and a boundary one
                anchor = shrink * boundary
                allowed = max(worst_violation(cset, anchor), 0.0)
                cands = [
                    cand
                    for cand in sample_feasible(ConstraintSet(cset.base), rng, 10, dimension=d)
                    if worst_violation(cset, cand) > 0.0
                ]
                # the rows of one mixed batch are pulled back as one at a time
                batch = _pull_feasible_rows(cset, anchor, np.array(cands).reshape(-1, d), allowed)
                for cand, row in zip(cands, batch):
                    step = cand - anchor
                    point = _pull_feasible_rows(cset, anchor, cand[None, :], allowed)[0]
                    assert row.tobytes() == point.tobytes()
                    assert worst_violation(cset, point) <= allowed
                    t = float(np.dot(point - anchor, step) / np.dot(step, step))
                    ref = _bisect_pull(cset, anchor, cand)
                    t_ref = float(np.dot(ref - anchor, step) / np.dot(step, step))
                    assert t >= t_ref - 1e-12
                    if allowed == 0.0:
                        assert t - t_ref <= 2.0**-36 + 1e-12
                        compared += 1
        assert compared >= 100

    def test_anchor_violating_by_rounding_does_not_collapse_samples(self):
        # the anchor violates the cut it sits on by 1e-13, as a projection's
        # answer can; a candidate moving along that cut face is cut off by
        # the other cut half-way, which the bisection never reached
        cset = ConstraintSet(
            PBall(2.0, 2.0), (Halfspace([1.0, 0.0], 0.0), Halfspace([0.0, 1.0], 0.5))
        )
        anchor = np.array([1e-13, 0.0])
        cand = np.array([1e-13, 1.0])
        allowed = worst_violation(cset, anchor)
        np.testing.assert_array_equal(_bisect_pull(cset, anchor, cand), anchor)
        point = _pull_feasible_rows(cset, anchor, cand[None, :], allowed)[0]
        assert worst_violation(cset, point) <= allowed
        np.testing.assert_allclose(point, [1e-13, 0.5], atol=1e-12)
        # in a mixed batch beside a row cut off at once and a row the cut
        # face stops, the row comes out the same
        mixed = np.array([[1.0, 0.2], cand, [1e-13, 0.3], [0.5, 1.5]])
        batch = _pull_feasible_rows(cset, anchor, mixed, allowed)
        assert batch[1].tobytes() == point.tobytes()
        for row in batch:
            assert worst_violation(cset, row) <= allowed

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["box", "ball2", "ball3"]),
        d=st.integers(2, 8),
        cuts=st.integers(1, 60),
        violation=st.sampled_from([0.0, 1e-17, 1e-13, 1e-10]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_two_steps_per_pass_give_the_one_step_rows(self, kind, d, cuts, violation, seed):
        # the anchor lies on up to two cuts, violating them by a small
        # positive amount, so that rows moving toward one of them reach
        # t = 0; rows drawn on the ball's sphere or the box's faces end where
        # rounding can push a point out, which the back-off ladder repairs.
        # Over seeds 0-399 of these inputs about 1 row in 6 passed at t - eps,
        # 1 in 150 further down, and 1 in 300 stepped down to t <= 0
        rng = np.random.default_rng(seed)
        if kind == "box":
            base = Box(-np.ones(d), np.ones(d))
            anchor = rng.uniform(-0.9, 0.9, d)
            face = np.clip(rng.uniform(-3.0, 3.0, (8, d)), -1.0, 1.0)
        else:
            base = PBall(1.0, 2.0 if kind == "ball2" else 3.0)
            anchor = rng.uniform(0.0, 0.9) * rng.standard_normal(d)
            anchor /= max(pnorm(anchor, base.exponent), 1.0)
            sphere = rng.standard_normal((8, d))
            face = sphere / np.array([pnorm(row, base.exponent) for row in sphere])[:, None]
        normals = rng.standard_normal((cuts, d))
        slack = rng.uniform(0.0, 0.5, cuts)
        slack[rng.permutation(cuts)[: rng.integers(0, 3)]] = -violation
        cset = ConstraintSet(
            base, tuple(Halfspace(n, o) for n, o in zip(normals, normals @ anchor + slack))
        )
        allowed = max(worst_violation(cset, anchor), 0.0)
        cands = np.concatenate(
            (sample_feasible(ConstraintSet(base), rng, 16, dimension=d), face, anchor[None, :])
        )
        out = _pull_feasible_rows(cset, anchor, cands, allowed)
        ref = pull_feasible_rows_one_step(cset, anchor, cands, allowed)
        assert out.tobytes() == ref.tobytes()

    @pytest.mark.filterwarnings("error")
    def test_zero_rates_give_the_divided_ratio_test(self):
        # a candidate equal to the anchor moves toward no cut, and a step
        # along the face x_1 = 0.5 or parallel to it has rate 0 on that cut
        cset = ConstraintSet(
            Box([-2.0, -2.0], [2.0, 2.0]), (Halfspace([1.0, 0.0], 0.5), Halfspace([1.0, 1.0], 1.0))
        )
        for anchor in (np.array([0.0, 0.0]), np.array([0.5, -1.0])):
            cands = np.array([anchor, anchor + [0.0, 1.9], [1.9, 0.3], [-1.0, 1.9]])
            allowed = max(worst_violation(cset, anchor), 0.0)
            out = _pull_feasible_rows(cset, anchor, cands, allowed)
            ref = pull_feasible_rows_one_step(cset, anchor, cands, allowed)
            assert out.tobytes() == ref.tobytes()
            assert out[0].tobytes() == anchor.tobytes()
            for row in out:
                assert worst_violation(cset, row) <= allowed


class TestAddCut:
    def test_appends_distinct_direction(self):
        cset = ConstraintSet(PBall(1.0, 2.0))
        cset = add_cut(cset, Halfspace([1.0, 0.0], 0.5))
        cset = add_cut(cset, Halfspace([0.0, 1.0], 0.5))
        assert len(cset.cuts) == 2

    def test_new_dominating_cut_replaces_old(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.5),))
        cset = add_cut(cset, Halfspace([2.0, 0.0], 0.4))  # level 0.2 < 0.5, same direction
        assert len(cset.cuts) == 1
        assert cset.cuts[0].offset == 0.4

    def test_dominated_new_cut_is_dropped(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.2),))
        cset = add_cut(cset, Halfspace([1.0, 0.0], 0.5))
        assert len(cset.cuts) == 1
        assert cset.cuts[0].offset == 0.2

    def test_frame_mismatch_rejected(self):
        cset = ConstraintSet(PBall(1.0, 2.0, Frame.DUAL), (), Frame.DUAL)
        with pytest.raises(ValueError):
            add_cut(cset, Halfspace([1.0, 0.0], 0.5, Frame.PRIMAL))

    def test_dimension_mismatch_names_both_dimensions(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.5),))
        with pytest.raises(ValueError, match="dimension 3 does not fit a set of dimension 2"):
            add_cut(cset, Halfspace([1.0, 0.0, 0.0], 0.5))
        box = ConstraintSet(Box(-np.ones(2), np.ones(2)))
        with pytest.raises(ValueError, match="dimension 3 does not fit a set of dimension 2"):
            add_cut(box, Halfspace([1.0, 0.0, 0.0], 0.5))

    def test_the_first_cut_fixes_the_dimension(self):
        cset = add_cut(ConstraintSet(WholeSpace()), Halfspace([1.0, 0.0, 0.0], 0.5))
        assert len(add_cut(cset, Halfspace([0.0, 1.0, 0.0], 0.5)).cuts) == 2
        with pytest.raises(ValueError, match="dimension 2 does not fit a set of dimension 3"):
            add_cut(cset, Halfspace([0.0, 1.0], 0.5))

    # a sequence of cuts: fresh directions and scaled copies of earlier cuts,
    # tilted within (1e-11) or beyond (1e-7) the 1e-9 chord, or not at all.
    # The reference and the store normalize with different summation
    # orders, so two levels equal up to rounding could compare either way,
    # and that rounding is not what is under test.  So a copy whose level
    # ties its original's (change 0) is an exact power-of-two scaling, and
    # every other change is drawn with a random factor, which keeps two
    # chains of copies from summing to the same level
    @settings(max_examples=150, deadline=None)
    @given(
        base=st.sampled_from(["box", "ball", "whole"]),
        d=st.integers(2, 6),
        seed=st.integers(0, 2**32 - 1),
        steps=st.lists(
            st.tuples(
                st.booleans(),
                st.sampled_from([0.0, 1e-11, 1e-7]),
                st.sampled_from([-0.1, -1e-6, 0.0, 1e-6, 0.1]),
                st.floats(0.01, 100.0),
            ),
            min_size=1,
            max_size=30,
        ),
    )
    def test_store_matches_the_reference_loop(self, base, d, seed, steps):
        rng = np.random.default_rng(seed)
        bases = {
            "box": Box(-np.ones(d), np.ones(d)),
            "ball": PBall(1.0, 2.0),
            "whole": WholeSpace(),
        }
        store = loop = ConstraintSet(bases[base])
        offered = []
        for fresh, tilt, change, scale in steps:
            if fresh or not offered:
                cut = Halfspace(rng.standard_normal(d), rng.uniform(-1.0, 1.0))
            else:
                old = offered[rng.integers(len(offered))]
                if change == 0.0:
                    tilt, scale = 0.0, 2.0 ** round(np.log2(scale))
                direction = old.normal + tilt * np.linalg.norm(old.normal) * rng.standard_normal(d)
                level_change = change * rng.uniform(0.5, 1.5) * np.linalg.norm(direction)
                cut = Halfspace(scale * direction, scale * (old.offset + level_change))
            offered.append(cut)
            store, loop = add_cut(store, cut), add_cut_loop(loop, cut)
            assert _same_cuts(store.cuts, loop.cuts)
            # a hint of every cut offered so far holds the pruned and the
            # refused cuts too, and a stranger that was never offered
            count = _linear_rows(store, d)[0].shape[0]
            hint = (Halfspace(np.ones(d), 1.0),) + tuple(offered)
            mask = _hint_rows(store, hint, count)
            assert mask.tobytes() == hint_rows_rematched(store, hint, count).tobytes()
        rows, levels = _linear_rows(store, d)
        ref_rows, ref_levels = linear_rows_restacked(loop, d)
        assert rows.tobytes() == ref_rows.tobytes()
        assert levels.tobytes() == ref_levels.tobytes()
        fresh = ConstraintSet(store.base, store.cuts)
        for name in ("_cut_normals", "_cut_offsets", "_cut_rows", "_cut_levels"):
            assert getattr(store, name).tobytes() == getattr(fresh, name).tobytes(), name
        hint = tuple(offered[i] for i in rng.permutation(len(offered))[: len(offered) // 2])
        count = rows.shape[0]
        for cset in (store, fresh):
            mask, ref = _hint_rows(cset, hint, count), hint_rows_rematched(cset, hint, count)
            assert (mask is None and ref is None) or mask.tobytes() == ref.tobytes()


class TestValidation:
    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            Halfspace([0.0, 0.0], 1.0)

    def test_bad_box_rejected(self):
        with pytest.raises(ValueError):
            Box([1.0, 0.0], [0.0, 1.0])

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            PBall(0.0, 2.0)

    def test_nan_radius_and_bounds_rejected(self):
        # each check is written so that NaN fails it
        with pytest.raises(ValueError, match="radius must be positive"):
            PBall(float("nan"), 2.0)
        for lower, upper in (([np.nan], [1.0]), ([0.0], [np.nan])):
            with pytest.raises(ValueError, match="lower <= upper"):
                Box(lower, upper)

    def test_cut_frames_must_match(self):
        with pytest.raises(ValueError):
            ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0], 0.0, Frame.DUAL),))

    def test_mixed_cut_dimensions_rejected(self):
        cuts = (Halfspace([1.0, 0.0], 0.5), Halfspace([1.0, 0.0, 0.0], 0.5))
        with pytest.raises(ValueError, match="dimension 3 does not fit a set of dimension 2"):
            ConstraintSet(WholeSpace(), cuts)
        with pytest.raises(ValueError, match="dimension 2 does not fit a set of dimension 3"):
            ConstraintSet(Box(-np.ones(3), np.ones(3)), cuts[:1])


class TestSampleFeasible:
    def test_samples_are_feasible(self):
        # without an anchor, violating candidates are projected in the
        # ball's own geometry; the exponents cover both sides of 2
        for e in (3.0, 1.5, 10.0):
            rng = np.random.default_rng(0)
            cset = ConstraintSet(PBall(1.0, e), (Halfspace([1.0, 0.0, 0.0], 0.2),))
            pts = sample_feasible(cset, rng, 200, dimension=3)
            for row in pts:
                assert worst_violation(cset, row) <= 1e-7, f"exponent {e}"

    def test_anchor_pull_back_stays_feasible(self):
        rng = np.random.default_rng(1)
        cset = ConstraintSet(
            PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.1), Halfspace([0.7, 0.7], 0.05))
        )
        anchor = np.array([-0.3, -0.3])
        pts = sample_feasible(cset, rng, 200, dimension=2, anchor=anchor)
        for row in pts:
            assert worst_violation(cset, row) <= 1e-7


    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @settings(max_examples=20, deadline=None)
    @given(
        exponent=st.sampled_from([1.5, 2.0, 3.0, 10.0]),
        d=st.sampled_from([2, 8, 32]),
        cuts=st.integers(1, 3),
        magnitude=st.sampled_from([1e-100, 1e20, 1e100]),
        seed=st.integers(0, 2**32 - 1),
    )
    # a cut enters by exchange with the ball multiplier, whose rate scales
    # as 1 / |w|: it is judged on the unit columns
    @example(exponent=3.0, d=2, cuts=3, magnitude=1e100, seed=228)
    def test_far_balls_without_an_anchor_give_feasible_points(
        self, exponent, d, cuts, magnitude, seed
    ):
        # violating candidates are projected in the ball's own geometry,
        # whose multiplier Newton works on the candidates scaled from their
        # magnitude to 1
        rng = np.random.default_rng(seed)
        cset = _sampler_case(rng, f"ball{exponent:g}", d, cuts, magnitude)
        points = sample_feasible(cset, np.random.default_rng(seed + 1), 24, dimension=d)
        assert np.all(np.isfinite(points))
        for row in points:
            assert worst_violation(cset, row) <= 1e-9 * magnitude


def _sampler_case(rng, base_kind, d, cuts, magnitude):
    """A base ∩ cuts set at the given magnitude whose origin is interior."""
    base = {
        "box": lambda: Box(-magnitude * np.ones(d), magnitude * np.ones(d)),
        "whole": lambda: WholeSpace(),
        "ball2": lambda: PBall(magnitude, 2.0),
        "ball1.5": lambda: PBall(magnitude, 1.5),
        "ball3": lambda: PBall(magnitude, 3.0),
        "ball10": lambda: PBall(magnitude, 10.0),
    }[base_kind]()
    normals = rng.standard_normal((cuts, d))
    levels = magnitude * rng.uniform(0.05, 0.6, normals.shape[0])
    cuts = tuple(Halfspace(n, lv * np.linalg.norm(n)) for n, lv in zip(normals, levels))
    return ConstraintSet(base, cuts)


class TestBatchedSampler:
    # the batch against the one-at-a-time sampler of tests/_reference.py:
    # the same points bit for bit and the same random stream consumed, on
    # every base kind, with a feasible anchor (the pull-back), an anchor
    # infeasible by more than 1e-9 and none (the projection fallback), at
    # magnitudes whose norms leave pnorm's safe band
    @pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        base_kind=st.sampled_from(["box", "whole", "ball2", "ball1.5", "ball3", "ball10"]),
        d=st.sampled_from([2, 8, 128]),
        cuts=st.integers(1, 3),
        count=st.sampled_from([0, 1, 24]),
        anchor_kind=st.sampled_from(["feasible", "infeasible", "none"]),
        magnitude=st.sampled_from([1e-100, 1.0, 1e100]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_returns_the_one_at_a_time_points(
        self, base_kind, d, cuts, count, anchor_kind, magnitude, seed
    ):
        rng = np.random.default_rng(seed)
        cset = _sampler_case(rng, base_kind, d, cuts, magnitude)
        anchor = None
        if anchor_kind == "feasible":
            anchor = 0.01 * magnitude * rng.uniform(-1.0, 1.0, d) / np.sqrt(d)
            assert worst_violation(cset, anchor) <= 0.0
        elif anchor_kind == "infeasible":
            row, level = cset._cut_rows[0], cset._cut_levels[0]
            anchor = row * (level + max(magnitude, 1.0))
            assert worst_violation(cset, anchor) > 1e-9
        results = []
        for sampler in (sample_feasible, sample_feasible_one):
            draws = np.random.default_rng(seed + 1)
            try:
                points = sampler(cset, draws, count, d, anchor)
            except (InfeasibleError, NonConvergedError) as exc:
                points = type(exc)
            results.append((points, draws.bit_generator.state))
        (batch, batch_state), (one, one_state) = results
        if isinstance(one, type):
            # the same refusal; the batch has drawn every candidate by then,
            # and a caller drops the generator of a failed draw
            assert batch is one
        else:
            assert batch.shape == (count, d) and batch.tobytes() == one.tobytes()
            assert batch_state == one_state

    @pytest.mark.parametrize("exponent", [1.5, 2.0, 3.0, 10.0])
    @pytest.mark.parametrize("d", [1, 2, 8, 128])
    def test_one_ball_draw_is_the_interleaved_draw(self, exponent, d):
        # one candidate (a random-feasible start) draws what it drew before
        # the ball candidates were drawn in two calls
        ball = PBall(2.5, exponent)
        new, old = np.random.default_rng(d), np.random.default_rng(d)
        for _ in range(20):
            assert _draw_ball(ball, new, 1, d).tobytes() == draw_ball_interleaved(ball, old, 1, d).tobytes()
            assert new.bit_generator.state == old.bit_generator.state
