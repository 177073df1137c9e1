"""Constraint sets, primitive projections, Dykstra's algorithm, and the
exact least-distance engine.

The Dykstra example from the operation contract (unit 2-ball cut by
z_1 <= 0, projecting (2, 0)) is checked against a dense grid search over
the feasible set, which is the stated independent oracle.  Dykstra is in
turn the reference for the least-distance engine, and the 36-step
bisection it replaced is the reference for the ratio-test pull-back.
"""

import numpy as np
import pytest

import hybrideq.sets as sets_module
from hybrideq import (
    Box,
    ConstraintSet,
    Frame,
    Halfspace,
    InfeasibleError,
    NonConvergedError,
    PBall,
    WholeSpace,
    add_cut,
    contains,
    dykstra_project,
    project_primitive,
    sample_feasible,
)
from hybrideq.sets import _least_distance, _pull_feasible, project_intersection, worst_violation


def _grid_nearest(cset, v, lo=-1.5, hi=1.5, steps=301):
    """Brute-force nearest feasible point on a dense 2-D grid."""
    axis = np.linspace(lo, hi, steps)
    best, best_d = None, np.inf
    for a in axis:
        for b in axis:
            z = np.array([a, b])
            if contains(cset, z, 0.0):
                d = float(np.dot(z - v, z - v))
                if d < best_d:
                    best, best_d = z, d
    return best


class TestContains:
    def test_ball_membership(self):
        ball = ConstraintSet(PBall(1.0, 2.0))
        assert contains(ball, np.array([0.0, 0.0]), 0.0)
        assert not contains(ball, np.array([1.1, 0.0]), 1e-6)

    def test_cut_violation(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.5),))
        assert not contains(cset, np.array([0.6, 0.0]), 1e-6)
        assert contains(cset, np.array([0.4, 0.0]), 0.0)

    def test_box_and_whole_space(self):
        box = ConstraintSet(Box([0.0, 0.0], [1.0, 1.0]))
        assert contains(box, np.array([0.5, 1.0]), 0.0)
        assert not contains(box, np.array([0.5, 1.1]), 1e-3)
        assert contains(ConstraintSet(WholeSpace()), np.array([1e9, -1e9]), 0.0)


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


class TestDykstra:
    def test_single_set_is_primitive(self):
        cset = ConstraintSet(PBall(1.0, 2.0))
        np.testing.assert_allclose(
            dykstra_project(cset, np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-10
        )

    def test_fixed_point_when_feasible(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([0.0, 1.0], 0.5),))
        v = np.array([0.2, 0.1])
        np.testing.assert_allclose(dykstra_project(cset, v), v, atol=1e-10)

    def test_ball_cut_by_halfspace_matches_grid_oracle(self):
        cset = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.0),))
        v = np.array([2.0, 0.0])
        z = dykstra_project(cset, v, tol=1e-12, max_iter=20000)
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
        z = dykstra_project(cset, v, tol=1e-12, max_iter=20000)
        assert contains(cset, z, 1e-6)
        dz = np.linalg.norm(v - z)
        samples = sample_feasible(cset, rng, 1000, dimension=2)
        dists = np.linalg.norm(samples - v, axis=1)
        assert np.all(dists >= dz - 1e-6)

    def test_nonconverged_on_empty_intersection(self):
        cset = ConstraintSet(
            PBall(1.0, 2.0), (Halfspace([1.0, 0.0], -3.0),)  # disjoint from the ball
        )
        with pytest.raises(NonConvergedError):
            dykstra_project(cset, np.array([0.0, 0.0]), tol=1e-10, max_iter=200)


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
                a = dykstra_project(cset, v, tol=1e-12, max_iter=50000)
            except NonConvergedError:
                continue
            b = project_intersection(cset, v, tol=1e-12)
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
        z = project_intersection(cset, v, tol=1e-12)
        assert worst_violation(cset, z) <= 1e-9
        assert _least_distance(cset, v)[2] <= 1e-12 * np.linalg.norm(v)
        np.testing.assert_allclose(
            z, dykstra_project(cset, v, tol=1e-12, max_iter=20000), atol=1e-7
        )
        # optimality spot check against feasible samples pulled toward z
        samples = sample_feasible(cset, rng, 400, dimension=3, anchor=z)
        dists = np.linalg.norm(samples - v, axis=1)
        assert np.all(dists >= np.linalg.norm(v - z) - 1e-6)


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
        ball_active = set()
        for _ in range(40):
            cset, d = _random_cut_set(rng, kind)
            v = 2.5 * rng.standard_normal(d)
            z, nu, resid = _least_distance(cset, v)
            assert resid <= 1e-12 * (1.0 + np.linalg.norm(v))
            ref = dykstra_project(cset, v, tol=1e-12, max_iter=300_000)
            np.testing.assert_allclose(z, ref, atol=1e-7)
            ball_active.add(nu > 0.0)
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

    def test_iterative_engines_are_not_reached(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("an iterative projection engine was reached")

        for name in ("dykstra_project", "_admm_project", "_exact_polish"):
            monkeypatch.setattr(sets_module, name, forbidden)
        rng = np.random.default_rng(9)
        for kind in ("box", "ball", "whole"):
            for _ in range(20):
                cset, d = _random_cut_set(rng, kind)
                project_intersection(cset, 2.5 * rng.standard_normal(d))


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


class TestPullFeasible:
    @pytest.mark.parametrize("kind", ["box", "ball", "qball"])
    def test_ratio_test_matches_bisection(self, kind):
        rng = np.random.default_rng(["box", "ball", "qball"].index(kind) + 20)
        compared = 0
        for _ in range(30):
            cset, d = _random_cut_set(rng, kind)
            boundary = project_intersection(cset, 3.0 * rng.standard_normal(d), tol=1e-12)
            for shrink in (0.0, 0.5, 1.0):  # interior anchors and a boundary one
                anchor = shrink * boundary
                allowed = max(worst_violation(cset, anchor), 0.0)
                for cand in sample_feasible(ConstraintSet(cset.base), rng, 10, dimension=d):
                    if worst_violation(cset, cand) <= 0.0:
                        continue
                    step = cand - anchor
                    point = _pull_feasible(cset, anchor, cand, allowed)
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
        point = _pull_feasible(cset, anchor, cand, allowed)
        assert worst_violation(cset, point) <= allowed
        np.testing.assert_allclose(point, [1e-13, 0.5], atol=1e-12)


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

    def test_cut_frames_must_match(self):
        with pytest.raises(ValueError):
            ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0], 0.0, Frame.DUAL),))


class TestSampleFeasible:
    def test_samples_are_feasible(self):
        rng = np.random.default_rng(0)
        cset = ConstraintSet(PBall(1.0, 3.0), (Halfspace([1.0, 0.0, 0.0], 0.2),))
        pts = sample_feasible(cset, rng, 200, dimension=3)
        for row in pts:
            assert worst_violation(cset, row) <= 1e-7

    def test_anchor_pull_back_stays_feasible(self):
        rng = np.random.default_rng(1)
        cset = ConstraintSet(
            PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.1), Halfspace([0.7, 0.7], 0.05))
        )
        anchor = np.array([-0.3, -0.3])
        pts = sample_feasible(cset, rng, 200, dimension=2, anchor=anchor)
        for row in pts:
            assert worst_violation(cset, row) <= 1e-7


class TestBallActivePolish:
    def test_matches_long_dykstra_when_applicable(self):
        from hybrideq.sets import _ball_active_polish

        rng = np.random.default_rng(42)
        matched = 0
        for _ in range(40):
            cuts = tuple(
                Halfspace(rng.standard_normal(4), rng.uniform(-0.1, 0.3))
                for _ in range(rng.integers(1, 4))
            )
            cset = ConstraintSet(PBall(1.0, 1.5), cuts)
            v = 2.5 * rng.standard_normal(4)
            polished = _ball_active_polish(cset, v)
            if polished is None:
                continue  # ball inactive or degenerate; other engines own it
            try:
                ref = dykstra_project(cset, v, tol=1e-12, max_iter=300_000)
            except NonConvergedError:
                continue
            assert np.linalg.norm(polished - ref) < 1e-7
            matched += 1
        assert matched >= 15  # the sampler must actually exercise the path
