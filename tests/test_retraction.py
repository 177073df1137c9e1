"""The sunny generalized nonexpansive retraction and its variational residual.

The p = 3 retraction in d = 2 is cross-checked against a dense grid
minimization of the dual objective h(w) = |w|_q^2 - 2 <anchor, w> over the
feasible dual set, which is the stated independent oracle.
"""

import numpy as np
import pytest
from _reference import dykstra

from hybrideq import (
    ConstraintSet,
    Frame,
    Halfspace,
    PBall,
    PrimalPoint,
    SpaceConfig,
    inverse_duality_map,
    lyapunov_phi,
    retraction_vi_residual,
    sunny_retract,
)
from hybrideq.errors import AuditError, InfeasibleError
from hybrideq.sets import (
    WholeSpace,
    _generalized_projection,
    add_cut,
    sample_feasible,
    worst_violation,
)
from hybrideq.space import DualPoint, gauge_coords, pnorm


def _dual_ball(space, cuts=()):
    return ConstraintSet(
        PBall(1.0, space.conjugate, Frame.DUAL),
        tuple(Halfspace(n, o, Frame.DUAL) for n, o in cuts),
        Frame.DUAL,
    )


def _grid_minimize_h(dual, anchor, lo=-1.1, hi=1.1, steps=441):
    """Dense-grid minimizer of h(w) = |w|_q^2 - 2 <x, w> over the dual set."""
    q = anchor.space.conjugate
    x = anchor.coords
    axis = np.linspace(lo, hi, steps)
    best, best_h = None, np.inf
    from hybrideq.sets import worst_violation

    for a in axis:
        for b in axis:
            w = np.array([a, b])
            if worst_violation(dual, w) <= 0.0:
                h = pnorm(w, q) ** 2 - 2.0 * float(np.dot(x, w))
                if h < best_h:
                    best, best_h = w, h
    return best


class TestHilbertMode:
    def test_unit_ball_metric_projection(self):
        s = SpaceConfig(2, 2.0)
        z, _ = sunny_retract(_dual_ball(s), PrimalPoint([2.0, 0.0], s))
        np.testing.assert_allclose(z.coords, [1.0, 0.0], atol=1e-9)

    def test_agrees_with_dykstra_projection(self):
        s = SpaceConfig(3, 2.0)
        rng = np.random.default_rng(4)
        for _ in range(10):
            cuts = [(rng.standard_normal(3), rng.uniform(0.1, 0.5)) for _ in range(3)]
            dual = _dual_ball(s, cuts)
            anchor = PrimalPoint(2.0 * rng.standard_normal(3), s)
            z, _ = sunny_retract(dual, anchor)
            proj = dykstra(dual, anchor.coords, tol=1e-12, max_iter=50000)
            np.testing.assert_allclose(z.coords, proj, atol=1e-6)


class TestRetractionProperties:
    def test_feasible_anchor_is_fixed(self):
        s = SpaceConfig(2, 3.0)
        anchor = PrimalPoint([0.3, -0.2], s)
        z, _ = sunny_retract(_dual_ball(s), anchor)
        np.testing.assert_allclose(z.coords, anchor.coords, atol=1e-8)

    def test_idempotence(self):
        s = SpaceConfig(3, 3.0)
        dual = _dual_ball(s, [(np.array([1.0, 0.2, 0.0]), 0.25)])
        anchor = PrimalPoint([0.9, 0.7, -0.5], s)
        z, _ = sunny_retract(dual, anchor)
        z2, _ = sunny_retract(dual, z)
        assert pnorm(z2.coords - z.coords, 2.0) <= 1e-8

    def test_uniqueness_across_cut_orders(self):
        # the working set grows in a different order, to the same answer
        s = SpaceConfig(3, 3.0)
        cuts = [
            (np.array([0.5, -1.0, 0.3]), 0.2),
            (np.array([1.0, 0.4, 0.0]), 0.3),
            (np.array([-0.2, 0.3, 1.0]), 0.1),
            (np.array([0.7, 0.7, 0.7]), 0.25),
        ]
        anchor = PrimalPoint([1.2, 0.8, -1.0], s)
        rng = np.random.default_rng(8)
        results = []
        for _ in range(4):
            order = rng.permutation(len(cuts))
            dual = _dual_ball(s, [cuts[i] for i in order])
            results.append(sunny_retract(dual, anchor)[0].coords)
        for r in results[1:]:
            assert pnorm(r - results[0], 2.0) <= 1e-12

    def test_phi_decomposition_inequality(self):
        # phi(x, Rx) + phi(Rx, z) <= phi(x, z) for feasible z
        s = SpaceConfig(3, 3.0)
        dual = _dual_ball(s, [(np.array([1.0, 0.0, 0.5]), 0.3)])
        anchor = PrimalPoint([1.5, -0.4, 0.8], s)
        z, _ = sunny_retract(dual, anchor)
        rng = np.random.default_rng(21)
        from hybrideq.sets import sample_feasible

        for w_ref in sample_feasible(dual, rng, 50, dimension=3):
            z_ref = inverse_duality_map(DualPoint(w_ref, s))
            left = lyapunov_phi(anchor, z) + lyapunov_phi(z, z_ref)
            right = lyapunov_phi(anchor, z_ref)
            assert left <= right + 1e-6


class TestVIResidual:
    def test_interior_anchor_zero_residual(self):
        s = SpaceConfig(2, 3.0)
        anchor = PrimalPoint([0.2, 0.1], s)
        res = retraction_vi_residual(_dual_ball(s), anchor, anchor, samples=100)
        assert res <= 1e-12

    def test_retraction_output_has_small_residual(self):
        s = SpaceConfig(2, 3.0)
        dual = _dual_ball(s, [(np.array([1.0, 0.0]), 0.0)])
        anchor = PrimalPoint([0.8, 0.8], s)
        z, _ = sunny_retract(dual, anchor)
        res = retraction_vi_residual(dual, anchor, z, samples=300, rng=np.random.default_rng(1))
        assert res <= 1e-6

    def test_wrong_point_flagged(self):
        s = SpaceConfig(2, 2.0)
        anchor, wrong = PrimalPoint([2.0, 0.0], s), PrimalPoint([0.0, 1.0], s)
        res = retraction_vi_residual(
            _dual_ball(s), anchor, wrong, samples=200, rng=np.random.default_rng(2)
        )
        assert res > 0.5

    def test_passed_violation_changes_nothing(self):
        # the caller's worst_violation of Jz gates the audit and guides the
        # sampler's pull-back, as the one computed inside does
        s = SpaceConfig(3, 3.0)
        dual = _dual_ball(s, [(np.array([1.0, 0.5, 0.0]), 0.1), (np.array([0.0, 1.0, -1.0]), 0.2)])
        anchor = PrimalPoint([0.9, 0.7, -0.3], s)
        z, _ = sunny_retract(dual, anchor)
        own = retraction_vi_residual(dual, anchor, z, samples=50, rng=np.random.default_rng(5))
        gap = worst_violation(dual, z.dual_coords)
        passed = retraction_vi_residual(
            dual, anchor, z, samples=50, rng=np.random.default_rng(5), violation=gap
        )
        assert passed == own
        with pytest.raises(AuditError):
            retraction_vi_residual(dual, anchor, z, samples=50, violation=1e-3)

    def test_infeasible_point_rejected(self):
        s = SpaceConfig(2, 2.0)
        anchor = PrimalPoint([2.0, 0.0], s)
        with pytest.raises(ValueError):
            retraction_vi_residual(_dual_ball(s), anchor, PrimalPoint([2.0, 2.0], s), samples=10)


class TestBanachModeOracle:
    def test_p3_retraction_matches_grid_oracle(self):
        s = SpaceConfig(2, 3.0)
        dual = _dual_ball(s, [(np.array([1.0, 0.0]), 0.0)])  # q-ball ∩ {w_1 <= 0}
        anchor = PrimalPoint([1.0, 1.0], s)
        z, _ = sunny_retract(dual, anchor)
        res = retraction_vi_residual(dual, anchor, z, samples=400, rng=np.random.default_rng(3))
        assert res <= 1e-6
        w_grid = _grid_minimize_h(dual, anchor)
        z_grid = gauge_coords(w_grid, s.conjugate)
        # grid resolution limits agreement to the grid pitch
        assert pnorm(z.coords - z_grid, 2.0) <= 2e-2

    def test_problem_frame_validated(self):
        s = SpaceConfig(2, 3.0)
        primal = ConstraintSet(PBall(1.0, 3.0, Frame.PRIMAL), (), Frame.PRIMAL)
        anchor = PrimalPoint([0.0, 0.0], s)
        with pytest.raises(ValueError, match="DUAL frame"):
            sunny_retract(primal, anchor)
        with pytest.raises(ValueError, match="DUAL frame"):
            retraction_vi_residual(primal, anchor, anchor, samples=10)


def _gate(v):
    """The KKT gate of project_intersection at its smallest tolerance."""
    return 1e-10 * (1.0 + float(np.linalg.norm(v)))


class TestExactEngine:
    """The working-set Newton on the cut multipliers that retracts at p != 2."""

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 10.0])
    def test_random_sets_certify(self, p):
        rng = np.random.default_rng(int(10 * p))
        for case in range(15):
            d = int(rng.integers(2, 7))
            s = SpaceConfig(d, p)
            cuts = [
                (rng.standard_normal(d), rng.uniform(0.05, 0.5))
                for _ in range(rng.integers(1, 8))
            ]
            dual = _dual_ball(s, cuts)
            anchor = PrimalPoint(2.0 * rng.standard_normal(d), s)
            w, resid, _ = _generalized_projection(dual, anchor.coords, p, 1e-12)
            assert resid <= _gate(anchor.coords), f"case {case}: KKT residual {resid:.2e}"
            z, _ = sunny_retract(dual, anchor)
            np.testing.assert_array_equal(z.coords, gauge_coords(w, s.conjugate))
            vi = retraction_vi_residual(
                dual, anchor, z, samples=100, rng=np.random.default_rng(case)
            )
            assert vi <= 1e-9, f"case {case}: VI residual {vi:.2e}"
            z2, _ = sunny_retract(dual, z)
            assert pnorm(z2.coords - z.coords, 2.0) <= 1e-9, f"case {case}: idempotence"
            refs = sample_feasible(
                dual, np.random.default_rng([case, 1]), 20, dimension=d, anchor=w
            )
            for w_ref in refs:
                z_ref = inverse_duality_map(DualPoint(w_ref, s))
                slack = (
                    lyapunov_phi(anchor, z) + lyapunov_phi(z, z_ref) - lyapunov_phi(anchor, z_ref)
                )
                assert slack <= 1e-9, f"case {case}: phi decomposition slack {slack:.2e}"

    def test_near_duplicate_cuts(self):
        # unit normals 1.4e-6 apart (cosine > 1 - 1e-12), a chord beyond
        # add_cut's pruning, both binding at the answer: the second one is
        # traded in for the first rather than joining the Newton system
        s = SpaceConfig(3, 3.0)
        n1 = np.array([1.0, 0.5, -0.3]) / np.linalg.norm([1.0, 0.5, -0.3])
        perp = np.cross(n1, [0.0, 0.0, 1.0])
        n2 = n1 + 1.4e-6 * perp / np.linalg.norm(perp)
        n2 /= np.linalg.norm(n2)
        assert float(n1 @ n2) > 1.0 - 1e-12
        dual = _dual_ball(s, [(n1, 0.2), (n2, 0.2 + 1e-7), (np.array([0.0, 1.0, 1.0]), 0.3)])
        assert len(add_cut(_dual_ball(s, [(n1, 0.2)]), dual.cuts[1]).cuts) == 2
        for anchor in ([2.0, 1.0, -0.6], [2.0, 1.1, -0.5], [1.5, 0.2, -1.0]):
            x = np.array(anchor)
            w, resid, _ = _generalized_projection(dual, x, 3.0, 1e-12)
            assert resid <= _gate(x)
            assert max(float(n1 @ w) - 0.2, float(n2 @ w) - 0.2 - 1e-7) <= _gate(x)

    def test_dependent_row_exchange(self):
        # in the plane two working rows span everything, so the third
        # violated row must enter by exchange; the answer is the vertex of
        # the first two cuts
        s = SpaceConfig(2, 3.0)
        normals = [np.array([1.15, 1.05]), np.array([-0.15, 0.85]), np.array([0.95, 0.35])]
        offsets = [0.26, 0.19, 0.15]
        dual = ConstraintSet(
            WholeSpace(Frame.DUAL),
            tuple(Halfspace(n, o, Frame.DUAL) for n, o in zip(normals, offsets)),
            Frame.DUAL,
        )
        x = np.array([0.8, 3.3])
        w, resid, _ = _generalized_projection(dual, x, 3.0, 1e-12)
        assert resid <= _gate(x)
        vertex = np.linalg.solve(np.stack(normals[:2]), offsets[:2])
        np.testing.assert_allclose(w, vertex, atol=1e-12)

    def test_empty_sets_raise_infeasible(self):
        s = SpaceConfig(2, 3.0)
        misses_ball = _dual_ball(s, [(np.ones(2), -10.0)])
        contradictory = ConstraintSet(
            WholeSpace(Frame.DUAL),
            (Halfspace([1.0, 0.0], -1.0, Frame.DUAL), Halfspace([-1.0, 0.0], -1.0, Frame.DUAL)),
            Frame.DUAL,
        )
        for dual in (misses_ball, contradictory):
            for p in (1.5, 3.0):
                space = SpaceConfig(2, p)
                dual = ConstraintSet(
                    dual.base if isinstance(dual.base, WholeSpace)
                    else PBall(1.0, space.conjugate, Frame.DUAL),
                    dual.cuts,
                    Frame.DUAL,
                )
                with pytest.raises(InfeasibleError):
                    sunny_retract(dual, PrimalPoint([0.5, 0.5], space))
