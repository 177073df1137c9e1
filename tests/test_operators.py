"""Operator families: relaxed maps, nonexpansiveness diagnostics, NST residuals."""

import numpy as np
import pytest

from hybrideq import (
    ConstraintSet,
    CustomMap,
    Frame,
    JMap,
    OperatorFamily,
    PBall,
    PrimalPoint,
    RelaxedFamily,
    ShiftMap,
    SpaceConfig,
    apply_member,
    jstar_nonexpansive_violation,
    lyapunov_phi,
    nst_diagnostic,
)
from hybrideq.space import DualPoint, gauge_coords, inverse_duality_map, pnorm

H3 = SpaceConfig(3, 2.0)
B8 = SpaceConfig(8, 3.0)


def _family(space, kinds_weights):
    members = []
    for kind, alpha in kinds_weights:
        base = ShiftMap(space) if kind == "shift" else JMap(space)
        members.append(RelaxedFamily(base, (lambda a: (lambda n: a))(alpha)))
    return OperatorFamily(members)


class TestShiftMap:
    def test_shift_in_hilbert(self):
        t = ShiftMap(H3)
        out = t.apply(PrimalPoint([1.0, 2.0, 3.0], H3))
        np.testing.assert_allclose(out.coords, [0.0, 1.0, 2.0])

    def test_origin_is_j_fixed(self):
        t = ShiftMap(B8)
        zero = PrimalPoint(np.zeros(8), B8)
        assert np.all(t.apply(zero).coords == 0.0)
        jz = gauge_coords(zero.coords, 3.0)
        np.testing.assert_allclose(t.apply(zero).coords, jz)

    def test_declared_fixed_points(self):
        t = ShiftMap(B8)
        assert len(t.known_j_fixed_points) == 1
        assert np.all(t.known_j_fixed_points[0].coords == 0.0)


class TestApplyMember:
    def test_hilbert_half_weights_example(self):
        fam = _family(H3, [("shift", 0.5)])
        out = apply_member(fam, 1, 1, PrimalPoint([1.0, 2.0, 3.0], H3))
        np.testing.assert_allclose(out.coords, [0.5, 1.5, 2.5])

    def test_fixed_point_maps_to_its_j_image(self):
        fam = _family(B8, [("shift", 0.5)])
        zero = PrimalPoint(np.zeros(8), B8)
        out = apply_member(fam, 1, 3, zero)
        np.testing.assert_allclose(out.coords, np.zeros(8), atol=1e-15)

    def test_j_map_member_returns_j_image(self):
        fam = _family(B8, [("duality", 0.5)])
        rng = np.random.default_rng(0)
        x = PrimalPoint(rng.uniform(-0.4, 0.4, 8), B8)
        out = apply_member(fam, 1, 2, x)
        np.testing.assert_allclose(out.coords, gauge_coords(x.coords, 3.0), atol=1e-14)

    def test_index_out_of_range(self):
        fam = _family(H3, [("shift", 0.5)])
        with pytest.raises(IndexError):
            apply_member(fam, 2, 1, PrimalPoint(np.zeros(3), H3))
        with pytest.raises(IndexError):
            apply_member(fam, 0, 1, PrimalPoint(np.zeros(3), H3))


class TestWeightSchedules:
    def test_relax_weight_bounds_enforced(self):
        fam = RelaxedFamily(ShiftMap(H3), lambda n: 0.7)  # 1 - 0.7 < 1/2
        with pytest.raises(ValueError):
            fam.apply_at(1, PrimalPoint(np.zeros(3), H3))

    def test_combination_weights_simplex(self):
        fam = OperatorFamily(
            [RelaxedFamily(ShiftMap(H3))], lambda n: (0.6, 0.5)  # sums to 1.1
        )
        with pytest.raises(ValueError):
            fam.weights_at(1)

    def test_weight_product_floor(self):
        fam = OperatorFamily(
            [RelaxedFamily(ShiftMap(H3))],
            lambda n: (1.0 - 1e-9, 1e-9),
            min_weight_product=1e-6,
        )
        with pytest.raises(ValueError):
            fam.weights_at(1)

    def test_default_uniform_weights(self):
        fam = _family(H3, [("shift", 0.5), ("shift", 0.25)])
        w = fam.weights_at(5)
        np.testing.assert_allclose(w, [1 / 3] * 3)


class TestNonexpansiveViolation:
    def test_shift_map_conforms(self):
        omega = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        zero = PrimalPoint(np.zeros(8), B8)
        v = jstar_nonexpansive_violation(
            ShiftMap(B8), zero, omega, samples=300, rng=np.random.default_rng(1)
        )
        assert v <= 1e-8

    def test_duality_map_conforms_exactly(self):
        # every point is a J-fixed point of T = J; check several
        omega = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        rng = np.random.default_rng(2)
        for fixed in (np.zeros(8), rng.uniform(-0.4, 0.4, 8)):
            v = jstar_nonexpansive_violation(
                JMap(B8), PrimalPoint(fixed, B8), omega, samples=100,
                rng=np.random.default_rng(2),
            )
            assert v <= 1e-12

    def test_scaled_map_flagged(self):
        # T' = 2J: phi(0, J*(T'x)) = 4 |x|^2 > phi(0, x)
        space = B8
        broken = CustomMap(
            space,
            lambda x: DualPoint(2.0 * gauge_coords(x.coords, 3.0), space),
        )
        omega = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        zero = PrimalPoint(np.zeros(8), space)
        v = jstar_nonexpansive_violation(
            broken, zero, omega, samples=200, rng=np.random.default_rng(3)
        )
        assert v > 0.1

    def test_relaxed_member_conforms(self):
        fam = RelaxedFamily(ShiftMap(B8), lambda n: 0.5)
        omega = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        zero = PrimalPoint(np.zeros(8), B8)
        v = jstar_nonexpansive_violation(
            CustomMap(B8, lambda x: fam.apply_at(4, x)),
            zero,
            omega,
            samples=200,
            rng=np.random.default_rng(4),
        )
        assert v <= 1e-8


class TestRelaxedConvexityChain:
    def test_phi_blend_inequality(self):
        # phi(v, J*(T_n u)) <= a phi(v, u) + (1 - a) phi(v, J*(Tu)) + slack
        space = B8
        base = ShiftMap(space)
        fam = RelaxedFamily(base, lambda n: 0.5)
        zero = PrimalPoint(np.zeros(8), space)
        rng = np.random.default_rng(5)
        for _ in range(40):
            u = rng.standard_normal(8)
            u = PrimalPoint(0.8 * u / pnorm(u, 3.0), space)
            blended = inverse_duality_map(fam.apply_at(1, u))
            base_img = inverse_duality_map(base.apply(u))
            left = lyapunov_phi(zero, blended)
            right = 0.5 * lyapunov_phi(zero, u) + 0.5 * lyapunov_phi(zero, base_img)
            assert left <= right + 1e-8


class TestNSTDiagnostic:
    def test_constant_fixed_point_trajectory(self):
        fam = _family(B8, [("shift", 0.5)])
        zero = PrimalPoint(np.zeros(8), B8)
        member_res, base_res = nst_diagnostic(fam, [zero] * 10)
        assert member_res == 0.0 and base_res == 0.0

    def test_ratio_bound_at_half_weight(self):
        # |Ju - Tu| = |Ju - T_n u| / (1 - a) = 2 |Ju - T_n u| at a = 1/2
        fam = _family(B8, [("shift", 0.5)])
        rng = np.random.default_rng(6)
        traj = []
        for _ in range(12):
            x = rng.standard_normal(8)
            traj.append(PrimalPoint(0.7 * x / pnorm(x, 3.0), B8))
        member_res, base_res = nst_diagnostic(fam, traj)
        assert base_res <= 2.0 * member_res + 1e-12
        assert base_res >= member_res  # residual transfer direction

    def test_empty_trajectory(self):
        fam = _family(H3, [("shift", 0.5)])
        assert nst_diagnostic(fam, []) == (0.0, 0.0)

    def test_shrinking_trajectory_residuals_shrink(self):
        fam = _family(B8, [("shift", 0.5)])
        rng = np.random.default_rng(7)
        direction = rng.standard_normal(8)
        direction /= pnorm(direction, 3.0)
        traj = [PrimalPoint(direction * 0.5**k, B8) for k in range(12)]
        member_res, base_res = nst_diagnostic(fam, traj)
        # the tail is the last quarter; residuals scale with the iterate norm
        assert member_res <= 0.5**8
        assert base_res <= 2.0 * member_res + 1e-12


class TestFamilyValidation:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            OperatorFamily([])

    def test_nan_weight_product_floor_rejected(self):
        with pytest.raises(ValueError):
            OperatorFamily([RelaxedFamily(ShiftMap(H3))], min_weight_product=float("nan"))

    def test_nan_weight_rejected(self):
        fam = OperatorFamily([RelaxedFamily(ShiftMap(H3))], lambda n: (0.5, float("nan")))
        with pytest.raises(ValueError):
            fam.weights_at(1)

    def test_wrong_length_weights(self):
        fam = OperatorFamily([RelaxedFamily(ShiftMap(H3))], lambda n: (0.5, 0.25, 0.25))
        with pytest.raises(ValueError):
            fam.weights_at(1)
