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
    jstar_nonexpansive_violation,
    lyapunov_phi,
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


class TestApplyMember:
    def test_hilbert_half_weights_example(self):
        fam = _family(H3, [("shift", 0.5)])
        out = fam.members[0].apply_at(1, PrimalPoint([1.0, 2.0, 3.0], H3))
        np.testing.assert_allclose(out.coords, [0.5, 1.5, 2.5])

    def test_fixed_point_maps_to_its_j_image(self):
        fam = _family(B8, [("shift", 0.5)])
        zero = PrimalPoint(np.zeros(8), B8)
        out = fam.members[0].apply_at(3, zero)
        np.testing.assert_allclose(out.coords, np.zeros(8), atol=1e-15)

    def test_j_map_member_returns_j_image(self):
        fam = _family(B8, [("duality", 0.5)])
        rng = np.random.default_rng(0)
        x = PrimalPoint(rng.uniform(-0.4, 0.4, 8), B8)
        out = fam.members[0].apply_at(2, x)
        np.testing.assert_allclose(out.coords, gauge_coords(x.coords, 3.0), atol=1e-14)


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


class TestRelaxedFamilyIdentity:
    @pytest.mark.parametrize("kind", ["shift", "duality"])
    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("alpha", [0.5, 0.25])
    def test_member_residual_is_the_relaxed_base_residual(self, kind, p, alpha):
        # Jx - T_n x = (1 - a)(Jx - Tx), so |Jx - T_n x|_q = (1 - a)|Jx - Tx|_q:
        # the residual-transfer (NST) property of the relaxed family
        space = SpaceConfig(8, p)
        q = space.conjugate
        member = _family(space, [(kind, alpha)]).members[0]
        rng = np.random.default_rng(6)
        for n in range(1, 13):
            x = PrimalPoint(rng.uniform(-1.0, 1.0, 8), space)
            jx = x.dual_coords
            member_res = pnorm(jx - member.apply_at(n, x).coords, q)
            base_res = pnorm(jx - member.base.apply(x).coords, q)
            assert member_res == pytest.approx((1.0 - alpha) * base_res, rel=1e-12, abs=1e-15)
            if kind == "shift":
                assert base_res > 0.0


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
