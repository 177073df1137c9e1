"""Outer hybrid loop: blending step, comparison cuts, runs, and audits."""

import numpy as np
import pytest

from hybrideq import (
    ConstraintSet,
    Frame,
    InverseDualityPairing,
    Mode,
    NonConvergedError,
    OperatorFamily,
    PBall,
    PairingBifunction,
    PrimalPoint,
    ProblemBundle,
    RelaxedFamily,
    ShiftMap,
    SolverConfig,
    SpaceConfig,
    StopReason,
    UnsupportedCombinationError,
    audit_result,
    make_comparison_halfspace,
    run,
    step_y,
)
from hybrideq.equilibrium import DualNormTerm, DualityPerturbation, ZeroPerturbation, ZeroTerm
from hybrideq.solver import AUDIT_TOLERANCES
from hybrideq.space import pnorm

H2 = SpaceConfig(2, 2.0)


def _lp_bundle(d=8, p=3.0, anchor=None, relax=0.5, weights=(0.5, 0.5)):
    space = SpaceConfig(d, p)
    omega = ConstraintSet(PBall(1.0, p), (), Frame.PRIMAL)
    omega_dual = ConstraintSet(PBall(1.0, space.conjugate, Frame.DUAL), (), Frame.DUAL)
    family = OperatorFamily(
        [RelaxedFamily(ShiftMap(space), lambda n: relax)], lambda n: weights
    )
    coords = np.zeros(d) if anchor is None else np.asarray(anchor, dtype=float)
    return ProblemBundle(
        space=space,
        omega=omega,
        omega_dual=omega_dual,
        family=family,
        bifunctions=(PairingBifunction(InverseDualityPairing(space)),),
        mixed=DualNormTerm(space.conjugate),
        perturbation=DualityPerturbation(space),
        anchor=PrimalPoint(coords, space),
    )


class TestStepY:
    def test_hilbert_shift_half_weights(self):
        space = H2
        fam = OperatorFamily(
            [RelaxedFamily(ShiftMap(space), lambda n: 0.5)], lambda n: (0.5, 0.5)
        )
        y = step_y(fam, PrimalPoint([1.0, 2.0], space), 1)
        np.testing.assert_allclose(y.coords, [0.75, 1.75])

    def test_modes_coincide_in_hilbert(self):
        space = H2
        fam = OperatorFamily(
            [RelaxedFamily(ShiftMap(space), lambda n: 0.5)], lambda n: (0.5, 0.5)
        )
        x = PrimalPoint([0.4, -0.7], space)
        # the Hilbert blend 0.5 x + 0.5 (0.5 x + 0.5 Tx) with Tx = (0, 0.4)
        y = step_y(fam, x, 3)
        np.testing.assert_allclose(y.coords, [0.3, -0.425], atol=1e-15)

    def test_fixed_point_is_fixed(self):
        space = SpaceConfig(8, 3.0)
        fam = OperatorFamily([RelaxedFamily(ShiftMap(space), lambda n: 0.5)])
        zero = PrimalPoint(np.zeros(8), space)
        y = step_y(fam, zero, 1)
        np.testing.assert_allclose(y.coords, np.zeros(8), atol=1e-15)

    def test_near_identity_combination(self):
        # combination weight nearly all on the identity slot returns ~x
        space = H2
        fam = OperatorFamily(
            [RelaxedFamily(ShiftMap(space), lambda n: 0.5)],
            lambda n: (1.0 - 1e-9, 1e-9),
            min_weight_product=1e-10,
        )
        x = PrimalPoint([0.3, 0.9], space)
        y = step_y(fam, x, 1)
        np.testing.assert_allclose(y.coords, x.coords, atol=1e-8)


class TestComparisonHalfspace:
    def test_degenerate_returns_none(self):
        x = PrimalPoint([0.5, 0.5], H2)
        assert make_comparison_halfspace(x, x, H2) is None

    def test_hilbert_bisector(self):
        u = PrimalPoint([0.0, 0.0], H2)
        x = PrimalPoint([1.0, 0.0], H2)
        hs = make_comparison_halfspace(u, x, H2)
        assert hs.frame is Frame.DUAL
        np.testing.assert_allclose(hs.normal, [2.0, 0.0])
        assert hs.offset == pytest.approx(1.0)
        # u satisfies the cut, x violates it (perpendicular bisector side)
        assert hs.violation(u.coords) < 0
        assert hs.violation(x.coords) > 0

    def test_banach_dual_frame_cut(self):
        space = SpaceConfig(2, 3.0)
        u = PrimalPoint([0.0, 0.0], space)
        x = PrimalPoint([1.0, 0.0], space)
        hs = make_comparison_halfspace(u, x, space)
        assert hs.frame is Frame.DUAL
        np.testing.assert_allclose(hs.normal, [2.0, 0.0])
        assert hs.offset == pytest.approx(1.0)  # |(1,0)|_3^2 = 1

    def test_offsets_use_space_norm(self):
        space = SpaceConfig(2, 3.0)
        u = PrimalPoint([0.0, 0.0], space)
        x = PrimalPoint([1.0, 1.0], space)
        hs = make_comparison_halfspace(u, x, space)
        assert hs.offset == pytest.approx(2.0 ** (2.0 / 3.0))  # |x|_3^2


class TestRun:
    def test_anchor_in_solution_set_converges_immediately(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(mode=Mode.BANACH_MAIN2, max_outer=10, outer_tol=1e-6)
        result = run(bundle, config)
        assert result.converged
        assert result.stop_reason is StopReason.CONVERGED
        assert result.iterations == 1
        assert pnorm(result.x_star.coords, 3.0) <= 1e-9

    def test_lp_run_contracts_and_audits(self):
        rng = np.random.default_rng(3)
        start = rng.standard_normal(8)
        start = 0.8 * start / pnorm(start, 3.0)
        bundle = _lp_bundle(anchor=start)
        space = bundle.space
        config = SolverConfig(
            mode=Mode.BANACH_MAIN2,
            max_outer=12,
            outer_tol=1e-6,
            resolvent_tol=1e-6,
            retraction_tol=1e-8,
            reference_solution=PrimalPoint(np.zeros(8), space),
            audit_samples=16,
        )
        result = run(bundle, config)
        assert result.iterations == 12
        assert pnorm(result.x_star.coords, 3.0) < 0.05
        audits = audit_result(result, config)
        assert set(audits) == set(AUDIT_TOLERANCES)
        for name in ("anchor_monotonicity", "fejer_u", "fejer_y", "feasibility",
                     "retraction_residual", "resolvent_gap"):
            assert audits[name]["passed"], name
        rec = result.history[0]
        assert rec.cut_count == 1
        assert np.isfinite(rec.phi_anchor)
        assert rec.fejer_slack is not None

    def test_hilbert_mode_requires_p2(self):
        bundle = _lp_bundle()
        config = SolverConfig(mode=Mode.HILBERT_MAIN, max_outer=5)
        with pytest.raises(UnsupportedCombinationError):
            run(bundle, config)

    def test_anchor_outside_omega_rejected(self):
        space = SpaceConfig(2, 2.0)
        omega = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        omega_dual = ConstraintSet(PBall(1.0, 2.0, Frame.DUAL), (), Frame.DUAL)
        fam = OperatorFamily([RelaxedFamily(ShiftMap(space), lambda n: 0.5)])
        bundle = ProblemBundle(
            space=space, omega=omega, omega_dual=omega_dual, family=fam,
            bifunctions=(), mixed=ZeroTerm(), perturbation=ZeroPerturbation(),
            anchor=PrimalPoint([2.0, 0.0], space),
        )
        with pytest.raises(ValueError):
            run(bundle, SolverConfig(mode=Mode.HILBERT_MAIN, max_outer=3))

    def test_cut_cap_overflow_raises(self):
        rng = np.random.default_rng(5)
        start = rng.standard_normal(8)
        start = 0.8 * start / pnorm(start, 3.0)
        bundle = _lp_bundle(anchor=start)
        config = SolverConfig(mode=Mode.BANACH_MAIN2, max_outer=50, cut_cap=3)
        with pytest.raises(NonConvergedError):
            run(bundle, config)

    def test_r_schedule_floor_enforced(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(
            mode=Mode.BANACH_MAIN2, max_outer=3, r_schedule=lambda n: 1e-9, min_r=1e-3
        )
        with pytest.raises(ValueError):
            run(bundle, config)

    def test_zero_max_outer_returns_anchor(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(mode=Mode.BANACH_MAIN2, max_outer=0)
        result = run(bundle, config)
        assert result.stop_reason is StopReason.ITERATION_CAP
        assert not result.converged
        assert result.iterations == 0
        np.testing.assert_allclose(result.x_star.coords, bundle.anchor.coords)


class TestIterationHook:
    @pytest.mark.parametrize("p, mode", [(2.0, Mode.HILBERT_MAIN), (3.0, Mode.BANACH_MAIN2)])
    def test_step_y_called_once_per_iteration(self, monkeypatch, p, mode):
        # timing tools wrap the module-level step_y by name and mark one
        # outer iteration per call
        import hybrideq.solver as solver_module

        real = solver_module.step_y
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, "step_y", counted)
        start = np.random.default_rng(3).standard_normal(8)
        bundle = _lp_bundle(p=p, anchor=0.8 * start / pnorm(start, p))
        result = run(bundle, SolverConfig(mode=mode, max_outer=4, audit_samples=8))
        assert result.iterations == 4
        assert calls == [1, 2, 3, 4]


class TestAuditResult:
    def test_every_invariant_reported_once(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(mode=Mode.BANACH_MAIN2, max_outer=2)
        result = run(bundle, config)
        audits = audit_result(result, config)
        assert sorted(audits) == sorted(AUDIT_TOLERANCES)
        for entry in audits.values():
            assert set(entry) == {"worst", "tolerance", "passed"}

    def test_vanishing_gap_scales_with_outer_tol(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(mode=Mode.BANACH_MAIN2, max_outer=2, outer_tol=1e-3)
        result = run(bundle, config)
        audits = audit_result(result, config)
        assert audits["vanishing_gap"]["tolerance"] == pytest.approx(1e-2)


class TestSeedRobustness:
    def test_lp_contracts_from_other_seeds(self):
        for seed in (1, 23):
            rng = np.random.default_rng(seed)
            start = rng.standard_normal(8)
            start = 0.8 * start / pnorm(start, 3.0)
            bundle = _lp_bundle(anchor=start)
            config = SolverConfig(
                mode=Mode.BANACH_MAIN2, max_outer=15, outer_tol=1e-6,
                resolvent_tol=1e-6, retraction_tol=1e-8, seed=seed, audit_samples=8,
            )
            result = run(bundle, config)
            assert pnorm(result.x_star.coords, 3.0) < 0.05
