"""Outer hybrid loop: blending step, comparison cuts, runs, and audits."""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from hybrideq import (
    ConstraintSet,
    Frame,
    Halfspace,
    InfeasibleError,
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
import hybrideq.retraction as retraction_module
import hybrideq.sets as sets_module
import hybrideq.solver as solver_module
import hybrideq.space as space_module
from hybrideq.harness import build_config, load_scenario, read_scenario, run_scenario
from hybrideq.sets import add_cut, worst_violation
from hybrideq.solver import AUDIT_TOLERANCES
from hybrideq.space import gauge_coords, phi_coords, pnorm

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


class TestSeedWords:
    """The per-iteration generators, seeded from the run seed's 32-bit words,
    draw the streams that the list [seed, n, k] seeds."""

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1, 2**32, 10**23])
    def test_same_streams_as_the_seed_list(self, seed):
        words = solver_module._seed_words(seed)
        for n in (1, 2, 200):
            for k in (1, 2):
                ours = np.random.default_rng(np.array((*words, n, k), dtype=np.uint32))
                numpy_split = np.random.default_rng([seed, n, k])
                assert ours.bit_generator.state == numpy_split.bit_generator.state
                assert ours.random(16).tobytes() == numpy_split.random(16).tobytes()

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="nonnegative"):
            solver_module._seed_words(-1)


class TestRecordsMatchTheFormulas:
    """Every recorded slack equals the formula evaluated afresh on the
    recorded points, with no kept norm or duality image, bit for bit."""

    @pytest.mark.parametrize("scenario", ["lp_shift_example", "hilbert_family"])
    def test_records_equal_the_uncached_formulas(self, scenario):
        doc = read_scenario(scenario)
        doc["config"]["max_outer"] = 15
        spec = load_scenario(doc)
        bundle, config = spec.problem, build_config(spec)
        result = run(bundle, config)
        assert result.iterations == 15
        p = bundle.space.exponent
        anchor, rc = bundle.anchor.coords, config.reference_solution.coords
        dual_set = bundle.omega_dual
        nexts = [rec.x for rec in result.history[1:]] + [result.x_star]
        for rec, x_next in zip(result.history, nexts):
            xc, yc, uc = rec.x.coords, rec.y.coords, rec.u.coords
            assert rec.phi_anchor == phi_coords(anchor, xc, p)
            assert rec.fejer_slack == phi_coords(uc, rc, p) - phi_coords(xc, rc, p)
            assert rec.fejer_slack_y == phi_coords(yc, rc, p) - phi_coords(xc, rc, p)
            assert rec.gap_xu == pnorm(xc - uc, p)
            assert rec.displacement == pnorm(x_next.coords - xc, p)
            fresh_u, fresh_x = PrimalPoint(uc, bundle.space), PrimalPoint(xc, bundle.space)
            cut = make_comparison_halfspace(fresh_u, fresh_x, bundle.space)
            if cut is not None:
                dual_set = add_cut(dual_set, cut)
            assert rec.cut_count == len(dual_set.cuts)
            assert rec.feasibility_violation == max(
                worst_violation(bundle.omega, x_next.coords),
                worst_violation(dual_set, gauge_coords(x_next.coords, p)),
            )


def _rebind(monkeypatch, original, wrapper):
    """Replace `original` by `wrapper` in every loaded hybrideq module that holds it."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "hybrideq" or name.startswith("hybrideq.")):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, wrapper)


def _banach_run_inputs(p):
    rng = np.random.default_rng(3)
    start = rng.standard_normal(8)
    bundle = _lp_bundle(p=p, anchor=0.8 * start / pnorm(start, p))
    config = SolverConfig(mode=Mode.BANACH_MAIN2, max_outer=8, outer_tol=1e-9, audit_samples=8)
    return bundle, config


class TestRetractionHint:
    def test_hint_holds_the_kept_cut_and_never_a_dominated_one(self, monkeypatch):
        # every third offered cut meets an identical twin first, which add_cut
        # keeps and against which it discards the offered cut as dominated;
        # the loop never sees the twin
        offered = []  # (cut, kept by add_cut) per iteration
        hints = []

        def add_after_twin(cset, cut):
            if len(offered) % 3 == 2:
                cset = add_cut(cset, Halfspace(cut.normal, cut.offset, cut.frame))
            out = add_cut(cset, cut)
            offered.append((cut, out.cuts[-1] is cut))
            return out

        def retract(prob, **kwargs):
            hints.append(kwargs["hint"])
            return retraction_module.sunny_retract(prob, **kwargs)

        monkeypatch.setattr(solver_module, "add_cut", add_after_twin)
        monkeypatch.setattr(solver_module, "sunny_retract", retract)
        doc = load_scenario("hilbert_family").to_dict()
        doc["config"]["max_outer"] = 12
        assert run_scenario(load_scenario(doc)).iterations == 12
        assert len(hints) == len(offered) == 12
        assert [kept for _, kept in offered] == [True, True, False] * 4
        for (cut, kept), hint in zip(offered, hints):
            assert any(c is cut for c in hint) == kept


class TestFixedAnchorWork:
    """The retraction's anchor x_1 is the same in every iteration: what
    depends on it alone is computed once per run, and each new iterate
    passes one feasibility gate."""

    @pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
    def test_anchor_kernels_run_at_most_once_per_run(self, monkeypatch, p):
        import hybrideq.space as space_module

        bundle, config = _banach_run_inputs(p)
        x1 = bundle.anchor.coords.tobytes()
        at_anchor = Counter()
        retracting = []

        for name in ("pnorm", "gauge_coords", "duality_jacobian"):
            real = getattr(space_module, name)

            def counted(v, exponent, *rest, _real=real, _name=name):
                if retracting and exponent == p and np.asarray(v).tobytes() == x1:
                    at_anchor[_name] += 1
                return _real(v, exponent, *rest)

            _rebind(monkeypatch, real, counted)

        real_retract = retraction_module.sunny_retract

        def retract(*args, **kwargs):
            retracting.append(True)
            try:
                return real_retract(*args, **kwargs)
            finally:
                retracting.pop()

        _rebind(monkeypatch, real_retract, retract)
        result = run(bundle, config)
        assert result.iterations == config.max_outer
        assert max(at_anchor.values(), default=0) <= 1, at_anchor

    def test_one_feasibility_gate_per_iterate(self, monkeypatch):
        bundle, config = _banach_run_inputs(3.0)
        real = sets_module.worst_violation
        gated = []

        def counted(cset, v, *kept):
            if cset.frame is Frame.DUAL:
                gated.append(np.asarray(v).tobytes())
            return real(cset, v, *kept)

        _rebind(monkeypatch, real, counted)
        result = run(bundle, config)
        nexts = [rec.x for rec in result.history[1:]] + [result.x_star]
        assert [gated.count(x.dual_coords.tobytes()) for x in nexts] == [1] * len(nexts)


class TestResolventPointWork:
    """The resolvent point u is built once, and every reader takes that
    point: u is validated once per iteration, and outside the retraction
    (whose multiplier Newton may norm a dual with the new iterate's bytes)
    the norms of u, of the new iterate and of the anchor are each computed
    at most once."""

    @pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
    def test_each_point_is_validated_and_normed_once(self, monkeypatch, p):
        doc = read_scenario("lp_shift_example")
        doc["space"]["exponent"] = p
        doc["config"]["max_outer"] = 8
        # the declared reference solution is 0 as well: without it, the zero
        # vectors validated and normed in an iteration are u alone
        del doc["bundle"]["reference_solution"]
        spec = load_scenario(doc)
        bundle, config = spec.problem, build_config(spec)
        run_seen, iteration_seen, retracting = Counter(), [], []

        def record(kind, v):
            if retracting:
                return
            key = (kind, np.asarray(v, dtype=float).tobytes())
            run_seen[key] += 1
            if iteration_seen:
                iteration_seen[-1][key] += 1

        real_as_coords = space_module._as_coords

        def as_coords(values, dimension):
            record("valid", values)
            return real_as_coords(values, dimension)

        monkeypatch.setattr(space_module, "_as_coords", as_coords)
        real_pnorm = space_module.pnorm

        def counted_pnorm(v, exponent):
            if exponent == p:
                record("norm", v)
            return real_pnorm(v, exponent)

        _rebind(monkeypatch, real_pnorm, counted_pnorm)
        real_step = solver_module.step_y

        def step(*args):
            iteration_seen.append(Counter())
            return real_step(*args)

        monkeypatch.setattr(solver_module, "step_y", step)
        real_retract = retraction_module.sunny_retract

        def retract(*args, **kwargs):
            retracting.append(True)
            try:
                return real_retract(*args, **kwargs)
            finally:
                retracting.pop()

        _rebind(monkeypatch, real_retract, retract)
        result = run(bundle, config)
        assert result.iterations == 8
        nexts = [rec.x for rec in result.history[1:]] + [result.x_star]
        for rec, x_next, seen in zip(result.history, nexts, iteration_seen):
            u = rec.u.coords.tobytes()
            assert seen[("valid", u)] == 1, rec.n
            assert seen[("norm", u)] <= 1, rec.n
            assert run_seen[("norm", x_next.coords.tobytes())] <= 1, rec.n
        assert run_seen[("norm", bundle.anchor.coords.tobytes())] <= 1

    @pytest.mark.parametrize("p, e", [(1.5, 3.0), (3.0, 10.0)])
    def test_records_equal_the_formulas_off_the_kept_norms(self, monkeypatch, p, e):
        # r = 0.3 makes u nonzero, where gap_xu is not x's norm, and Omega
        # is a ball of another exponent, whose checks cannot read a kept p-norm
        bundle, config = _banach_run_inputs(p)
        bundle = dataclasses.replace(bundle, omega=ConstraintSet(PBall(1.0, e), (), Frame.PRIMAL))
        config = dataclasses.replace(config, r_schedule=0.3)
        real = sets_module.worst_violation
        kept = []

        def checked(cset, v, *norm):
            value = real(cset, v, *norm)
            if norm:
                kept.append(np.float64(value).tobytes() == np.float64(real(cset, v)).tobytes())
            return value

        _rebind(monkeypatch, real, checked)
        result = run(bundle, config)
        assert any(rec.u.coords.any() for rec in result.history)
        assert kept and all(kept)
        dual_set = bundle.omega_dual
        nexts = [rec.x for rec in result.history[1:]] + [result.x_star]
        for rec, x_next in zip(result.history, nexts):
            xc, uc = rec.x.coords, rec.u.coords
            assert rec.gap_xu == pnorm(xc - uc, p)
            cut = make_comparison_halfspace(
                PrimalPoint(uc, bundle.space), PrimalPoint(xc, bundle.space), bundle.space
            )
            if cut is not None:
                dual_set = add_cut(dual_set, cut)
            assert rec.feasibility_violation == max(
                worst_violation(bundle.omega, x_next.coords),
                worst_violation(dual_set, gauge_coords(x_next.coords, p)),
            )


class TestAuditPhaseFailures:
    """An error of the retraction audit carries its iteration like every other phase's."""

    @pytest.mark.parametrize(
        "error, outcome", [(NonConvergedError, "non_converged"), (InfeasibleError, "infeasible")]
    )
    def test_sampler_failure_keeps_its_iteration(self, monkeypatch, error, outcome):
        # the audit's sampler projects when it cannot pull back toward Jz,
        # and that projection can fail
        real = retraction_module.sample_feasible
        calls = []

        def failing_third(*args, **kwargs):
            calls.append(None)
            if len(calls) == 3:
                raise error("projection fallback failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(retraction_module, "sample_feasible", failing_third)
        report = run_scenario(load_scenario("lp_shift_example"))
        assert report.outcome == outcome
        assert report.failed_iteration == 3
        assert report.error == "iteration 3: projection fallback failed"
