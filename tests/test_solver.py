"""Outer hybrid loop: blending step, comparison cuts, runs, and audits."""

import dataclasses
import sys
from collections import Counter

import numpy as np
import pytest

from hybrideq import (
    AuditError,
    Box,
    ConstraintSet,
    Frame,
    Halfspace,
    InfeasibleError,
    InverseDualityPairing,
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
    UnsupportedCombinationError,
    WholeSpace,
    audit_result,
    run,
    step_y,
)
from hybrideq.equilibrium import (
    DualNormTerm,
    DualityPerturbation,
    PotentialBifunction,
    QuadraticPotential,
    ZeroPerturbation,
    ZeroTerm,
)
import hybrideq.equilibrium as equilibrium_module
import hybrideq.retraction as retraction_module
import hybrideq.sets as sets_module
import hybrideq.solver as solver_module
import hybrideq.space as space_module
from hybrideq.harness import load_scenario, read_scenario, run_scenario
from hybrideq.sets import add_cut, worst_violation
from hybrideq.solver import AUDIT_TOLERANCES
from hybrideq.space import gauge_coords, lyapunov_phi, pnorm

H2 = SpaceConfig(2, 2.0)


def _lp_bundle(d=8, p=3.0, anchor=None, relax=0.5, weights=(0.5, 0.5)):
    space = SpaceConfig(d, p)
    omega = ConstraintSet(PBall(1.0, p), (), Frame.PRIMAL)
    family = OperatorFamily(
        [RelaxedFamily(ShiftMap(space), lambda n: relax)], lambda n: weights
    )
    coords = np.zeros(d) if anchor is None else np.asarray(anchor, dtype=float)
    return ProblemBundle(
        omega=omega,
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


def _definition_cut(u: PrimalPoint, x: PrimalPoint):
    """The comparison inequality phi(u, z) <= phi(x, z) as a dual-frame cut,
    built from its definition: <2(x - u), w> <= |x|^2 - |u|^2 for w = Jz, and
    None for the degenerate u = x whole-space cut (|x - u|_p <= 1e-14)."""
    p = x.space.exponent
    diff = x.coords - u.coords
    if pnorm(diff, p) <= 1e-14:
        return None
    nx, nu = pnorm(x.coords, p), pnorm(u.coords, p)
    return Halfspace(2.0 * diff, nx * nx - nu * nu, Frame.DUAL)


def _fresh_phi(xc: np.ndarray, yc: np.ndarray, p: float) -> float:
    """phi(x, y) = |x|^2 - 2 <x, Jy> + |y|^2 from raw coordinates, with every
    norm and duality image evaluated afresh."""
    nx, ny = pnorm(xc, p), pnorm(yc, p)
    return nx * nx - 2.0 * float(np.dot(xc, gauge_coords(yc, p))) + ny * ny


class TestComparisonHalfspace:
    """The definition the run's cuts are checked against, in
    TestRecordsMatchTheFormulas and TestResolventPointWork."""

    def test_degenerate_returns_none(self):
        x = PrimalPoint([0.5, 0.5], H2)
        assert _definition_cut(x, x) is None

    def test_hilbert_bisector(self):
        u = PrimalPoint([0.0, 0.0], H2)
        x = PrimalPoint([1.0, 0.0], H2)
        hs = _definition_cut(u, x)
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
        hs = _definition_cut(u, x)
        assert hs.frame is Frame.DUAL
        np.testing.assert_allclose(hs.normal, [2.0, 0.0])
        assert hs.offset == pytest.approx(1.0)  # |(1,0)|_3^2 = 1

    def test_offsets_use_space_norm(self):
        space = SpaceConfig(2, 3.0)
        u = PrimalPoint([0.0, 0.0], space)
        x = PrimalPoint([1.0, 1.0], space)
        hs = _definition_cut(u, x)
        assert hs.offset == pytest.approx(2.0 ** (2.0 / 3.0))  # |x|_3^2

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_slack_is_the_phi_difference(self, p):
        # offset - <normal, Jz> = phi(x, z) - phi(u, z), with the space's norms
        space = SpaceConfig(4, p)
        rng = np.random.default_rng(11)
        u, x = (PrimalPoint(rng.uniform(-1.0, 1.0, 4), space) for _ in range(2))
        hs = _definition_cut(u, x)
        for _ in range(8):
            z = PrimalPoint(rng.uniform(-2.0, 2.0, 4), space)
            slack = hs.offset - float(hs.normal @ z.dual_coords)
            expected = lyapunov_phi(x, z) - lyapunov_phi(u, z)
            assert slack == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestRun:
    def test_anchor_in_solution_set_converges_immediately(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(max_outer=10, outer_tol=1e-6)
        result = run(bundle, config)
        assert result.converged
        assert result.iterations == 1
        assert pnorm(result.x_star.coords, 3.0) <= 1e-9

    def test_lp_run_contracts_and_audits(self):
        rng = np.random.default_rng(3)
        start = rng.standard_normal(8)
        start = 0.8 * start / pnorm(start, 3.0)
        bundle = _lp_bundle(anchor=start)
        space = bundle.space
        config = SolverConfig(
            max_outer=12,
            outer_tol=1e-6,
            resolvent_tol=1e-6,
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

    def test_anchor_outside_omega_rejected(self):
        space = SpaceConfig(2, 2.0)
        omega = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        fam = OperatorFamily([RelaxedFamily(ShiftMap(space), lambda n: 0.5)])
        with pytest.raises(ValueError, match="x_1 must lie in Omega"):
            ProblemBundle(
                omega=omega, family=fam, bifunctions=(), mixed=ZeroTerm(),
                perturbation=ZeroPerturbation(), anchor=PrimalPoint([2.0, 0.0], space),
            )

    @pytest.mark.parametrize(
        "other", [SpaceConfig(8, 2.0), SpaceConfig(7, 3.0)], ids=["exponent", "dimension"]
    )
    def test_family_of_another_space_rejected(self, other):
        # lp_shift_example's anchor is of SpaceConfig(8, 3.0); the run would
        # fail at iteration 1 on an error that names another cause
        bundle = load_scenario("lp_shift_example").problem
        family = OperatorFamily([RelaxedFamily(ShiftMap(other))])
        with pytest.raises(ValueError, match="operator family must live in the anchor's space"):
            dataclasses.replace(bundle, family=family)

    # a J* pairing or the duality perturbation of another space: at p = 2 the
    # resolvent solve would take J* as the identity while its gap certificate
    # applied the pairing's own J*
    def test_duality_perturbation_of_another_space_rejected(self):
        bundle = load_scenario("lp_shift_example").problem  # SpaceConfig(8, 3.0)
        with pytest.raises(UnsupportedCombinationError, match="^DualityPerturbation's space "):
            dataclasses.replace(bundle, perturbation=DualityPerturbation(SpaceConfig(8, 2.0)))

    def test_pairing_of_another_space_rejected(self):
        bundle = load_scenario("lp_shift_example").problem
        pairing = PairingBifunction(InverseDualityPairing(SpaceConfig(8, 2.0)))
        with pytest.raises(
            UnsupportedCombinationError,
            match=r"^InverseDualityPairing's space \(dimension 8, exponent 2\) is not the "
            r"problem's \(dimension 8, exponent 3\)$",
        ):
            dataclasses.replace(bundle, bifunctions=(pairing,))

    def test_pairing_of_another_space_rejected_at_p2(self):
        bundle = load_scenario("optimization_app").problem  # SpaceConfig(3, 2.0)
        pairing = PairingBifunction(InverseDualityPairing(SpaceConfig(3, 3.0)))
        with pytest.raises(UnsupportedCombinationError, match="^InverseDualityPairing's space "):
            dataclasses.replace(bundle, bifunctions=(*bundle.bifunctions, pairing))

    def test_cut_cap_overflow_raises(self):
        rng = np.random.default_rng(5)
        start = rng.standard_normal(8)
        start = 0.8 * start / pnorm(start, 3.0)
        bundle = _lp_bundle(anchor=start)
        config = SolverConfig(max_outer=50, cut_cap=3)
        with pytest.raises(NonConvergedError) as err:
            run(bundle, config)
        # tagged inside the iteration's failure boundary like every other phase
        n = err.value.iteration
        assert n >= 4 and str(err.value) == f"iteration {n}: accumulated cuts exceed the cap 3"

    def test_r_schedule_floor_enforced(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(max_outer=3, r_schedule=lambda n: 1e-9, min_r=1e-3)
        with pytest.raises(ValueError):
            run(bundle, config)

    def test_zero_max_outer_returns_anchor(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(max_outer=0)
        result = run(bundle, config)
        assert not result.converged
        assert result.iterations == 0
        np.testing.assert_allclose(result.x_star.coords, bundle.anchor.coords)

    def test_unsupported_equilibrium_data_rejected_by_the_bundle(self):
        with pytest.raises(UnsupportedCombinationError):
            dataclasses.replace(
                _lp_bundle(), bifunctions=(PotentialBifunction(QuadraticPotential(np.zeros(8))),)
            )


class TestConfigChecks:
    """Each of SolverConfig's checks is written so that NaN fails it."""

    @pytest.mark.parametrize(
        "field", ["outer_tol", "resolvent_tol", "min_r", "max_outer", "audit_samples", "cut_cap"]
    )
    def test_nan_field_rejected(self, field):
        with pytest.raises(ValueError) as err:
            SolverConfig(**{field: float("nan")})
        assert err.value.field == field  # the harness reports it at config.<field>

    @pytest.mark.parametrize("seed", [-1, -(2**70), True, False, 7.0, "7", None])
    def test_a_seed_that_is_not_a_nonnegative_int_fails_when_built(self, seed):
        # numpy's SeedSequence would refuse -1 only in the run's first iteration
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got ") as err:
            SolverConfig(seed=seed)
        assert err.value.field == "seed"

    @pytest.mark.parametrize("seed", [0, 7, 2**32, 10**23, np.uint64(2**64 - 1), np.int32(3)])
    def test_nonnegative_int_seeds_accepted(self, seed):
        assert SolverConfig(seed=seed).seed == seed

    @pytest.mark.parametrize(
        "field, value",
        [
            # 0 audited nothing and passed with worst = -inf, -1 escaped the
            # run as numpy's bare ValueError
            ("audit_samples", 0),
            ("audit_samples", -1),
            ("audit_samples", True),
            ("audit_samples", 24.0),
            ("cut_cap", 0),
            ("cut_cap", 2.0),
            ("max_outer", 2.5),  # a TypeError from range in the run
            ("max_outer", -1),
            ("max_outer", True),
        ],
    )
    def test_a_count_that_breaks_its_rule_fails_when_built(self, field, value):
        config = load_scenario("lp_shift_example").solver_config
        rule = f"^{field} must be a (positive|nonnegative) integer, "
        with pytest.raises(ValueError, match=rule) as err:
            dataclasses.replace(config, **{field: value})
        assert err.value.field == field

    @pytest.mark.parametrize(
        "field, value",
        [("audit_samples", 1), ("cut_cap", 1), ("max_outer", 0), ("cut_cap", np.int64(9))],
    )
    def test_counts_at_their_floor_accepted(self, field, value):
        assert getattr(SolverConfig(**{field: value}), field) == value

    def test_nan_r_schedule_stops_the_run_at_its_floor_check(self):
        # without the check, NaN reached PrimalPoint's finiteness check
        bundle = load_scenario("lp_shift_example").problem
        config = SolverConfig(r_schedule=float("nan"))
        with pytest.raises(ValueError, match="must be at least the floor"):
            run(bundle, config)


def _same_set(a, b):
    """a and b have the same frame, base type and base fields, compared by
    value, and no cuts."""
    assert a.frame == b.frame and a.cuts == b.cuts == ()
    assert type(a.base) is type(b.base)
    for f in dataclasses.fields(a.base):
        left, right = getattr(a.base, f.name), getattr(b.base, f.name)
        assert type(left) is type(right) and np.array_equal(left, right), f.name


def _plain_bundle(omega, space):
    return ProblemBundle(
        omega=omega,
        family=OperatorFamily([RelaxedFamily(ShiftMap(space), lambda n: 0.5)]),
        bifunctions=(PairingBifunction(InverseDualityPairing(space)),),
        mixed=DualNormTerm(space.conjugate),
        perturbation=DualityPerturbation(space),
        anchor=PrimalPoint(np.zeros(space.dimension), space),
    )


class TestBundleDerivesItsDualSet:
    """The bundle's space is the anchor's and JOmega is derived from Omega,
    from the numbers the scenario loader used to build it with."""

    @pytest.mark.parametrize("p", [1.5, 3.0, 10.0])
    def test_a_ball_maps_to_the_conjugate_ball(self, p):
        space = SpaceConfig(3, p)
        bundle = _plain_bundle(ConstraintSet(PBall(2.5, p)), space)
        assert bundle.space is bundle.anchor.space
        image = PBall(2.5, space.conjugate, Frame.DUAL)
        _same_set(bundle.omega_dual, ConstraintSet(image, (), Frame.DUAL))

    def test_a_box_maps_to_itself_at_p_2(self):
        lower, upper = [-5.0, -1.0, 0.0], [5.0, 2.0, 0.5]
        bundle = _plain_bundle(ConstraintSet(Box(lower, upper)), SpaceConfig(3, 2.0))
        _same_set(bundle.omega_dual, ConstraintSet(Box(lower, upper, Frame.DUAL), (), Frame.DUAL))

    def test_the_whole_space_maps_to_itself(self):
        bundle = _plain_bundle(ConstraintSet(WholeSpace()), SpaceConfig(3, 2.0))
        _same_set(bundle.omega_dual, ConstraintSet(WholeSpace(Frame.DUAL), (), Frame.DUAL))

    def test_replacing_omega_derives_its_image_again(self):
        bundle = _plain_bundle(ConstraintSet(PBall(1.0, 2.0)), H2)
        wider = dataclasses.replace(bundle, omega=ConstraintSet(PBall(3.0, 2.0)))
        assert wider.omega_dual.base.radius == 3.0

    def test_space_and_dual_set_are_not_inputs(self):
        bundle = _plain_bundle(ConstraintSet(PBall(1.0, 2.0)), H2)
        inputs = {f.name: getattr(bundle, f.name) for f in dataclasses.fields(bundle) if f.init}
        assert sorted(inputs) == sorted(
            ["omega", "family", "bifunctions", "mixed", "perturbation", "anchor"]
        )
        for name, value in (("space", H2), ("omega_dual", bundle.omega_dual)):
            with pytest.raises(TypeError):
                ProblemBundle(**inputs, **{name: value})

    def test_a_box_off_p_2_is_refused_when_built(self):
        with pytest.raises(UnsupportedCombinationError, match="^box base sets are supported only"):
            _plain_bundle(ConstraintSet(Box(-np.ones(3), np.ones(3))), SpaceConfig(3, 3.0))

    def test_a_ball_of_another_exponent_is_refused_when_built(self):
        with pytest.raises(UnsupportedCombinationError, match="^a ball of exponent 2.0 as Omega"):
            _plain_bundle(ConstraintSet(PBall(2.0, 2.0)), SpaceConfig(3, 3.0))


class TestOneFailureBoundary:
    """A solver error of any phase of an iteration leaves run tagged with
    that iteration, and names the report outcome."""

    @pytest.mark.parametrize(
        "phase", ["solve_resolvent_certified", "sunny_retract", "retraction_vi_residual"]
    )
    @pytest.mark.parametrize(
        "error, outcome",
        [
            (UnsupportedCombinationError, "unsupported"),
            (NonConvergedError, "non_converged"),
            (InfeasibleError, "infeasible"),
            (AuditError, "audit_error"),
        ],
    )
    def test_each_phase_error_carries_its_iteration(self, monkeypatch, phase, error, outcome):
        real = getattr(solver_module, phase)
        calls = []

        def failing_second(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise error("phase failed")
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_module, phase, failing_second)
        report = run_scenario(load_scenario("lp_shift_example"))
        assert report.outcome == outcome
        assert report.failed_iteration == 2
        assert report.error == "iteration 2: phase failed"

    def test_other_errors_pass_untagged(self, monkeypatch):
        # a timing tool that ends a pass at the first step_y raises its own
        # exception there, which must leave run as it was raised
        class Stop(Exception):
            pass

        def stop(*args):
            raise Stop("set-up done")

        monkeypatch.setattr(solver_module, "step_y", stop)
        with pytest.raises(Stop) as err:
            run(_lp_bundle(), SolverConfig())
        assert str(err.value) == "set-up done" and not hasattr(err.value, "iteration")


class TestIterationHook:
    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_step_y_called_once_per_iteration(self, monkeypatch, p):
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
        result = run(bundle, SolverConfig(max_outer=4, audit_samples=8))
        assert result.iterations == 4
        assert calls == [1, 2, 3, 4]

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_problem_classified_once_per_iteration(self, monkeypatch, p):
        # the bundle classifies the equilibrium data when it is built; each
        # iteration's resolvent solve classifies its problem once, for the
        # solve and every gap check
        start = np.random.default_rng(3).standard_normal(8)
        bundle = _lp_bundle(p=p, anchor=0.8 * start / pnorm(start, p))
        events = []
        real_step, real_classify = solver_module.step_y, equilibrium_module.classify_problem

        def step(*args, **kwargs):
            events.append("step_y")
            return real_step(*args, **kwargs)

        def classify(*args, **kwargs):
            events.append("classify")
            return real_classify(*args, **kwargs)

        monkeypatch.setattr(solver_module, "step_y", step)
        _rebind(monkeypatch, real_classify, classify)
        result = run(bundle, SolverConfig(max_outer=4, audit_samples=8))
        assert result.iterations == 4
        assert events == ["step_y", "classify"] * 4

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_no_dual_point_is_built_in_an_iteration(self, monkeypatch, p):
        # the maps hand step_y the dual coordinates of their values as arrays
        start = np.random.default_rng(3).standard_normal(8)
        bundle = _lp_bundle(p=p, anchor=0.8 * start / pnorm(start, p))
        built = []
        real_post_init = space_module.DualPoint.__post_init__

        def post_init(point):
            built.append(point)
            real_post_init(point)

        monkeypatch.setattr(space_module.DualPoint, "__post_init__", post_init)
        result = run(bundle, SolverConfig(max_outer=4, audit_samples=8))
        assert result.iterations == 4
        assert built == []


class TestAuditResult:
    def test_every_invariant_reported_once(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(max_outer=2)
        result = run(bundle, config)
        audits = audit_result(result, config)
        assert sorted(audits) == sorted(AUDIT_TOLERANCES)
        for entry in audits.values():
            assert set(entry) == {"worst", "tolerance", "passed"}

    def test_vanishing_gap_scales_with_outer_tol(self):
        bundle = _lp_bundle(anchor=np.zeros(8))
        config = SolverConfig(max_outer=2, outer_tol=1e-3)
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
                max_outer=15, outer_tol=1e-6,
                resolvent_tol=1e-6, seed=seed, audit_samples=8,
            )
            result = run(bundle, config)
            assert pnorm(result.x_star.coords, 3.0) < 0.05


class TestSampleStreams:
    """A run draws its gap starts and its audit samples from two generators
    spawned once from the seed, SeedSequence(seed).spawn(2): the first for
    the gap starts, the second for the audit."""

    @pytest.mark.parametrize(
        "scenario, iterations", [("lp_shift_example", 34), ("hilbert_family", 200)]
    )
    def test_a_run_builds_two_generators(self, monkeypatch, scenario, iterations):
        spec = load_scenario(scenario)
        real_rng = np.random.default_rng
        built, states = [], []
        drawn = {"gap": set(), "audit": set()}

        def spy(*args, **kwargs):
            rng = real_rng(*args, **kwargs)
            built.append(rng)
            states.append(rng.bit_generator.state)
            return rng

        def solve(*args, **kwargs):
            drawn["gap"].add(id(kwargs["rng"]))
            return equilibrium_module.solve_resolvent_certified(*args, **kwargs)

        def audit(*args, **kwargs):
            drawn["audit"].add(id(kwargs["rng"]))
            return retraction_module.retraction_vi_residual(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", spy)
        monkeypatch.setattr(solver_module, "solve_resolvent_certified", solve)
        monkeypatch.setattr(solver_module, "retraction_vi_residual", audit)
        result = run(spec.problem, spec.solver_config)
        assert result.iterations == iterations
        assert len(built) == 2
        assert drawn == {"gap": {id(built[0])}, "audit": {id(built[1])}}
        spawned = np.random.SeedSequence(spec.solver_config.seed).spawn(2)
        assert states == [real_rng(s).bit_generator.state for s in spawned]

    @pytest.mark.parametrize("scenario", ["lp_shift_example", "hilbert_family"])
    @pytest.mark.parametrize("seed", [0, 7, 2**32, 10**23])
    def test_reruns_write_identical_csvs(self, tmp_path, scenario, seed):
        csvs = []
        for k in range(2):
            doc = read_scenario(scenario)
            doc["seed"] = seed
            doc["config"]["max_outer"] = 30
            run_scenario(load_scenario(doc), out_dir=tmp_path / str(k))
            csvs.append((tmp_path / str(k) / f"{scenario}_iterations.csv").read_bytes())
        assert csvs[0] == csvs[1]

    def test_every_word_of_the_seed_moves_the_samples(self):
        # 7 and 2^32 + 7 share their low 32-bit word
        spec = load_scenario("hilbert_family")
        residuals = [
            [
                rec.retraction_vi_residual
                for rec in run(
                    spec.problem, dataclasses.replace(spec.solver_config, seed=seed, max_outer=5)
                ).history
            ]
            for seed in (7, 2**32 + 7)
        ]
        assert residuals[0] != residuals[1]


class TestRecordsMatchTheFormulas:
    """Every recorded slack equals the formula evaluated afresh on the
    recorded points, with no kept norm or duality image, bit for bit."""

    @pytest.mark.parametrize("scenario", ["lp_shift_example", "hilbert_family"])
    def test_records_equal_the_uncached_formulas(self, scenario):
        doc = read_scenario(scenario)
        doc["config"]["max_outer"] = 15
        spec = load_scenario(doc)
        bundle, config = spec.problem, spec.solver_config
        result = run(bundle, config)
        assert result.iterations == 15
        p = bundle.space.exponent
        anchor, rc = bundle.anchor.coords, config.reference_solution.coords
        dual_set = bundle.omega_dual
        nexts = [rec.x for rec in result.history[1:]] + [result.x_star]
        for rec, x_next in zip(result.history, nexts):
            xc, yc, uc = rec.x.coords, rec.y.coords, rec.u.coords
            assert rec.phi_anchor == _fresh_phi(anchor, xc, p)
            assert rec.fejer_slack == _fresh_phi(uc, rc, p) - _fresh_phi(xc, rc, p)
            assert rec.fejer_slack_y == _fresh_phi(yc, rc, p) - _fresh_phi(xc, rc, p)
            assert rec.gap_xu == pnorm(xc - uc, p)
            assert rec.displacement == pnorm(x_next.coords - xc, p)
            fresh_u, fresh_x = PrimalPoint(uc, bundle.space), PrimalPoint(xc, bundle.space)
            cut = _definition_cut(fresh_u, fresh_x)
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
    config = SolverConfig(max_outer=8, outer_tol=1e-9, audit_samples=8)
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

        def retract(*args, **kwargs):
            hints.append(kwargs["hint"])
            return retraction_module.sunny_retract(*args, **kwargs)

        monkeypatch.setattr(solver_module, "add_cut", add_after_twin)
        monkeypatch.setattr(solver_module, "sunny_retract", retract)
        doc = read_scenario("hilbert_family")
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
        bundle, config = spec.problem, spec.solver_config
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

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_records_equal_the_formulas_off_the_kept_norms(self, monkeypatch, p):
        # r = 0.3 makes u nonzero, where gap_xu is not x's norm; each Omega
        # check that reads a kept p-norm equals the check without it
        bundle, config = _banach_run_inputs(p)
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
            cut = _definition_cut(PrimalPoint(uc, bundle.space), PrimalPoint(xc, bundle.space))
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
