"""Resolvent machinery: bifunctions, mixed terms, T_r solves, gap certification.

Closed-form oracles: the projection case (no equilibrium data) has
T_r(x) = P_Omega(x); the quadratic-potential case on the whole space has
T_r(x) = x / (1 + r), verified here by finite-difference optimality of the
regularized objective rather than by the solver's own path.
"""

import copy
import dataclasses
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from _reference import (
    bifunction_monotonicity_defect,
    gap_hilbert_one,
    perturbation_monotonicity_defect,
    pgd_sequential,
)
from hypothesis import strategies as st

from hybrideq import (
    Box,
    ConstraintSet,
    Frame,
    Halfspace,
    InverseDualityPairing,
    NonConvergedError,
    PBall,
    PairingBifunction,
    PotentialBifunction,
    PrimalPoint,
    QuadraticPotential,
    ResolventProblem,
    SpaceConfig,
    UnsupportedCombinationError,
    WholeSpace,
    ZeroPerturbation,
    ZeroTerm,
    project_primitive,
    resolvent_gap,
    resolvent_lhs,
    solve_resolvent_certified,
)
from hybrideq.equilibrium import (
    AffineMap,
    DualNormTerm,
    DualityPerturbation,
    QuadraticTerm,
    WeightedL1Term,
    _banach_inner_objective,
    _composite_prox,
    _gap_banach,
    _gap_hilbert,
    _gap_starts,
    _linear_minimum,
    _pgd_search,
    _project_rows,
    _step_rows,
    classify_problem,
)
from hybrideq import equilibrium
from hybrideq.harness import BUILTIN_SCENARIOS, load_scenario, run_scenario
from hybrideq.space import gauge_coords, lyapunov_phi, pnorm, pnorm_rows

HILBERT2 = SpaceConfig(2, 2.0)
BALL2 = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
WHOLE2 = ConstraintSet(WholeSpace(), (), Frame.PRIMAL)


def _projection_problem(input_coords, r=1.0):
    return ResolventProblem(
        (), ZeroTerm(), ZeroPerturbation(), BALL2, r, PrimalPoint(input_coords, HILBERT2)
    )


def _lp_problem(input_coords, r=1.0, d=8, p=3.0, radius=1.0):
    space = SpaceConfig(d, p)
    ball = ConstraintSet(PBall(radius, p), (), Frame.PRIMAL)
    return ResolventProblem(
        (PairingBifunction(InverseDualityPairing(space)),),
        DualNormTerm(space.conjugate),
        DualityPerturbation(space),
        ball,
        r,
        PrimalPoint(input_coords, space),
    )


def _unit_direction(seed, d=8, p=3.0):
    v = np.random.default_rng(seed).standard_normal(d)
    return v / pnorm(v, p)


class TestResolventLhs:
    def test_diagonal_vanishes(self):
        prob = _lp_problem(0.3 * np.ones(8))
        rng = np.random.default_rng(0)
        for _ in range(10):
            u = PrimalPoint(rng.uniform(-0.3, 0.3, 8), prob.space)
            assert resolvent_lhs(prob, u, u) == pytest.approx(0.0, abs=1e-14)

    def test_all_zero_data_reduces_to_regularization(self):
        x = np.array([0.7, -0.4])
        prob = _projection_problem(x, r=2.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = PrimalPoint(rng.uniform(-0.5, 0.5, 2), HILBERT2)
            y = PrimalPoint(rng.uniform(-0.5, 0.5, 2), HILBERT2)
            expected = (1.0 / 2.0) * float(np.dot(u.coords - x, y.coords - u.coords))
            assert resolvent_lhs(prob, u, y) == pytest.approx(expected, abs=1e-12)

    def test_lp_class_at_u_zero(self):
        # at u = 0 only |Jy|_q + (1/r) <-input, Jy> survives
        space = SpaceConfig(4, 3.0)
        rng = np.random.default_rng(2)
        x = rng.uniform(-0.3, 0.3, 4)
        prob = _lp_problem(x, r=1.5, d=4)
        zero = PrimalPoint(np.zeros(4), space)
        for _ in range(10):
            yc = rng.uniform(-0.5, 0.5, 4)
            y = PrimalPoint(yc, space)
            jy = gauge_coords(yc, 3.0)
            expected = pnorm(jy, space.conjugate) + (1.0 / 1.5) * float(np.dot(-x, jy))
            assert resolvent_lhs(prob, zero, y) == pytest.approx(expected, abs=1e-12)


class TestSolveClosedForms:
    def test_projection_case(self):
        prob = _projection_problem(np.array([2.0, 0.0]))
        u = solve_resolvent_certified(prob, tol=1e-8)[0]
        np.testing.assert_allclose(u.coords, [1.0, 0.0], atol=1e-8)

    def test_projection_case_r_independent(self):
        for r in (0.5, 1.0, 10.0):
            prob = _projection_problem(np.array([2.0, 0.0]), r=r)
            u = solve_resolvent_certified(prob, tol=1e-8)[0]
            np.testing.assert_allclose(u.coords, [1.0, 0.0], atol=1e-7)

    def test_prox_case_matches_analytic_value(self):
        x = np.array([1.5, -0.8])
        psi = QuadraticPotential(np.zeros(2), 1.0)
        prob = ResolventProblem(
            (PotentialBifunction(psi),),
            ZeroTerm(),
            ZeroPerturbation(),
            WHOLE2,
            1.0,
            PrimalPoint(x, HILBERT2),
        )
        u = solve_resolvent_certified(prob, tol=1e-8)[0]
        np.testing.assert_allclose(u.coords, x / 2.0, atol=1e-8)

    def test_prox_case_finite_difference_optimality(self):
        # independent oracle: u minimizes psi(y) + (1/2r)|y - x|^2
        x = np.array([1.5, -0.8])
        r = 1.0
        u = x / (1.0 + r)

        def objective(y):
            return 0.5 * float(np.dot(y, y)) + (1.0 / (2 * r)) * float(np.dot(y - x, y - x))

        eps = 1e-6
        for j in range(2):
            step = np.zeros(2)
            step[j] = eps
            grad_fd = (objective(u + step) - objective(u - step)) / (2 * eps)
            assert abs(grad_fd) <= 1e-6

    def test_lp_example_fixes_zero(self):
        prob = _lp_problem(np.zeros(8))
        u = solve_resolvent_certified(prob, tol=1e-6)[0]
        assert pnorm(u.coords, 3.0) <= 1e-6

    def test_lp_example_random_input_certifies(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(8)
        x = 0.8 * x / pnorm(x, 3.0)
        u, gap, _ = solve_resolvent_certified(_lp_problem(x), tol=1e-6)
        assert gap <= 1e-6


class TestBanachClosedForm:
    """T_r of the shift class with one pairing: 0 when |x|_p <= r, otherwise
    s x / |x|_p with s = (|x|_p / r - 1) / (2 + 1/r)."""

    @staticmethod
    def _unit_pairs(d):
        unit = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=d, max_size=d)
        return st.tuples(unit, unit)

    # pnorm's plain power sum overflows at |x| ~ 1e150 before it rescales
    @pytest.mark.filterwarnings("ignore:overflow encountered in power:RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        mantissas=st.integers(1, 8).flatmap(_unit_pairs),
        x_exp=st.integers(-150, 150),
        y_exp=st.integers(-150, 150),
        ratio=st.floats(1e-6, 1.0),
    )
    # <x, Jy> = -9.7e-321 is a subnormal with 3 significant digits, and
    # lhs(0, y) came out -1.4e-178 before the pairing was scaled into range
    @example(
        p=2.0, mantissas=([0.9842387145180247], [0.9842387145180248]), x_exp=-146, y_exp=-174, ratio=1.0
    )
    def test_zero_is_holder_certified(self, p, mantissas, x_exp, y_exp, ratio):
        # lhs(0, y) = |Jy|_q - <x, Jy>/r >= |y|_p (1 - |x|_p / r) >= 0
        x = np.array(mantissas[0]) * 10.0**x_exp
        y = np.array(mantissas[1]) * 10.0**y_exp
        d = x.shape[0]
        nx = pnorm(x, p)
        assume(nx > 0.0)
        r = nx / ratio
        prob = _lp_problem(x, r=r, d=d, p=p)
        zero = PrimalPoint(np.zeros(d), prob.space)
        lhs = resolvent_lhs(prob, zero, PrimalPoint(y, prob.space))
        assert lhs >= -1e-12 * pnorm(y, p)

    def test_zero_is_certified_at_subnormal_r(self):
        # |x|_p = r = 2.6e-309: 1/r overflows, and y = 0 once gave inf * 0 = NaN
        x = np.array([2.64920695564977e-309])
        r = pnorm(x, 2.0)
        prob = _lp_problem(x, r=r, d=1, p=2.0)
        zero = PrimalPoint(np.zeros(1), prob.space)
        assert resolvent_lhs(prob, zero, zero) == 0.0
        y = PrimalPoint(np.array([-1.0]), prob.space)
        assert resolvent_lhs(prob, zero, y) >= 0.0

    @pytest.mark.parametrize("r, norm", [(0.5, 0.75), (0.8, 0.95), (0.3, 0.9), (0.1, 0.5)])
    def test_interior_candidate_when_r_below_norm(self, r, norm):
        direction = _unit_direction(20)
        started = time.perf_counter()
        u, gap, _ = solve_resolvent_certified(_lp_problem(norm * direction, r=r), tol=1e-6)
        elapsed = time.perf_counter() - started
        s = (norm / r - 1.0) / (2.0 + 1.0 / r)
        np.testing.assert_allclose(u.coords, s * direction, rtol=0.0, atol=1e-12)
        assert gap <= 1e-6
        assert elapsed < 1.0, f"resolvent took {elapsed:.2f} s"

    def test_uncertifiable_candidate_raises(self):
        # the stationary point at r = 0.05 is not T_r: lhs(u, .) dips below 0
        started = time.perf_counter()
        with pytest.raises(NonConvergedError, match="gap"):
            solve_resolvent_certified(_lp_problem(0.99 * _unit_direction(20), r=0.05), tol=1e-6)
        elapsed = time.perf_counter() - started
        assert elapsed < 5.0, f"failure took {elapsed:.2f} s to report"

    @pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
    def test_gap_search_far_from_unit_scale_sees_the_dip(self):
        # |y_i|^9 overflows the batched evaluation at most starts of a
        # 10-ball of radius 1e40, so the search cannot move them; their
        # values come from resolvent_lhs, which reaches about -8.6e77
        x = np.array([1e39, -3e38, 2e38, 5e38])
        prob = _lp_problem(x, r=1.0, d=4, p=10.0, radius=1e40)
        with pytest.raises(NonConvergedError, match=r"gap \d.*e\+7\d"):
            solve_resolvent_certified(prob, tol=1e-6)

    def test_candidate_outside_omega_raises(self):
        # s = (5 - 1) / (2 + 10) = 1/3 exceeds the radius 0.2
        prob = _lp_problem(0.5 * _unit_direction(21), r=0.1, radius=0.2)
        with pytest.raises(NonConvergedError, match="outside Omega"):
            solve_resolvent_certified(prob, tol=1e-6)

    def test_shift_example_at_small_r_passes_audits(self):
        doc = copy.deepcopy(BUILTIN_SCENARIOS["lp_shift_example"])
        doc["config"]["r"] = 0.3
        report = run_scenario(load_scenario(doc))
        assert report.outcome == "converged"
        assert report.audits_passed, {
            k: v for k, v in report.audits.items() if not v["passed"]
        }
        # u = 0 would give gap_xu == x_norm; the nonzero branch must have run
        assert any(row["gap_xu"] != row["x_norm"] for row in report.rows)


class TestHolderBranchCheck:
    """At u = 0 with |x|_p <= r the sampled check evaluates, never descends."""

    @staticmethod
    def _no_descent(*args, **kwargs):
        raise AssertionError("the gap descent ran on the Hölder branch")

    def test_certifies_without_the_descent(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_pgd_search", self._no_descent)
        u, gap, capped = solve_resolvent_certified(_lp_problem(0.9 * _unit_direction(30)), tol=1e-6)
        assert not u.coords.any() and gap == 0.0 and capped == 0

    def test_shift_example_runs_without_the_descent(self, monkeypatch):
        # every resolvent of the r = 1 run is on the Hölder branch
        monkeypatch.setattr(equilibrium, "_pgd_search", self._no_descent)
        report = run_scenario(load_scenario("lp_shift_example"))
        assert report.outcome == "converged" and report.audits_passed
        assert report.capped_starts == 0

    def test_a_negative_evaluation_raises(self, monkeypatch):
        real = equilibrium._banach_inner_objective

        def dipping(prob, u):
            evaluate, gradient = real(prob, u)

            def evaluate_dipping(ys):
                values, parts = evaluate(ys)
                values[5] = -0.25  # one sampled start
                return values, parts

            return evaluate_dipping, gradient

        monkeypatch.setattr(equilibrium, "_banach_inner_objective", dipping)
        with pytest.raises(NonConvergedError, match="gap 0.25"):
            solve_resolvent_certified(_lp_problem(0.9 * _unit_direction(31)), tol=1e-6)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered in multiply:RuntimeWarning")
    def test_rows_the_batch_overflows_on_are_evaluated_safely(self):
        # |y_i|^9 overflows on a 10-ball of radius 1e40; resolvent_lhs rescales
        prob = _lp_problem(np.full(4, 0.1), d=4, p=10.0, radius=1e40)
        uc = np.zeros(4)
        starts = _gap_starts(prob, uc, 16, np.random.default_rng(0))
        zero = PrimalPoint(uc, prob.space)
        lhs = [resolvent_lhs(prob, zero, PrimalPoint(y, prob.space)) for y in starts[2:]]
        assert equilibrium._gap_holder(prob, zero, starts[2:]) == min(lhs) > 0.0

    def test_nonzero_branch_still_descends(self, monkeypatch):
        real = equilibrium._pgd_search
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[3]))
            return real(*args, **kwargs)

        monkeypatch.setattr(equilibrium, "_pgd_search", counting)
        u, gap, _ = solve_resolvent_certified(_lp_problem(0.9 * _unit_direction(32), r=0.3), tol=1e-6)
        assert u.coords.any() and gap <= 1e-6
        assert calls == [18]


class TestHilbertSolve:
    """Forward-backward on the affine classes, and the certified solve's
    retry rounds and caps."""

    @staticmethod
    def _skew_problem(k, omega=BALL2):
        # an affine pairing with skew matrix: Lipschitz k, monotone modulus 0
        pairing = PairingBifunction(AffineMap([[0.0, k], [-k, 0.0]], np.zeros(2)))
        return ResolventProblem(
            (pairing,), ZeroTerm(), ZeroPerturbation(), omega, 1.0, PrimalPoint([0.3, 0.2], HILBERT2)
        )

    def test_affine_pairing_and_perturbation_solve_the_linear_equation(self):
        # on the whole space with the zero term, u = T_r(x) solves
        # (u - x) / r + M u + c + N u + e = 0
        rng = np.random.default_rng(8)
        d, r = 3, 0.7
        space = SpaceConfig(d, 2.0)
        skew = rng.standard_normal((d, d))
        m = 0.5 * (skew - skew.T) + np.eye(d)
        n = rng.standard_normal((d, d))
        n = 0.2 * n @ n.T
        c, e, x = rng.standard_normal(d), rng.standard_normal(d), rng.standard_normal(d)
        prob = ResolventProblem(
            (PairingBifunction(AffineMap(m, c)),),
            ZeroTerm(),
            AffineMap(n, e),
            WHOLE2,
            r,
            PrimalPoint(x, space),
        )
        u, gap, _ = solve_resolvent_certified(prob, tol=1e-9)
        expected = np.linalg.solve(np.eye(d) / r + m + n, x / r - c - e)
        np.testing.assert_allclose(u.coords, expected, rtol=0.0, atol=1e-9)
        # lhs(u, .) is linear on the whole space, and the gap's descent from
        # u follows the rounding left in its slope; the value stays tiny
        assert gap <= 1e-9

    def test_a_gap_above_tol_retries_at_a_tenth_of_the_target(self, monkeypatch):
        # the skew pairing slows forward-backward to a contraction factor of
        # sqrt(1 - 1/16): stopped at displacement tol / 10, u leaves a gap of
        # 1.5 tol, and the second round, at tol / 100, certifies
        real, gaps = equilibrium.resolvent_gap, []

        def spy(*args, **kwargs):
            gaps.append(real(*args, **kwargs)[0])
            return gaps[-1], 0

        monkeypatch.setattr(equilibrium, "resolvent_gap", spy)
        u, gap, _ = solve_resolvent_certified(self._skew_problem(3.0), tol=1e-8)
        assert len(gaps) == 2 and gaps[0] > 1e-8 >= gaps[1] == gap
        # (I + M) u = x: the ball does not bind
        np.testing.assert_allclose(u.coords, [-0.03, 0.11], rtol=0.0, atol=1e-8)

    def test_a_gap_above_tol_after_three_rounds_raises(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "resolvent_gap", lambda *args, **kwargs: (0.5, 0))
        with pytest.raises(NonConvergedError, match=r"^resolvent gap 0.5 stayed above tol=1e-08$"):
            solve_resolvent_certified(self._skew_problem(3.0), tol=1e-8)

    def test_forward_backward_raises_at_its_cap(self):
        message = r"^forward-backward displacement did not reach 1e-09 in 5 iterations$"
        with pytest.raises(NonConvergedError, match=message):
            equilibrium._solve_hilbert(self._skew_problem(3.0), 1e-9, 5)


class TestCompositeProx:
    def test_alternation_cap_raises(self):
        class Flip:
            """Not a prox: it answers two points in turn, so nothing settles."""

            separable = False
            sign = 1.0

            def prox(self, v, t):
                self.sign = -self.sign
                return np.array([0.5 * self.sign, 0.0])

        with pytest.raises(NonConvergedError, match="alternation"):
            _composite_prox(Flip(), BALL2, np.array([0.3, 0.1]), 1.0)


class TestResolventGap:
    def test_solution_certifies(self):
        prob = _projection_problem(np.array([2.0, 0.0]))
        u = PrimalPoint([1.0, 0.0], HILBERT2)
        assert resolvent_gap(prob, u)[0] <= 1e-8

    def test_wrong_point_flagged(self):
        prob = _projection_problem(np.array([2.0, 0.0]))
        wrong = PrimalPoint([0.0, 0.0], HILBERT2)
        assert resolvent_gap(prob, wrong)[0] >= 0.5

    def test_banach_wrong_point_flagged(self):
        prob = _lp_problem(np.zeros(8))
        wrong = PrimalPoint(0.5 * np.ones(8) / pnorm(np.ones(8), 3.0), prob.space)
        assert resolvent_gap(prob, wrong)[0] > 0.1


class TestGapSearch:
    """The batched gap search against its one-start-at-a-time reference."""

    @settings(max_examples=20, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        d=st.integers(1, 40),
        base=st.sampled_from(["ball", "box", "whole"]),
        shifted=st.booleans(),
        ratio=st.floats(0.1, 2.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_sequential_reference(self, p, d, base, shifted, ratio, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(d)
        x = ratio * x / pnorm(x, p)
        space = SpaceConfig(d, p)
        sets = {
            "ball": PBall(1.0, p),
            "box": Box(-np.ones(d), np.ones(d)),
            "whole": WholeSpace(),
        }
        prob = ResolventProblem(
            (PairingBifunction(InverseDualityPairing(space)),),
            DualNormTerm(space.conjugate),
            DualityPerturbation(space),
            ConstraintSet(sets[base], (), Frame.PRIMAL),
            1.0,
            PrimalPoint(x, space),
        )
        uc = 0.3 * x if shifted else np.zeros(d)
        starts = _gap_starts(prob, uc, 2, rng)
        u = PrimalPoint(uc, space)
        evaluate, gradient = _banach_inner_objective(prob, u)
        ys, fy, _ = _pgd_search(evaluate, gradient, prob.feasible, starts, 300, 1e-9)
        for i, start in enumerate(starts):
            y_ref, f_ref = pgd_sequential(evaluate, gradient, prob.feasible, start)
            assert np.array_equal(ys[i], y_ref) and fy[i] == f_ref
            y_one, f_one, _ = _pgd_search(evaluate, gradient, prob.feasible, [start], 300, 1e-9)
            assert np.array_equal(y_one[0], ys[i]) and f_one[0] == fy[i]
        best = PrimalPoint(ys[int(np.argmin(fy))], space)
        value, _ = _gap_banach(prob, u, starts, max_iter=300)
        assert value == resolvent_lhs(prob, u, best)

    @staticmethod
    def _quadratic(center):
        # f(y) = |y - center|^2 / 2 in the batched evaluate/gradient form
        def evaluate(ys):
            diff = ys - center
            return 0.5 * np.einsum("ij,ij->i", diff, diff), (diff,)

        return evaluate, lambda parts: parts[0]

    def test_projects_only_the_trials_the_sequential_search_tries(self, monkeypatch):
        # f = 8 |y - c|^2 on the unit 2-ball has Lipschitz gradient 16: a row
        # backtracks from t = 1 to 1/16, and a row that starts at its
        # minimum stops at once.  Each call of the batch tries one step of
        # every row still backtracking, so it projects exactly the rows the
        # one-start search projects, no row beyond an accepted step
        import _reference

        def spy(log):
            def project(cset, ys):
                log.extend(map(tuple, ys))
                return _project_rows(cset, ys)

            return project

        center = np.array([0.3, -0.2])

        def evaluate(ys):
            diff = ys - center
            return 8.0 * np.einsum("ij,ij->i", diff, diff), (diff,)

        def gradient(parts):
            return 16.0 * parts[0]

        ball = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        starts = [np.array([1.5, 0.5]), center, np.array([-0.4, 0.9])]
        batch, sequential = [], []
        monkeypatch.setattr(equilibrium, "_project_rows", spy(batch))
        monkeypatch.setattr(_reference, "_project_rows", spy(sequential))
        ys, values, _ = _pgd_search(evaluate, gradient, ball, starts, 300, 1e-9)
        for i, start in enumerate(starts):
            y_ref, value_ref = pgd_sequential(evaluate, gradient, ball, start)
            assert np.array_equal(ys[i], y_ref) and values[i] == value_ref
        assert len(batch) > 3 * len(starts)  # the rows backtracked
        assert sorted(batch) == sorted(sequential)

    @pytest.mark.parametrize("d", [2, 8, 40])
    def test_ball_rows_project_as_project_primitive(self, d):
        # rows on the 2-sphere and one ulp inside and outside it, entry by
        # entry: whether such a row is inside is decided by rounding, and
        # _project_rows must decide it as project_primitive does
        rng = np.random.default_rng(20 + d)
        ball = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        raw = rng.standard_normal((500, d))
        sphere = raw / np.array([pnorm(row, 2.0) for row in raw])[:, None]
        outward = np.nextafter(sphere, np.copysign(np.inf, sphere))
        ys = np.concatenate([sphere, outward, np.nextafter(sphere, 0.0), 3.0 * raw])
        projected = _project_rows(ball, ys)
        expected = np.array([project_primitive(row, ball.base) for row in ys])
        assert projected.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("e", [1.5, 3.0, 4.5, 10.0])
    def test_rows_outside_an_e_ball_scale_onto_its_sphere(self, e):
        # a row inside the ball is kept bit for bit; a row outside it is
        # scaled radially, y R / |y|_e, and lands on the sphere to rounding
        rng = np.random.default_rng(int(10 * e))
        radius = 2.5
        ball = ConstraintSet(PBall(radius, e), (), Frame.PRIMAL)
        for d in (1, 8, 40):
            ys = rng.standard_normal((100, d))
            ys[:50] *= 0.01
            ys[50:] *= 1e3
            norms = np.array([pnorm(row, e) for row in ys])
            projected = _project_rows(ball, ys)
            inside = norms <= radius
            assert inside.any() and not inside.all()
            assert projected[inside].tobytes() == ys[inside].tobytes()
            scaled = ys[~inside] * (radius / norms[~inside])[:, None]
            assert projected[~inside].tobytes() == scaled.tobytes()
            landed = np.array([pnorm(row, e) for row in projected[~inside]])
            assert np.all(np.abs(landed - radius) <= 4.0 * np.finfo(float).eps * radius)


    @pytest.mark.parametrize("e", [1.2, 1.5, 3.0, 10.0])
    def test_a_step_against_the_outward_normal_stays_on_the_sphere(self, e):
        # on the sphere of an e-ball, -g an outward normal: the Euclidean
        # projection of y - t g is y, and so is the search's trial, while
        # scaling y - t g radially lands elsewhere on the sphere
        rng = np.random.default_rng(int(10 * e))
        ball = ConstraintSet(PBall(2.0, e), (), Frame.PRIMAL)
        y = rng.standard_normal((20, 5))
        y *= 2.0 / pnorm_rows(y, e)[:, None]
        g = -(np.abs(y) ** (e - 1.0) * np.sign(y)) * rng.uniform(0.1, 3.0, (20, 1))
        steps = rng.uniform(0.01, 2.0, 20)
        trial = _project_rows(ball, _step_rows(ball.base, y, g, steps))
        np.testing.assert_allclose(trial, y, rtol=0, atol=1e-12)
        radial = _project_rows(ball, y - steps[:, None] * g)
        assert np.abs(radial - y).max() > 1e-3

    @pytest.mark.parametrize("base", ["ball2", "box", "whole", "inside"])
    def test_a_step_is_the_plain_gradient_step_elsewhere(self, base):
        # a 2-ball, a box, the whole space, or a step that stays inside an
        # e-ball: the step is y - t g bit for bit
        rng = np.random.default_rng(3)
        y, g = rng.standard_normal((30, 4)), rng.standard_normal((30, 4))
        steps = rng.uniform(0.0, 2.0, 30)
        sets = {
            "ball2": PBall(1.0, 2.0),
            "box": Box(-np.ones(4), np.ones(4)),
            "whole": WholeSpace(),
            "inside": PBall(1e3, 1.5),
        }
        stepped = _step_rows(sets[base], y, g, steps)
        assert stepped.tobytes() == (y - steps[:, None] * g).tobytes()

    @pytest.mark.parametrize(
        "index, parent_gap", [(82, 2.2123861121396023e-05), (375, 7.105752044651135e-05)]
    )
    def test_a_perturbed_candidate_below_exponent_2_is_flagged(self, index, parent_gap):
        # candidates of a perturbed-closed-form sweep, p = 1.2 and 1.5: the
        # negative minimum lies on the sphere, and a descent that scaled its
        # steps radially stopped short of it and reported gap 0.  The gap is
        # the one the Euclidean projection onto the e-ball found
        rng = np.random.default_rng([index, 30])
        p = float(rng.choice([1.2, 1.5, 3.0, 6.0, 10.0]))
        d = int(rng.choice([1, 2, 4, 8, 32]))
        eps = 10.0 ** rng.uniform(-7.0, 0.0)
        r = float(rng.choice([0.3, 1.0]))
        x = rng.standard_normal(d)
        x *= rng.uniform(0.2, 2.0) / pnorm(x, p)
        nx = pnorm(x, p)
        u = (nx / r - 1.0) / (2.0 + 1.0 / r) / nx * x  # T_r(x), as nx > r here
        u = u + eps * rng.standard_normal(d)
        u = u / max(pnorm(u, p), 1.0)
        prob = _lp_problem(x, r=r, d=d, p=p)
        gap, _ = resolvent_gap(
            prob, PrimalPoint(u, prob.space), rng=np.random.default_rng([index, 31])
        )
        assert gap == pytest.approx(parent_gap, rel=1e-9)


class TestHilbertExactGap:
    """The exact Hilbert-mode minimum of lhs(u, .) against the multi-start
    proximal-gradient search it replaced (tests/_reference.py), over every
    branch of the composite prox and of the closed forms."""

    OMEGAS = {
        "ball2": lambda d: PBall(1.0, 2.0),
        "box": lambda d: Box(-np.ones(d), np.ones(d)),
        "whole": lambda d: WholeSpace(),
    }
    # (mixed term, Omega): with a potential the minimizer is one composite
    # prox (projection, coordinatewise prox or alternation); without one
    # it is a support function, except for the quadratic term, the
    # dual-norm term off the 2-ball and the whole space, which descend from u
    CASES = [
        ("zero", "ball2"),
        ("zero", "box"),
        ("zero", "whole"),
        ("l1", "box"),
        ("l1", "ball2"),
        ("quadratic", "box"),
        ("l1", "whole"),
        ("dual_norm", "ball2"),
        ("dual_norm", "box"),
        ("dual_norm", "whole"),
    ]

    @settings(max_examples=60, deadline=None)
    @given(
        case=st.sampled_from(CASES),
        d=st.integers(1, 6),
        potential=st.booleans(),
        pairing=st.sampled_from(["none", "inverse_duality", "affine"]),
        perturbation=st.sampled_from(["zero", "affine", "duality"]),
        r=st.floats(0.1, 10.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_minimum_is_at_most_the_multistart_search(
        self, case, d, potential, pairing, perturbation, r, seed
    ):
        rng = np.random.default_rng(seed)
        space = SpaceConfig(d, 2.0)
        psd = rng.standard_normal((d, d))
        psd = psd @ psd.T
        bifunctions = []
        if potential:
            bifunctions.append(PotentialBifunction(QuadraticPotential(rng.standard_normal(d), 1.5)))
        if pairing == "inverse_duality":
            bifunctions.append(PairingBifunction(InverseDualityPairing(space)))
        elif pairing == "affine":
            bifunctions.append(PairingBifunction(AffineMap(psd, rng.standard_normal(d))))
        mixed = {
            "zero": ZeroTerm(),
            "l1": WeightedL1Term(0.3),
            "quadratic": QuadraticTerm(rng.standard_normal(d)),
            "dual_norm": DualNormTerm(2.0),
        }[case[0]]
        pert = {
            "zero": ZeroPerturbation(),
            "affine": AffineMap(psd, rng.standard_normal(d)),
            "duality": DualityPerturbation(space),
        }[perturbation]
        omega = ConstraintSet(self.OMEGAS[case[1]](d), (), Frame.PRIMAL)
        prob = ResolventProblem(
            tuple(bifunctions), mixed, pert, omega, r, PrimalPoint(2.0 * rng.standard_normal(d), space)
        )
        uc = project_primitive(1.5 * rng.standard_normal(d), omega.base)
        starts = _gap_starts(prob, uc, 16, rng)
        value, capped = _gap_hilbert(prob, uc, starts, max_iter=400)
        try:
            _, ref, ref_capped = gap_hilbert_one(prob, uc, starts, max_iter=400)
        except NonConvergedError:
            # the reference alternates prox and projection at every step of
            # every start; off the 2-ball it may not settle in 500 rounds
            assume(False)
        lin = (uc - prob.input_point.coords) / r + pert.apply(uc)
        lin = lin + sum(f.g.apply(uc) for f in bifunctions if isinstance(f, PairingBifunction))
        closed = potential or _linear_minimum(mixed, omega.base, lin) is not None
        if closed:
            assert capped == 0
            assert value <= ref + 1e-12 * (1.0 + abs(ref))
        if not (capped or ref_capped):
            # both searches settled on the minimum of a convex problem
            assert abs(value - ref) <= 1e-9 * (1.0 + abs(ref))

    def test_descent_without_a_closed_form_counts_its_cap(self):
        # no potential and the dual-norm term on a box: lhs(u, y) - lhs(u, u)
        # = <l, y> + |y| with l = (1.001, 0, 0) and u = 0, whose minimum over
        # [-5, 5]^3 is -0.005 at (-5, 0, 0).  Proximal gradient from u moves
        # by 0.001 per step, so it needs about 5000 steps
        space = SpaceConfig(3, 2.0)
        omega = ConstraintSet(Box(-5.0 * np.ones(3), 5.0 * np.ones(3)), (), Frame.PRIMAL)
        prob = ResolventProblem(
            (), DualNormTerm(2.0), ZeroPerturbation(), omega, 1.0, PrimalPoint([-1.001, 0.0, 0.0], space)
        )
        uc = np.zeros(3)
        starts = [uc, np.zeros(3)]
        value, capped = _gap_hilbert(prob, uc, starts, max_iter=300)
        assert capped == 1 and -0.005 < value < -1e-4
        value, capped = _gap_hilbert(prob, uc, starts, max_iter=10_000)
        assert capped == 0 and value == pytest.approx(-0.005, abs=1e-9)
        assert resolvent_gap(prob, PrimalPoint(uc, space))[1] == 1

    def test_whole_space_without_a_potential_certifies(self):
        # lhs(u, .) is linear there: its infimum is -inf unless lin = 0, and
        # lin = u + (u - x) / r carries the rounding of u = x / (1 + r).  The
        # descent from u settles at once instead
        space = SpaceConfig(3, 2.0)
        whole = ConstraintSet(WholeSpace(), (), Frame.PRIMAL)
        rng = np.random.default_rng(3)
        for _ in range(20):
            r, x = rng.uniform(0.1, 3.0), rng.standard_normal(3)
            prob = ResolventProblem((), ZeroTerm(), DualityPerturbation(space), whole, r, PrimalPoint(x, space))
            u, gap, capped = solve_resolvent_certified(prob, tol=1e-8)
            np.testing.assert_allclose(u.coords, x / (1.0 + r), rtol=0.0, atol=1e-12)
            assert gap <= 1e-8 and capped == 0

    def test_the_starts_cross_check_the_exact_minimum(self, monkeypatch):
        # a closed form that answered too high a minimum is overruled by the
        # sampled starts: the true gap at u = 0 is 2, at y = (1, 0)
        prob = _projection_problem(np.array([2.0, 0.0]))
        monkeypatch.setattr(equilibrium, "_linear_minimum", lambda *args: 0.0)
        wrong = PrimalPoint([0.0, 0.0], HILBERT2)
        gap, capped = resolvent_gap(prob, wrong)
        assert 0.5 <= gap <= 2.0 and capped == 0


class TestResolventContractionInvariants:
    def test_pairing_inequality_hilbert(self):
        # <T_r x - T_r y, J T_r x - J T_r y> <= <x - y, J T_r x - J T_r y>
        rng = np.random.default_rng(7)
        psi = QuadraticPotential(np.array([0.2, -0.1]), 1.0)
        for _ in range(20):
            xc, yc = 2.0 * rng.standard_normal(2), 2.0 * rng.standard_normal(2)
            def solve(c):
                prob = ResolventProblem(
                    (PotentialBifunction(psi),),
                    WeightedL1Term(0.2),
                    ZeroPerturbation(),
                    BALL2,
                    1.0,
                    PrimalPoint(c, HILBERT2),
                )
                return solve_resolvent_certified(prob, tol=1e-8)[0].coords
            tx, ty = solve(xc), solve(yc)
            lhs = float(np.dot(tx - ty, tx - ty))
            rhs = float(np.dot(xc - yc, tx - ty))
            assert lhs <= rhs + 1e-6

    def test_pairing_inequality_banach(self):
        rng = np.random.default_rng(8)
        for _ in range(8):
            xc = rng.standard_normal(4)
            xc = 0.8 * xc / pnorm(xc, 3.0)
            yc = rng.standard_normal(4)
            yc = 0.8 * yc / pnorm(yc, 3.0)
            tx = solve_resolvent_certified(_lp_problem(xc, d=4), tol=1e-7)[0].coords
            ty = solve_resolvent_certified(_lp_problem(yc, d=4), tol=1e-7)[0].coords
            jtx, jty = gauge_coords(tx, 3.0), gauge_coords(ty, 3.0)
            lhs = float(np.dot(tx - ty, jtx - jty))
            rhs = float(np.dot(xc - yc, jtx - jty))
            assert lhs <= rhs + 1e-6

    def test_phi_decomposition_hilbert(self):
        # phi(p, T_r x) + phi(T_r x, x) <= phi(p, x) for p in GMEP
        rng = np.random.default_rng(9)
        space = HILBERT2
        p_sol = PrimalPoint([1.0, 0.0], space)  # projection case: any point of Omega
        for _ in range(20):
            xc = np.array([2.0, 0.0]) + 0.5 * rng.standard_normal(2)
            prob = _projection_problem(xc)
            u = solve_resolvent_certified(prob, tol=1e-8)[0]
            x_pt = PrimalPoint(xc, space)
            assert (
                lyapunov_phi(p_sol, u) + lyapunov_phi(u, x_pt)
                <= lyapunov_phi(p_sol, x_pt) + 1e-6
            )

    def test_phi_decomposition_banach(self):
        # p = 0 is the only GMEP point of the shift-example class
        rng = np.random.default_rng(10)
        space = SpaceConfig(4, 3.0)
        zero = PrimalPoint(np.zeros(4), space)
        for _ in range(8):
            xc = rng.standard_normal(4)
            xc = 0.7 * xc / pnorm(xc, 3.0)
            u = solve_resolvent_certified(_lp_problem(xc, d=4), tol=1e-7)[0]
            x_pt = PrimalPoint(xc, space)
            assert (
                lyapunov_phi(zero, u) + lyapunov_phi(u, x_pt)
                <= lyapunov_phi(zero, x_pt) + 1e-6
            )

    def test_known_solution_is_fixed_point(self):
        # F(T_r) = GMEP: resolving at a known solution returns it
        b = np.array([0.4, -0.3])
        psi = QuadraticPotential(b, 1.0)
        prob = ResolventProblem(
            (PotentialBifunction(psi),),
            ZeroTerm(),
            ZeroPerturbation(),
            WHOLE2,
            1.0,
            PrimalPoint(b, HILBERT2),  # b minimizes psi, hence solves the MEP
        )
        u = solve_resolvent_certified(prob, tol=1e-8)[0]
        np.testing.assert_allclose(u.coords, b, atol=1e-6)


class TestTypeInvariants:
    def test_potential_bifunction_a1_a2(self):
        psi = QuadraticPotential(np.array([0.5, 0.1, -0.2]), 2.0)
        f = PotentialBifunction(psi)
        rng = np.random.default_rng(11)
        w = rng.standard_normal(3)
        assert f.evaluate(w, w) == 0.0
        assert bifunction_monotonicity_defect(f, rng, 100, 3) <= 1e-10

    def test_pairing_bifunction_a1_a2(self):
        space = SpaceConfig(3, 3.0)
        f = PairingBifunction(InverseDualityPairing(space))
        rng = np.random.default_rng(12)
        w = rng.standard_normal(3)
        assert f.evaluate(w, w) == 0.0
        assert bifunction_monotonicity_defect(f, rng, 100, 3) <= 1e-10

    def test_affine_pairing_requires_psd(self):
        with pytest.raises(ValueError):
            AffineMap(np.array([[0.0, 2.0], [-3.0, 0.0]]) - np.eye(2), np.zeros(2))

    def test_perturbations_monotone(self):
        rng = np.random.default_rng(13)
        space = SpaceConfig(3, 3.0)
        for pert in (
            ZeroPerturbation(),
            DualityPerturbation(space),
            AffineMap(np.eye(3) * 0.5, np.ones(3)),
        ):
            assert perturbation_monotonicity_defect(pert, rng, 100, 3) <= 1e-10

    def test_mixed_term_prox_consistency(self):
        # prox optimality: prox minimizes t*phi(z) + 0.5|z - v|^2
        rng = np.random.default_rng(14)
        terms = (WeightedL1Term(0.3), QuadraticTerm(np.array([0.2, -0.5])), DualNormTerm(2.0))
        for term in terms:
            for _ in range(20):
                v = rng.standard_normal(2)
                t = rng.uniform(0.1, 2.0)
                z = term.prox(v, t)
                base = t * term.value(z) + 0.5 * float(np.dot(z - v, z - v))
                for _ in range(30):
                    other = z + 0.1 * rng.standard_normal(2)
                    cand = t * term.value(other) + 0.5 * float(np.dot(other - v, other - v))
                    assert cand >= base - 1e-10

    @pytest.mark.parametrize("r", [0.0, -1.0, float("nan")])
    def test_r_must_be_positive(self, r):
        # the floor on r is SolverConfig.min_r's (test_r_schedule_floor_enforced)
        with pytest.raises(ValueError, match="r must be positive"):
            _projection_problem(np.zeros(2), r=r)

    def test_feasible_set_with_cuts_rejected(self):
        # the solvers and the gap project onto Omega's base alone, so a cut
        # would be dropped without notice
        cut = ConstraintSet(PBall(1.0, 2.0), (Halfspace([1.0, 0.0], 0.2),), Frame.PRIMAL)
        with pytest.raises(ValueError, match="no cuts"):
            ResolventProblem(
                (), ZeroTerm(), ZeroPerturbation(), cut, 1.0, PrimalPoint([0.5, 0.0], HILBERT2)
            )


class TestTermChecks:
    """Each weight check is written so that NaN fails it."""

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan")])
    def test_potential_weight_must_be_positive(self, weight):
        with pytest.raises(ValueError, match="potential weight must be positive"):
            QuadraticPotential(np.zeros(2), weight=weight)

    @pytest.mark.parametrize("weight", [0.0, -1.0, float("nan")])
    def test_l1_weight_must_be_positive(self, weight):
        with pytest.raises(ValueError, match="l1 weight must be positive"):
            WeightedL1Term(weight)


class TestSupportMatrix:
    def test_hilbert_class_accepted(self):
        assert classify_problem(_projection_problem(np.zeros(2))) == "hilbert"

    def test_banach_lp_class_accepted(self):
        assert classify_problem(_lp_problem(np.zeros(8))) == "banach_lp"

    def test_banach_without_pairing_rejected(self):
        space = SpaceConfig(4, 3.0)
        ball = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        prob = ResolventProblem(
            (), ZeroTerm(), ZeroPerturbation(), ball, 1.0, PrimalPoint(np.zeros(4), space)
        )
        with pytest.raises(UnsupportedCombinationError, match="^at exponent 3 only the shift-example"):
            solve_resolvent_certified(prob, tol=1e-6)[0]

    def test_banach_potential_rejected(self):
        space = SpaceConfig(4, 3.0)
        ball = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        prob = ResolventProblem(
            (PotentialBifunction(QuadraticPotential(np.zeros(4))),),
            DualNormTerm(space.conjugate),
            DualityPerturbation(space),
            ball,
            1.0,
            PrimalPoint(np.zeros(4), space),
        )
        with pytest.raises(UnsupportedCombinationError, match="^at exponent 3 only the shift-example"):
            classify_problem(prob)

    def test_refusals_at_exponent_2_name_the_exponent(self):
        prob = _projection_problem(np.zeros(2))
        with pytest.raises(
            UnsupportedCombinationError, match="^unsupported bifunction object at exponent 2$"
        ):
            classify_problem(dataclasses.replace(prob, bifunctions=(object(),)))
        with pytest.raises(
            UnsupportedCombinationError,
            match="^at exponent 2 the dual-norm mixed term must use exponent 2$",
        ):
            classify_problem(dataclasses.replace(prob, mixed=DualNormTerm(3.0)))

    @pytest.mark.parametrize("e", [1.5, 3.0])
    def test_hilbert_ball_of_another_exponent_rejected(self, e):
        # forward-backward and the gap's composite prox project onto Omega
        # in the Euclidean geometry, which a ball of exponent e != 2 lacks
        ball = ConstraintSet(PBall(1.0, e), (), Frame.PRIMAL)
        prob = dataclasses.replace(_projection_problem(np.array([2.0, 0.0])), feasible=ball)
        with pytest.raises(
            UnsupportedCombinationError, match=f"^at exponent 2 a ball Omega must use exponent 2, not {e:g}$"
        ):
            solve_resolvent_certified(prob, tol=1e-8)
