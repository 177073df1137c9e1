"""Resolvent machinery: bifunctions, mixed terms, T_r solves, gap certification.

Closed-form oracles: the projection case (no equilibrium data) has
T_r(x) = P_Omega(x); the quadratic-potential case on the whole space has
T_r(x) = x / (1 + r), verified here by finite-difference optimality of the
regularized objective rather than by the solver's own path.
"""

import copy
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
    classify_problem,
)
from hybrideq import equilibrium
from hybrideq.harness import BUILTIN_SCENARIOS, load_scenario, run_scenario
from hybrideq.space import gauge_coords, lyapunov_phi, pnorm

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

    @settings(max_examples=200, deadline=None)
    @given(
        p=st.floats(1.1, 10.0),
        d=st.integers(1, 8),
        data=st.data(),
        x_exp=st.integers(-150, 150),
        y_exp=st.integers(-150, 150),
        ratio=st.floats(1e-6, 1.0),
    )
    def test_zero_is_holder_certified(self, p, d, data, x_exp, y_exp, ratio):
        # lhs(0, y) = |Jy|_q - <x, Jy>/r >= |y|_p (1 - |x|_p / r) >= 0
        unit = st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=d, max_size=d)
        x = np.array(data.draw(unit)) * 10.0**x_exp
        y = np.array(data.draw(unit)) * 10.0**y_exp
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

    def test_projection_error_beyond_accepted_step_is_ignored(self, monkeypatch):
        # a fake projection leaves the start (1.5, 0) outside the unit ball
        # and raises below norm 1.2.  Toward 0, step 1 lands on the origin and
        # passes Armijo; step 1/4 gives (1.125, 0), which the sequential
        # search never tries, so its projection must not run
        def project(v, base):
            if np.linalg.norm(v) < 1.2:
                raise NonConvergedError("projection failed")
            return np.array(v)

        monkeypatch.setattr(equilibrium, "project_primitive", project)
        evaluate, gradient = self._quadratic(np.zeros(2))
        ball = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        start = np.array([1.5, 0.0])
        ys, values, _ = _pgd_search(evaluate, gradient, ball, [start], 300, 1e-9)
        assert np.array_equal(ys[0], [0.0, 0.0]) and values[0] == 0.0
        y_ref, value_ref = pgd_sequential(evaluate, gradient, ball, start)
        assert np.array_equal(ys[0], y_ref) and values[0] == value_ref

    def test_projection_error_on_a_reached_step_raises(self, monkeypatch):
        def project(v, base):
            raise NonConvergedError("projection failed")

        monkeypatch.setattr(equilibrium, "project_primitive", project)
        evaluate, gradient = self._quadratic(np.array([3.0, 0.0]))
        ball = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        with pytest.raises(NonConvergedError, match="projection failed"):
            _pgd_search(evaluate, gradient, ball, [np.zeros(2)], 300, 1e-9)

    @pytest.mark.parametrize("e", [1.5, 2.0, 3.0, 4.5, 10.0])
    def test_ball_rows_project_as_project_primitive(self, e):
        # rows on the e-sphere and one ulp inside and outside it, entry by
        # entry: whether such a row is inside is decided by rounding, and
        # _project_rows must decide it as project_primitive does
        rng = np.random.default_rng(int(10 * e))
        ball = ConstraintSet(PBall(1.0, e), (), Frame.PRIMAL)
        for d in (2, 8, 40):
            raw = rng.standard_normal((500, d))
            sphere = raw / np.array([pnorm(row, e) for row in raw])[:, None]
            ys = np.concatenate(
                [sphere, np.nextafter(sphere, np.copysign(np.inf, sphere)), np.nextafter(sphere, 0.0)]
            )
            projected = _project_rows(ball, ys)
            expected = np.array([project_primitive(row, ball.base) for row in ys])
            assert projected.tobytes() == expected.tobytes()


class TestHilbertExactGap:
    """The exact Hilbert-mode minimum of lhs(u, .) against the multi-start
    proximal-gradient search it replaced (tests/_reference.py), over every
    branch of the composite prox and of the closed forms."""

    OMEGAS = {
        "ball2": lambda d: PBall(1.0, 2.0),
        "ball3": lambda d: PBall(1.0, 3.0),
        "box": lambda d: Box(-np.ones(d), np.ones(d)),
        "whole": lambda d: WholeSpace(),
    }
    # (mixed term, Omega): with a potential the minimizer is one composite
    # prox (projection, coordinatewise prox or alternation); without one
    # it is a support function, except for the quadratic term, the
    # dual-norm term off the 2-ball and the whole space, which descend from u
    CASES = [
        ("zero", "ball2"),
        ("zero", "ball3"),
        ("zero", "box"),
        ("zero", "whole"),
        ("l1", "box"),
        ("l1", "ball2"),
        ("l1", "ball3"),
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
    # the search's p-ball projection once stopped 7e-13 outside the 3-ball
    # and undercut the exact minimum 0 by 1.1e-12
    @example(
        case=("l1", "ball3"), d=1, potential=False, pairing="affine", perturbation="zero", r=7.0, seed=899151548
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
        with pytest.raises(UnsupportedCombinationError):
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
        with pytest.raises(UnsupportedCombinationError):
            classify_problem(prob)
