"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its wall-clock budget.  Oracles are independent of the code paths
they check: geometry identities are evaluated from their definitions,
the optimization scenario is compared against the closed-form
soft-thresholding minimizer, and negative controls must be flagged.
"""

import time

import numpy as np
from _reference import dykstra

from hybrideq import (
    ConstraintSet,
    CustomMap,
    Frame,
    Halfspace,
    PBall,
    PrimalPoint,
    ResolventProblem,
    RetractionProblem,
    SpaceConfig,
    ZeroPerturbation,
    ZeroTerm,
    build_bundle,
    build_config,
    inverse_duality_map,
    jstar_nonexpansive_violation,
    load_scenario,
    lyapunov_phi,
    resolvent_gap,
    retraction_vi_residual,
    run,
    run_scenario,
    solve_resolvent_certified,
    sunny_retract,
)
from hybrideq.equilibrium import (
    DualNormTerm,
    DualityPerturbation,
    InverseDualityPairing,
    PairingBifunction,
    PotentialBifunction,
    QuadraticPotential,
)
import hybrideq.solver as solver_module
from hybrideq.space import DualPoint, gauge_coords, pnorm


class _Budget:
    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None and elapsed < self.seconds else "FAIL"
        print(f"[acceptance] {self.label}: {status} ({elapsed:.1f}s / budget {self.seconds}s)")
        if exc_type is None:
            assert elapsed < self.seconds, f"{self.label} exceeded {self.seconds}s"
        return False


def test_criterion_1_geometry_suite():
    with _Budget("1 geometry suite", 5.0):
        rng = np.random.default_rng(101)
        for p in (1.5, 2.0, 3.0):
            space = SpaceConfig(8, p)
            q = space.conjugate
            for _ in range(1000):
                xc = 3.0 * rng.standard_normal(8)
                nx = pnorm(xc, p)
                w = gauge_coords(xc, p)
                assert abs(float(np.dot(xc, w)) - nx * nx) <= 1e-8 * (1 + nx * nx)
                assert abs(pnorm(w, q) - nx) <= 1e-8 * (1 + nx)
                back = gauge_coords(w, q)
                assert pnorm(back - xc, 2.0) <= 1e-8 * (1 + nx)
                yc = 3.0 * rng.standard_normal(8)
                ny = pnorm(yc, p)
                phi = lyapunov_phi(PrimalPoint(xc, space), PrimalPoint(yc, space))
                hi = (nx + ny) ** 2
                assert phi >= (nx - ny) ** 2 - 1e-8 * (1 + hi)
                assert phi <= hi + 1e-8 * (1 + hi)


def _random_dual_set(space, rng):
    cuts = []
    for _ in range(rng.integers(0, 6)):
        normal = rng.standard_normal(space.dimension)
        cuts.append(Halfspace(normal, rng.uniform(0.05, 0.5), Frame.DUAL))
    return ConstraintSet(PBall(1.0, space.conjugate, Frame.DUAL), tuple(cuts), Frame.DUAL)


def test_criterion_2_retraction_suite():
    with _Budget("2 retraction suite", 30.0):
        rng = np.random.default_rng(202)
        exponents = [1.5, 2.0, 3.0]
        for case in range(100):
            p = exponents[case % 3]
            space = SpaceConfig(4, p)
            dual = _random_dual_set(space, rng)
            anchor = PrimalPoint(1.5 * rng.standard_normal(4), space)
            prob = RetractionProblem(dual, anchor)
            z, _ = sunny_retract(prob, tol=1e-10)
            residual = retraction_vi_residual(
                prob, z, samples=80, rng=np.random.default_rng([202, case])
            )
            assert residual <= 1e-6, f"case {case}: VI residual {residual:.2e}"
            z2, _ = sunny_retract(RetractionProblem(dual, z), tol=1e-10)
            assert pnorm(z2.coords - z.coords, 2.0) <= 1e-8, f"case {case}: idempotence"
            # phi decomposition: phi(x, Rx) + phi(Rx, z_ref) <= phi(x, z_ref)
            from hybrideq.sets import sample_feasible

            refs = sample_feasible(
                dual, np.random.default_rng([203, case]), 20, dimension=4
            )
            for w_ref in refs:
                z_ref = inverse_duality_map(DualPoint(w_ref, space))
                slack = (
                    lyapunov_phi(anchor, z)
                    + lyapunov_phi(z, z_ref)
                    - lyapunov_phi(anchor, z_ref)
                )
                assert slack <= 1e-6, f"case {case}: phi decomposition slack {slack:.2e}"
            if p == 2.0:
                proj = dykstra(dual, anchor.coords, tol=1e-12, max_iter=100_000)
                assert pnorm(z.coords - proj, 2.0) <= 1e-6, f"case {case}: Hilbert agreement"


def _hilbert_resolvent(space, rng, input_coords, r):
    ball = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
    psi = QuadraticPotential(0.3 * rng.standard_normal(space.dimension), 1.0)
    return ResolventProblem(
        (PotentialBifunction(psi),), ZeroTerm(), ZeroPerturbation(), ball, r,
        PrimalPoint(input_coords, space),
    )


def _banach_resolvent(space, input_coords, r):
    ball = ConstraintSet(PBall(1.0, space.exponent), (), Frame.PRIMAL)
    return ResolventProblem(
        (PairingBifunction(InverseDualityPairing(space)),),
        DualNormTerm(space.conjugate),
        DualityPerturbation(space),
        ball,
        r,
        PrimalPoint(input_coords, space),
    )


def test_criterion_3_resolvent_suite():
    with _Budget("3 resolvent suite", 30.0):
        # closed forms at 1e-8
        h2 = SpaceConfig(2, 2.0)
        ball2 = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        proj_prob = ResolventProblem(
            (), ZeroTerm(), ZeroPerturbation(), ball2, 1.0, PrimalPoint([2.0, 0.0], h2)
        )
        np.testing.assert_allclose(
            solve_resolvent_certified(proj_prob, tol=1e-9)[0].coords, [1.0, 0.0], atol=1e-8
        )
        from hybrideq import WholeSpace

        whole2 = ConstraintSet(WholeSpace(), (), Frame.PRIMAL)
        x0 = np.array([1.5, -0.8])
        prox_prob = ResolventProblem(
            (PotentialBifunction(QuadraticPotential(np.zeros(2), 1.0)),),
            ZeroTerm(), ZeroPerturbation(), whole2, 1.0, PrimalPoint(x0, h2),
        )
        np.testing.assert_allclose(
            solve_resolvent_certified(prox_prob, tol=1e-9)[0].coords, x0 / 2.0, atol=1e-8
        )

        # pairing-contraction and phi-decomposition inequalities on 100 sampled pairs
        rng = np.random.default_rng(303)
        h4 = SpaceConfig(4, 2.0)
        b4 = SpaceConfig(4, 3.0)
        for case in range(100):
            banach = case % 5 == 4  # 20 Banach pairs, 80 Hilbert pairs
            if banach:
                xc = rng.standard_normal(4)
                xc = rng.uniform(0.1, 0.9) * xc / pnorm(xc, 3.0)
                yc = rng.standard_normal(4)
                yc = rng.uniform(0.1, 0.9) * yc / pnorm(yc, 3.0)
                tx = solve_resolvent_certified(_banach_resolvent(b4, xc, 1.0), tol=1e-7)[0].coords
                ty = solve_resolvent_certified(_banach_resolvent(b4, yc, 1.0), tol=1e-7)[0].coords
                p_exp = 3.0
                p_sol = PrimalPoint(np.zeros(4), b4)  # the known solution
                space = b4
            else:
                r = rng.uniform(0.5, 2.0)
                center = 0.3 * rng.standard_normal(4)
                psi = QuadraticPotential(center, 1.0)
                ball = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)

                def make(c):
                    return ResolventProblem(
                        (PotentialBifunction(psi),), ZeroTerm(), ZeroPerturbation(),
                        ball, r, PrimalPoint(c, h4),
                    )

                xc, yc = 1.5 * rng.standard_normal(4), 1.5 * rng.standard_normal(4)
                tx = solve_resolvent_certified(make(xc), tol=1e-8)[0].coords
                ty = solve_resolvent_certified(make(yc), tol=1e-8)[0].coords
                p_exp = 2.0
                # the GMEP solution is the constrained minimizer of psi
                p_coords = center if pnorm(center, 2.0) <= 1.0 else center / pnorm(center, 2.0)
                p_sol = PrimalPoint(p_coords, h4)
                space = h4
            jtx, jty = gauge_coords(tx, p_exp), gauge_coords(ty, p_exp)
            lhs = float(np.dot(tx - ty, jtx - jty))
            rhs = float(np.dot(xc - yc, jtx - jty))
            assert lhs <= rhs + 1e-6, f"case {case}: pairing contraction slack {lhs - rhs:.2e}"
            x_pt = PrimalPoint(xc, space)
            t_pt = PrimalPoint(tx, space)
            slack = (
                lyapunov_phi(p_sol, t_pt)
                + lyapunov_phi(t_pt, x_pt)
                - lyapunov_phi(p_sol, x_pt)
            )
            assert slack <= 1e-6, f"case {case}: phi decomposition slack {slack:.2e}"


def test_criterion_4_lp_shift_example_end_to_end():
    with _Budget("4 lp_shift_example end-to-end", 60.0):
        report = run_scenario(load_scenario("lp_shift_example"))
        assert report.outcome == "converged"
        assert report.iterations <= 200
        assert report.final_norm <= 1e-3
        assert report.audits_passed, {
            k: v for k, v in report.audits.items() if not v["passed"]
        }


def test_criterion_5_optimization_app_end_to_end():
    with _Budget("5 optimization_app end-to-end", 30.0):
        # independent oracle: componentwise soft-thresholding clipped to the box
        b = np.array([1.0, -2.0, 0.5])
        lam = 0.3
        oracle = np.clip(np.sign(b) * np.maximum(np.abs(b) - lam, 0.0), -5.0, 5.0)

        report = run_scenario(load_scenario("optimization_app"))
        assert report.outcome == "converged"
        assert report.audits_passed
        np.testing.assert_allclose(report.final_point, oracle, atol=1e-4)

        # the solution set is a singleton, so the limit ignores the start
        for seed, start in ((11, [4.0, 4.0, 4.0]), (12, [-3.0, 0.0, 2.0])):
            doc = load_scenario("optimization_app").to_dict()
            doc["seed"] = seed
            doc["bundle"]["start"] = start
            doc["config"]["audit_samples"] = 8  # only the limit matters here
            other = run_scenario(load_scenario(doc))
            assert other.outcome == "converged"
            np.testing.assert_allclose(other.final_point, oracle, atol=1e-4)


def test_criterion_6_hilbert_formulas(monkeypatch):
    """At p = 2 the one loop is the Hilbert scheme: the cut of iteration n
    is {z : |z - u_n|^2 <= |z - x_n|^2}, and x_{n+1} is the Euclidean
    projection of x_1 onto Omega ∩ those cuts, shown by a KKT certificate
    built here from the cut formula alone."""
    with _Budget("6 Hilbert formulas", 30.0):
        offered = []
        real_add_cut = solver_module.add_cut

        def recording_add_cut(cset, cut):
            offered.append(cut)
            return real_add_cut(cset, cut)

        monkeypatch.setattr(solver_module, "add_cut", recording_add_cut)
        doc = load_scenario("hilbert_family").to_dict()
        doc["config"]["max_outer"] = 50
        spec = load_scenario(doc)
        bundle = build_bundle(spec)
        result = run(bundle, build_config(spec))
        assert bundle.space.exponent == 2.0 and result.iterations == 50
        radius = bundle.omega.base.radius  # Omega is the Euclidean ball about 0
        x1 = bundle.anchor.coords
        d = x1.shape[0]
        iterates = [rec.x.coords for rec in result.history[1:]] + [result.x_star.coords]
        assert len(offered) == 50  # no iteration had u_n = x_n
        # the affine map z -> |z - u|^2 - |z - x|^2 is fixed by its values
        # at 0 and at the unit vectors; the cut's a z - b must agree there
        probes = np.concatenate((np.zeros((1, d)), np.eye(d)))
        rows, levels = [], []
        worst = 0.0
        for rec, cut, z in zip(result.history, offered, iterates):
            x, u = rec.x.coords, rec.u.coords
            formula = ((probes - u) ** 2).sum(axis=1) - ((probes - x) ** 2).sum(axis=1)
            worst = max(worst, float(np.max(np.abs(probes @ cut.normal - cut.offset - formula))))
            # the same cut from its formula: 2 <x - u, z> <= |x|^2 - |u|^2
            rows.append(2.0 * (x - u))
            levels.append(float(x @ x - u @ u))
            a, b = np.array(rows), np.array(levels)
            scale = np.linalg.norm(a, axis=1)
            slack = (b - a @ z) / scale
            # feasible: every cut so far and the ball hold at x_{n+1}
            worst = max(worst, -float(slack.min()), float(np.linalg.norm(z)) - radius)
            # stationarity x_1 - z = sum lam_k a_k / |a_k| + mu z / |z| over
            # the rows active at z, with lam, mu >= 0
            cols = [a[slack <= 1e-9].T / scale[slack <= 1e-9]]
            if np.linalg.norm(z) >= radius - 1e-9:
                cols.append(z[:, None] / np.linalg.norm(z))
            normals = np.concatenate(cols, axis=1)
            mult = np.linalg.lstsq(normals, x1 - z, rcond=None)[0]
            worst = max(worst, -float(mult.min(initial=0.0)))
            worst = max(worst, float(np.linalg.norm(x1 - z - normals @ mult)))
        assert worst <= 1e-8, f"deviation from the Hilbert formulas {worst:.2e}"


def test_criterion_7_negative_controls():
    with _Budget("7 negative controls", 5.0):
        space = SpaceConfig(8, 3.0)
        broken = CustomMap(
            space, lambda x: DualPoint(2.0 * gauge_coords(x.coords, 3.0), space)
        )
        omega = ConstraintSet(PBall(1.0, 3.0), (), Frame.PRIMAL)
        zero = PrimalPoint(np.zeros(8), space)
        violation = jstar_nonexpansive_violation(
            broken, zero, omega, samples=200, rng=np.random.default_rng(7)
        )
        assert violation > 0.1

        h2 = SpaceConfig(2, 2.0)
        ball2 = ConstraintSet(PBall(1.0, 2.0), (), Frame.PRIMAL)
        prob = ResolventProblem(
            (), ZeroTerm(), ZeroPerturbation(), ball2, 1.0, PrimalPoint([2.0, 0.0], h2)
        )
        wrong = PrimalPoint([0.0, 0.0], h2)
        assert resolvent_gap(prob, wrong)[0] > 0.1
