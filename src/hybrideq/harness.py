"""Scenario loading, batch execution, and machine-readable reporting.

A scenario is a strict JSON document (unknown keys are errors) declaring the
space, the problem bundle, solver configuration, and a seed.  Three built-in
scenarios define the reproducible surface of the package:

* ``lp_shift_example``   - the shift map on the unit ball of R^8 with the
  3-norm, pairing bifunction g = J*, dual-norm mixed term, perturbation
  A = J; the solution set is the origin.
* ``hilbert_family``     - Euclidean mode with two relaxed shift members and
  a trivial equilibrium part; the target is again the origin.
* ``optimization_app``   - Euclidean box-constrained minimization of
  0.5 |x - b|^2 + lambda |x|_1 via the potential bifunction reduction; the
  limit is the soft-thresholding minimizer for every start point.
"""

from __future__ import annotations

import copy
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .equilibrium import (
    AffinePairing,
    AffinePerturbation,
    DualNormTerm,
    DualityPerturbation,
    InverseDualityPairing,
    PairingBifunction,
    PotentialBifunction,
    QuadraticPotential,
    QuadraticTerm,
    ResolventProblem,
    WeightedL1Term,
    ZeroPerturbation,
    ZeroTerm,
    classify_problem,
)
from .errors import (
    AuditError,
    InfeasibleError,
    NonConvergedError,
    ScenarioParseError,
    ScenarioValidationError,
    UnsupportedCombinationError,
)
from .operators import JMap, OperatorFamily, RelaxedFamily, ShiftMap
from .sets import Box, ConstraintSet, Frame, PBall, WholeSpace, contains, sample_feasible
from .solver import Mode, ProblemBundle, SolverConfig, audit_result, run
from .space import PrimalPoint, SpaceConfig, pnorm

_CSV_HEADER = "n,x_norm,phi_anchor,gap_xu,resolvent_gap,retraction_residual,fejer_slack,cut_count"

BUILTIN_SCENARIOS = {
    "lp_shift_example": {
        "name": "lp_shift_example",
        "space": {"dimension": 8, "exponent": 3.0},
        "bundle": {
            "base_set": {"kind": "p_ball", "radius": 1.0},
            "operators": [{"kind": "shift", "relax_weight": 0.5}],
            "combination_weights": [0.5, 0.5],
            "bifunctions": [{"kind": "inverse_duality_pairing"}],
            "mixed_term": {"kind": "dual_norm"},
            "perturbation": {"kind": "duality"},
            "start": "random_feasible",
            "reference_solution": [0.0] * 8,
        },
        "config": {
            "mode": "banach",
            "r": 1.0,
            "outer_tol": 1e-4,
            "max_outer": 200,
            "resolvent_tol": 1e-6,
            "retraction_tol": 1e-8,
            "audit_samples": 24,
        },
        "seed": 7,
    },
    "hilbert_family": {
        "name": "hilbert_family",
        "space": {"dimension": 8, "exponent": 2.0},
        "bundle": {
            "base_set": {"kind": "p_ball", "radius": 1.0},
            "operators": [
                {"kind": "shift", "relax_weight": 0.5},
                {"kind": "shift", "relax_weight": 0.25},
            ],
            "combination_weights": [1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0],
            "bifunctions": [],
            "mixed_term": {"kind": "zero"},
            "perturbation": {"kind": "zero"},
            "start": "random_feasible",
            "reference_solution": [0.0] * 8,
        },
        "config": {
            "mode": "hilbert",
            "r": 1.0,
            "outer_tol": 1e-6,
            "max_outer": 200,
            "resolvent_tol": 1e-6,
            "retraction_tol": 1e-10,
            "audit_samples": 24,
        },
        "seed": 7,
    },
    "optimization_app": {
        "name": "optimization_app",
        "space": {"dimension": 3, "exponent": 2.0},
        "bundle": {
            "base_set": {"kind": "box", "lower": [-5.0] * 3, "upper": [5.0] * 3},
            "operators": [{"kind": "duality", "relax_weight": 0.5}],
            "combination_weights": [0.5, 0.5],
            "bifunctions": [
                {"kind": "quadratic_potential", "center": [1.0, -2.0, 0.5], "weight": 1.0}
            ],
            "mixed_term": {"kind": "weighted_l1", "weight": 0.3},
            "perturbation": {"kind": "zero"},
            "start": "random_feasible",
            "reference_solution": [0.7, -1.7, 0.2],
        },
        "config": {
            "mode": "hilbert",
            "r": 10.0,
            "outer_tol": 1e-6,
            "max_outer": 200,
            "resolvent_tol": 1e-6,
            "retraction_tol": 1e-10,
            "audit_samples": 24,
        },
        "seed": 7,
    },
}


# -- strict validation ---------------------------------------------------------


def _fail(path: str, message: str):
    raise ScenarioValidationError(f"{path}: {message}")


def _require_keys(obj, allowed, required, path):
    if not isinstance(obj, dict):
        _fail(path, f"expected an object, got {type(obj).__name__}")
    for key in obj:
        if key not in allowed:
            _fail(path, f"unknown key {key!r}")
    for key in required:
        if key not in obj:
            _fail(path, f"missing required key {key!r}")


def _number(obj, key, path, default=None, positive=False, integer=False):
    if key not in obj:
        if default is None:
            _fail(path, f"missing required key {key!r}")
        return default
    val = obj[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(f"{path}.{key}", "must be a number")
    if integer and int(val) != val:
        _fail(f"{path}.{key}", "must be an integer")
    if positive and val <= 0:
        _fail(f"{path}.{key}", "must be positive")
    return int(val) if integer else float(val)


def _vector(val, path, length=None):
    if not isinstance(val, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
    ):
        _fail(path, "must be a list of numbers")
    if length is not None and len(val) != length:
        _fail(path, f"must have length {length}")
    return [float(x) for x in val]


def _validate_base_set(obj, dim, path):
    _require_keys(obj, {"kind", "radius", "lower", "upper"}, {"kind"}, path)
    kind = obj.get("kind")
    if kind == "p_ball":
        _require_keys(obj, {"kind", "radius"}, {"kind", "radius"}, path)
        _number(obj, "radius", path, positive=True)
    elif kind == "box":
        _require_keys(obj, {"kind", "lower", "upper"}, {"kind", "lower", "upper"}, path)
        lower = _vector(obj["lower"], f"{path}.lower", dim)
        upper = _vector(obj["upper"], f"{path}.upper", dim)
        if any(lo > up for lo, up in zip(lower, upper)):
            _fail(path, "lower must not exceed upper")
    elif kind == "whole_space":
        _require_keys(obj, {"kind"}, {"kind"}, path)
    else:
        _fail(f"{path}.kind", f"unknown base-set kind {kind!r}")


def _validate_operator(obj, path):
    _require_keys(obj, {"kind", "relax_weight"}, {"kind"}, path)
    if obj.get("kind") not in ("shift", "duality"):
        _fail(f"{path}.kind", f"unknown operator kind {obj.get('kind')!r}")
    alpha = _number(obj, "relax_weight", path, default=0.5)
    if not (0.0 < alpha < 1.0) or 1.0 - alpha < 0.5:
        _fail(f"{path}.relax_weight", "must lie in (0, 1) with 1 - value >= 1/2")


def _validate_bifunction(obj, dim, path):
    _require_keys(
        obj, {"kind", "center", "weight", "matrix", "offset"}, {"kind"}, path
    )
    kind = obj.get("kind")
    if kind == "inverse_duality_pairing":
        _require_keys(obj, {"kind"}, {"kind"}, path)
    elif kind == "quadratic_potential":
        _require_keys(obj, {"kind", "center", "weight"}, {"kind", "center"}, path)
        _vector(obj["center"], f"{path}.center", dim)
        _number(obj, "weight", path, default=1.0, positive=True)
    elif kind == "affine_pairing":
        _require_keys(obj, {"kind", "matrix", "offset"}, {"kind", "matrix", "offset"}, path)
        _validate_matrix(obj["matrix"], dim, f"{path}.matrix")
        _vector(obj["offset"], f"{path}.offset", dim)
    else:
        _fail(f"{path}.kind", f"unknown bifunction kind {kind!r}")


def _validate_matrix(val, dim, path):
    if not isinstance(val, list) or len(val) != dim:
        _fail(path, f"must be a {dim}x{dim} matrix (list of rows)")
    for i, row in enumerate(val):
        _vector(row, f"{path}[{i}]", dim)


def _validate_mixed(obj, dim, path):
    _require_keys(obj, {"kind", "weight", "center"}, {"kind"}, path)
    kind = obj.get("kind")
    if kind in ("zero", "dual_norm"):
        _require_keys(obj, {"kind"}, {"kind"}, path)
    elif kind == "weighted_l1":
        _require_keys(obj, {"kind", "weight"}, {"kind", "weight"}, path)
        _number(obj, "weight", path, positive=True)
    elif kind == "quadratic":
        _require_keys(obj, {"kind", "center"}, {"kind", "center"}, path)
        _vector(obj["center"], f"{path}.center", dim)
    else:
        _fail(f"{path}.kind", f"unknown mixed-term kind {kind!r}")


def _validate_perturbation(obj, dim, path):
    _require_keys(obj, {"kind", "matrix", "offset"}, {"kind"}, path)
    kind = obj.get("kind")
    if kind in ("zero", "duality"):
        _require_keys(obj, {"kind"}, {"kind"}, path)
    elif kind == "affine":
        _require_keys(obj, {"kind", "matrix", "offset"}, {"kind", "matrix", "offset"}, path)
        _validate_matrix(obj["matrix"], dim, f"{path}.matrix")
        _vector(obj["offset"], f"{path}.offset", dim)
    else:
        _fail(f"{path}.kind", f"unknown perturbation kind {kind!r}")


_CONFIG_KEYS = {
    "mode",
    "r",
    "outer_tol",
    "max_outer",
    "resolvent_tol",
    "retraction_tol",
    "min_r",
    "audit_samples",
    "cut_cap",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario document."""

    name: str
    space: dict
    bundle: dict
    config: dict
    seed: int

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "space": copy.deepcopy(self.space),
            "bundle": copy.deepcopy(self.bundle),
            "config": copy.deepcopy(self.config),
            "seed": self.seed,
        }


def _validate_document(doc) -> ScenarioSpec:
    _require_keys(
        doc,
        {"name", "space", "bundle", "config", "seed"},
        {"name", "space", "bundle"},
        "scenario",
    )
    if not isinstance(doc.get("name"), str) or not doc["name"]:
        _fail("scenario.name", "must be a nonempty string")
    space = doc["space"]
    _require_keys(space, {"dimension", "exponent"}, {"dimension", "exponent"}, "space")
    dim = _number(space, "dimension", "space", positive=True, integer=True)
    _number(space, "exponent", "space", positive=True)

    bundle = doc["bundle"]
    _require_keys(
        bundle,
        {
            "base_set",
            "operators",
            "combination_weights",
            "bifunctions",
            "mixed_term",
            "perturbation",
            "start",
            "reference_solution",
        },
        {"base_set", "operators"},
        "bundle",
    )
    _validate_base_set(bundle["base_set"], dim, "bundle.base_set")
    ops = bundle["operators"]
    if not isinstance(ops, list) or not ops:
        _fail("bundle.operators", "must be a nonempty list")
    for i, op in enumerate(ops):
        _validate_operator(op, f"bundle.operators[{i}]")
    weights = bundle.get("combination_weights")
    if weights is not None:
        weights = _vector(weights, "bundle.combination_weights", len(ops) + 1)
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
            _fail("bundle.combination_weights", "must lie on the probability simplex")
    for i, bf in enumerate(bundle.get("bifunctions", [])):
        _validate_bifunction(bf, dim, f"bundle.bifunctions[{i}]")
    _validate_mixed(bundle.get("mixed_term", {"kind": "zero"}), dim, "bundle.mixed_term")
    _validate_perturbation(
        bundle.get("perturbation", {"kind": "zero"}), dim, "bundle.perturbation"
    )
    start = bundle.get("start", "random_feasible")
    if start != "random_feasible":
        _vector(start, "bundle.start", dim)
    reference = bundle.get("reference_solution")
    if reference is not None:
        _vector(reference, "bundle.reference_solution", dim)

    config = doc.get("config", {})
    _require_keys(config, _CONFIG_KEYS, set(), "config")
    mode = config.get("mode", "hilbert")
    if mode not in ("hilbert", "banach"):
        _fail("config.mode", f"must be 'hilbert' or 'banach', got {mode!r}")
    _number(config, "r", "config", default=1.0, positive=True)
    _number(config, "outer_tol", "config", default=1e-6, positive=True)
    _number(config, "max_outer", "config", default=200, integer=True)
    if config.get("max_outer", 200) < 0:
        _fail("config.max_outer", "must be nonnegative")
    _number(config, "resolvent_tol", "config", default=1e-6, positive=True)
    _number(config, "retraction_tol", "config", default=1e-10, positive=True)
    _number(config, "min_r", "config", default=1e-3, positive=True)
    _number(config, "audit_samples", "config", default=24, positive=True, integer=True)
    _number(config, "cut_cap", "config", default=500, positive=True, integer=True)
    seed = doc.get("seed", 7)
    if isinstance(seed, bool) or not isinstance(seed, int):
        _fail("scenario.seed", "must be an integer")

    spec = ScenarioSpec(
        name=doc["name"],
        space=copy.deepcopy(space),
        bundle=copy.deepcopy(bundle),
        config=copy.deepcopy(config),
        seed=seed,
    )
    # reject combinations the solvers cannot honor before any work happens
    build_bundle(spec)
    return spec


def load_scenario(source) -> ScenarioSpec:
    """Load and validate a scenario from a built-in name, a JSON path, or a dict."""
    if isinstance(source, dict):
        return _validate_document(source)
    if isinstance(source, Path) or (isinstance(source, str) and source not in BUILTIN_SCENARIOS):
        path = Path(source)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioParseError(f"{path}: cannot read scenario file: {exc}") from exc
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioParseError(
                f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
            ) from exc
        return _validate_document(doc)
    return _validate_document(copy.deepcopy(BUILTIN_SCENARIOS[source]))


# -- construction ----------------------------------------------------------------


def build_space(spec: ScenarioSpec) -> SpaceConfig:
    return SpaceConfig(int(spec.space["dimension"]), float(spec.space["exponent"]))


def _build_sets(spec: ScenarioSpec, space: SpaceConfig):
    desc = spec.bundle["base_set"]
    kind = desc["kind"]
    if kind == "p_ball":
        primal = PBall(float(desc["radius"]), space.exponent, Frame.PRIMAL)
        dual = PBall(float(desc["radius"]), space.conjugate, Frame.DUAL)
    elif kind == "box":
        if not space.is_hilbert:
            raise UnsupportedCombinationError(
                "box base sets are supported only at p = 2 (their dual image "
                "is not representable otherwise)"
            )
        primal = Box(np.array(desc["lower"]), np.array(desc["upper"]), Frame.PRIMAL)
        dual = Box(np.array(desc["lower"]), np.array(desc["upper"]), Frame.DUAL)
    else:
        primal = WholeSpace(Frame.PRIMAL)
        dual = WholeSpace(Frame.DUAL)
    return (
        ConstraintSet(primal, (), Frame.PRIMAL),
        ConstraintSet(dual, (), Frame.DUAL),
    )


def _build_family(spec: ScenarioSpec, space: SpaceConfig) -> OperatorFamily:
    members = []
    for desc in spec.bundle["operators"]:
        base = ShiftMap(space) if desc["kind"] == "shift" else JMap(space)
        alpha = float(desc.get("relax_weight", 0.5))
        members.append(RelaxedFamily(base, (lambda a: (lambda n: a))(alpha)))
    weights = spec.bundle.get("combination_weights")
    if weights is None:
        schedule = None
    else:
        values = tuple(float(w) for w in weights)
        schedule = lambda n: values  # noqa: E731 - constant schedule
    return OperatorFamily(members, schedule)


def _build_equilibrium(spec: ScenarioSpec, space: SpaceConfig):
    bifunctions = []
    for desc in spec.bundle.get("bifunctions", []):
        kind = desc["kind"]
        if kind == "inverse_duality_pairing":
            bifunctions.append(PairingBifunction(InverseDualityPairing(space)))
        elif kind == "quadratic_potential":
            bifunctions.append(
                PotentialBifunction(
                    QuadraticPotential(np.array(desc["center"]), float(desc.get("weight", 1.0)))
                )
            )
        else:
            bifunctions.append(
                PairingBifunction(
                    AffinePairing(np.array(desc["matrix"]), np.array(desc["offset"]))
                )
            )
    mdesc = spec.bundle.get("mixed_term", {"kind": "zero"})
    if mdesc["kind"] == "zero":
        mixed = ZeroTerm()
    elif mdesc["kind"] == "dual_norm":
        mixed = DualNormTerm(space.conjugate)
    elif mdesc["kind"] == "weighted_l1":
        mixed = WeightedL1Term(float(mdesc["weight"]))
    else:
        mixed = QuadraticTerm(np.array(mdesc["center"]))
    pdesc = spec.bundle.get("perturbation", {"kind": "zero"})
    if pdesc["kind"] == "zero":
        perturbation = ZeroPerturbation()
    elif pdesc["kind"] == "duality":
        perturbation = DualityPerturbation(space)
    else:
        perturbation = AffinePerturbation(np.array(pdesc["matrix"]), np.array(pdesc["offset"]))
    return tuple(bifunctions), mixed, perturbation


def build_config(spec: ScenarioSpec) -> SolverConfig:
    cfg = spec.config
    space = build_space(spec)
    reference = spec.bundle.get("reference_solution")
    ref_point = None if reference is None else PrimalPoint(np.array(reference), space)
    return SolverConfig(
        mode=Mode.HILBERT_MAIN if cfg.get("mode", "hilbert") == "hilbert" else Mode.BANACH_MAIN2,
        r_schedule=float(cfg.get("r", 1.0)),
        outer_tol=float(cfg.get("outer_tol", 1e-6)),
        max_outer=int(cfg.get("max_outer", 200)),
        resolvent_tol=float(cfg.get("resolvent_tol", 1e-6)),
        retraction_tol=float(cfg.get("retraction_tol", 1e-10)),
        reference_solution=ref_point,
        seed=spec.seed,
        min_r=float(cfg.get("min_r", 1e-3)),
        cut_cap=int(cfg.get("cut_cap", 500)),
        audit_samples=int(cfg.get("audit_samples", 24)),
    )


def build_bundle(spec: ScenarioSpec) -> ProblemBundle:
    """Construct the solver inputs; raises UnsupportedCombinationError when the
    declared data fall outside the support matrix."""
    space = build_space(spec)
    config_mode = spec.config.get("mode", "hilbert")
    if config_mode == "hilbert" and not space.is_hilbert:
        raise UnsupportedCombinationError("mode 'hilbert' requires exponent 2")
    omega, omega_dual = _build_sets(spec, space)
    family = _build_family(spec, space)
    bifunctions, mixed, perturbation = _build_equilibrium(spec, space)

    start = spec.bundle.get("start", "random_feasible")
    if start == "random_feasible":
        rng = np.random.default_rng([spec.seed, 101])
        coords = sample_feasible(omega, rng, 1, dimension=space.dimension)[0]
    else:
        coords = np.array(start, dtype=float)
        if not contains(omega, coords, 1e-9):
            raise ScenarioValidationError("bundle.start: point is not in the base set")
    anchor = PrimalPoint(coords, space)

    bundle = ProblemBundle(
        space=space,
        omega=omega,
        omega_dual=omega_dual,
        family=family,
        bifunctions=bifunctions,
        mixed=mixed,
        perturbation=perturbation,
        anchor=anchor,
    )
    # probe the resolvent support matrix once, before any solve
    classify_problem(
        ResolventProblem(
            bifunctions,
            mixed,
            perturbation,
            omega,
            max(float(spec.config.get("r", 1.0)), 1e-8),
            anchor,
        )
    )
    return bundle


# -- reports ----------------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """Machine-readable outcome of one scenario run."""

    scenario: str
    outcome: str
    converged: bool
    final_point: tuple
    final_norm: float
    iterations: int
    audits: dict
    audits_passed: bool
    wall_time: float
    rows: tuple
    error: Optional[str] = None
    failed_iteration: Optional[int] = None

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "outcome": self.outcome,
            "converged": self.converged,
            "final_point": list(self.final_point),
            "final_norm": self.final_norm,
            "iterations": self.iterations,
            "audits": copy.deepcopy(self.audits),
            "audits_passed": self.audits_passed,
            "wall_time": self.wall_time,
            "rows": [dict(row) for row in self.rows],
            "error": self.error,
            "failed_iteration": self.failed_iteration,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RunReport":
        return cls(
            scenario=doc["scenario"],
            outcome=doc["outcome"],
            converged=doc["converged"],
            final_point=tuple(doc["final_point"]),
            final_norm=doc["final_norm"],
            iterations=doc["iterations"],
            audits=copy.deepcopy(doc["audits"]),
            audits_passed=doc["audits_passed"],
            wall_time=doc["wall_time"],
            rows=tuple(dict(row) for row in doc["rows"]),
            error=doc["error"],
            failed_iteration=doc.get("failed_iteration"),
        )


def _rows_from_history(history, exponent: float) -> tuple:
    rows = []
    for rec in history:
        rows.append(
            {
                "n": rec.n,
                "x_norm": pnorm(rec.x.coords, exponent),
                "phi_anchor": rec.phi_anchor,
                "gap_xu": rec.gap_xu,
                "resolvent_gap": rec.resolvent_gap_value,
                "retraction_residual": rec.retraction_vi_residual,
                "fejer_slack": rec.fejer_slack,
                "cut_count": rec.cut_count,
            }
        )
    return tuple(rows)


#: report outcome of each solver failure; the exception's `iteration`
#: attribute, when set, becomes the report's failed_iteration
_FAILURE_OUTCOMES = (
    (UnsupportedCombinationError, "unsupported"),
    (NonConvergedError, "non_converged"),
    (InfeasibleError, "infeasible"),
    (AuditError, "audit_error"),
)


def run_scenario(spec: ScenarioSpec, out_dir=None) -> RunReport:
    """Build the bundle, run the solver, audit, optionally write outputs."""
    bundle = build_bundle(spec)
    config = build_config(spec)
    started = time.perf_counter()
    error = failed_iteration = None
    try:
        result = run(bundle, config)
        outcome = result.stop_reason.value
        converged = result.converged
        audits = audit_result(result, config)
        final = result.x_star
        rows = _rows_from_history(result.history, bundle.space.exponent)
        iterations = result.iterations
    except tuple(cls for cls, _ in _FAILURE_OUTCOMES) as exc:
        outcome = next(name for cls, name in _FAILURE_OUTCOMES if isinstance(exc, cls))
        failed_iteration = getattr(exc, "iteration", None)
        converged = False
        audits = {}
        final = bundle.anchor
        rows = ()
        iterations = 0
        error = str(exc)
    wall = time.perf_counter() - started
    report = RunReport(
        scenario=spec.name,
        outcome=outcome,
        converged=converged,
        final_point=tuple(float(c) for c in final.coords),
        final_norm=pnorm(final.coords, bundle.space.exponent),
        iterations=iterations,
        audits=audits,
        audits_passed=bool(audits) and all(a["passed"] for a in audits.values()),
        wall_time=wall,
        rows=rows,
        error=error,
        failed_iteration=failed_iteration,
    )
    if out_dir is not None:
        emit_report(report, out_dir)
    return report


def _fmt(value) -> str:
    if value is None:
        return "nan"
    return f"{value:.17g}"


def emit_report(report: RunReport, out_dir) -> tuple:
    """Write the per-iteration CSV and the JSON summary; returns their paths.

    The CSV is RFC-4180 (LF line endings, no quoting needed for numeric
    fields) with one row per outer iteration; numeric fields carry 17
    significant digits so reruns are bit-comparable.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.scenario}_iterations.csv"
    json_path = out / f"{report.scenario}_summary.json"
    lines = [_CSV_HEADER]
    for row in report.rows:
        lines.append(
            ",".join(
                [
                    str(row["n"]),
                    _fmt(row["x_norm"]),
                    _fmt(row["phi_anchor"]),
                    _fmt(row["gap_xu"]),
                    _fmt(row["resolvent_gap"]),
                    _fmt(row["retraction_residual"]),
                    _fmt(row["fejer_slack"]),
                    str(row["cut_count"]),
                ]
            )
        )
    csv_path.write_text("\n".join(lines) + "\n", newline="\n")
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", newline="\n")
    return csv_path, json_path
