"""Scenario loading, batch execution, and machine-readable reporting.

A scenario is a strict JSON document (unknown keys are errors) declaring the
space, the problem bundle, solver configuration, and a seed.  Three built-in
scenarios define the reproducible surface of the package:

* ``lp_shift_example``   - the shift map on the unit ball of R^8 with the
  3-norm, pairing bifunction g = J*, dual-norm mixed term, perturbation
  A = J; the solution set is the origin.
* ``hilbert_family``     - Euclidean space with two relaxed shift members and
  a trivial equilibrium part; the target is again the origin.
* ``optimization_app``   - Euclidean box-constrained minimization of
  0.5 |x - b|^2 + lambda |x|_1 via the potential bifunction reduction; the
  limit is the soft-thresholding minimizer for every start point.
"""

from __future__ import annotations

import json
import math
import re
import time
from dataclasses import dataclass, field, fields
from os import PathLike
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from .equilibrium import (
    AffineMap,
    DualNormTerm,
    DualityPerturbation,
    InverseDualityPairing,
    PairingBifunction,
    PotentialBifunction,
    QuadraticPotential,
    QuadraticTerm,
    WeightedL1Term,
    ZeroPerturbation,
    ZeroTerm,
)
from .errors import (
    SOLVER_ERRORS,
    ScenarioParseError,
    ScenarioValidationError,
    UnsupportedCombinationError,
)
from .operators import JMap, OperatorFamily, RelaxedFamily, ShiftMap
from .sets import Box, ConstraintSet, PBall, WholeSpace, sample_feasible
from .solver import ProblemBundle, SolverConfig, audit_result, run
from .space import PrimalPoint, SpaceConfig

#: the per-iteration CSV's columns, in order, each with the history-record
#: field it reads; the summary's rows carry the same keys
_CSV_COLUMNS = (
    ("n", lambda rec: rec.n),
    ("x_norm", lambda rec: rec.x.norm),
    ("phi_anchor", lambda rec: rec.phi_anchor),
    ("gap_xu", lambda rec: rec.gap_xu),
    ("resolvent_gap", lambda rec: rec.resolvent_gap_value),
    ("retraction_residual", lambda rec: rec.retraction_vi_residual),
    ("fejer_slack", lambda rec: rec.fejer_slack),
    ("cut_count", lambda rec: rec.cut_count),
)

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
            "audit_samples": 24,
        },
        "seed": 7,
    },
}


# -- scenario schema -------------------------------------------------------------


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


def _number(val, path, dimension=None) -> float:
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        _fail(path, "must be a number")
    if not math.isfinite(val):
        _fail(path, "must be finite")  # json reads NaN and +/-Infinity
    return float(val)


def _positive(val, path, dimension=None) -> float:
    val = _number(val, path)
    if val <= 0:
        _fail(path, "must be positive")
    return val


def _integer(val, path, minimum=None) -> int:
    val = _number(val, path)
    if not val.is_integer():
        _fail(path, "must be an integer")
    if minimum is not None and val < minimum:
        _fail(path, f"must be at least {minimum}")
    return int(val)


def _vector(val, path, length=None) -> np.ndarray:
    if not isinstance(val, list) or not all(
        isinstance(x, (int, float)) and not isinstance(x, bool) for x in val
    ):
        _fail(path, "must be a list of numbers")
    if length is not None and len(val) != length:
        _fail(path, f"must have length {length}")
    if not all(map(math.isfinite, val)):
        _fail(path, "must be finite")  # json reads NaN and +/-Infinity
    return np.array(val, dtype=float)


def _matrix(val, path, dimension) -> np.ndarray:
    if not isinstance(val, list) or len(val) != dimension:
        _fail(path, f"must be a {dimension}x{dimension} matrix (list of rows)")
    return np.array([_vector(row, f"{path}[{i}]", dimension) for i, row in enumerate(val)])


def _mode(val, path) -> str:
    if val not in ("hilbert", "banach"):
        _fail(path, f"must be 'hilbert' or 'banach', got {val!r}")
    return val


def _checked(path: str, call, *args, **kwargs):
    """call(*args, **kwargs), the ValueError of a library object's own check
    reported as a validation error at path, or at path.<field> when the
    error's `field` attribute names the field it refuses.
    UnsupportedCombinationError, a ValueError too, passes through
    unrelabelled."""
    try:
        return call(*args, **kwargs)
    except UnsupportedCombinationError:
        raise
    except ValueError as exc:
        field = getattr(exc, "field", None)
        _fail(path if field is None else f"{path}.{field}", str(exc))


#: the check of each field a section kind may carry, by field name; each
#: takes (value, path, space dimension) and returns the checked value
_FIELD_CHECKS = {
    "radius": _positive,
    "weight": _positive,
    "relax_weight": _number,  # its band is RelaxedFamily.weight_at's
    "lower": _vector,
    "upper": _vector,
    "center": _vector,
    "offset": _vector,
    "matrix": _matrix,
}


@dataclass(frozen=True)
class _Kind:
    """One kind of a bundle section: its builder, called as build(space,
    checked fields), its required keys and its optional keys with defaults."""

    build: Callable
    required: tuple = ()
    optional: dict = field(default_factory=dict)


def _relaxed(base_map):
    def build(space, f):
        alpha = f["relax_weight"]
        return RelaxedFamily(base_map(space), lambda n: alpha)

    return build


#: base-set kinds build Omega's base; the bundle derives its dual image
_BASE_SETS = {
    "p_ball": _Kind(lambda space, f: PBall(f["radius"], space.exponent), required=("radius",)),
    "box": _Kind(lambda space, f: Box(f["lower"], f["upper"]), required=("lower", "upper")),
    "whole_space": _Kind(lambda space, f: WholeSpace()),
}

_OPERATORS = {
    "shift": _Kind(_relaxed(ShiftMap), optional={"relax_weight": 0.5}),
    "duality": _Kind(_relaxed(JMap), optional={"relax_weight": 0.5}),
}

_BIFUNCTIONS = {
    "inverse_duality_pairing": _Kind(
        lambda space, f: PairingBifunction(InverseDualityPairing(space))
    ),
    "quadratic_potential": _Kind(
        lambda space, f: PotentialBifunction(QuadraticPotential(f["center"], f["weight"])),
        required=("center",),
        optional={"weight": 1.0},
    ),
    "affine_pairing": _Kind(
        lambda space, f: PairingBifunction(AffineMap(f["matrix"], f["offset"])),
        required=("matrix", "offset"),
    ),
}

_MIXED_TERMS = {
    "zero": _Kind(lambda space, f: ZeroTerm()),
    "dual_norm": _Kind(lambda space, f: DualNormTerm(space.conjugate)),
    "weighted_l1": _Kind(lambda space, f: WeightedL1Term(f["weight"]), required=("weight",)),
    "quadratic": _Kind(lambda space, f: QuadraticTerm(f["center"]), required=("center",)),
}

_PERTURBATIONS = {
    "zero": _Kind(lambda space, f: ZeroPerturbation()),
    "duality": _Kind(lambda space, f: DualityPerturbation(space)),
    "affine": _Kind(
        lambda space, f: AffineMap(f["matrix"], f["offset"]),
        required=("matrix", "offset"),
    ),
}


def _build_kind(table: dict, desc, path: str, space: SpaceConfig):
    """Check one section description against its kind's table entry and build it."""
    if not isinstance(desc, dict):
        _fail(path, f"expected an object, got {type(desc).__name__}")
    if "kind" not in desc:
        _fail(path, "missing required key 'kind'")
    kind = desc["kind"]
    entry = table.get(kind) if isinstance(kind, str) else None
    if entry is None:
        _fail(f"{path}.kind", f"unknown kind {kind!r}")
    _require_keys(desc, {"kind", *entry.required, *entry.optional}, entry.required, path)
    checked = {
        key: _FIELD_CHECKS[key](value, f"{path}.{key}", space.dimension)
        for key, value in {**entry.optional, **desc}.items()
        if key != "kind"
    }
    # a constructor's own check, e.g. a matrix whose symmetric part is not PSD
    return _checked(path, entry.build, space, checked)


#: config key -> check, which takes (value, path); a key the document leaves
#: out takes SolverConfig's default.  The rules of r (its floor min_r),
#: outer_tol, resolvent_tol, min_r, max_outer, audit_samples and cut_cap are
#: SolverConfig's
_CONFIG_FIELDS = {
    # checked, then dropped: one loop runs every exponent, and the space decides
    "mode": _mode,
    "r": _number,
    "outer_tol": _number,
    "max_outer": _integer,
    "resolvent_tol": _number,
    # checked, then dropped: the exact retraction reads no tolerance of its own
    "retraction_tol": _positive,
    "min_r": _number,
    "audit_samples": _integer,
    "cut_cap": _integer,
}

_BUNDLE_KEYS = {
    "base_set",
    "operators",
    "combination_weights",
    "bifunctions",
    "mixed_term",
    "perturbation",
    "start",
    "reference_solution",
}


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated scenario: its name and the solver inputs and configuration
    built from its document, of which it keeps nothing else."""

    name: str
    problem: ProblemBundle
    solver_config: SolverConfig


def _copy_document(doc):
    """A copy of the dict or list doc that shares none of its dicts and lists.

    Every other value is shared.  A valid scenario document holds nothing
    else but strings and numbers, which are immutable, and this copies one
    in about half the time copy.deepcopy takes.
    """
    if isinstance(doc, dict):
        return {k: _copy_document(v) if isinstance(v, (dict, list)) else v for k, v in doc.items()}
    return [_copy_document(v) if isinstance(v, (dict, list)) else v for v in doc]


def read_scenario(source):
    """The unvalidated scenario document of a built-in name, a JSON path, or a dict.

    A built-in is copied, so that a caller may edit what it gets; a dict is
    returned as it is.  Any other source (a list, a number, None) is a
    validation error of the scenario, as a document of that type is.
    """
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and source in BUILTIN_SCENARIOS:
        return _copy_document(BUILTIN_SCENARIOS[source])
    if not isinstance(source, (str, PathLike)):
        _fail("scenario", f"expected an object, got {type(source).__name__}")
    path = Path(source)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioParseError(f"{path}: cannot read scenario file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc


#: a scenario name is a file-name stem: the outputs are <name>_iterations.csv
#: and <name>_summary.json in the output directory, and nowhere else
_NAME = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.-]*")


def load_scenario(source) -> ScenarioSpec:
    """Load, validate and build a scenario from a built-in name, a JSON path, or a dict.

    The bundle is built and the config checked here, before any work
    happens.  Nothing built shares a dict, list or array with the
    document, so a dict source is read as it is, and editing it afterwards
    cannot reach the spec.
    """
    doc = read_scenario(source)
    _require_keys(
        doc,
        {"name", "space", "bundle", "config", "seed"},
        {"name", "space", "bundle"},
        "scenario",
    )
    name = doc["name"]
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        _fail("scenario.name", f"must be a file-name stem ({_NAME.pattern}), got {name!r}")
    desc = doc["space"]
    _require_keys(desc, {"dimension", "exponent"}, {"dimension", "exponent"}, "space")
    dimension = _integer(desc["dimension"], "space.dimension", minimum=1)
    space = _checked(
        "space.exponent", SpaceConfig, dimension, _number(desc["exponent"], "space.exponent")
    )
    seed = _checked("scenario", SolverConfig.check, "seed", doc.get("seed", 7))
    bundle = build_bundle(doc["bundle"], space, seed)
    reference = doc["bundle"].get("reference_solution")
    config = build_config(doc.get("config", {}), reference, space, seed)
    return ScenarioSpec(name, bundle, config)


# -- construction ----------------------------------------------------------------


def build_config(desc: dict, reference, space: SpaceConfig, seed: int) -> SolverConfig:
    """The solver configuration of the config section desc and the bundle
    section's reference solution, checking each field as it is read.

    Raises ScenarioValidationError naming the offending field.
    """
    _require_keys(desc, _CONFIG_FIELDS, (), "config")
    cfg = {
        key: check(desc[key], f"config.{key}")
        for key, check in _CONFIG_FIELDS.items()
        if key in desc
    }
    cfg.pop("mode", None)
    cfg.pop("retraction_tol", None)
    if "r" in cfg:
        cfg["r_schedule"] = cfg.pop("r")
    if reference is not None:
        reference = PrimalPoint(
            _vector(reference, "bundle.reference_solution", space.dimension), space
        )
    config = _checked("config", SolverConfig, reference_solution=reference, seed=seed, **cfg)
    _checked("config.r", config.r_at, 1)  # r is constant: one call checks every n
    return config


def build_bundle(desc: dict, space: SpaceConfig, seed: int) -> ProblemBundle:
    """Construct the solver inputs of the bundle section desc, checking each
    section against its kind table; a random start is drawn from seed.

    Raises ScenarioValidationError naming the offending field, and
    UnsupportedCombinationError when the declared data fall outside the
    support matrix.
    """
    _require_keys(desc, _BUNDLE_KEYS, ("base_set", "operators"), "bundle")

    def build(table, value, path):
        return _build_kind(table, value, path, space)

    omega = ConstraintSet(build(_BASE_SETS, desc["base_set"], "bundle.base_set"))
    ops = desc["operators"]
    if not isinstance(ops, list) or not ops:
        _fail("bundle.operators", "must be a nonempty list")
    members = [build(_OPERATORS, op, f"bundle.operators[{i}]") for i, op in enumerate(ops)]
    # the schedules are constant: one call at n = 1 checks every n
    for i, member in enumerate(members):
        _checked(f"bundle.operators[{i}].relax_weight", member.weight_at, 1)
    weights = desc.get("combination_weights")
    schedule = None
    if weights is not None:
        values = tuple(_vector(weights, "bundle.combination_weights", len(ops) + 1))
        schedule = lambda n: values  # noqa: E731 - constant schedule
    family = OperatorFamily(members, schedule)
    _checked("bundle.combination_weights", family.weights_at, 1)
    bifunctions = desc.get("bifunctions", [])
    if not isinstance(bifunctions, list):
        _fail("bundle.bifunctions", "must be a list")
    bifunctions = tuple(
        build(_BIFUNCTIONS, bf, f"bundle.bifunctions[{i}]") for i, bf in enumerate(bifunctions)
    )
    mixed = build(_MIXED_TERMS, desc.get("mixed_term", {"kind": "zero"}), "bundle.mixed_term")
    perturbation = build(
        _PERTURBATIONS, desc.get("perturbation", {"kind": "zero"}), "bundle.perturbation"
    )

    start = desc.get("start", "random_feasible")
    if start == "random_feasible":
        rng = np.random.default_rng([seed, 101])
        coords = sample_feasible(omega, rng, 1, dimension=space.dimension)[0]
    else:
        coords = _vector(start, "bundle.start", space.dimension)
    # the bundle derives JOmega, checks x_1 in Omega, the one check of its
    # own a document can fail, and classifies the equilibrium data
    return _checked(
        "bundle.start",
        ProblemBundle,
        omega=omega,
        family=family,
        bifunctions=bifunctions,
        mixed=mixed,
        perturbation=perturbation,
        anchor=PrimalPoint(coords, space),
    )


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
    # resolvent-gap descents that reached their iteration cap still moving,
    # over the whole run (up to the failure when the run failed)
    capped_starts: int = 0

    def to_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["final_point"] = list(self.final_point)
        doc["audits"] = {name: dict(audit) for name, audit in self.audits.items()}
        doc["rows"] = [dict(row) for row in self.rows]
        return doc


def _rows_from_history(history) -> tuple:
    return tuple({column: read(rec) for column, read in _CSV_COLUMNS} for rec in history)


def run_scenario(spec: ScenarioSpec, out_dir=None) -> RunReport:
    """Run the solver on the spec's bundle, audit, optionally write outputs."""
    bundle = spec.problem
    config = spec.solver_config
    started = time.perf_counter()
    error = failed_iteration = None
    try:
        result = run(bundle, config)
        converged = result.converged
        outcome = "converged" if converged else "iteration_cap"
        audits = audit_result(result, config)
        final = result.x_star
        rows = _rows_from_history(result.history)
        iterations = result.iterations
        capped = sum(rec.capped_starts for rec in result.history)
    except SOLVER_ERRORS as exc:
        # the error names its outcome; its `iteration` and `capped_starts`
        # attributes, when set, become failed_iteration and capped_starts
        outcome = exc.outcome
        failed_iteration = getattr(exc, "iteration", None)
        capped = getattr(exc, "capped_starts", 0)
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
        final_norm=final.norm,
        iterations=iterations,
        audits=audits,
        audits_passed=bool(audits) and all(a["passed"] for a in audits.values()),
        wall_time=wall,
        rows=rows,
        error=error,
        failed_iteration=failed_iteration,
        capped_starts=capped,
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
    columns = [column for column, _ in _CSV_COLUMNS]
    lines = [",".join(columns)]
    # the integer columns print as str() would: f"{5:.17g}" is "5"
    lines.extend(",".join(_fmt(row[column]) for column in columns) for row in report.rows)
    csv_path.write_text("\n".join(lines) + "\n", newline="\n")
    json_path.write_text(json.dumps(report.to_dict(), indent=2) + "\n", newline="\n")
    return csv_path, json_path
