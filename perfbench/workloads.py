"""Scenario documents of the four benchmark workloads and their correctness checks.

The benchmark writes every scenario document itself; the program receives
only these documents.  Each workload yields an endless sequence of
instances; instance k of a run is derived from the run's seed and k alone.

Which inputs follow the seed, and why (times on a 2-core x86 machine):

* In Hilbert mode the scenario seed drives only the audit samples and the
  certification multi-starts; the iterates and the cost of a solve stay
  the same (hilbert_family took 4.1-4.5 s over seeds 7-11 from one start;
  at outer_tol 1e-5 the criterion-5 starts of optimization_app took
  1.3-2.1 s, 1.4-2.0 s and 9.9-11.1 s over seeds 1-6).
  The start, however, sets the cost: hilbert_family took 4 s from its
  seed-7 start and 21 s from its seed-8 and seed-9 starts, and
  optimization_app took 0.8 s to 18 s over starts.  So hilbert_audit and
  box_starts pin their starts (the built-in seed-7 start and the
  criterion-5 starts) and take their scenario seeds from the run seed.
* In Banach mode the scenario seed moves the iterates: from one start,
  lp_shift_example at outer_tol 1e-3 converged in 30 to 56 iterations
  (5 to 22 s) over seeds 7-11, and the d=128 problem took 2.1 to 6.9 s
  for its 10 iterations over seeds 1-8.  A run's median cannot absorb
  that, so both shift workloads pin the built-in's scenario seed 7.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Callable, Optional

CSV_HEADER = [
    "n",
    "x_norm",
    "phi_anchor",
    "gap_xu",
    "resolvent_gap",
    "retraction_residual",
    "fejer_slack",
    "cut_count",
]

# the built-in seed-7 random-feasible starts of hilbert_family and
# optimization_app, written out so that every seed keeps the same start
HILBERT_SEED7_START = [
    0.32608376023657176,
    0.4934147071152133,
    -0.06797218866902877,
    0.37385944004586064,
    -0.15854825456767663,
    0.4656194963893548,
    -0.13020111724669703,
    0.2729707277837925,
]
BOX_SEED7_START = [2.3285969484082276, 4.545991590831909, -3.349229310405275]

# optimization_app minimizes 0.5 |x - b|^2 + lam |x|_1 over the box [-5, 5]^3;
# its minimizer is the componentwise soft threshold of b (inside the box)
BOX_CENTER = [1.0, -2.0, 0.5]
BOX_L1_WEIGHT = 0.3
BOX_ORACLE = [0.7, -1.7, 0.2]


@dataclass(frozen=True)
class Instance:
    """One scenario document plus what a correct solve of it must report."""

    doc: dict
    expect_outcome: str
    expect_iterations: Optional[int] = None  # exact count for capped runs
    max_final_norm: Optional[float] = None
    oracle_point: Optional[list] = None
    oracle_atol: float = 0.0

    @property
    def name(self) -> str:
        return self.doc["name"]


@dataclass(frozen=True)
class Workload:
    name: str
    instance: Callable[[int, int], Instance]  # (seed, k) -> instance k
    via_cli: bool = False
    round_size: int = 1  # solves a run always completes


def _shift_doc(name, dimension, seed, outer_tol, max_outer):
    return {
        "name": name,
        "space": {"dimension": dimension, "exponent": 3.0},
        "bundle": {
            "base_set": {"kind": "p_ball", "radius": 1.0},
            "operators": [{"kind": "shift", "relax_weight": 0.5}],
            "combination_weights": [0.5, 0.5],
            "bifunctions": [{"kind": "inverse_duality_pairing"}],
            "mixed_term": {"kind": "dual_norm"},
            "perturbation": {"kind": "duality"},
            "start": "random_feasible",
            "reference_solution": [0.0] * dimension,
        },
        "config": {
            "mode": "banach",
            "r": 1.0,
            "outer_tol": outer_tol,
            "max_outer": max_outer,
            "resolvent_tol": 1e-6,
            "retraction_tol": 1e-8,
            "audit_samples": 24,
        },
        "seed": seed,
    }


SHIFT_BANACH_TOL = 2e-3
SHIFT_WIDE_DIMENSION = 128
SHIFT_WIDE_BUDGET = 10
HILBERT_BUDGET = 200
# optimization_app's outer_tol is 1e-6; at 1e-5 the three starts take
# about 13 s together in place of 21 s, so that a run repeats them, and the
# final point stays within 1e-5 of the soft threshold (the check allows 1e-4)
BOX_TOL = 1e-5


def shift_banach(seed: int, k: int) -> Instance:
    # lp_shift_example at its seed 7 with outer_tol 2e-3 in place of 1e-4:
    # 20 iterations in about 2 s instead of 108 in about 41 s.  The oracle
    # keeps the built-in's ratio of 10 between the bound on |x*| and outer_tol
    doc = _shift_doc("shift_banach", 8, 7, SHIFT_BANACH_TOL, 200)
    return Instance(doc, "converged", max_final_norm=10.0 * SHIFT_BANACH_TOL)


def shift_wide(seed: int, k: int) -> Instance:
    doc = _shift_doc("shift_wide", SHIFT_WIDE_DIMENSION, 7, 1e-4, SHIFT_WIDE_BUDGET)
    return Instance(doc, "iteration_cap", expect_iterations=SHIFT_WIDE_BUDGET)


def hilbert_audit(seed: int, k: int) -> Instance:
    doc = {
        "name": f"hilbert_audit_{k}",
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
            "start": list(HILBERT_SEED7_START),
            "reference_solution": [0.0] * 8,
        },
        "config": {
            "mode": "hilbert",
            "r": 1.0,
            "outer_tol": 1e-6,
            "max_outer": HILBERT_BUDGET,
            "resolvent_tol": 1e-6,
            "retraction_tol": 1e-10,
            "audit_samples": 24,
        },
        "seed": seed + k,
    }
    return Instance(doc, "iteration_cap", expect_iterations=HILBERT_BUDGET)


# the three starts of acceptance criterion 5 with their scenario-seed
# offsets from the run seed; the default seed 7 gives scenario seeds 7, 11, 12.
# All three keep the default 24 audit samples (criterion 5 uses 8 for the
# alternate starts), so that their audit-bound iterations form one population
# and the pooled iteration quantiles do not straddle two
BOX_STARTS = (
    (BOX_SEED7_START, 0),
    ([4.0, 4.0, 4.0], 4),
    ([-3.0, 0.0, 2.0], 5),
)


def box_starts(seed: int, k: int) -> Instance:
    start, offset = BOX_STARTS[k % len(BOX_STARTS)]
    doc = {
        "name": f"box_starts_{k}",
        "space": {"dimension": 3, "exponent": 2.0},
        "bundle": {
            "base_set": {"kind": "box", "lower": [-5.0] * 3, "upper": [5.0] * 3},
            "operators": [{"kind": "duality", "relax_weight": 0.5}],
            "combination_weights": [0.5, 0.5],
            "bifunctions": [
                {"kind": "quadratic_potential", "center": list(BOX_CENTER), "weight": 1.0}
            ],
            "mixed_term": {"kind": "weighted_l1", "weight": BOX_L1_WEIGHT},
            "perturbation": {"kind": "zero"},
            "start": list(start),
            "reference_solution": list(BOX_ORACLE),
        },
        "config": {
            "mode": "hilbert",
            "r": 10.0,
            "outer_tol": BOX_TOL,
            "max_outer": 200,
            "resolvent_tol": 1e-6,
            "retraction_tol": 1e-10,
            "audit_samples": 24,
        },
        "seed": seed + offset,
    }
    return Instance(doc, "converged", oracle_point=list(BOX_ORACLE), oracle_atol=1e-4)


WORKLOADS = {
    "shift_banach": Workload("shift_banach", shift_banach),
    "shift_wide": Workload("shift_wide", shift_wide),
    "hilbert_audit": Workload("hilbert_audit", hilbert_audit),
    "box_starts": Workload("box_starts", box_starts, via_cli=True, round_size=len(BOX_STARTS)),
}


def parse_csv(text: str) -> list:
    """Rows of a per-iteration CSV as dicts of floats; raises ValueError when malformed."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValueError(f"unexpected CSV header {header!r}")
    rows = []
    for line in reader:
        if len(line) != len(CSV_HEADER):
            raise ValueError(f"CSV row with {len(line)} fields")
        rows.append({key: float(value) for key, value in zip(CSV_HEADER, line)})
    return rows


def check(instance: Instance, summary: dict, csv_text: str, exit_code=None) -> list:
    """Every way the solve's outputs disagree with what `instance` expects."""
    problems = []
    if exit_code is not None and exit_code != 0:
        problems.append(f"CLI exit code {exit_code}")
    if summary["outcome"] != instance.expect_outcome:
        problems.append(f"outcome {summary['outcome']!r}, expected {instance.expect_outcome!r}")
    if instance.expect_iterations is not None and summary["iterations"] != instance.expect_iterations:
        problems.append(f"{summary['iterations']} iterations, expected {instance.expect_iterations}")
    if not summary["audits_passed"]:
        failed = sorted(k for k, a in summary["audits"].items() if not a["passed"])
        problems.append(f"audits failed: {failed}")
    if instance.max_final_norm is not None and not summary["final_norm"] <= instance.max_final_norm:
        problems.append(f"|x*|_p = {summary['final_norm']:.3e} > {instance.max_final_norm:g}")
    if instance.oracle_point is not None:
        point = summary["final_point"]
        if not all(abs(a - b) <= instance.oracle_atol for a, b in zip(point, instance.oracle_point)):
            problems.append(f"final point {point} is not the soft-threshold {instance.oracle_point}")
    try:
        rows = parse_csv(csv_text)
    except ValueError as exc:
        problems.append(f"CSV does not parse: {exc}")
    else:
        if len(rows) != summary["iterations"]:
            problems.append(f"CSV has {len(rows)} rows for {summary['iterations']} iterations")
    return problems
