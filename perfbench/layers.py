"""Per-layer metrics computed from the spans of a traced run.

Counts and times are per traced solve (totals divided by the number of
traced solves), so runs that fit a different number of solves compare.
Every ratio is reported together with its base.
"""

from __future__ import annotations

import numpy as np


class Spans:
    """Column view of a tracer's spans with lookups by span name."""

    def __init__(self, tracer):
        cols = tracer.arrays()
        self.name = cols["name"]
        self.parent = cols["parent"]
        self.duration = cols["end"] - cols["start"]
        self.self_time = cols["self"]
        self._ids = {n: i for i, n in enumerate(tracer.names)}
        has_parent = self.parent >= 0
        self.parent_name = np.full_like(self.name, -1)
        self.parent_name[has_parent] = self.name[self.parent[has_parent]]

    def of(self, span: str, parent: str | None = None) -> np.ndarray:
        mask = self.name == self._ids[span]
        if parent is not None:
            mask &= self.parent_name == self._ids[parent]
        return mask

    def prefixed(self, prefix: str) -> np.ndarray:
        ids = [i for n, i in self._ids.items() if n.startswith(prefix)]
        return np.isin(self.name, ids)

    def calls(self, span: str, parent: str | None = None) -> int:
        return int(np.count_nonzero(self.of(span, parent)))

    def self_s(self, span: str) -> float:
        return float(self.self_time[self.of(span)].sum())

    def total_s(self, span: str, parent: str | None = None) -> float:
        return float(self.duration[self.of(span, parent)].sum())

    def ms_quantile(self, span: str, q: float) -> float:
        durations = self.duration[self.of(span)]
        return float(np.percentile(durations, q) * 1e3) if durations.size else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, solves: int, final_cuts: list) -> dict:
    """Every per-layer metric, by name, from `solves` traced solves."""
    s = Spans(tracer)
    c = tracer.counters
    per = 1.0 / solves
    project_calls = s.calls("sets.project")
    retract_calls = s.calls("retraction.retract")
    resolve_calls = s.calls("equilibrium.resolve")
    run_total = s.total_s("solver.run")
    audit_total = s.total_s("retraction.vi_residual", parent="solver.run") + s.total_s(
        "sets.worst_violation", parent="solver.run"
    )
    offered = c.get("sets.add_cut.offered", 0)
    return {
        "space.pnorm.calls": s.calls("space.pnorm") * per,
        "space.gauge_coords.calls": s.calls("space.gauge_coords") * per,
        "space.kernel.self_s": float(s.self_time[s.prefixed("space.")].sum()) * per,
        "space.kernel.bytes_computed": c.get("space.kernel.bytes", 0) * per,
        "sets.project.calls": project_calls * per,
        "sets.project.self_s": s.self_s("sets.project") * per,
        "sets.project.ms_p50": s.ms_quantile("sets.project", 50),
        "sets.project.ms_p90": s.ms_quantile("sets.project", 90),
        "sets.project.cuts_mean": _ratio(c.get("sets.project.cuts", 0), project_calls),
        "sets.dykstra.calls": s.calls("sets.dykstra") * per,
        "sets.worst_violation.calls": s.calls("sets.worst_violation") * per,
        "sets.sample_feasible.self_s": s.self_s("sets.sample_feasible") * per,
        "sets.add_cut.self_s": s.self_s("sets.add_cut") * per,
        "sets.add_cut.offered": offered * per,
        "sets.add_cut.kept_ratio": _ratio(c.get("sets.add_cut.kept", 0), offered),
        "retraction.retract.calls": retract_calls * per,
        "retraction.retract.self_s": s.self_s("retraction.retract") * per,
        "retraction.retract.ms_p50": s.ms_quantile("retraction.retract", 50),
        "retraction.retract.ms_p90": s.ms_quantile("retraction.retract", 90),
        "retraction.projections_per_retract": _ratio(
            s.calls("sets.project", parent="retraction.retract"), retract_calls
        ),
        "retraction.vi_residual.total_s": s.total_s("retraction.vi_residual") * per,
        "equilibrium.resolve.calls": resolve_calls * per,
        "equilibrium.resolve.total_s": s.total_s("equilibrium.resolve") * per,
        "equilibrium.gap.calls": s.calls("equilibrium.gap") * per,
        "equilibrium.gap.total_s": s.total_s("equilibrium.gap") * per,
        "equilibrium.gaps_per_resolve": _ratio(s.calls("equilibrium.gap"), resolve_calls),
        "operators.apply.calls": s.calls("operators.apply") * per,
        "operators.apply.self_s": s.self_s("operators.apply") * per,
        "solver.run.total_s": run_total * per,
        "solver.run.self_s": s.self_s("solver.run") * per,
        "solver.audit.total_s": audit_total * per,
        "solver.audit.share": _ratio(audit_total, run_total),
        "solver.cuts_final": float(np.mean(final_cuts)),
        "harness.build_bundle.calls": s.calls("harness.build_bundle") * per,
        "harness.load.self_s": s.self_s("harness.load") * per,
        "harness.emit.s": s.total_s("harness.emit") * per,
        "harness.emit.bytes": c.get("harness.emit.bytes", 0) * per,
        # cli.main's children are load_scenario and run_scenario spans, so
        # its self time is its own overhead: parsing, overrides, printing
        "cli.main.overhead_s": s.self_s("cli.main") * per,
    }


_RETRACTING = (
    "space.gauge_coords.calls",
    "sets.dykstra.calls",
    "retraction.retract.calls",
    "retraction.projections_per_retract",
)

#: per-layer metrics that must be nonzero on a workload; a zero means the
#: tracer missed the calls (for instance through an alias it did not rebind)
EXPECTED_NONZERO = {
    "*": (
        "space.pnorm.calls",
        "space.kernel.bytes_computed",
        "sets.project.calls",
        "sets.worst_violation.calls",
        "sets.sample_feasible.self_s",
        "sets.add_cut.offered",
        "retraction.vi_residual.total_s",
        "equilibrium.resolve.calls",
        "equilibrium.gap.calls",
        "operators.apply.calls",
        "solver.run.self_s",
        "solver.audit.total_s",
        "harness.build_bundle.calls",
        "harness.load.self_s",
        "harness.emit.bytes",
    ),
    "shift_banach": _RETRACTING,
    "shift_wide": _RETRACTING,
    "hilbert_audit": (),
    "box_starts": ("cli.main.overhead_s",),
}


def missing_counters(workload: str, metrics: dict, bindings: dict) -> list:
    """Expected counters that read zero.

    A metric named after a span (`<layer>.<span>.<...>`) whose function the
    package no longer has (no binding) is not expected.
    """
    names = EXPECTED_NONZERO["*"] + EXPECTED_NONZERO[workload]
    return [
        name
        for name in names
        if bindings.get(".".join(name.split(".")[:2]), 1) and not metrics[name] > 0
    ]
