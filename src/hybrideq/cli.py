"""Command-line interface.

Exit codes: 0 converged with all audits passing, 2 audit failure (a
failed audit, or outcome audit_error when an audit could not be
evaluated), 3 solver failure (outcomes non_converged, iteration_cap,
unsupported and infeasible), 1 usage or IO error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ScenarioParseError, ScenarioValidationError, UnsupportedCombinationError
from .harness import BUILTIN_SCENARIOS, load_scenario, read_scenario, run_scenario


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hybrideq",
        description="Hybrid shrinking-projection solver for equilibrium and J-fixed-point problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run a scenario and write CSV/JSON outputs")
    solve.add_argument("--scenario", required=True, help="built-in name or path to a JSON file")
    solve.add_argument("--out", default=None, help="output directory for CSV and summary")
    solve.add_argument("--max-iter", type=int, default=None, help="override max outer iterations")
    solve.add_argument("--tol", type=float, default=None, help="override outer tolerance")
    solve.add_argument("--seed", type=int, default=None, help="override the scenario seed")

    verify = sub.add_parser("verify", help="run only the invariant audit suite of a scenario")
    verify.add_argument("--scenario", required=True)
    verify.add_argument("--seed", type=int, default=None)

    sub.add_parser("list-scenarios", help="print the built-in scenario names")
    return parser


def _load_with_overrides(args) -> "ScenarioSpec":
    """Apply the command-line overrides to the scenario's document, then load it.

    read_scenario gives a document of the CLI's own (a built-in is copied,
    a file is read), so it is edited in place."""
    doc = read_scenario(args.scenario)
    # a document of the wrong shape is left to validation to report
    if isinstance(doc, dict) and isinstance(doc.get("config", {}), dict):
        config = doc.setdefault("config", {})
        if getattr(args, "max_iter", None) is not None:
            config["max_outer"] = args.max_iter
        if getattr(args, "tol", None) is not None:
            config["outer_tol"] = args.tol
        if args.seed is not None:
            doc["seed"] = args.seed
    return load_scenario(doc)


def _report_exit_code(report) -> int:
    if report.outcome == "converged" and report.audits_passed:
        return 0
    if report.outcome in ("non_converged", "iteration_cap", "unsupported", "infeasible"):
        return 3
    return 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(BUILTIN_SCENARIOS):
            print(name)
        return 0

    try:
        spec = _load_with_overrides(args)
    except (ScenarioParseError, ScenarioValidationError, UnsupportedCombinationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "solve":
        try:
            report = run_scenario(spec, out_dir=args.out)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({k: v for k, v in report.to_dict().items() if k != "rows"}, indent=2))
        return _report_exit_code(report)

    # verify: run without writing outputs, report only the audit outcome
    report = run_scenario(spec, out_dir=None)
    for name, audit in sorted(report.audits.items()):
        status = "PASS" if audit["passed"] else "FAIL"
        print(
            f"{status} {name}: worst slack {audit['worst']:.3e} "
            f"(tolerance {audit['tolerance']:.3e})"
        )
    if report.outcome != "converged":
        print(f"solver outcome: {report.outcome}", file=sys.stderr)
    return _report_exit_code(report)


if __name__ == "__main__":
    sys.exit(main())
