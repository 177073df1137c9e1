"""Scenario loading, strict schema validation, reports, CSV/JSON output, CLI."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hybrideq import (
    BUILTIN_SCENARIOS,
    NonConvergedError,
    OperatorFamily,
    PrimalPoint,
    RelaxedFamily,
    RunReport,
    ScenarioParseError,
    ScenarioValidationError,
    ShiftMap,
    SolverConfig,
    UnsupportedCombinationError,
    build_bundle,
    emit_report,
    load_scenario,
    run_scenario,
)
from hybrideq.cli import main as cli_main

TINY = {
    "name": "tiny",
    "space": {"dimension": 2, "exponent": 2.0},
    "bundle": {
        "base_set": {"kind": "p_ball", "radius": 1.0},
        "operators": [{"kind": "shift", "relax_weight": 0.5}],
        "combination_weights": [0.5, 0.5],
        "bifunctions": [],
        "mixed_term": {"kind": "zero"},
        "perturbation": {"kind": "zero"},
        "start": [0.0, 0.0],
        "reference_solution": [0.0, 0.0],
    },
    "config": {"mode": "hilbert", "max_outer": 5, "outer_tol": 1e-6},
    "seed": 3,
}


class TestLoadScenario:
    def test_builtins_load(self):
        for name in ("lp_shift_example", "hilbert_family", "optimization_app"):
            spec = load_scenario(name)
            assert spec.name == name

    def test_builtin_contents(self):
        lp = load_scenario("lp_shift_example")
        assert lp.space == {"dimension": 8, "exponent": 3.0}
        assert lp.bundle["perturbation"] == {"kind": "duality"}
        assert lp.bundle["reference_solution"] == [0.0] * 8
        assert lp.seed == 7
        opt = load_scenario("optimization_app")
        assert opt.bundle["mixed_term"] == {"kind": "weighted_l1", "weight": 0.3}
        assert opt.bundle["bifunctions"][0]["center"] == [1.0, -2.0, 0.5]

    def test_dict_loads(self):
        spec = load_scenario(dict(TINY))
        assert spec.name == "tiny"

    def test_json_file_loads(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(TINY))
        spec = load_scenario(str(path))
        assert spec.name == "tiny"

    def test_parse_error_carries_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "space": }')
        with pytest.raises(ScenarioParseError) as err:
            load_scenario(str(path))
        assert "2:" in str(err.value)  # line number of the offending token

    def test_missing_file(self):
        with pytest.raises(ScenarioParseError):
            load_scenario("/nonexistent/path/to/scenario.json")

    @pytest.mark.parametrize("source", [[1, 2], 3, None])
    def test_a_source_that_is_not_a_name_path_or_object_is_refused(self, source):
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(source)
        assert str(err.value) == f"scenario: expected an object, got {type(source).__name__}"

    def test_each_document_is_copied_once(self, monkeypatch, tmp_path):
        # a caller's dict and a built-in are copied once, whole; a JSON file
        # and the CLI's overridden document are private already
        import hybrideq.harness as harness_module

        real, copied = harness_module._copy_document, []

        def spy(doc):  # the copy recurses through the spy too
            copied.append(doc)
            return real(doc)

        monkeypatch.setattr(harness_module, "_copy_document", spy)

        def times_copied(obj):
            return sum(c is obj for c in copied)

        doc = json.loads(json.dumps(TINY))
        spec = load_scenario(doc)
        assert times_copied(doc) == times_copied(doc["bundle"]) == 1
        doc["bundle"]["start"][0] = 0.5
        doc["config"]["max_outer"] = 1
        assert spec.bundle["start"] == [0.0, 0.0] and spec.config["max_outer"] == 5
        builtin = BUILTIN_SCENARIOS["hilbert_family"]
        spec = load_scenario("hilbert_family")
        assert times_copied(builtin) == times_copied(builtin["bundle"]) == 1
        assert spec.bundle == builtin["bundle"] and spec.bundle is not builtin["bundle"]
        copied.clear()
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        load_scenario(str(path))
        assert cli_main(["solve", "--scenario", str(path), "--max-iter", "1", "--out", str(tmp_path)]) == 0
        assert copied == []


class TestStrictValidation:
    def test_unknown_top_level_key(self):
        doc = dict(TINY)
        doc["extra"] = 1
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "extra" in str(err.value)

    def test_unknown_nested_key_names_path(self):
        doc = json.loads(json.dumps(TINY))
        doc["bundle"]["mixed_term"]["typo"] = 1
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "bundle.mixed_term" in str(err.value)
        assert "typo" in str(err.value)

    def test_bad_mode_named(self):
        doc = json.loads(json.dumps(TINY))
        doc["config"]["mode"] = "euclidean"
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "config.mode" in str(err.value)

    def test_simplex_violation_rejected(self):
        doc = json.loads(json.dumps(TINY))
        doc["bundle"]["combination_weights"] = [0.6, 0.6]
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert "combination_weights" in str(err.value)

    def test_relax_weight_band_rejected(self):
        doc = json.loads(json.dumps(TINY))
        doc["bundle"]["operators"][0]["relax_weight"] = 0.9
        with pytest.raises(ScenarioValidationError):
            load_scenario(doc)

    def test_start_outside_base_rejected(self):
        doc = json.loads(json.dumps(TINY))
        doc["bundle"]["start"] = [2.0, 0.0]
        with pytest.raises(ScenarioValidationError):
            load_scenario(doc)

    def test_banach_box_rejected(self):
        doc = json.loads(json.dumps(TINY))
        doc["space"]["exponent"] = 3.0
        doc["config"]["mode"] = "banach"
        doc["bundle"]["base_set"] = {"kind": "box", "lower": [-1, -1], "upper": [1, 1]}
        doc["bundle"]["start"] = "random_feasible"
        with pytest.raises(UnsupportedCombinationError, match="^box base sets are supported only"):
            load_scenario(doc)

    def test_integral_floats_load_as_counts(self):
        doc = json.loads(json.dumps(TINY))
        doc["config"].update(max_outer=5.0, audit_samples=24.0, cut_cap=500.0)
        config = load_scenario(doc).solver_config
        assert (config.max_outer, config.audit_samples, config.cut_cap) == (5, 24, 500)
        assert all(type(v) is int for v in (config.max_outer, config.audit_samples, config.cut_cap))

    def test_unsupported_equilibrium_class_rejected_at_load(self):
        doc = json.loads(json.dumps(TINY))
        doc["space"]["exponent"] = 3.0
        doc["config"]["mode"] = "banach"
        doc["bundle"]["bifunctions"] = [
            {"kind": "quadratic_potential", "center": [0.0, 0.0]}
        ]
        doc["bundle"]["mixed_term"] = {"kind": "dual_norm"}
        doc["bundle"]["perturbation"] = {"kind": "duality"}
        with pytest.raises(UnsupportedCombinationError, match="^at exponent 3 only the shift-example"):
            load_scenario(doc)


def _affine_bifunction(doc):
    doc["bundle"]["bifunctions"] = [
        {"kind": "affine_pairing", "matrix": [[-1, 0], [0, -1]], "offset": [0, 0]}
    ]


def _affine_perturbation(doc):
    doc["bundle"]["perturbation"] = {
        "kind": "affine",
        "matrix": [[-1, 0], [0, -1]],
        "offset": [0, 0],
    }


def _r_below_min_r(doc):
    doc["config"]["r"] = 1e-4  # the default min_r is 1e-3


def _misspelled_mode(doc):
    doc["config"]["mode"] = "euclidean"  # spell-checked, then dropped


def _zero_r(doc):
    doc["config"]["r"] = 0  # refused by SolverConfig.r_at's floor, its one rule


def _exponent_out_of_band(doc):
    doc["space"]["exponent"] = 20.0


def _infinite_start(doc):
    # whole space: no membership check stands between the start and PrimalPoint
    doc["bundle"]["base_set"] = {"kind": "whole_space"}
    doc["bundle"]["start"] = [float("inf"), 0.0]  # json writes and reads Infinity


def _nan_reference(doc):
    doc["bundle"]["reference_solution"] = [float("nan"), 0.0]


def _infinite_r(doc):
    doc["config"]["r"] = float("inf")


def _weight_product_below_floor(doc):
    doc["bundle"]["combination_weights"] = [1.0, 0.0]


def _negative_seed(doc):
    # numpy's SeedSequence refuses it with a ValueError deep in a solve
    doc["seed"] = -1


def _bool_seed(doc):
    doc["seed"] = True


def _fractional_seed(doc):
    doc["seed"] = 7.5


def _zero_outer_tol(doc):
    doc["config"]["outer_tol"] = 0.0


def _negative_resolvent_tol(doc):
    doc["config"]["resolvent_tol"] = -1e-6


def _zero_min_r(doc):
    doc["config"]["min_r"] = 0


def _zero_audit_samples(doc):
    doc["config"]["audit_samples"] = 0


def _zero_cut_cap(doc):
    doc["config"]["cut_cap"] = 0


def _negative_max_outer(doc):
    doc["config"]["max_outer"] = -1


def _fractional_max_outer(doc):
    doc["config"]["max_outer"] = 2.5


class TestRejectedAtLoad:
    """Data that a constructor or the solver refuses is a validation error
    naming its field, at load and through the CLI, never a traceback."""

    CASES = [
        (_affine_bifunction, "bundle.bifunctions[0]"),
        (_affine_perturbation, "bundle.perturbation"),
        (_r_below_min_r, "config.r"),
        (_exponent_out_of_band, "space.exponent"),
        (_infinite_start, "bundle.start"),
        (_nan_reference, "bundle.reference_solution"),
        (_infinite_r, "config.r"),
        (_weight_product_below_floor, "bundle.combination_weights"),
        (_negative_seed, "scenario.seed"),
        (_bool_seed, "scenario.seed"),
        (_fractional_seed, "scenario.seed"),
        (_zero_outer_tol, "config.outer_tol"),
        (_negative_resolvent_tol, "config.resolvent_tol"),
        (_zero_min_r, "config.min_r"),
        (_zero_audit_samples, "config.audit_samples"),
        (_zero_cut_cap, "config.cut_cap"),
        (_negative_max_outer, "config.max_outer"),
        (_fractional_max_outer, "config.max_outer"),
        (_zero_r, "config.r"),
        (_misspelled_mode, "config.mode"),
    ]

    @pytest.mark.parametrize("mutate, path", CASES)
    def test_load_names_the_field(self, mutate, path):
        doc = json.loads(json.dumps(TINY))
        mutate(doc)
        with pytest.raises(ScenarioValidationError) as err:
            load_scenario(doc)
        assert str(err.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("mutate, path", CASES)
    def test_cli_exits_one_with_error_line(self, tmp_path, capsys, mutate, path):
        doc = json.loads(json.dumps(TINY))
        mutate(doc)
        scenario = tmp_path / "bad.json"
        scenario.write_text(json.dumps(doc))
        assert cli_main(["solve", "--scenario", str(scenario)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("command", ["solve", "verify"])
    def test_negative_seed_override_exits_one_with_error_line(self, capsys, command):
        # hilbert_family draws its start from the seed while it loads
        assert cli_main([command, "--scenario", "hilbert_family", "--seed", "-1"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: scenario.seed: seed must be a nonnegative integer, got -1\n"
        assert captured.out == ""


def _with_relax_weight(doc, value):
    doc["bundle"]["operators"][0]["relax_weight"] = value


def _with_weights(doc, value):
    doc["bundle"]["combination_weights"] = value


def _with_start(doc, value):
    doc["bundle"]["start"] = value


def _with_r(doc, value):
    doc["config"]["r"] = value


def _relax_weight_owner(bundle, value):
    RelaxedFamily(ShiftMap(bundle.space), lambda n: value).weight_at(1)


def _weights_owner(bundle, value):
    OperatorFamily(bundle.family.members, lambda n: value).weights_at(1)


def _start_owner(bundle, value):
    dataclasses.replace(bundle, anchor=PrimalPoint(value, bundle.space))


def _r_owner(bundle, value):
    SolverConfig(r_schedule=value).r_at(1)


def _with_seed(doc, value):
    doc["seed"] = value


def _seed_owner(bundle, value):
    SolverConfig(seed=value)


def _with_config(key):
    def mutate(doc, value):
        doc["config"][key] = value

    return mutate


def _config_owner(key):
    def owner(bundle, value):
        SolverConfig(**{key: value})

    return owner


class TestRulesCheckedByTheirOwners:
    """At each rule's boundary, load_scenario accepts and rejects what the
    library object that owns the rule accepts and rejects."""

    CASES = [
        (_with_relax_weight, _relax_weight_owner, 0.5, True),
        (_with_relax_weight, _relax_weight_owner, float(np.nextafter(0.5, 1.0)), False),
        (_with_weights, _weights_owner, [0.5, 0.5 + 5e-13], True),  # 5e-13 off the simplex
        (_with_weights, _weights_owner, [0.5, 0.5 + 2e-12], False),
        (_with_weights, _weights_owner, [1.000002e-6, 1.0 - 1.000002e-6], True),
        (_with_weights, _weights_owner, [1e-6, 1.0 - 1e-6], False),  # product just under 1e-6
        (_with_start, _start_owner, [1.0 + 5e-10, 0.0], True),  # Omega is the unit ball
        (_with_start, _start_owner, [1.0 + 2e-9, 0.0], False),
        (_with_r, _r_owner, 1e-3, True),  # the default min_r
        (_with_r, _r_owner, float(np.nextafter(1e-3, 0.0)), False),
        (_with_seed, _seed_owner, 0, True),
        (_with_seed, _seed_owner, 10**23, True),
        (_with_seed, _seed_owner, -1, False),
        (_with_seed, _seed_owner, True, False),  # a bool is not a seed
        (_with_seed, _seed_owner, 7.0, False),
        *(
            (_with_config(key), _config_owner(key), value, value > 0)
            for key in ("outer_tol", "resolvent_tol", "min_r")
            for value in (5e-324, 0.0, -1e-6)
        ),
        *(
            (_with_config(key), _config_owner(key), value, value >= floor)
            for key, floor in (("audit_samples", 1), ("cut_cap", 1), ("max_outer", 0))
            for value in (floor, floor - 1)
        ),
        # r_at's floor is r's one rule: no sign check of the schema's runs first
        (_with_r, _r_owner, 5e-324, False),
        (_with_r, _r_owner, 0.0, False),
        (_with_r, _r_owner, -1.0, False),
    ]

    @pytest.mark.parametrize("mutate, owner, value, accepted", CASES)
    def test_load_agrees_with_the_owner(self, mutate, owner, value, accepted):
        doc = json.loads(json.dumps(TINY))
        mutate(doc, value)
        try:
            load_scenario(doc)
            loaded = True
        except ScenarioValidationError:
            loaded = False
        bundle = load_scenario(dict(TINY)).problem
        try:
            owner(bundle, value)
            owned = True
        except ValueError:
            owned = False
        assert loaded == owned == accepted


class TestModeKey:
    """config.mode is spell-checked and then dropped: one loop runs every
    exponent, and the space decides."""

    @staticmethod
    def _solve(tmp_path, label, mode):
        doc = json.loads(json.dumps(BUILTIN_SCENARIOS["lp_shift_example"]))  # p = 3
        doc["config"]["max_outer"] = 5
        if mode is None:
            del doc["config"]["mode"]
        else:
            doc["config"]["mode"] = mode
        scenario = tmp_path / f"{label}.json"
        scenario.write_text(json.dumps(doc))
        code = cli_main(["solve", "--scenario", str(scenario), "--out", str(tmp_path / label)])
        return code, (tmp_path / label / "lp_shift_example_iterations.csv").read_bytes()

    @pytest.mark.parametrize("mode", ["hilbert", None])
    def test_p3_document_runs_as_it_does_with_banach(self, tmp_path, capsys, mode):
        banach = self._solve(tmp_path, "banach", "banach")
        assert banach[0] == 3 and banach[1].count(b"\n") == 6  # header and 5 capped rows
        assert self._solve(tmp_path, "other", mode) == banach
        assert capsys.readouterr().err == ""

    def test_cli_has_no_mode_option(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli_main(["solve", "--scenario", "lp_shift_example", "--mode", "banach"])
        assert err.value.code == 2
        assert "unrecognized arguments: --mode banach" in capsys.readouterr().err


class TestRunScenario:
    def test_spec_builds_and_checks_its_config_once(self, monkeypatch):
        import hybrideq.harness as harness_module

        real, specs = harness_module.build_config, []

        def counted(spec):
            specs.append(spec)
            return real(spec)

        monkeypatch.setattr(harness_module, "build_config", counted)
        spec = load_scenario(dict(TINY))
        run_scenario(spec)
        run_scenario(spec)
        assert specs == [spec]

    def test_anchor_at_solution_converges_immediately(self):
        report = run_scenario(load_scenario(dict(TINY)))
        assert report.outcome == "converged"
        assert report.iterations == 1
        assert report.audits_passed
        assert report.final_norm <= 1e-9

    def test_zero_max_outer_reports_cap(self):
        doc = json.loads(json.dumps(TINY))
        doc["config"]["max_outer"] = 0
        report = run_scenario(load_scenario(doc))
        assert report.outcome == "iteration_cap"
        assert report.iterations == 0
        np.testing.assert_allclose(report.final_point, [0.0, 0.0])

    def test_report_round_trips_through_json(self):
        report = run_scenario(load_scenario(dict(TINY)))
        doc = json.loads(json.dumps(report.to_dict()))
        assert RunReport.from_dict(doc) == report

    def test_report_dicts_copy_the_audits(self):
        report = run_scenario(load_scenario(dict(TINY)))
        doc = report.to_dict()
        loaded = RunReport.from_dict(doc)
        for audit in doc["audits"].values():
            audit["passed"] = None
        assert report.audits and all(a["passed"] is True for a in report.audits.values())
        assert loaded == report

    def test_wide_shift_problem_runs_its_budget(self):
        # the d = 128 shift problem at scenario seed 4 once stopped at
        # iteration 1, its projected-gradient retraction capped
        d = 128
        doc = json.loads(json.dumps(BUILTIN_SCENARIOS["lp_shift_example"]))
        doc["space"]["dimension"] = d
        doc["bundle"]["reference_solution"] = [0.0] * d
        doc["config"]["max_outer"] = 10
        doc["seed"] = 4
        report = run_scenario(load_scenario(doc))
        assert report.outcome == "iteration_cap", report.error
        assert report.iterations == 10
        assert report.audits_passed

    def test_deterministic_rows(self):
        doc = json.loads(json.dumps(BUILTIN_SCENARIOS["optimization_app"]))
        doc["config"]["max_outer"] = 6
        a = run_scenario(load_scenario(doc))
        b = run_scenario(load_scenario(doc))
        assert a.rows == b.rows  # bit-identical numeric trace


class TestEmitReport:
    def _report(self, max_outer=4):
        doc = json.loads(json.dumps(BUILTIN_SCENARIOS["optimization_app"]))
        doc["config"]["max_outer"] = max_outer
        return run_scenario(load_scenario(doc))

    def test_csv_shape_and_format(self, tmp_path):
        report = self._report()
        csv_path, json_path = emit_report(report, tmp_path)
        text = csv_path.read_text()
        lines = text.split("\n")
        assert lines[0] == (
            "n,x_norm,phi_anchor,gap_xu,resolvent_gap,"
            "retraction_residual,fejer_slack,cut_count"
        )
        assert len([l for l in lines[1:] if l]) == report.iterations
        assert "\r" not in text  # LF endings only
        # numeric fields carry 17 significant digits
        field = lines[1].split(",")[1]
        assert len(field.replace(".", "").replace("-", "").lstrip("0")) >= 16

    def test_csv_bit_identical_across_runs(self, tmp_path):
        a = emit_report(self._report(), tmp_path / "a")[0].read_text()
        b = emit_report(self._report(), tmp_path / "b")[0].read_text()
        assert a == b

    def test_summary_json_mirrors_report(self, tmp_path):
        report = self._report()
        _, json_path = emit_report(report, tmp_path)
        loaded = RunReport.from_dict(json.loads(json_path.read_text()))
        assert loaded == report

    def test_missing_reference_writes_nan(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["bundle"]["reference_solution"] = None
        doc["bundle"]["start"] = [0.3, 0.1]
        doc["config"]["max_outer"] = 2
        report = run_scenario(load_scenario(doc))
        csv_path, _ = emit_report(report, tmp_path)
        row = csv_path.read_text().split("\n")[1].split(",")
        assert row[6] == "nan"

    def test_rerun_after_another_scenario_is_bit_identical(self, tmp_path):
        # the retraction's warm start is carried inside one run only, so a
        # run between two identical ones cannot change the second
        first = emit_report(run_scenario(load_scenario("hilbert_family")), tmp_path / "a")
        run_scenario(load_scenario("optimization_app"))
        second = emit_report(run_scenario(load_scenario("hilbert_family")), tmp_path / "b")
        assert first[0].read_bytes() == second[0].read_bytes()


def _workload_documents():
    """The benchmark's four workload documents at its default seed 7."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {name: w.instance(7, 0).doc for name, w in module.WORKLOADS.items()}


class TestCappedGapStarts:
    def test_shift_example_at_r_0_3_records_capped_starts(self, tmp_path):
        # the nonzero resolvent branch: a few gap searches end at their
        # 300-iteration cap with rows still moving
        doc = load_scenario("lp_shift_example").to_dict()
        doc["config"]["r"] = 0.3
        report = run_scenario(load_scenario(doc))
        assert report.outcome == "converged" and report.capped_starts > 0
        csv_path, json_path = emit_report(report, tmp_path)
        assert json.loads(json_path.read_text())["capped_starts"] == report.capped_starts
        assert "capped" not in csv_path.read_text()

    def test_a_failed_run_reports_the_capped_starts_before_it(self, monkeypatch, tmp_path):
        # the first retraction after a capped gap search fails
        import hybrideq.solver as solver_module

        real_resolve = solver_module.solve_resolvent_certified
        real_retract = solver_module.sunny_retract
        counts = []

        def counting(*args, **kwargs):
            found = real_resolve(*args, **kwargs)
            counts.append(found[2])
            return found

        def failing_once_capped(*args, **kwargs):
            if sum(counts):
                raise NonConvergedError("stopped after a capped gap search")
            return real_retract(*args, **kwargs)

        monkeypatch.setattr(solver_module, "solve_resolvent_certified", counting)
        monkeypatch.setattr(solver_module, "sunny_retract", failing_once_capped)
        doc = load_scenario("lp_shift_example").to_dict()
        doc["config"]["r"] = 0.3
        report = run_scenario(load_scenario(doc))
        assert report.outcome == "non_converged" and report.failed_iteration == len(counts)
        assert report.capped_starts == sum(counts) > 0
        _, json_path = emit_report(report, tmp_path)
        assert json.loads(json_path.read_text())["capped_starts"] == report.capped_starts

    @pytest.mark.parametrize("name, doc", sorted(_workload_documents().items()))
    def test_workload_documents_record_none(self, name, doc):
        report = run_scenario(load_scenario(doc))
        assert report.audits_passed and report.capped_starts == 0


class TestCLI:
    def test_list_scenarios(self, capsys):
        assert cli_main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in BUILTIN_SCENARIOS:
            assert name in out

    def test_solve_writes_outputs_and_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        code = cli_main(["solve", "--scenario", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "tiny_iterations.csv").exists()
        assert (tmp_path / "out" / "tiny_summary.json").exists()

    def test_solve_iteration_cap_exits_three(self, tmp_path):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        code = cli_main(["solve", "--scenario", str(path), "--max-iter", "0"])
        assert code == 3

    def test_unknown_scenario_exits_one(self, capsys):
        assert cli_main(["solve", "--scenario", "/no/such/file.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_invalid_document_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        doc = dict(TINY)
        doc["bogus"] = True
        path.write_text(json.dumps(doc))
        assert cli_main(["solve", "--scenario", str(path)]) == 1

    def test_a_document_that_is_not_an_object_exits_one(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli_main(["solve", "--scenario", str(path)]) == 1
        assert "scenario: expected an object, got list" in capsys.readouterr().err

    def test_verify_passes_on_trivial_run(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        assert cli_main(["verify", "--scenario", str(path)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_solve_builds_the_bundle_once(self, tmp_path, monkeypatch):
        import hybrideq.harness as harness_module

        real = harness_module.build_bundle
        calls = []

        def counted(spec):
            calls.append(spec.name)
            return real(spec)

        monkeypatch.setattr(harness_module, "build_bundle", counted)
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        assert cli_main(["solve", "--scenario", str(path), "--max-iter", "2", "--seed", "5"]) == 0
        assert calls == ["tiny"]

    def test_seed_override_changes_start(self, tmp_path):
        doc = json.loads(json.dumps(TINY))
        doc["bundle"]["start"] = "random_feasible"
        spec_a = load_scenario(doc)
        doc_b = json.loads(json.dumps(doc))
        doc_b["seed"] = 99
        spec_b = load_scenario(doc_b)
        a = build_bundle(spec_a).anchor.coords
        b = build_bundle(spec_b).anchor.coords
        assert not np.allclose(a, b)


class TestFailureReporting:
    def test_non_convergence_becomes_failed_report(self):
        doc = json.loads(json.dumps(BUILTIN_SCENARIOS["lp_shift_example"]))
        doc["config"]["cut_cap"] = 2
        report = run_scenario(load_scenario(doc))
        assert report.outcome == "non_converged"
        assert report.error is not None
        assert not report.audits_passed

    def test_exit_code_mapping(self):
        from hybrideq.cli import _report_exit_code

        base = run_scenario(load_scenario(dict(TINY)))
        assert _report_exit_code(base) == 0
        import dataclasses

        audit_fail = dataclasses.replace(base, audits_passed=False)
        assert _report_exit_code(audit_fail) == 2
        capped = dataclasses.replace(base, outcome="iteration_cap")
        assert _report_exit_code(capped) == 3

    @staticmethod
    def _empty_primal_set(monkeypatch):
        """Each projection of the retraction first gains a cut that misses the ball."""
        import hybrideq.retraction as retraction_module
        from hybrideq.sets import Halfspace, add_cut

        real = retraction_module.project_intersection

        def onto_empty_set(cset, v, **kwargs):
            beyond = Halfspace(np.ones(v.shape[0]), -10.0, cset.frame)
            return real(add_cut(cset, beyond), v, **kwargs)

        monkeypatch.setattr(retraction_module, "project_intersection", onto_empty_set)

    @staticmethod
    def _infeasible_iterate(monkeypatch):
        """Each projection of the retraction returns a point far outside the set."""
        import hybrideq.retraction as retraction_module

        def far_point(cset, v, **kwargs):
            return v + 10.0, ()

        monkeypatch.setattr(retraction_module, "project_intersection", far_point)

    @pytest.mark.parametrize(
        "fault, outcome, exit_code",
        [("_empty_primal_set", "infeasible", 3), ("_infeasible_iterate", "audit_error", 2)],
    )
    def test_solver_faults_become_outcomes(
        self, monkeypatch, tmp_path, capsys, fault, outcome, exit_code
    ):
        getattr(self, fault)(monkeypatch)
        report = run_scenario(load_scenario(dict(TINY)))
        assert report.outcome == outcome
        assert report.failed_iteration == 1
        assert report.error.startswith("iteration 1: ")
        assert not report.audits_passed

        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(TINY))
        out_dir = tmp_path / "out"
        capsys.readouterr()
        assert cli_main(["solve", "--scenario", str(path), "--out", str(out_dir)]) == exit_code
        printed = json.loads(capsys.readouterr().out)
        assert (printed["outcome"], printed["failed_iteration"]) == (outcome, 1)
        summary = json.loads((out_dir / "tiny_summary.json").read_text())
        assert (summary["outcome"], summary["failed_iteration"]) == (outcome, 1)
        assert cli_main(["verify", "--scenario", str(path)]) == exit_code


class TestDependencies:
    def test_optimization_app_runs_without_scipy(self):
        # the package depends on numpy alone; a stray scipy import would
        # also add tens of MB to every run's resident set
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        script = (
            "import sys\n"
            "from hybrideq.cli import main\n"
            "code = main(['solve', '--scenario', 'optimization_app'])\n"
            "print(code, 'scipy' in sys.modules)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=300
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "0 False"
