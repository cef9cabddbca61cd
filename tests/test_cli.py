import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ocfem import harness
from ocfem.assembly import AssembledNlp
from ocfem.harness import build_setup, cli_main, get_benchmark
from ocfem.ocp_model import DerivativeReport
from ocfem.solver import default_start


class TestNormCheck:
    def test_csv_to_stdout(self, capsys):
        assert cli_main(["norm-check", "--d-max", "5"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "d,computed,expected,error"
        assert len(lines) == 7

    def test_csv_file(self, capsys, tmp_path):
        out = tmp_path / "norm"
        assert cli_main(["norm-check", "--d-max", "3", "--out", str(out)]) == 0
        file_text = (out / "norm_check.csv").read_text(encoding="utf-8")
        assert file_text == capsys.readouterr().out


class TestSolve:
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--h", "nan"], "invalid mesh size"),
            (["--h", "inf"], "invalid mesh size"),
            (["--h", "0.25", "--grad-tol", "nan"], "grad_tol"),
            (["--h", "0.25", "--grad-tol", "inf"], "grad_tol"),
        ],
    )
    def test_non_finite_value_is_usage_error(self, flags, message, capsys):
        code = cli_main(["solve", "--problem", "lq", "--d", "4", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, preempted",
        [
            (["solve", "--d", "4", "--h", "1e200"], "penalty parameter omega inf"),
            (["solve", "--d", "2", "--h", "1e200"], "barrier parameter tau inf"),
            (["study", "--d", "4", "--h-list", "1e200,1e100,1e50"], "penalty parameter omega inf"),
            (["export-nlp", "--d", "4", "--h", "1e200"], "penalty parameter omega inf"),
            (["sparsity", "--d", "4", "--h", "1e200"], "penalty parameter omega inf"),
        ],
    )
    def test_overflowing_default_weights_are_usage_errors(self, args, preempted, capsys):
        # omega = h^(d/2) would overflow at d = 4, and at d = 2 only tau = h^d would, but
        # h = 1e200 splits no domain into whole intervals and is rejected before either
        code = cli_main([*args, "--problem", "lq"])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: mesh size h = 1e+200 does not split the domain (0.0, 1.0)" in err
        assert preempted not in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", "--h", "0.4"], "h = 0.4 does not split the domain (0.0, 1.0) into whole "
             "intervals; the nearest is n = 2, h = 0.5"),
            (["study", "--h-list", "0.3,0.2,0.1"], "h = 0.3 does not split the domain (0.0, 1.0) "
             "into whole intervals; the nearest is n = 3, h = 0.3333333333333333"),
            (["solve", "--h", "5e-324"], "h = 5e-324 splits the domain (0.0, 1.0) into more "
             "intervals than a float can count"),
            (["solve", "--h", "1e-300"], "h = 1e-300 splits the domain (0.0, 1.0) into more "
             "intervals than an index array can hold"),
            (["study", "--h-list", "1e-300,0.5,0.25"], "h = 1e-300 splits the domain (0.0, 1.0) "
             "into more intervals than an index array can hold"),
        ],
        ids=["solve", "study", "subnormal", "huge", "huge-study"],
    )
    def test_h_of_no_whole_interval_count_is_usage_error(self, args, message, capsys):
        code = cli_main([*args, "--problem", "lq", "--d", "2"])
        assert code == 2
        captured = capsys.readouterr()
        assert f"error: mesh size {message}" in captured.err
        assert captured.out == ""

    def test_trivial_reports_residual(self, capsys):
        code = cli_main(["solve", "--problem", "trivial", "--h", "0.25", "--d", "4"])
        out = capsys.readouterr().out
        assert code == 0
        residual_line = next(l for l in out.split("\n") if l.startswith("residual:"))
        assert float(residual_line.split(":")[1]) <= 1e-8
        assert "status: converged" in out

    def test_report_written(self, capsys, tmp_path):
        out = tmp_path / "run"
        code = cli_main(
            ["solve", "--problem", "trivial", "--h", "0.5", "--d", "3", "--out", str(out)]
        )
        assert code == 0
        payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert payload["status"] == "converged"
        assert payload["problem"] == "trivial"
        assert len(payload["coefficients"]) == payload["N"]

    def test_solver_failure_exit_code(self, capsys):
        code = cli_main(
            [
                "solve", "--problem", "lq", "--h", "0.25", "--d", "4",
                "--max-iters", "1", "--grad-tol", "1e-14",
            ]
        )
        assert code == 1
        assert "status: max_iters" in capsys.readouterr().out

    def test_rounding_floor_exit_code(self, capsys):
        code = cli_main(["solve", "--problem", "lq", "--h", "0.0625", "--d", "10"])
        assert code == 1
        assert "status: rounding_floor" in capsys.readouterr().out

    def test_floor_mid_schedule_exit_code(self, capsys):
        # stage 3 floors and hands its iterate on; the solve still fails
        code = cli_main(["solve", "--problem", "lq", "--h", "0.015625", "--d", "8"])
        assert code == 1
        out = capsys.readouterr().out
        assert "status: rounding_floor" in out
        assert "stage statuses: converged, converged, rounding_floor, rounding_floor" in out


class TestStudy:
    def test_full_run(self, capsys, tmp_path):
        out = tmp_path / "study"
        code = cli_main(
            [
                "study", "--problem", "lq", "--d", "4",
                "--h-list", "0.5,0.25,0.125", "--out", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "order objective_gap:" in stdout
        assert (out / "study.csv").exists()
        assert (out / "study.json").exists()

    def test_single_h_is_usage_error(self, capsys):
        code = cli_main(["study", "--problem", "lq", "--d", "4", "--h-list", "0.25"])
        assert code == 2
        assert "insufficient points" in capsys.readouterr().err

    def test_repeated_h_is_usage_error(self, capsys):
        code = cli_main(["study", "--problem", "lq", "--d", "2", "--h-list", "0.25,0.25,0.25"])
        assert code == 2
        assert "insufficient points" in capsys.readouterr().err

    def test_coincident_meshes_are_usage_error(self, capsys):
        code = cli_main(["study", "--problem", "lq", "--d", "2", "--h-list", "0.25,0.250000000001,0.250000000002"])
        assert code == 2
        captured = capsys.readouterr()
        assert "insufficient points for order fit" in captured.err
        assert captured.out == ""

    def test_bad_h_is_usage_error_before_any_solve(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "solve", lambda *args: calls.append(args))
        code = cli_main(["study", "--problem", "lq", "--d", "2", "--h-list", "0.0625,0.03125,-0.1"])
        assert code == 2
        assert "invalid mesh size -0.1" in capsys.readouterr().err
        assert calls == []

    def test_bad_h_list(self, capsys):
        code = cli_main(["study", "--problem", "lq", "--d", "4", "--h-list", "a,b"])
        assert code == 2


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert cli_main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert cli_main(["solve", "--problem", "trivial"]) == 2
        assert "missing required" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli_main(["--help"]) == 0

    @pytest.mark.parametrize(
        "flags",
        [["solve", "--h", "1e-18"], ["study", "--h-list", "1e-18,0.5,0.25"]],
        ids=["solve", "study"],
    )
    def test_set_up_that_cannot_allocate_is_usage_error(self, flags, capsys):
        # 1e18 mesh points need 8e18 bytes, beyond any address space: it fails at once
        code = cli_main([flags[0], "--problem", "lq", "--d", "2", *flags[1:]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Unable to allocate")
        assert "Traceback" not in captured.err and captured.out == ""

    def test_degree_out_of_range_named_before_continuity(self, capsys):
        # lq has a differential component, which degree 0 cannot hold; -1 is no degree at all
        code = cli_main(["solve", "--problem", "lq", "--h", "0.25", "--d", "-1"])
        assert code == 2
        assert capsys.readouterr().err == "error: unsupported degree -1: need 0..30\n"

    def test_sigma_flag_rejected(self, capsys):
        code = cli_main(
            ["solve", "--problem", "trivial", "--h", "0.5", "--d", "3", "--sigma", "0.5"]
        )
        assert code == 2
        assert "--sigma" in capsys.readouterr().err

    def test_out_rejected_where_nothing_is_written(self, capsys, tmp_path):
        out = tmp_path / "cd"
        assert cli_main(["check-derivatives", "--problem", "lq", "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_problem(self, capsys):
        code = cli_main(["check-derivatives", "--problem", "nope"])
        assert code == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestPathErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--problem", "trivial", "--h", "0.5", "--d", "3", "--out", "{file}/x"],
            ["norm-check", "--d-max", "2", "--out", "{file}"],
            ["solve", "--config", "{dir}"],
        ],
        ids=["out-below-a-file", "out-is-a-file", "config-is-a-directory"],
    )
    def test_unusable_path_is_usage_error(self, args, capsys, tmp_path):
        existing = tmp_path / "file.txt"
        existing.write_text("", encoding="utf-8")
        args = [a.format(file=existing, dir=tmp_path) for a in args]
        assert cli_main(args) == 2
        assert capsys.readouterr().err.startswith("error: ")


    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--problem", "lq", "--h", "0.25", "--d", "2", "--out", "{file}/x"],
            ["study", "--problem", "lq", "--d", "2", "--h-list", "0.5,0.25,0.125", "--out", "{file}/x"],
        ],
        ids=["solve", "study"],
    )
    def test_unusable_out_fails_before_solving(self, args, capsys, tmp_path, monkeypatch):
        existing = tmp_path / "file.txt"
        existing.write_text("", encoding="utf-8")
        monkeypatch.setattr(harness, "solve", lambda *a, **k: pytest.fail("solved before --out"))
        assert cli_main([a.format(file=existing) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_empty_out_flag_rejected(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli_main(["norm-check", "--d-max", "2", "--out", ""]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: --out: invalid value ''\n")
        assert list(tmp_path.iterdir()) == []

    def test_empty_out_in_config_rejected(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"out": ""}), encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert cli_main(["norm-check", "--d-max", "2", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: config key out: invalid value ''\n")
        assert list(tmp_path.iterdir()) == [config]


class TestJsonKeys:
    """The key sets of report.json and study.json, which are derived from the
    report dataclasses and must not gain or lose a key unnoticed; the
    per-stage objective histories stay out."""

    REPORT = {"grad_norm", "iterations", "min_z", "residual", "stages", "status", "terms"}
    STAGE = {"grad_norm", "iterations", "objective", "omega", "residual", "status", "tau"}
    TERMS = {"barrier", "f", "penalty", "quad_norm", "total"}
    ROW = {
        "h", "d", "omega", "tau", "N", "M", "iterations",
        "objective_gap", "residual", "x_error", "status", "wall_time",
    }

    def check_stages_and_terms(self, report):
        assert report["stages"]
        for stage in report["stages"]:
            assert set(stage) == self.STAGE
        assert set(report["terms"]) == self.TERMS

    def test_report_json(self, capsys, tmp_path):
        args = ["solve", "--problem", "trivial", "--h", "0.5", "--d", "3", "--out", str(tmp_path)]
        assert cli_main(args) == 0
        payload = json.loads((tmp_path / "report.json").read_text(encoding="utf-8"))
        run = {"M", "N", "coefficients", "d", "h", "omega", "problem", "tau"}
        assert set(payload) == self.REPORT | run
        self.check_stages_and_terms(payload)

    def test_study_json(self, capsys, tmp_path):
        args = ["study", "--problem", "trivial", "--d", "3", "--h-list", "0.5,0.25,0.125"]
        assert cli_main([*args, "--out", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "study.json").read_text(encoding="utf-8"))
        assert set(payload) == {"failed", "notes", "orders", "reports", "rows"}
        assert [set(row) for row in payload["rows"]] == [self.ROW] * 3
        assert len(payload["reports"]) == 3
        for report in payload["reports"]:
            assert set(report) == self.REPORT
            self.check_stages_and_terms(report)


class TestConfig:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"problem": "trivial", "h": 0.5, "d": 3}), encoding="utf-8"
        )
        assert cli_main(["solve", "--config", str(config)]) == 0

    def test_flags_win_over_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"problem": "trivial", "h": 0.5, "d": 3}), encoding="utf-8"
        )
        assert cli_main(["solve", "--config", str(config), "--d", "2"]) == 0
        assert "d: 2" in capsys.readouterr().out

    def test_breakpoints_from_config(self, capsys, tmp_path):
        # lq's three meshes differ: the merge, the rule lookup and sigma see them all
        config = tmp_path / "run.json"
        for payload in (
            {"problem": "trivial", "d": 3, "breakpoints": [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0]]},
            {"problem": "lq", "d": 3, "breakpoints": [[0, 0.3, 1], [0, 0.1, 0.55, 1], [0, 0.3, 0.7, 1]]},
        ):
            config.write_text(json.dumps(payload), encoding="utf-8")
            assert cli_main(["solve", "--config", str(config)]) == 0, payload
            assert "status: converged" in capsys.readouterr().out.splitlines()

    def test_one_config_serves_solve_and_study(self, capsys, tmp_path):
        # each subcommand reads the keys it takes and passes over the others' keys
        config = tmp_path / "run.json"
        payload = {"problem": "lq", "h": 0.25, "d": 2, "h_list": [0.5, 0.25, 0.125]}
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(["solve", "--config", str(config)]) == 0
        out = tmp_path / "study"
        assert cli_main(["study", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "study.csv").stat().st_size > 0

    def test_null_value_means_unset(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        payload = {"problem": "trivial", "h": None, "d": 3, "max_iters": None}
        config.write_text(json.dumps(payload), encoding="utf-8")
        assert cli_main(["solve", "--config", str(config), "--h", "0.5"]) == 0
        assert "h: 0.5  d: 3" in capsys.readouterr().out

    def test_config_must_be_an_object(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text("[1, 2]", encoding="utf-8")
        assert cli_main(["solve", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: config file must hold a JSON object\n"

    def test_key_set_twice_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text('{"problem": "trivial", "h": 0.5, "d": 2, "d": 3}', encoding="utf-8")
        assert cli_main(["solve", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: config key d is set twice\n"

    def test_key_set_twice_in_both_spellings_rejected(self, capsys, tmp_path):
        # the two spellings name one key; neither value may silently win
        config = tmp_path / "run.json"
        config.write_text(
            '{"problem": "trivial", "h": 0.5, "d": 3, "max-iters": 0, "max_iters": 50}',
            encoding="utf-8",
        )
        assert cli_main(["solve", "--config", str(config)]) == 2
        assert capsys.readouterr().err == "error: config key max_iters is set twice\n"

    def test_non_finite_breakpoints_rejected(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        for bad in (float("inf"), float("-inf"), float("nan")):
            breakpoints = [[0.0, 0.5, 1.0], [0.0, 0.5, bad]]
            config.write_text(
                json.dumps({"problem": "trivial", "d": 3, "breakpoints": breakpoints}),
                encoding="utf-8",
            )
            assert cli_main(["solve", "--config", str(config)]) == 2
            assert f"mesh endpoint {bad} is not finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, payload",
        [
            ("study", {"problem": "lq", "d": 2, "h_list": [0.5, 0.25, 0.125]}),
            ("norm-check", {"d_max": 2}),
            ("check-derivatives", {"problem": "lq", "samples": 2}),
        ],
    )
    def test_breakpoints_rejected_where_no_program_is_set_up(
        self, command, payload, capsys, tmp_path
    ):
        # the study solves its uniform h_list meshes, so given meshes would have no effect
        config = tmp_path / "run.json"
        breakpoints = [[0.0, 0.5, 1.0], [0.0, 0.25, 1.0], [0.0, 0.5, 1.0]]
        config.write_text(json.dumps(payload | {"breakpoints": breakpoints}), encoding="utf-8")
        assert cli_main([command, "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config key breakpoints: {command} takes no breakpoints\n"

    def test_study_h_list_from_config(self, capsys, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(
            json.dumps(
                {"problem": "trivial", "d": 3, "h_list": [0.5, 0.25, 0.125]}
            ),
            encoding="utf-8",
        )
        assert cli_main(["study", "--config", str(config)]) == 0
        assert "order residual: skipped" in capsys.readouterr().out

    def test_missing_config_file(self, capsys):
        assert cli_main(["solve", "--config", "/nonexistent.json"]) == 2

    def test_invalid_json(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("{not json", encoding="utf-8")
        assert cli_main(["solve", "--config", str(config)]) == 2

    def test_unknown_keys_rejected(self, capsys, tmp_path):
        for key in ("sigma", "max_iter"):
            config = tmp_path / f"{key}.json"
            config.write_text(
                json.dumps({"problem": "trivial", "h": 0.5, "d": 3, key: 1}),
                encoding="utf-8",
            )
            assert cli_main(["solve", "--config", str(config)]) == 2
            assert f"unknown config key(s): {key}" in capsys.readouterr().err

    def test_wrong_value_types_rejected(self, capsys, tmp_path):
        cases = [
            ("study", {"problem": "lq", "d": 4, "h_list": 0.5}),
            ("study", {"problem": "lq", "d": 4, "h_list": [[0.5, 0.25], 0.125]}),
            ("solve", {"problem": "trivial", "h": 0.5, "d": 3, "max_iters": [1]}),
            ("solve", {"problem": "trivial", "h": 0.5, "d": "four"}),
            ("solve", {"problem": "trivial", "d": 3, "breakpoints": [[0.0, 1.0], 5]}),
        ]
        for i, (command, payload) in enumerate(cases):
            config = tmp_path / f"case{i}.json"
            config.write_text(json.dumps(payload), encoding="utf-8")
            assert cli_main([command, "--config", str(config)]) == 2, payload
            assert capsys.readouterr().err.startswith("error: ")

    def test_numeric_strings_parsed_like_flags(self, capsys, tmp_path):
        config = tmp_path / "study.json"
        config.write_text(
            json.dumps({"problem": "trivial", "d": "3", "h_list": "0.5,0.25,0.125"}),
            encoding="utf-8",
        )
        assert cli_main(["study", "--config", str(config)]) == 0


class TestExportAndSparsity:
    def test_export_file_matches_stdout(self, capsys, tmp_path):
        args = ["export-nlp", "--problem", "lq", "--h", "0.5", "--d", "3"]
        assert cli_main(args) == 0
        stdout = capsys.readouterr().out.encode("utf-8")
        out = tmp_path / "exp"
        assert cli_main(args + ["--out", str(out)]) == 0
        written = (out / "lifted_nlp.txt").read_bytes()
        assert written == stdout
        assert b"\r" not in written and written.endswith(b"\nend\n")

    @pytest.mark.parametrize(
        "problem, h, d",
        [("lq-multimesh", "0.5", "2"), ("barrier-pull", "0.5", "2"), ("lq", "0.25", "4")],
        ids=["lq-multimesh", "barrier-pull", "lq-h0.25-d4"],
    )
    def test_export_matches_golden(self, problem, h, d, capsys):
        # recorded from ``ocfem export-nlp --problem P --h H --d D``; the output
        # must stay byte-identical (barrier-pull has empty lambda and nu blocks;
        # at d=4 the middle Gauss point is a Lobatto node, whose zero basis
        # values stay in the pattern)
        golden = Path(__file__).parent / "data" / f"export_{problem}_h{h}_d{d}.txt"
        code = cli_main(["export-nlp", "--problem", problem, "--h", h, "--d", d])
        assert code == 0
        assert capsys.readouterr().out.encode("utf-8") == golden.read_bytes()

    def test_sparsity_files(self, capsys, tmp_path):
        out = tmp_path / "spy"
        code = cli_main(
            ["sparsity", "--problem", "lq", "--h", "0.5", "--d", "3", "--out", str(out)]
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "eval_operator.coo",
            "point_operator.coo",
            "regularizer.coo",
            "full_hessian.coo",
        }
        header = (out / "regularizer.coo").read_text(encoding="utf-8").split("\n")[0]
        _, name, n_rows, n_cols, nnz = header.split()
        assert name == "regularizer" and n_rows == n_cols

    @pytest.mark.parametrize(
        "problem, h, d, name",
        [
            ("lq-multimesh", "0.5", "2", "eval_operator"),
            ("lq-multimesh", "0.5", "2", "point_operator"),
            ("barrier-pull", "0.5", "3", "eval_operator"),
        ],
        ids=["eval_operator", "point_operator", "barrier-pull-eval_operator"],
    )
    def test_sparsity_matches_golden(self, problem, h, d, name, capsys, tmp_path):
        # recorded from ``ocfem sparsity --problem P --h H --d D --out DIR``; the
        # set-up's operators must stay byte-identical (the Hessian's values go
        # through a BLAS product, so it has no golden); barrier-pull's one
        # component is auxiliary, so its rows take basis values only
        golden = Path(__file__).parent / "data" / f"sparsity_{problem}_h{h}_d{d}_{name}.coo"
        out = tmp_path / "spy"
        args = ["sparsity", "--problem", problem, "--h", h, "--d", d]
        assert cli_main([*args, "--out", str(out)]) == 0
        assert (out / f"{name}.coo").read_bytes() == golden.read_bytes()

    @pytest.mark.parametrize("problem, h, d", [("lq", "0.25", "4"), ("lq-multimesh", "0.5", "2")])
    def test_full_hessian_pattern_matches_golden(self, problem, h, d, capsys, tmp_path):
        # the golden holds full_hessian.coo's header and (row, col) columns, values
        # stripped, as those go through a BLAS product; lq's pattern keeps the
        # y(t0)-y(tE) pair of its point square, although that entry is zero
        name = f"sparsity_{problem}_h{h}_d{d}_full_hessian_pattern.coo"
        golden = (Path(__file__).parent / "data" / name).read_text(encoding="utf-8")
        out = tmp_path / "spy"
        args = ["sparsity", "--problem", problem, "--h", h, "--d", d, "--out", str(out)]
        assert cli_main(args) == 0
        header, *lines = (out / "full_hessian.coo").read_text(encoding="utf-8").splitlines()
        pattern = [header] + [line.rsplit(" ", 1)[0] for line in lines]
        assert "\n".join(pattern) + "\n" == golden

    @pytest.mark.parametrize("problem", ["lq", "barrier-pull", "trivial"])
    def test_sparsity_stdout_is_the_files_in_order(self, problem, capsys, tmp_path):
        args = ["sparsity", "--problem", problem, "--h", "0.25", "--d", "2"]
        assert cli_main(args) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "spy"
        assert cli_main([*args, "--out", str(out)]) == 0
        names = ["eval_operator", "point_operator", "regularizer", "full_hessian"]
        assert stdout == "".join((out / f"{n}.coo").read_text(encoding="utf-8") for n in names)

    def test_sparsity_lines_are_numeric_triplets(self, capsys, tmp_path):
        out = tmp_path / "spy"
        args = ["--problem", "lq", "--h", "0.25", "--d", "4"]
        assert cli_main(["sparsity", *args, "--out", str(out)]) == 0
        bench = get_benchmark("lq")
        nlp = AssembledNlp(bench.problem, *build_setup(bench, 0.25, 4))
        matrices = {
            "eval_operator": nlp.eval_op,
            "point_operator": nlp.point_op,
            "regularizer": nlp.regularizer,
            "full_hessian": nlp.full_hessian(default_start(nlp)),
        }
        for name, matrix in matrices.items():
            header, *lines = (out / f"{name}.coo").read_text(encoding="utf-8").splitlines()
            assert header.split() == ["#", name, *map(str, matrix.shape), str(matrix.nnz)]
            dense = matrix.toarray()
            seen = set()
            for line in lines:
                r, c, v = line.split(" ")
                r, c = int(r), int(c)
                assert float(v) == dense[r, c]
                seen.add((r, c))
            coo = matrix.tocoo()
            assert seen == set(zip(coo.row.tolist(), coo.col.tolist()))


class TestCheckDerivatives:
    def test_reports_and_exits_zero(self, capsys):
        code = cli_main(["check-derivatives", "--problem", "lq", "--samples", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "f_gradient" in out and "b_hessian" in out

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_is_usage_error(self, samples, capsys):
        code = cli_main(["check-derivatives", "--problem", "lq", "--samples", samples])
        assert code == 2
        assert "n_samples" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        code = cli_main(["check-derivatives", "--problem", "lq", "--seed", "-1"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["lq", "lq-multimesh", "trivial", "barrier-pull"])
    def test_builtins_pass(self, name):
        assert cli_main(["check-derivatives", "--problem", name]) == 0

    @pytest.mark.parametrize("error", [2e-6, float("nan")])
    def test_error_above_bound_or_nan_exits_one(self, error, monkeypatch, capsys):
        def report(problem, *, n_samples, seed):
            return DerivativeReport(n_samples, {"f_gradient": 0.0, "f_hessian": error})

        monkeypatch.setattr(harness, "check_derivatives", report)
        assert cli_main(["check-derivatives", "--problem", "lq"]) == 1
        assert f"f_hessian: max relative error {error:.3e}" in capsys.readouterr().out


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ocfem", "norm-check", "--d-max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("d,computed,expected,error")


class TestClosedStdout:
    """A reader that leaves before the output ends, as ``ocfem study ... | head -1`` does,
    is no usage error: the exit is 1 and nothing is written to stderr."""

    class ClosedPipe:
        def __init__(self, fd):
            self.fd = fd

        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

        def fileno(self):
            return self.fd

    def test_in_process(self, monkeypatch, capsys, tmp_path):
        with open(tmp_path / "stdout", "w") as file:
            monkeypatch.setattr(sys, "stdout", self.ClosedPipe(file.fileno()))
            assert cli_main(["norm-check", "--d-max", "2"]) == 1
            # what is still buffered is flushed to devnull, not to the closed pipe
            assert os.path.samestat(os.fstat(file.fileno()), os.stat(os.devnull))
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "args",
        [["norm-check", "--d-max", "2"], ["solve", "--problem", "lq", "--h", "0.25", "--d", "2"]],
        ids=["norm-check", "solve"],
    )
    def test_pipe_closed_before_the_first_write(self, args):
        proc = subprocess.Popen(
            [sys.executable, "-m", "ocfem", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        proc.stdout.close()  # long before the child has imported numpy
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == b""  # no "error:" line, traceback or "Exception ignored" line
