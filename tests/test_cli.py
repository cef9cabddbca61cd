import json
import subprocess
import sys
from pathlib import Path

import pytest

from ocfem import harness
from ocfem.assembly import AssembledNlp
from ocfem.harness import build_setup, cli_main, get_benchmark
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
        code = cli_main(["study", "--problem", "lq", "--d", "2", "--h-list", "0.3,0.31,0.32"])
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
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps(
                {
                    "problem": "trivial",
                    "d": 3,
                    "breakpoints": [[0.0, 0.5, 1.0], [0.0, 0.25, 0.5, 1.0]],
                }
            ),
            encoding="utf-8",
        )
        assert cli_main(["solve", "--config", str(config)]) == 0
        assert "status: converged" in capsys.readouterr().out

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

    @pytest.mark.parametrize("name", ["eval_operator", "point_operator"])
    def test_sparsity_matches_golden(self, name, capsys, tmp_path):
        # recorded from ``ocfem sparsity --problem lq-multimesh --h 0.5 --d 2
        # --out D``; the set-up's operators must stay byte-identical (the
        # Hessian's values go through a BLAS product, so it has no golden)
        golden = Path(__file__).parent / "data" / f"sparsity_lq-multimesh_h0.5_d2_{name}.coo"
        out = tmp_path / "spy"
        args = ["sparsity", "--problem", "lq-multimesh", "--h", "0.5", "--d", "2"]
        assert cli_main([*args, "--out", str(out)]) == 0
        assert (out / f"{name}.coo").read_bytes() == golden.read_bytes()

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


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "ocfem", "norm-check", "--d-max", "2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("d,computed,expected,error")
