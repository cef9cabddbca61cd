import csv
import json
from pathlib import Path

import numpy as np
import pytest

from ocfem import harness
from ocfem.assembly import AssembledNlp
from ocfem.harness import (
    ORDER_FIT_FLOOR,
    benchmark_names,
    build_setup,
    get_benchmark,
    run_study,
    study_csv,
    study_json,
)
from ocfem.mesh import merge_meshes
from ocfem.ocp_model import residual
from ocfem.quadrature import compose_rule, gauss_legendre_unit
from ocfem.solver import SolverOptions


class TestRegistry:
    def test_builtin_names(self):
        assert benchmark_names() == ["barrier-pull", "lq", "lq-multimesh", "trivial"]
        for name in benchmark_names():
            assert get_benchmark(name).name == name

    def test_registration_idempotent(self):
        assert get_benchmark("lq") is get_benchmark("lq")
        assert get_benchmark("lq-multimesh").problem is get_benchmark("lq").problem

    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            get_benchmark("nope")


@pytest.mark.parametrize("name", ["barrier-pull", "lq", "trivial"])
def test_constant_stacks_kept_per_point_count(name):
    """Constant Hessians and Jacobians are one read-only view per point count."""
    problem = get_benchmark(name).problem
    n_y, n_z = problem.n_y, problem.n_z
    callbacks = [problem.f_eval] + ([problem.c_eval] if problem.m else [])
    for M in (3, 7):
        args = (np.ones((M, n_y)), np.ones((M, n_y)), np.ones((M, n_z)), np.linspace(0, 1, M))
        for fn in callbacks:
            first, again = fn(*args), fn(*args)
            assert first[2].shape[0] == M and not first[2].flags.writeable
            assert again[2] is first[2]
    if problem.m:
        jac = problem.c_eval(*args)[1]
        assert jac is problem.c_eval(*args)[1] and not jac.flags.writeable


class TestLqReferences:
    def test_reference_solves_two_point_problem(self):
        # y'' = y with y(0) = 1 and dy(1) = 0, checked by finite differences
        analytic = get_benchmark("lq").analytic
        ts = np.linspace(0.02, 0.98, 33)
        step = 1e-4
        for t in ts:
            y = analytic.y(t)[0]
            ypp = (
                analytic.y(t + step)[0] - 2 * y + analytic.y(t - step)[0]
            ) / step**2
            assert ypp == pytest.approx(y, rel=1e-5)
        assert analytic.y(0.0)[0] == pytest.approx(1.0)
        du = (analytic.y(1.0)[0] - analytic.y(1.0 - step)[0]) / step
        assert du == pytest.approx(0.0, abs=1e-3)

    def test_cost_matches_quadrature_of_reference(self):
        analytic = get_benchmark("lq").analytic
        rule = compose_rule(
            merge_meshes([__import__("ocfem").uniform_mesh((0.0, 1.0), 8)]),
            gauss_legendre_unit(10),
        )
        def integrand(t):
            y = analytic.y(t)[0]
            z = analytic.z(t)
            return 0.5 * (y**2 + (z[0] - z[1]) ** 2)
        value = float(rule.weights @ np.array([integrand(t) for t in rule.points]))
        assert value == pytest.approx(analytic.cost, rel=1e-12)

    def test_interpolated_reference_nearly_feasible(self):
        bench = get_benchmark("lq")
        space, params = build_setup(bench, 1.0 / 16, 8)
        nlp = AssembledNlp(bench.problem, space, params)
        analytic = bench.analytic
        x = space.interpolate(
            [
                lambda t: analytic.y(t)[0],
                lambda t: analytic.z(t)[0],
                lambda t: analytic.z(t)[1],
            ]
        )
        assert residual(bench.problem, x, space, nlp.rule) <= 1e-8

    def test_trivial_reference_exactly_feasible(self):
        bench = get_benchmark("trivial")
        space, params = build_setup(bench, 1.0 / 16, 8)
        nlp = AssembledNlp(bench.problem, space, params)
        x = space.interpolate([lambda t: bench.analytic.y(t)[0], lambda t: 1.0])
        assert residual(bench.problem, x, space, nlp.rule) <= 1e-8


class TestBuildSetup:
    def test_uniform_default(self):
        bench = get_benchmark("lq")
        space, params = build_setup(bench, 0.25, 3)
        assert all(m.n_intervals == 4 for m in space.component_meshes)
        assert params.omega == pytest.approx(0.25**1.5)

    def test_multimesh_plan(self):
        bench = get_benchmark("lq-multimesh")
        space, params = build_setup(bench, 0.125, 4)
        counts = [m.n_intervals for m in space.component_meshes]
        assert counts == [4, 8, 8]
        assert params.h == 0.125

    def test_breakpoints_override(self):
        bench = get_benchmark("trivial")
        space, params = build_setup(
            bench,
            None,
            2,
            breakpoints=[[0.0, 0.25, 1.0], [0.0, 0.5, 1.0]],
        )
        assert space.component_meshes[0].lengths == pytest.approx([0.25, 0.75])
        assert params.h == 0.75  # largest interval

    def test_sigma_is_least_mesh_ratio(self):
        _, params = build_setup(get_benchmark("lq-multimesh"), 0.1, 2)
        assert 1.0 - 1e-12 < params.sigma <= 1.0
        stretched = [[0.0, 0.25, 1.0], [0.0, 0.5, 1.0], [0.0, 0.4, 1.0]]
        _, params = build_setup(get_benchmark("lq"), None, 2, stretched)
        assert params.sigma == 0.25 / 0.75

    def test_breakpoints_count_checked(self):
        bench = get_benchmark("trivial")
        with pytest.raises(ValueError, match="breakpoint lists"):
            build_setup(bench, None, 2, breakpoints=[[0.0, 1.0]])

    def test_h_required_without_breakpoints(self):
        bench = get_benchmark("trivial")
        with pytest.raises(ValueError, match="required"):
            build_setup(bench, None, 2)


class TestRunStudy:
    def test_rounding_floor_row_fails_study(self):
        result = run_study("lq", 10, [0.25, 0.125, 0.0625])
        assert [r.status for r in result.rows] == ["converged", "converged", "rounding_floor"]
        assert result.failed

    def test_requires_three_mesh_sizes(self):
        for h_list in ([0.25], [0.25, 0.25, 0.25]):
            with pytest.raises(ValueError, match="insufficient points"):
                run_study("lq", 4, h_list)

    def test_coincident_meshes_rejected(self):
        # 0.3, 0.31 and 0.32 all give 3 intervals: one mesh, three penalty strengths
        with pytest.raises(ValueError, match="insufficient points for order fit"):
            run_study("lq", 2, [0.3, 0.31, 0.32])

    def test_bad_h_fails_before_any_solve(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness, "solve", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="invalid mesh size"):
            run_study("lq", 2, [0.0625, 0.03125, -0.1])
        assert calls == []

    def test_trivial_metrics_at_floor(self):
        result = run_study("trivial", 4, [0.5, 0.25, 0.125])
        assert not result.failed
        assert all(r.residual <= 1e-8 for r in result.rows)
        assert all(abs(r.objective_gap) <= ORDER_FIT_FLOOR for r in result.rows)
        assert result.orders["objective_gap"] is None
        assert result.orders["residual"] is None
        assert any("order fit skipped" in note for note in result.notes)

    def test_notes_name_why_each_fit_was_skipped(self):
        # barrier-pull has no reference cost, so every objective_gap is None,
        # while its residual is identically zero (no constraints)
        result = run_study("barrier-pull", 2, [0.5, 0.25, 0.125])
        assert result.notes == [
            "objective_gap: no reference value; order fit skipped",
            "residual: metric at floor; order fit skipped",
        ]

    def test_lq_coarse_orders(self):
        result = run_study("lq", 4, [0.5, 0.25, 0.125])
        assert not result.failed
        assert result.orders["objective_gap"] >= 0.25
        assert result.orders["residual"] >= 0.25
        for coarse, fine in zip(result.rows, result.rows[1:]):
            assert fine.residual <= coarse.residual
        assert all(r.x_error is not None for r in result.rows)
        assert all(r.wall_time > 0 for r in result.rows)

    def test_rows_follow_input_order(self):
        hs = [0.5, 0.25, 0.125]
        result = run_study("trivial", 3, hs)
        assert [r.h for r in result.rows] == hs

    def test_outputs_written(self, tmp_path, capsys):
        out = tmp_path / "study"
        args = ["study", "--problem", "trivial", "--d", "3", "--h-list", "0.5,0.25,0.125"]
        assert harness.cli_main([*args, "--out", str(out)]) == 0
        csv_text = (out / "study.csv").read_text(encoding="utf-8")
        assert capsys.readouterr().out.startswith(csv_text)
        assert csv_text == study_csv(run_study("trivial", 3, [0.5, 0.25, 0.125]).rows)
        payload = json.loads((out / "study.json").read_text(encoding="utf-8"))
        assert len(payload["rows"]) == 3
        assert payload["rows"][0]["wall_time"] > 0
        assert payload["reports"][0]["status"] == "converged"

    def test_solver_override_propagates(self):
        result = run_study(
            "lq",
            4,
            [0.5, 0.25, 0.125],
            solver_options=SolverOptions(max_iters=1, grad_tol=1e-14),
        )
        assert result.failed
        assert all(r.status == "max_iters" for r in result.rows)


class TestCsv:
    def test_header_and_determinism(self):
        result_a = run_study("trivial", 3, [0.5, 0.25, 0.125])
        result_b = run_study("trivial", 3, [0.5, 0.25, 0.125])
        text_a = study_csv(result_a.rows)
        text_b = study_csv(result_b.rows)
        assert text_a == text_b
        lines = text_a.strip().split("\n")
        assert lines[0] == (
            "h,d,omega,tau,N,M,iterations,objective_gap,residual,x_error,status"
        )
        assert len(lines) == 4
        assert "\r" not in text_a

    def test_missing_metrics_serialize_empty(self):
        result = run_study("barrier-pull", 2, [0.5, 0.25, 0.125])
        line = study_csv(result.rows).strip().split("\n")[1]
        cells = line.split(",")
        assert cells[7] == ""  # no reference cost
        assert cells[9] == ""  # no reference trajectory

    def test_json_mirrors_rows(self):
        result = run_study("trivial", 3, [0.5, 0.25, 0.125])
        payload = json.loads(study_json(result))
        assert [row["h"] for row in payload["rows"]] == [0.5, 0.25, 0.125]
        assert payload["failed"] is False


class TestMixedMeshVariant:
    def test_residual_within_factor_two_of_shared(self):
        shared = run_study("lq", 4, [0.5, 0.25, 0.125])
        mixed = run_study("lq-multimesh", 4, [0.5, 0.25, 0.125])
        assert not shared.failed and not mixed.failed
        r_shared = shared.rows[-1].residual
        r_mixed = mixed.rows[-1].residual
        assert r_mixed <= 2.0 * r_shared


class TestGoldenStudy:
    """Study rows against ``data/study_golden.csv``, recorded from an earlier
    revision, so that a refactor which moves the numbers fails here."""

    EXACT = ("h", "d", "N", "M", "iterations", "status")
    CLOSE = ("omega", "tau", "objective_gap", "residual", "x_error")

    @pytest.mark.parametrize("name", ["lq", "lq-multimesh"])
    def test_rows_match_recorded_study(self, name):
        path = Path(__file__).parent / "data" / "study_golden.csv"
        with path.open(newline="", encoding="utf-8") as fh:
            golden = [row for row in csv.DictReader(fh) if row["problem"] == name]
        result = run_study(name, 4, [0.25, 0.125, 0.0625])
        rows = list(csv.DictReader(study_csv(result.rows).splitlines()))
        assert len(rows) == len(golden) == 3
        for row, ref in zip(rows, golden):
            assert {k: row[k] for k in self.EXACT} == {k: ref[k] for k in self.EXACT}
            for key in self.CLOSE:
                assert float(row[key]) == pytest.approx(float(ref[key]), rel=1e-10, abs=0.0)
